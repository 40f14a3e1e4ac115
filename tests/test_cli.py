import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lll_workbench
from lll_workbench import shearer
from lll_workbench.cli import build_parser, dispatch
from lll_workbench.graphs import DependencyGraph, InputError
from lll_workbench.jsonio import (
    dumps_csv,
    dumps_estimate_csv,
    load_event_system,
    load_graph,
    load_probability_vector,
    parse_fraction,
)
from lll_workbench.mt_engine import RunStats, estimate_expected_steps, trial_seed
from lll_workbench.lattices import grid_unit
from lll_workbench.shearer import ProbabilityVector, ShearerReport, boundary_scale

# a count no structure may be sized by; written out as a JSON integer
HUGE = 10**300


@pytest.fixture
def files(tmp_path):
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"m": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}))
    system = tmp_path / "single_half.json"
    system.write_text(
        json.dumps(
            {
                "variables": [{"kind": "uniform01"}],
                "events": [{"allowed": {"1": {"intervals": [["0", "1/2"]]}}}],
            }
        )
    )
    return {"k3": str(k3), "c4": str(c4), "system": str(system), "dir": tmp_path}


def test_shearer_check_rejects_triangle_boundary(files, capsys):
    code = dispatch(
        ["shearer-check", "--graph", files["k3"], "--p", "1/3,1/3,1/3"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["in_bound"] is False
    assert out["witness"] == []
    assert out["q_values"]["()"] == "0"


def test_shearer_check_prints_a_witness_of_two_vertices(tmp_path, capsys):
    # two disjoint 5-cycles at 3/5: q_0 = 1/25 > 0, and every set of one
    # vertex passes, so the first failing set is (1, 3)
    edges = [(5 * c + k, 5 * c + k % 5 + 1) for c in range(2) for k in range(1, 6)]
    path = tmp_path / "two_c5.json"
    path.write_text(json.dumps({"m": 10, "edges": edges}))
    code = dispatch(["shearer-check", "--graph", str(path), "--p", ",".join(["3/5"] * 10)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["witness"] == [1, 3] and out["q_values"]["()"] == "1/25"


def test_shearer_check_accepts_interior(files, capsys):
    code = dispatch(["shearer-check", "--graph", files["k3"], "--p", "1/4,1/4,1/4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["in_bound"] is True
    assert out["expected_resample_bound"] == "3"


@pytest.mark.parametrize(
    "command,content,message",
    [
        ("shearer-check --graph {bad} --p 1/3", "{nope", "malformed JSON"),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching a-b --delta 1/8 --eps 1/8",
            None,
            "bad matching pair",
        ),
        ("shearer-check --graph {bad} --p 1/3", '{"m": "x", "edges": []}', "bad graph object"),
        (
            "shearer-check --graph {bad} --p 1/3,1/3,1/3",
            '{"m": 3, "edges": [[1, 2, 3]]}',
            "bad graph object",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "uniform01"}], "events": [{"allowed": {"z": {"values": [0]}}}]}',
            "bad variable key",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "uniform01"}], "events": [{"allowed": {"+1": {"values": [0]}}}]}',
            "bad variable key",
        ),
        ("shearer-check --graph {dir} --p 1/3", None, "cannot read"),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2 --system {system} --eps 1/8",
            None,
            "matched pair 1-2",
        ),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": "x", "vars": 1, "edges": []}',
            "bad bipartite graph object",
        ),
        ("shearer-check --graph {bad} --p 1/3", b"\xff\xfe\x7b", "not UTF-8"),
        (
            "shearer-check --graph {bad} --p 1/3,1/3,1/3",
            '{"m": 3, "edges": [[1, 2.0]]}',
            "edge endpoints must be integers",
        ),
        ("shearer-check --graph {bad} --p 1/3,1/3,1/3", '{"m": 3.7, "edges": [[1, 2]]}', "must be integers"),
        ("shearer-check --graph {bad} --p 1/3", '{"m": true, "edges": []}', "must be integers"),
        ("shearer-check --graph {bad} --p 1/3", '{"m": "1", "edges": []}', "must be integers"),
        (
            "shearer-check --bipartite {bad} --p 1/3,1/3,1/3",
            '{"events": 3, "vars": 2, "edges": [[1, 1], [2, 1], [3, 2], [3, 2.5]]}',
            "must be integers",
        ),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": 1, "vars": 1, "edges": [[true, 1]]}',
            "must be integers",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "finite", "masses": ["1/2", "1/2"]}],'
            ' "events": [{"allowed": {"1": {"values": [0.5]}}}]}',
            "must be integers",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "finite", "masses": ["1/2", "1/2"]}],'
            ' "events": [{"allowed": {"1": {"values": [-1]}}}]}',
            "outside 0..1",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "finite", "masses": "1"}], "events": [{"allowed": {"1": {"values": [0]}}}]}',
            "masses must be a list, got str",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "finite", "masses": {"1": 0}}], "events": [{"allowed": {"1": {"values": [0]}}}]}',
            "masses must be a list, got dict",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "finite", "masses": ["1"]}], "events": [{"allowed": {"1": {"values": ""}}}]}',
            "values must be a list, got str",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "uniform01"}], "events": [{"allowed": {"1": {"intervals": ["01"]}}}]}',
            "each interval must be a list of two ends",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "uniform01"}], "events": [{"allowed": {"1": {"intervals": [["0", "1/4", "1/2"]]}}}]}',
            "each interval must be a list of two ends",
        ),
        (
            "mt-run --system {bad}",
            '{"variables": [{"kind": "uniform01"}], "events": [{"allowed": {"1": {"intervals": {"01": 5}}}}]}',
            "intervals must be a list, got dict",
        ),
        ("shearer-check --graph {bad} --p 1/3,1/3,1/3", '{"m": 3, "edges": ""}', "edges must be a list, got str"),
        ("shearer-check --graph {bad} --p 1/3,1/3,1/3", '{"m": 3, "edges": {}}', "edges must be a list, got dict"),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": 1, "vars": 1, "edges": ""}',
            "edges must be a list, got str",
        ),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": 1, "vars": 1, "edges": {"1": 1}}',
            "edges must be a list, got dict",
        ),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": %d, "vars": 1, "edges": [[1, 1]]}' % HUGE,
            "events without variables",
        ),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": 1e300, "vars": 1, "edges": [[1, 1]]}',
            "must be integers",
        ),
        (
            "shearer-check --bipartite {bad} --p 1/3",
            '{"events": 1, "vars": 1e300, "edges": [[1, 1]]}',
            "must be integers",
        ),
        ("gap --graph {c4} --p 3/10,3/10,3/10,3/10 --resolution 0", None, "resolution must be positive"),
        ("gap --graph {c4} --p 1/5,1/5,1/5,1/5 --resolution=-1/8", None, "resolution must be positive"),
        ("gap --graph {c4} --p 3/10,3/10,3/10,3/10 --resolution=", None, "cannot parse rational ''"),
        ("criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1_0-2 --delta 1/8 --eps 1/8", None, "bad matching pair"),
        ("criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching +1-2 --delta 1/8 --eps 1/8", None, "bad matching pair"),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-\u0662 --delta 1/8 --eps 1/8",
            None,
            "bad matching pair",
        ),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2 --delta= --eps 1/8",
            None,
            "cannot parse rational ''",
        ),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2 --delta 1/8 --system {system} --eps 1/8",
            None,
            "either --delta or --system",
        ),
        ("shearer-check --graph {bad} --p 1/4", '{"m": 1' + "0" * 5000 + ', "edges": []}', "malformed JSON in"),
        ("shearer-check --graph {c4} --p [1" + "0" * 5000 + "]", None, "malformed JSON in --p"),
        ("shearer-check --p 1/4", None, "a --graph or --bipartite input is required"),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2,3-4 --delta 1/8 --eps 1/8",
            None,
            "one delta per matching pair required",
        ),
        (
            "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2 --eps 1/8",
            None,
            "need --delta or --system to bound pair intersections",
        ),
    ],
    ids=[
        "json",
        "matching",
        "vertex-count",
        "edge",
        "variable-key",
        "signed-variable-key",
        "directory",
        "unmatched-system",
        "bipartite-count",
        "not-utf8",
        "float-edge",
        "float-count",
        "bool-count",
        "string-count",
        "float-incidence",
        "bool-incidence",
        "float-value",
        "value-range",
        "masses-string",
        "masses-object",
        "values-string",
        "interval-string",
        "interval-three-ends",
        "intervals-object",
        "edges-string",
        "edges-object",
        "incidences-string",
        "incidences-object",
        "huge-events",
        "float-huge-events",
        "float-huge-vars",
        "gap-zero-resolution",
        "gap-negative-resolution",
        "gap-empty-resolution",
        "underscore-matching",
        "signed-matching",
        "non-ascii-matching",
        "empty-delta",
        "delta-and-system",
        "int-digit-limit-file",
        "int-digit-limit-p",
        "no-graph",
        "too-few-deltas",
        "no-delta-or-system",
    ],
)
def test_malformed_json_exits_two(files, capsys, command, content, message):
    bad = files["dir"] / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    argv = command.format(
        bad=bad, c4=files["c4"], dir=files["dir"], system=files["system"]
    ).split()
    started = time.monotonic()
    if isinstance(content, str) and str(HUGE) in content:
        code, out, err = _dispatch_with_memory_limit(argv)
    else:
        code = dispatch(argv)
        out, err = capsys.readouterr()
    assert time.monotonic() - started < 5
    assert code == 2 and out == ""
    assert "input error" in err and message in err


def test_decimal_exponents_past_the_int_digit_limit_exit_two(files, capsys):
    # Fraction builds 10^|e| for a decimal exponent e, so 1e-1000000000
    # would take hours: an exponent whose power has more digits than int()
    # may convert is refused, as a literal of that many digits is
    limit = sys.get_int_max_str_digits()
    assert parse_fraction(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    started = time.monotonic()
    for text in (f"1e-{limit}", "1e-1000000000", "1E+1000000000", "1/1" + "0" * 5000):
        assert dispatch(["shearer-check", "--graph", files["k3"], "--p", f"{text},1/4,1/4"]) == 2
        assert "input error: cannot parse rational" in capsys.readouterr().err
    assert time.monotonic() - started < 5


def _dispatch_with_memory_limit(argv, limit=1 << 30):
    """dispatch(argv) in a fresh interpreter whose address space is capped,
    so a structure sized by a huge count fails there and not in this process.
    Returns the exit code, stdout and stderr."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from lll_workbench.cli import dispatch\n"
        "sys.exit(dispatch(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(lll_workbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=10
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_huge_variable_count_answers_as_the_reached_count(tmp_path, capsys):
    # variables without incidences change nothing, however many are declared
    edges = [[1, 1], [2, 1], [2, 2], [3, 2]]
    huge, reached = tmp_path / "huge.json", tmp_path / "reached.json"
    huge.write_text(json.dumps({"events": 3, "vars": HUGE, "edges": edges}))
    reached.write_text(json.dumps({"events": 3, "vars": 2, "edges": edges}))
    argv = ["shearer-check", "--p", "1/4,1/4,1/4", "--bipartite"]
    started = time.monotonic()
    code, out, _ = _dispatch_with_memory_limit(argv + [str(huge)])
    assert time.monotonic() - started < 5
    assert code == dispatch(argv + [str(reached)]) == 0
    assert out == capsys.readouterr().out


def test_cap_exceeded_exits_three(files, capsys):
    # far beyond the weight-sum node cap: refused before any table is built
    started = time.monotonic()
    code = dispatch(
        ["wdag-sum", "--graph", files["k3"], "--p", "1/4,1/4,1/4", "--node-cap", "1000000000"]
    )
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err
    assert time.monotonic() - started < 5


def test_search_plan_cap_exits_three(files, capsys, monkeypatch):
    # the searches and one-off membership count plan steps alike; K3's
    # full support takes 3
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", 2)
    for argv in (
        ["gap", "--graph", files["k3"], "--p", "1/2,1/3,1/3", "--resolution", "1/256"],
        ["shearer-check", "--graph", files["k3"], "--p", "1/4,1/4,1/4"],
    ):
        assert dispatch(argv) == 3
        assert "cap exceeded: oracle plans capped at 2 steps" in capsys.readouterr().err


def test_zero_slack_beyond_makes_no_minimal_test(tmp_path, capsys, monkeypatch):
    # a 4x4 grid at uniform p just past its boundary (slack 0: p < 1/4):
    # beyond's gap call has stop 0 and returns after the in-bound test, so
    # a budget that holds the membership plan but not the D* test's masks
    # still answers
    g = grid_unit((4, 4))[0]
    hi = boundary_scale(g, ProbabilityVector.uniform(16, 1), Fraction(1, 2**30)).hi
    eps = Fraction(1, 1000)
    scaled = ProbabilityVector.uniform(16, hi)
    plans = []

    class KeptPlan(shearer._Plan):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(shearer, "_Plan", KeptPlan)
        assert not shearer.shearer_membership(g, scaled.values)
        shearer.gap(g, scaled)
    member, minimal = (len(plan.values) - 1 for plan in plans)
    assert member < minimal
    monkeypatch.setattr(shearer, "MAX_PLAN_STEPS", member)
    with pytest.raises(shearer.CapExceeded):
        shearer.gap(g, scaled)
    argv = ["beyond", "--graph", _graph_file(tmp_path, "grid", g), "--p", _p_arg([hi / (1 + eps)] * 16), "--eps", "1/1000"]
    assert dispatch(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["evidence"] == "out-of-region-with-zero-slack"
    assert out["details"]["threshold_545"] == "0"


def _graph_file(tmp_path, name, g):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"m": g.m, "edges": sorted(g.edges)}))
    return str(path)


def _path_graph(n):
    return DependencyGraph.from_edges(n, [(k, k + 1) for k in range(1, n)])


def _p_arg(values):
    return ",".join(f"{v.numerator}/{v.denominator}" for v in values)


def _plan_cap_within_memory(argv, limit):
    """dispatch(argv) under an address-space limit: it must exit 3 at the
    oracle's plan cap, promptly and without running out of memory."""
    started = time.monotonic()
    code, out, err = _dispatch_with_memory_limit(argv, limit)
    assert time.monotonic() - started < 10
    assert code == 3 and out == "", err
    assert err == "cap exceeded: oracle plans capped at 500000 steps\n"


def test_plan_budget_refuses_a_huge_graph_before_any_mask(tmp_path):
    # 50,000 isolated vertices: their closed masks alone would take about
    # 167 MB, more than the child's 128 MB, and each mask is charged 94 steps
    m = 50_000
    path = _graph_file(tmp_path, "edgeless", DependencyGraph(m, frozenset()))
    started = time.monotonic()
    _plan_cap_within_memory(["shearer-check", "--graph", path, "--p", ",".join(["1"] * m)], 1 << 27)
    assert time.monotonic() - started < 5


#: the 25 largest primes below 2^64, as 2^64 minus these
_PRIMES_BELOW_2_64 = (
    59, 83, 95, 179, 189, 257, 279, 323, 353, 363, 425, 453, 503,
    743, 825, 843, 845, 897, 899, 935, 945, 1023, 1025, 1077, 1079,
)


def test_gap_over_a_wide_denominator_exits_three_within_memory(tmp_path):
    # a 5x5 grid just past its boundary, each entry rounded up over its own
    # 64-bit prime (a 1,640-bit common denominator with the pendant's
    # 10^-12): about 27 steps a mask, so the walk stops near 100 MB
    grid, _ = grid_unit((5, 5))
    hi = boundary_scale(grid, ProbabilityVector.uniform(25, 1), Fraction(1, 2**30)).hi
    primes = [2**64 - k for k in _PRIMES_BELOW_2_64]
    values = [Fraction(-(-hi.numerator * q // hi.denominator), q) for q in primes] + [Fraction(1, 10**12)]
    g = DependencyGraph.from_edges(26, sorted(grid.edges) + [(1, 26)])
    path = _graph_file(tmp_path, "pendant", g)
    _plan_cap_within_memory(["gap", "--graph", path, "--p", _p_arg(values)], 1 << 29)


@pytest.mark.parametrize("boundary_of", [1100, 1200])
def test_gap_on_a_long_path_exits_three_within_memory(tmp_path, boundary_of):
    # P_1200 at the hi of P_1100's 2^-40 bracket walks connected sets, and at
    # its own, the memberships of every P_1200 - v: each is charged 32 or
    # 29 steps a mask
    scale = boundary_scale(_path_graph(boundary_of), ProbabilityVector.uniform(boundary_of, 1), Fraction(1, 2**40))
    path = _graph_file(tmp_path, "p1200", _path_graph(1200))
    _plan_cap_within_memory(["gap", "--graph", path, "--p", _p_arg([scale.hi] * 1200)], 1 << 29)


@pytest.mark.parametrize(
    "name,g,inside",
    [
        ("grid4x30", grid_unit((4, 30))[0], Fraction(1, 10)),
        ("grid12x12", grid_unit((12, 12))[0], Fraction(1, 10)),
        ("p1200", _path_graph(1200), Fraction(1, 5)),
    ],
)
def test_graphs_over_thirty_vertices_answer(tmp_path, capsys, name, g, inside):
    path = _graph_file(tmp_path, name, g)
    started = time.monotonic()
    assert dispatch(["shearer-check", "--graph", path, "--p", ",".join([str(inside)] * g.m)]) == 0
    assert json.loads(capsys.readouterr().out)["in_bound"] is True
    argv = ["boundary", "--graph", path, "--p", ",".join(["1"] * g.m), "--resolution", "1/1048576"]
    assert dispatch(argv) == 0
    bracket = json.loads(capsys.readouterr().out)
    assert inside < Fraction(bracket["lo"]) < Fraction(bracket["hi"]) < 2 * inside
    assert time.monotonic() - started < 5


def test_results_past_the_int_digit_limit_are_written(tmp_path):
    # 200 isolated vertices at 10^-25: q_0 = (1 - 10^-25)^200 has a 5,001-digit
    # denominator, past the 4,300 digits str() writes of an int by default
    m = 200
    path = _graph_file(tmp_path, "edgeless", DependencyGraph(m, frozenset()))
    code, out, err = _dispatch_with_memory_limit(["shearer-check", "--graph", path, "--p", ",".join(["1e-25"] * m)])
    assert (code, err) == (0, "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = str(Fraction(10**25 - 1, 10**25) ** m)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert json.loads(out)["q_values"]["()"] == expected
    assert len(expected.partition("/")[2]) == 5001


def test_trial_cap_exits_three_promptly(files):
    # refused before any per-trial row exists; the address-space limit turns
    # a list of 10^10 rows into a failure of the child, not of the machine
    argv = ["mt-estimate", "--system", files["system"], "--trials", "10000000000", "--seed", "7"]
    started = time.monotonic()
    code, out, err = _dispatch_with_memory_limit(argv)
    assert time.monotonic() - started < 5
    assert code == 3 and out == ""
    assert "cap exceeded: estimates capped at 1000000 trials" in err


def _edgeless_wdag_sum(tmp_path, *flags):
    """wdag-sum on 50,000 isolated vertices, whose closed masks alone take
    about m^2/15 = 167 MB, more than the child's 128 MB address space: it
    must exit 3 within 5 s, before any mask exists."""
    m = 50_000
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"m": m, "edges": []}))
    started = time.monotonic()
    code, out, err = _dispatch_with_memory_limit(
        ["wdag-sum", "--graph", str(path), "--p", ",".join(["1"] * m), *flags], limit=1 << 27
    )
    assert time.monotonic() - started < 5
    assert code == 3 and out == ""
    assert "cap exceeded: weight-sum DP capped at 100000 states" in err


def test_wdag_sum_state_cap_fires_before_the_closed_masks(tmp_path):
    # 50,000 DP states of 6 entries each
    _edgeless_wdag_sum(tmp_path)


def test_wdag_sum_state_cap_charges_each_state_its_mask(tmp_path):
    # 50,000 states of one entry fit the cap, but each state's mask takes
    # ceil(50,000/64) = 782 words
    _edgeless_wdag_sum(tmp_path, "--node-cap", "1")


def test_wdag_sum_state_cap_exits_three_promptly(files, capsys):
    # the centre of a 20-vertex star sees 2^19 independent sets of leaves
    star = files["dir"] / "star.json"
    star.write_text(json.dumps({"m": 20, "edges": [[1, k] for k in range(2, 21)]}))
    started = time.monotonic()
    code = dispatch(
        ["wdag-sum", "--graph", str(star), "--p", ",".join(["1/100"] * 20), "--node-cap", "20"]
    )
    assert code == 3
    assert "states" in capsys.readouterr().err
    assert time.monotonic() - started < 5


def _stable_set_sequence_counts(m, edges, cap):
    """Sequences of nonempty independent sets I_1 = {i}, I_{k+1} inside the
    closed neighbourhood of I_k, counted by their total size."""
    closed = {v: {v} for v in range(1, m + 1)}
    for a, b in edges:
        closed[a].add(b)
        closed[b].add(a)

    def independent(vs):
        return all(b not in closed[a] for a, b in combinations(vs, 2))

    counts = {n: 0 for n in range(1, cap + 1)}

    def extend(layer, used):
        counts[used] += 1
        reach = sorted(set().union(*(closed[v] for v in layer)))
        for size in range(1, cap - used + 1):
            for nxt in combinations(reach, size):
                if independent(nxt):
                    extend(nxt, used + size)

    for v in range(1, m + 1):
        extend((v,), 1)
    return counts


def test_wdag_sum_beyond_eight_nodes(files, capsys):
    code = dispatch(
        ["wdag-sum", "--graph", files["c4"], "--p", "1/4,1/4,1/4,1/4", "--node-cap", "10"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    counts = _stable_set_sequence_counts(4, [(1, 2), (2, 3), (3, 4), (4, 1)], 10)
    want = {str(n): Fraction(c, 4**n) for n, c in counts.items()}
    assert {k: Fraction(v) for k, v in out["by_size"].items()} == want
    assert Fraction(out["cumulative"]) == sum(want.values())
    assert out["node_cap"] == 10


def test_boundary_and_gap(files, capsys):
    code = dispatch(
        ["boundary", "--graph", files["k3"], "--p", "1,1,1", "--resolution", "1/4096"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(float(Fraction(out["lo"])) - 1 / 3) < 1e-3
    assert Fraction(out["hi"]) - Fraction(out["lo"]) <= Fraction(1, 4096)

    code = dispatch(
        ["gap", "--graph", files["k3"], "--p", "1/2,1/3,1/3", "--resolution", "1/256"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["lower"] != "-1"


def test_gap_with_a_unit_entry_is_exact(files, capsys):
    # the edgeless pair at (1/2, 1): the unit entry alone is outside
    pair = files["dir"] / "e2.json"
    pair.write_text(json.dumps({"m": 2, "edges": []}))
    started = time.monotonic()
    code = dispatch(["gap", "--graph", str(pair), "--p", "1/2,1", "--resolution", "1/4"])
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"lower": "1/2", "upper": "1/2", "resolution": "1/4"}
    # the gap is exact, so beyond takes no resolution
    with pytest.raises(SystemExit) as exc:
        dispatch(["beyond", "--graph", files["c4"], "--p", "3/10,3/10,3/10,3/10", "--eps", "1/1000", "--resolution", "1/64"])
    assert exc.value.code == 2


def test_boundary_checks_the_direction_without_probes(files, capsys):
    # --resolution 5 exceeds the clamp scale 1, so the search makes no probe
    argv = ["boundary", "--graph", files["c4"], "--p", "1,1,1", "--resolution", "5"]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: vector length mismatch" in captured.err


def test_mt_run_and_estimate_csv(files, capsys):
    code = dispatch(
        ["mt-run", "--system", files["system"], "--seed", "7", "--step-cap", "100"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["truncated"] is False

    code = dispatch(
        [
            "mt-estimate", "--system", files["system"],
            "--trials", "50", "--seed", "7", "--format", "csv",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    lines = captured.strip().splitlines()
    assert lines[:4] == ["seed,T,truncated", "7/0,0,false", "7/1,2,false", "7/2,2,false"]
    assert len(lines) == 51


def reference_estimate_csv(est, seed):
    """The estimate's csv through rows and the per-cell writer, as it was
    written before the one-pass writer: the test-only reference."""
    rows = [["seed", "T", "truncated"]]
    for index, t, truncated in est.per_trial:
        rows.append([trial_seed(seed, index), t, str(truncated).lower()])
    return dumps_csv(rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(10**12), 10**12) | st.text(st.sampled_from('ab7/,"\n\r '), max_size=6),
    trials=st.integers(1, 12),
    step_cap=st.integers(1, 4),
)
def test_estimate_csv_matches_the_row_writer(seed, trials, step_cap):
    # the 4-cycle of events truncates some runs at these caps
    system = load_event_system(_GOLDEN_SYSTEMS["overlap"])
    est = estimate_expected_steps(system, "lowest-index", trials, seed, step_cap, workers=1)
    assert dumps_estimate_csv(est, seed) == reference_estimate_csv(est, seed)


def test_estimate_csv_has_truncated_rows_and_writes_to_out(files, capsys):
    system = files["dir"] / "overlap.json"
    system.write_text(json.dumps(_GOLDEN_SYSTEMS["overlap"]))
    argv = ["mt-estimate", "--system", str(system), "--trials", "40", "--seed", 'x,"y', "--step-cap", "1", "--format", "csv"]
    assert dispatch(argv) == 0
    text = capsys.readouterr().out
    assert ",true" in text and ",false" in text
    assert text.startswith('seed,T,truncated\n"x,""y/0",')
    out = files["dir"] / "estimate.csv"
    assert dispatch(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == text


def test_mt_seed_accepts_strings_like_the_api(files, capsys):
    from lll_workbench.jsonio import jsonable, load_event_system
    from lll_workbench.mt_engine import run_mt

    def parsed(seed):
        return build_parser().parse_args(["mt-run", "--system", "s", "--seed", seed]).seed

    assert parsed("7") == 7 and isinstance(parsed("7"), int)
    assert parsed("-3") == -3
    assert parsed("c5/lowest-index") == "c5/lowest-index"
    # only ASCII -?[0-9]+ is an integer; int() would read each of these as a number
    for text in ("1_0", "+7", "\u0663", " 7"):
        assert parsed(text) == text

    with open(files["system"], encoding="utf-8") as handle:
        system = load_event_system(json.load(handle))
    for seed, api_seed in (("c5/lowest-index", "c5/lowest-index"), ("7", 7), ("1_0", "1_0")):
        code = dispatch(["mt-run", "--system", files["system"], "--seed", seed])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        stats = run_mt(system, "lowest-index", api_seed, 1_000_000)
        assert out == json.loads(json.dumps({**jsonable(stats), "T": stats.t}))

    code = dispatch(
        [
            "mt-estimate", "--system", files["system"], "--trials", "3",
            "--seed", "c5/lowest-index", "--format", "csv",
        ]
    )
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [f"c5/lowest-index/{k}" for k in range(3)]


def test_mt_estimate_writes_null_for_undefined_statistics(files, capsys):
    def strict(text):
        raise ValueError(f"{text} is not JSON")

    always = files["dir"] / "always.json"
    always.write_text(
        json.dumps({"variables": [{"kind": "uniform01"}], "events": [{"allowed": {"1": {"intervals": [["0", "1"]]}}}]})
    )
    # one trial has no standard error; a batch of truncated runs has no mean
    for argv, mean in (
        (["--system", files["system"], "--trials", "1", "--seed", "7"], 0.0),
        (["--system", str(always), "--trials", "3", "--seed", "7", "--step-cap", "2"], None),
    ):
        assert dispatch(["mt-estimate", *argv]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert out["mean"] == mean and out["stderr"] is None


@pytest.mark.parametrize("threads", ["abc", "1.5", ""])
def test_thread_count_must_be_an_integer(files, capsys, monkeypatch, threads):
    monkeypatch.setenv("LLL_WORKBENCH_THREADS", threads)
    argv = ["mt-estimate", "--system", files["system"], "--trials", "5", "--seed", "7"]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: LLL_WORKBENCH_THREADS must be an integer" in captured.err


def test_thread_counts_below_two_run_serially(files, capsys, monkeypatch):
    argv = ["mt-estimate", "--system", files["system"], "--trials", "5", "--seed", "7"]
    outputs = []
    for threads in ("1", "0", "-3"):
        monkeypatch.setenv("LLL_WORKBENCH_THREADS", threads)
        assert dispatch(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_mt_estimate_mean_near_one(files, capsys):
    code = dispatch(
        ["mt-estimate", "--system", files["system"], "--trials", "4000", "--seed", "7"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["mean"] - 1.0) < 0.08


def test_wdag_sum_csv(files, capsys):
    code = dispatch(
        [
            "wdag-sum", "--graph", files["c4"], "--p", "1/4,1/4,1/4,1/4",
            "--node-cap", "3", "--format", "csv",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert captured == "size,sum,cumulative\n1,1,1\n2,3/4,7/4\n3,5/8,19/8\n"


@pytest.mark.parametrize(
    "command",
    [
        "shearer-check --graph {k3} --p 1/4,1/4,1/4",
        "boundary --graph {k3} --p 1,1,1",
        "gap --graph {k3} --p 1/2,1/3,1/3",
        "mt-run --system {system}",
        "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2 --delta 1/8 --eps 1/10",
        "beyond --graph {c4} --p 1/4,1/4,1/4,1/4 --eps 1/100",
        "lattice-gap --lattice square --pa 0.1193",
    ],
    ids=lambda command: command.split()[0],
)
def test_format_only_where_rows_exist(files, capsys, command):
    # only mt-estimate and wdag-sum produce rows; elsewhere argparse rejects
    # the flag before anything runs
    with pytest.raises(SystemExit) as exc:
        dispatch(command.format(**files).split() + ["--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_readme_commands_parse():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("## Command line")
    block = lines[lines.index("```sh", start) + 1 : lines.index("```", start)]
    commands = [shlex.split(line)[1:] for line in block if line.startswith("lll-workbench ")]
    assert len(commands) == len(block) > 0
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).fn.__name__ == "cmd_" + argv[0].replace("-", "_")


def test_criterion_verdict_roundtrip(files, capsys):
    code = dispatch(
        [
            "criterion", "--graph", files["c4"], "--p", "1/4,1/4,1/4,1/4",
            "--matching", "1-2", "--delta", "1/8", "--eps", "1/10",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["accepted"] is True
    assert out["bound_on_expected_steps"] == "40"
    assert out["details"]["delta_source"] == "user"


def test_beyond_reports_both_thresholds(files, capsys):
    code = dispatch(
        ["beyond", "--graph", files["c4"], "--p", "1/4,1/4,1/4,1/4", "--eps", "1/100"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "threshold_544" in out["details"]
    assert "threshold_545" in out["details"]


@pytest.mark.parametrize("n", [8, 10])
def test_beyond_just_past_the_boundary_answers(files, capsys, n):
    # uniform p at the boundary bracket's upper end is minimally outside C_n,
    # so the gap is exact and no box search runs (which needed 500,000 boxes)
    cycle = files["dir"] / f"c{n}.json"
    cycle.write_text(json.dumps({"m": n, "edges": [[k, k % n + 1] for k in range(1, n + 1)]}))
    g = load_graph(json.loads(cycle.read_text()))
    hi = shearer.boundary_scale(g, shearer.ProbabilityVector.uniform(n, 1), Fraction(1, 2**30)).hi
    started = time.monotonic()
    code = dispatch(["beyond", "--graph", str(cycle), "--p", ",".join([str(hi)] * n), "--eps", "1/1000000000"])
    elapsed = time.monotonic() - started
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["evidence"] == "gap-below-cycle-slack"
    lower, upper = out["details"]["gap"]
    assert lower == upper == out["details"]["gap_lower_witness"]
    assert elapsed < 1.0


def test_lattice_gap_square(files, capsys):
    code = dispatch(["lattice-gap", "--lattice", "square", "--pa", "0.1193"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["q_float"] - 1.841e-22) < 5e-25
    assert out["unit_diameter"] == 8


def test_output_bytes_are_stable(files, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for target in (out1, out2):
        assert (
            dispatch(
                [
                    "shearer-check", "--graph", files["c4"],
                    "--p", "1/4,1/4,1/4,1/4", "--out", str(target),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


# Exit code and sha256 of stdout per command, recorded from the hand-built
# payloads the CLI wrote before it passed result objects to jsonable: the
# README commands but selftest, accepted and rejected verdicts, a coarse and
# a skewed boundary bracket, the gap's -1 marker, mixed uniform/finite runs
# with a string seed and with truncation, and by-size keys of 10 and more,
# whose string order differs from their numeric order. The beyond and
# lattice-gap digests are those of the enclosures from the integer roots,
# with the summed slack and the lattice gap rounded outward to multiples of
# 2^-200, and the gap of a minimally-outside vector is exact.
_GOLDEN = [
    ("readme-shearer-check", "shearer-check --graph {k3} --p 1/3,1/3,1/3",
     1, "1b4306ed64ae4f10e9d56f0d9786df590ca8f88740f1ddd9c5e0563589e7a2ee"),
    ("readme-boundary", "boundary --graph {c4} --p 1,1,1,1 --resolution 1/4096",
     0, "3bff0221286bfd7e483b178c163f261bf02ea94a419b68f4fbf02c48d49f6bb4"),
    ("readme-gap", "gap --graph {k3} --p 1/2,1/3,1/3 --resolution 1/256",
     0, "a0a7d4b969680e4df59f2f61c6ee0a4fb3f90c4edd9552ad13865338b3b32f75"),
    ("readme-mt-run", "mt-run --system {system} --seed 7",
     0, "9a3f2017b6d5f281595a91a341a6c2fbe723eedef8ea07c36e70dafe55b3ae59"),
    ("readme-mt-estimate-csv", "mt-estimate --system {system} --trials 100000 --seed 7 --format csv",
     0, "4dc5773eca51f2207eb8e8aa16211d3cb6734a6c8d5c2442365eb7af4dfd7f53"),
    ("readme-wdag-sum", "wdag-sum --graph {c4} --p 1/4,1/4,1/4,1/4 --node-cap 5",
     0, "398d4d389c45eb6b8bc60ffaef1b7c9b13062d2715655dc54454d8e8b8170a63"),
    ("readme-criterion", "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2,3-4 --delta 1/8,1/8 --eps 1/8",
     0, "91da8f11cd007b363ed50d858a0368844bfc8aa77b7c8e923e646d5181db7721"),
    ("readme-beyond", "beyond --graph {c4} --p 0.27,0.27,0.27,0.36 --eps 1/1000000000",
     0, "441a3f339b9601e75ed1815ae5e7845cdddb55fb6ea06d0b8106a14e459ba18f"),
    ("readme-lattice-gap", "lattice-gap --lattice square --pa 0.1193",
     0, "b5540de084745b00f0c636df6b78bd2801140021f36f1511046d1ffe9604d3e5"),
    ("shearer-check-accepted", "shearer-check --graph {c4} --p 1/4,1/4,1/5,1/6",
     0, "6f44830ed088035fabfb3ef7d19e7f7bf493a450352b38617a92809b3eed733c"),
    ("shearer-check-rejected-c4", "shearer-check --graph {c4} --p 1/2,1/2,1/3,1/2",
     1, "5f88e355716f567ea99195f65921d3b6b96d2a074e7441902246e7efae7dcd86"),
    ("boundary-coarse", "boundary --graph {c4} --p 1,1,1,1 --resolution 5",
     0, "e8cd459995a77adee6654632c8233e78138fa8c47c8692e687d1c9907bd8d0d8"),
    ("boundary-direction", "boundary --graph {k3} --p 1/2,1/3,1 --resolution 1/64",
     0, "5d2fe2439a909768e3739800e6e994dc3a80ac8f9ac505756e89599153887d5f"),
    ("gap-in-bound", "gap --graph {c4} --p 1/5,1/5,1/5,1/5 --resolution 1/64",
     0, "df21f2461c710a0e12164cbfa4a9406bc517b1398eeb5d5d85653a5c636bdb21"),
    ("gap-c4", "gap --graph {c4} --p 3/10,3/10,3/10,3/10 --resolution 1/64",
     0, "48148762d7429e46bb65a86aa691cce0b81ecd91f6fdc89e0bfe2733934793ed"),
    ("mt-run-mixed-string-seed", "mt-run --system {mixed} --seed mixed/run --rule uniform-violated",
     0, "abcb3c01dccb849ea1bf0408423bf793d44db9719d793cbec645dbf6e09432c5"),
    ("mt-run-truncated", "mt-run --system {overlap} --seed 0 --step-cap 1",
     0, "1d77082a1a025eb9771a4465f1b196284b06c7c69ee33e09166ac3e9b9a06372"),
    ("mt-estimate-json", "mt-estimate --system {mixed} --trials 50 --seed 11",
     0, "691cd3ad725c2f482bad793edbf864c74e5ad50a7b0db86ff8894a5222f9dc8c"),
    ("wdag-sum-csv", "wdag-sum --graph {c4} --p 1/4,1/4,1/4,1/4 --node-cap 12 --format csv",
     0, "83ef10c395f3258976d6dc0f52b9da3b35988ba482682e50d1e2a399ba2cf1e0"),
    ("wdag-sum-twelve", "wdag-sum --graph {k3} --p 1/5,1/6,1/7 --node-cap 12",
     0, "d176c81136eb8e18183895412a3d137169717d1a212fabaf8a5fd850c24e3c62"),
    ("criterion-measured", "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2,3-4 --system {overlap} --eps 1/8",
     0, "674fc1e5900f11194fac8c7dfb200b3ad20feae901fd5d0c77db9e84cf2d36ff"),
    ("criterion-rejected", "criterion --graph {c4} --p 1/2,1/2,1/2,1/2 --matching 1-2,3-4 --delta 1/8,1/8 --eps 1/8",
     1, "155daf57378b4c096e2da9b4e8d5262db52b0800cb2f32795ab25195f15de8e1"),
    ("beyond-inside", "beyond --graph {c4} --p 1/4,1/4,1/4,1/4 --eps 1/8",
     0, "9fbbfa82e872b04cf7cf8d69fdcd3a9e04a9428fb7aac4be8a42307d1b21552a"),
    ("beyond-gap-resolution", "beyond --graph {c4} --p 3/10,3/10,3/10,3/10 --eps 1/1000",
     1, "fc84b8cbcc9c783ef66420f43edd2c9d527e4d28424b97c19d23ce7cd8ea0c3b"),
    ("lattice-gap-hexagonal", "lattice-gap --lattice hexagonal --pa 0.1547",
     0, "6d342a226a3934adbebf5c29932b45d2c335edf669739c6cf05783298f35e8dc"),
    ("lattice-gap-cubic", "lattice-gap --lattice cubic --pa 0.1",
     0, "634c47dadf92daa133bc5059c7a82c41a2230907d7c5c04fb524984844ccb082"),
    # csv quoting of a string seed holding a comma and a double quote
    ("mt-estimate-csv-string-seed", 'mt-estimate --system {system} --trials 50 --seed a,"b --format csv',
     0, "08c0a07db763f758efdd2e04515bc95b59a2027211c776c63305a353ec637a20"),
]


_HALF = [["0", "1/2"]]
_GOLDEN_SYSTEMS = {
    "mixed": {
        "variables": [
            {"kind": "uniform01"},
            {"kind": "finite", "masses": ["1/3", "1/3", "1/3"]},
            {"kind": "uniform01"},
        ],
        "events": [
            {"allowed": {"1": {"intervals": _HALF}, "2": {"values": [0]}}},
            {"allowed": {"2": {"values": [1, 2]}, "3": {"intervals": [["1/4", "3/4"]]}}},
            {"allowed": {"3": {"intervals": [["0", "1/3"]]}}},
        ],
    },
    # the 4-cycle of events on shared uniform variables
    "overlap": {
        "variables": [{"kind": "uniform01"}] * 4,
        "events": [
            {"allowed": {str(i): {"intervals": _HALF}, str(i % 4 + 1): {"intervals": _HALF}}}
            for i in range(1, 5)
        ],
    },
}


@pytest.mark.parametrize(
    "command,code,digest", [case[1:] for case in _GOLDEN], ids=[case[0] for case in _GOLDEN]
)
def test_golden_output_bytes(files, capsys, command, code, digest):
    paths = dict(files)
    for name, system in _GOLDEN_SYSTEMS.items():
        paths[name] = files["dir"] / f"{name}.json"
        paths[name].write_text(json.dumps(system))
    assert dispatch(command.format(**paths).split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# one parser per process: dispatch builds it at its first call and reuses it

def test_dispatch_adds_no_argument_after_its_first_call(files, capsys, monkeypatch):
    dispatch(["shearer-check", "--graph", files["k3"], "--p", "1/4,1/4,1/4"])
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    for argv in (
        ["shearer-check", "--graph", files["c4"], "--p", "1/4,1/4,1/4,1/4"],
        ["mt-run", "--system", files["system"], "--seed", "7"],
        ["lattice-gap", "--lattice", "square", "--pa", "0.1193"],
        ["shearer-check", "--graph", str(files["dir"] / "missing.json"), "--p", "1/4"],
    ):
        dispatch(argv)
    with pytest.raises(SystemExit):
        dispatch(["gap"])
    with pytest.raises(SystemExit):
        dispatch(["boundary", "--help"])
    # the spy works: a fresh parser calls it for every argument
    assert not added
    build_parser()
    assert len(added) > 20


def test_golden_commands_in_reverse_between_errors(files, capsys):
    paths = dict(files)
    for name, system in _GOLDEN_SYSTEMS.items():
        paths[name] = files["dir"] / f"{name}.json"
        paths[name].write_text(json.dumps(system))
    missing = str(files["dir"] / "missing.json")
    for _, command, code, digest in reversed(_GOLDEN):
        with pytest.raises(SystemExit) as exc:
            dispatch(["gap"])
        assert exc.value.code == 2
        assert dispatch(["shearer-check", "--graph", missing, "--p", "1/4"]) == 2
        capsys.readouterr()
        assert dispatch(command.format(**paths).split()) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _exit_text(parse, argv):
    """Exit code, stdout and stderr of parse(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["80", "40"])
def test_help_and_errors_match_a_fresh_parser(monkeypatch, columns):
    # the width is read when the text is formatted, not when the parser is built
    monkeypatch.setenv("COLUMNS", columns)
    fresh = build_parser()
    commands = sorted(next(a for a in fresh._actions if a.choices).choices)
    assert len(commands) == 10
    argvs = [["--help"], [], ["nope"], ["gap"], ["mt-run", "--system", "s", "--step-cap", "x"]]
    argvs += [[command, "--help"] for command in commands]
    for argv in argvs:
        want = _exit_text(fresh.parse_args, argv)
        assert want[0] in (0, 2) and (want[1] or want[2])
        # twice: formatting leaves nothing behind on the shared parser
        assert _exit_text(dispatch, argv) == _exit_text(dispatch, argv) == want


@pytest.mark.parametrize("command", ["mt-run", "mt-estimate"])
def test_an_unknown_rule_is_an_input_error_that_names_the_rules(files, capsys, command):
    # the engine checks rule names, so the parser takes any string
    assert dispatch([command, "--system", files["system"], "--rule", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: unknown selection rule 'x'; choose from ")
    for rule in ("lowest-index", "uniform-violated", "recent-neighbor"):
        assert rule in captured.err


def test_out_to_an_unwritable_path_exits_two(files, capsys):
    argv = ["shearer-check", "--graph", files["c4"], "--p", "1/4,1/4,1/4,1/4", "--out"]
    for target in (files["dir"] / "no-such-dir" / "x.json", files["dir"]):
        assert dispatch(argv + [str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot write {target}: ")
    assert not (files["dir"] / "no-such-dir").exists()


def test_p_accepts_json(files, capsys):
    argv = ["shearer-check", "--graph", files["c4"], "--p"]
    assert dispatch(argv + ["1/4,1/4,1/5,1/6"]) == 0
    want = capsys.readouterr().out
    for text in (
        '{"p": ["1/4", "1/4", "1/5", "1/6"]}',
        ' ["0.25", "1/4", "0.2", "1/6"]',
        '{"note": "x", "p": ["1/4", "1/4", "1/5", "1/6"]}',
    ):
        assert dispatch(argv + [text]) == 0
        assert capsys.readouterr().out == want
    for text, message in (
        ('{"p": ["1/4", ', "malformed JSON in --p"),
        ("[" * 100_000, "malformed JSON in --p"),
        ('{"p": 5}', "must be a list, got int"),
        ('{"p": "1/4,1/4,1/5,1/6"}', "must be a list, got str"),
        ('{"q": []}', "needs a 'p' list"),
        ('[0.25, "1/4", "1/5", "1/6"]', "cannot parse rational"),
    ):
        assert dispatch(argv + [text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")
        assert message in captured.err
    with pytest.raises(InputError, match="must be a list, got int"):
        load_probability_vector(5)


def test_deeply_nested_json_file_exits_two(files, capsys):
    deep = files["dir"] / "deep.json"
    deep.write_text("[" * 100_000)
    assert dispatch(["shearer-check", "--graph", str(deep), "--p", "1/4"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@st.composite
def _valid_pvecs(draw):
    entries = draw(st.lists(st.sampled_from(["1/4", "1/8", "0.2", "0"]), min_size=4, max_size=4))
    return draw(st.sampled_from([{"p": entries}, entries]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_json_p_exits_with_a_code(tmp_path_factory, data):
    c4 = tmp_path_factory.mktemp("fuzz") / "c4.json"
    c4.write_text(json.dumps({"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}))
    p = json.dumps(data.draw(_corrupted(_valid_pvecs())))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        # attached with "=", so that a document such as -1.2e-26 reaches the
        # loader instead of being read by argparse as an option
        code = dispatch(["shearer-check", "--graph", str(c4), f"--p={p}"])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("input error") and out.getvalue() == ""


def _loaded_by_importing_cli(names, argvs=()):
    """Those of the modules names that a fresh interpreter holds after
    `import lll_workbench.cli` and a dispatch of each of argvs, which must
    exit 0."""
    script = (
        "import contextlib, io, json, sys, lll_workbench.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lll_workbench.cli.dispatch(argv) == 0, argv\n"
        f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"
    )
    src = os.path.dirname(os.path.dirname(lll_workbench.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_the_acceptance_suite_unloaded():
    assert _loaded_by_importing_cli(["lll_workbench.acceptance"]) == []


def test_import_leaves_mpmath_and_the_process_pool_unloaded():
    # only an estimate with two or more workers starts a pool
    assert _loaded_by_importing_cli(["mpmath", "concurrent.futures.process"]) == []


def test_beyond_and_lattice_gap_leave_mpmath_unloaded(files):
    # the two commands that print root enclosures take them in integers
    argvs = [
        ["beyond", "--graph", files["c4"], "--p", "0.27,0.27,0.27,0.36", "--eps", "1/1000000000"],
        ["lattice-gap", "--lattice", "square", "--pa", "0.1193"],
    ]
    assert _loaded_by_importing_cli(["mpmath"], argvs) == []


def test_selftest_writes_its_lines_to_out(tmp_path, capsys, monkeypatch):
    from lll_workbench import acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda: [acceptance.CheckResult("1", True, "ok", 0.5)])
    out = tmp_path / "selftest.txt"
    assert dispatch(["selftest", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "[PASS] criterion 1 (0.5s): ok\nselftest: all passed\n"


def test_selftest_reports_the_acceptance_results(capsys, monkeypatch):
    from lll_workbench import acceptance

    results = [
        acceptance.CheckResult("1", True, "ok", 0.5),
        acceptance.CheckResult("2", False, "off", 1.0),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    assert dispatch(["selftest"]) == 1
    assert capsys.readouterr().out == (
        "[PASS] criterion 1 (0.5s): ok\n"
        "[FAIL] criterion 2 (1.0s): off\n"
        "selftest: FAILURES\n"
    )


# ---------------------------------------------------------------------------
# the per-type renderers jsonable replaced, kept as reference oracles

def fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def _jsonable(value):
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, dict):
        return {_key_str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_jsonable(v) for v in items]
    return value


def _key_str(key) -> str:
    if isinstance(key, (tuple, frozenset)):
        return ",".join(str(part) for part in sorted(key)) if key else "()"
    return str(key)


def run_stats_to_dict(stats: RunStats) -> dict:
    return {
        "T": stats.t,
        "truncated": stats.truncated,
        "sequence": list(stats.sequence),
        "final_assignment": {
            str(j): _jsonable(v) for j, v in sorted(stats.final_assignment.items())
        },
        "per_event_counts": {
            str(i): c for i, c in sorted(stats.per_event_counts.items())
        },
    }


def shearer_report_to_dict(report: ShearerReport) -> dict:
    return {
        "in_bound": report.in_bound,
        "q_values": {_key_str(k): fraction_str(v) for k, v in report.q_values.items()},
        "witness": list(report.witness) if report.witness is not None else None,
    }


# negative and integer values included
_fractions = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**6))
# up to 12 keys, so "10" and "11" sort before "2"
_indices = st.integers(1, 12)


@st.composite
def _shearer_reports(draw):
    # index sets of size 0, 1 and 2 or more, as the oracle's keys are sorted
    sets = st.lists(_indices, max_size=4, unique=True).map(lambda vs: tuple(sorted(vs)))
    q_values = draw(st.dictionaries(sets, _fractions, max_size=8))
    witness = draw(st.none() | sets)
    return ShearerReport(draw(st.booleans()), q_values, witness)


@st.composite
def _run_stats(draw):
    # uniform variables end on a rational, finite ones on an integer value
    final = draw(st.dictionaries(_indices, _fractions | st.integers(0, 9), max_size=12))
    counts = draw(st.dictionaries(_indices, st.integers(1, 50), max_size=12))
    return RunStats(draw(st.lists(_indices).map(tuple)), draw(st.booleans()), final, counts)


def _same_json(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(
    report=_shearer_reports(),
    stats=_run_stats(),
)
def test_jsonable_matches_the_per_type_renderers(report, stats):
    from lll_workbench.jsonio import jsonable

    assert _same_json(jsonable(report), shearer_report_to_dict(report))
    assert _same_json({**jsonable(stats), "T": stats.t}, run_stats_to_dict(stats))


def test_bipartite_input_derives_dependency_graph(files, tmp_path, capsys):
    bip = tmp_path / "evg.json"
    # edge-variable graph of the 4-cycle: base graph is the 4-cycle again
    bip.write_text(
        json.dumps(
            {
                "events": 4,
                "vars": 4,
                "edges": [[1, 1], [2, 1], [2, 2], [3, 2], [3, 3], [4, 3], [4, 4], [1, 4]],
            }
        )
    )
    code = dispatch(["shearer-check", "--bipartite", str(bip), "--p", "1/4,1/4,1/4,1/4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["in_bound"] is True


def test_graph_and_bipartite_conflict(files, capsys):
    code = dispatch(
        [
            "shearer-check", "--graph", files["k3"],
            "--bipartite", files["k3"], "--p", "1/3,1/3,1/3",
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# fuzzing the JSON loaders through dispatch

# Numbers stay small: a count is a size the bipartite graph allocates for
# before any other check, so a count like 1e300 exhausts memory instead of
# exiting (see CHANGES.md); the fuzz is about malformed values, not large ones.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.floats(-2, 9)
    | st.sampled_from(["", "x", "1/2", "0", "1", "-1/3", "2/0", "1e3", "0.25"])
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _valid_graphs(draw):
    edges = draw(st.lists(st.sampled_from([[1, 2], [1, 3], [2, 3]]), max_size=4))
    return {"m": 3, "edges": edges}


@st.composite
def _valid_bipartites(draw):
    variables = draw(st.integers(1, 3))
    edges = [[i, j] for i in (1, 2, 3) for j in draw(st.sets(st.integers(1, variables), min_size=1))]
    return {"events": 3, "vars": variables, "edges": edges}


@st.composite
def _valid_systems(draw):
    finite = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    upper = st.sampled_from(["1/4", "1/2", "3/4", "1"])
    events = []
    for _ in range(draw(st.integers(2, 3))):
        vbl = sorted(draw(st.sets(st.integers(1, len(finite)), min_size=1)))
        events.append(
            {
                "allowed": {
                    str(j): {"values": [0]} if finite[j - 1] else {"intervals": [["0", draw(upper)]]}
                    for j in vbl
                }
            }
        )
    variables = [{"kind": "finite", "masses": ["1/2", "1/2"]} if f else {"kind": "uniform01"} for f in finite]
    return {"variables": variables, "events": events}


def _near(x):
    """Values next to x: another type, or for an integer, off the integers."""
    near = [str(x), [x], None]
    if isinstance(x, int):
        near += [float(x), x + 0.5, -x, 0]
    return st.sampled_from(near)


def _values(x):
    """x and every value inside it, depth first."""
    yield x
    for v in x.values() if isinstance(x, dict) else x if isinstance(x, list) else ():
        yield from _values(v)


@st.composite
def _corrupted(draw, valid):
    """A valid object with one of its values, or none, replaced by a value
    near it or by a random JSON value (the first value is the whole object)."""
    obj = draw(valid)
    target = draw(st.integers(0, len(list(_values(obj)))))
    seen = -1

    def walk(x):
        nonlocal seen
        seen += 1
        if seen == target:
            return draw(_near(x) | _json_values)
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    return walk(obj)


_fuzz_cases = {
    "graph": (["shearer-check", "--p", "1/4,1/4,1/4", "--graph"], _valid_graphs()),
    "bipartite": (["shearer-check", "--p", "1/4,1/4,1/4", "--bipartite"], _valid_bipartites()),
    "system": (["mt-run", "--step-cap", "40", "--system"], _valid_systems()),
    "criterion": (
        ["criterion", "--p", "1/4,1/4,1/4,1/4", "--matching", "1-2", "--eps", "1/8", "--system"],
        _valid_systems(),
    ),
}


@pytest.mark.parametrize("kind", sorted(_fuzz_cases))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_exit_with_a_code(tmp_path_factory, kind, data):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "input.json"
    path.write_text(json.dumps(data.draw(_corrupted(_fuzz_cases[kind][1]))))
    c4 = folder / "c4.json"
    c4.write_text(json.dumps({"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}))
    argv = _fuzz_cases[kind][0] + [str(path)]
    if kind == "criterion":
        argv += ["--graph", str(c4)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("input error")
