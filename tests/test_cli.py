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
from lll_workbench.cli import build_parser, dispatch

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
        "huge-events",
        "float-huge-events",
        "float-huge-vars",
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
        code, _, err = _dispatch_with_memory_limit(argv)
    else:
        code = dispatch(argv)
        err = capsys.readouterr().err
    assert time.monotonic() - started < 5
    assert code == 2
    assert "input error" in err and message in err


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


def test_mt_seed_accepts_strings_like_the_api(files, capsys):
    from lll_workbench.jsonio import load_event_system, run_stats_to_dict
    from lll_workbench.mt_engine import run_mt

    def parsed(seed):
        return build_parser().parse_args(["mt-run", "--system", "s", "--seed", seed]).seed

    assert parsed("7") == 7 and isinstance(parsed("7"), int)
    assert parsed("c5/lowest-index") == "c5/lowest-index"

    with open(files["system"], encoding="utf-8") as handle:
        system = load_event_system(json.load(handle))
    for seed, api_seed in (("c5/lowest-index", "c5/lowest-index"), ("7", 7)):
        code = dispatch(["mt-run", "--system", files["system"], "--seed", seed])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        want = run_stats_to_dict(run_mt(system, "lowest-index", api_seed, 1_000_000))
        assert out == json.loads(json.dumps(want))

    code = dispatch(
        [
            "mt-estimate", "--system", files["system"], "--trials", "3",
            "--seed", "c5/lowest-index", "--format", "csv",
        ]
    )
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [f"c5/lowest-index/{k}" for k in range(3)]


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


def test_wdag_wire_format_roundtrip():
    from lll_workbench.graphs import InputError
    from lll_workbench.jsonio import load_wdag, wdag_to_dict

    data = {"labels": [1, 3, 2, 1], "arcs": [[1, 3], [1, 4], [2, 3], [3, 4]]}
    d = load_wdag(data)
    assert wdag_to_dict(d) == data
    for bad in ({"labels": [1, 2.0]}, {"labels": [1, 2], "arcs": [[1, True]]}):
        with pytest.raises(InputError, match="must be integers"):
            load_wdag(bad)
    for arcs in ([[1]], [[1, 2, 3]], [1], None):
        with pytest.raises(InputError, match="bad wdag object"):
            load_wdag({"labels": [1], "arcs": arcs})


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
