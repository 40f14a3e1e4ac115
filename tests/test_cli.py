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
from lll_workbench.cli import build_parser, dispatch
from lll_workbench.graphs import InputError
from lll_workbench.jsonio import load_probability_vector
from lll_workbench.mt_engine import RunStats
from lll_workbench.shearer import GapEstimate, ShearerReport
from lll_workbench.wdag import WDag

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
        (
            "beyond --graph {c4} --p 0.2928932,0.2928932,0.2928932,0.2928932 --eps 1/10000000 --resolution 0",
            None,
            "resolution must be positive",
        ),
        (
            "beyond --graph {c4} --p 0.27,0.27,0.27,0.36 --eps 1/1000000000 --resolution=-1/8",
            None,
            "resolution must be positive",
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
        "beyond-zero-resolution",
        "beyond-negative-resolution",
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


def test_trial_cap_exits_three_promptly(files):
    # refused before any per-trial row exists; the address-space limit turns
    # a list of 10^10 rows into a failure of the child, not of the machine
    argv = ["mt-estimate", "--system", files["system"], "--trials", "10000000000", "--seed", "7"]
    started = time.monotonic()
    code, out, err = _dispatch_with_memory_limit(argv)
    assert time.monotonic() - started < 5
    assert code == 3 and out == ""
    assert "cap exceeded: estimates capped at 1000000 trials" in err


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


def test_mt_seed_accepts_strings_like_the_api(files, capsys):
    from lll_workbench.jsonio import jsonable, load_event_system
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
# whose string order differs from their numeric order.
_GOLDEN = [
    ("readme-shearer-check", "shearer-check --graph {k3} --p 1/3,1/3,1/3",
     1, "1b4306ed64ae4f10e9d56f0d9786df590ca8f88740f1ddd9c5e0563589e7a2ee"),
    ("readme-boundary", "boundary --graph {c4} --p 1,1,1,1 --resolution 1/4096",
     0, "3bff0221286bfd7e483b178c163f261bf02ea94a419b68f4fbf02c48d49f6bb4"),
    ("readme-gap", "gap --graph {k3} --p 1/2,1/3,1/3 --resolution 1/256",
     0, "a49fd3ce9e9e548cb51c660df4988313a5757dbd816112141efa296e2201c9ec"),
    ("readme-mt-run", "mt-run --system {system} --seed 7",
     0, "9a3f2017b6d5f281595a91a341a6c2fbe723eedef8ea07c36e70dafe55b3ae59"),
    ("readme-mt-estimate-csv", "mt-estimate --system {system} --trials 100000 --seed 7 --format csv",
     0, "4dc5773eca51f2207eb8e8aa16211d3cb6734a6c8d5c2442365eb7af4dfd7f53"),
    ("readme-wdag-sum", "wdag-sum --graph {c4} --p 1/4,1/4,1/4,1/4 --node-cap 5",
     0, "398d4d389c45eb6b8bc60ffaef1b7c9b13062d2715655dc54454d8e8b8170a63"),
    ("readme-criterion", "criterion --graph {c4} --p 1/4,1/4,1/4,1/4 --matching 1-2,3-4 --delta 1/8,1/8 --eps 1/8",
     0, "91da8f11cd007b363ed50d858a0368844bfc8aa77b7c8e923e646d5181db7721"),
    ("readme-beyond", "beyond --graph {c4} --p 0.27,0.27,0.27,0.36 --eps 1/1000000000",
     0, "d0c4d4c482c4a6026ff5e6c06e17abb45574bc29bf192ebcf1d45bc07096eded"),
    ("readme-lattice-gap", "lattice-gap --lattice square --pa 0.1193",
     0, "a9290c498e53b7e65fbda1488957ea7b2c336091f5e2816935cbf35dcd366712"),
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
     0, "3b77c69846773e0e547030538b1fa62f65c45e68291906413945619a2d736fff"),
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
    ("beyond-gap-resolution", "beyond --graph {c4} --p 3/10,3/10,3/10,3/10 --eps 1/1000 --resolution 1/64",
     1, "29240556ad07df0dc8a762a53d7b176b2c6d7de317c35b5dd56542eb681b2423"),
    ("lattice-gap-hexagonal", "lattice-gap --lattice hexagonal --pa 0.1547",
     0, "4eea5cd4de685cd50ee9ef74264716edda807b6e23f6293089f1f843ecba360f"),
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
    argvs = [["--help"], [], ["nope"], ["gap"], ["mt-run", "--system", "s", "--rule", "x"]]
    argvs += [[command, "--help"] for command in commands]
    for argv in argvs:
        want = _exit_text(fresh.parse_args, argv)
        assert want[0] in (0, 2) and (want[1] or want[2])
        # twice: formatting leaves nothing behind on the shared parser
        assert _exit_text(dispatch, argv) == _exit_text(dispatch, argv) == want


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
        code = dispatch(["shearer-check", "--graph", str(c4), "--p", p])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("input error") and out.getvalue() == ""


def test_import_leaves_the_acceptance_suite_unloaded():
    script = (
        "import sys\n"
        "import lll_workbench.cli\n"
        "assert 'lll_workbench.acceptance' not in sys.modules, 'acceptance loaded'\n"
    )
    src = os.path.dirname(os.path.dirname(lll_workbench.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


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


def test_wdag_wire_format_roundtrip():
    from lll_workbench.graphs import InputError
    from lll_workbench.jsonio import jsonable, load_wdag

    data = {"labels": [1, 3, 2, 1], "arcs": [[1, 3], [1, 4], [2, 3], [3, 4]]}
    d = load_wdag(data)
    assert jsonable(d) == data
    for bad in ({"labels": [1, 2.0]}, {"labels": [1, 2], "arcs": [[1, True]]}):
        with pytest.raises(InputError, match="must be integers"):
            load_wdag(bad)
    for arcs in ([[1]], [[1, 2, 3]], [1], None):
        with pytest.raises(InputError, match="bad wdag object"):
            load_wdag({"labels": [1], "arcs": arcs})


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


def wdag_to_dict(d: WDag) -> dict:
    return {"labels": list(d.labels), "arcs": [list(a) for a in sorted(d.arcs)]}


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


def gap_to_dict(gap: GapEstimate) -> dict:
    return {
        "lower": fraction_str(gap.lower),
        "upper": fraction_str(gap.upper),
        "resolution": fraction_str(gap.resolution),
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


@st.composite
def _wdags(draw):
    n = draw(st.integers(1, 12))
    arcs = draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda a: a[0] != a[1])))
    return WDag(tuple(draw(st.lists(_indices, min_size=n, max_size=n))), arcs)


def _same_json(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(
    report=_shearer_reports(),
    gap=st.builds(GapEstimate, _fractions, _fractions, _fractions),
    stats=_run_stats(),
    d=_wdags(),
)
def test_jsonable_matches_the_per_type_renderers(report, gap, stats, d):
    from lll_workbench.jsonio import jsonable

    assert _same_json(jsonable(report), shearer_report_to_dict(report))
    assert _same_json(jsonable(gap), gap_to_dict(gap))
    assert _same_json({**jsonable(stats), "T": stats.t}, run_stats_to_dict(stats))
    assert _same_json(jsonable(d), wdag_to_dict(d))


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
