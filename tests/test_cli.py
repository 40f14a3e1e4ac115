import json
import shlex
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from lll_workbench.cli import build_parser, dispatch


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
        ("shearer-check --graph {dir} --p 1/3", None, "cannot read"),
    ],
    ids=["json", "matching", "vertex-count", "edge", "variable-key", "directory"],
)
def test_malformed_json_exits_two(files, capsys, command, content, message):
    bad = files["dir"] / "bad.json"
    if content is not None:
        bad.write_text(content)
    argv = command.format(bad=bad, c4=files["c4"], dir=files["dir"]).split()
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and message in err


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
    from lll_workbench.jsonio import load_wdag, wdag_to_dict

    data = {"labels": [1, 3, 2, 1], "arcs": [[1, 3], [1, 4], [2, 3], [3, 4]]}
    d = load_wdag(data)
    assert wdag_to_dict(d) == data


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
