"""Where a benchmark run's time goes: each operation kind's share of a
round, and the operations that set op_p50_ms and op_tail_ms.

Reads the details of one untraced run,
perfbench/results/<workload>-seed<N>-trace0.json (written by
`python3 perfbench/run.py --workload W --seed N --trace 0`), and rebuilds
the run's operations with `workloads.build(workload, seed, tmpdir)` for
their names. A kind is the first word of an operation's name (`map_h`,
`cli`); its share is the sum of its scaled latencies over every round,
over the sum of all of them (`--by name` groups by whole names instead),
and its us/op the mean of its scaled latencies, one per completed call, so
that runs of two checkouts compare each kind's cost per call.
The p50 and tail operations are found as perfbench/run.py finds them: an
operation's latency is the median of its repetitions, and the tail is the
eleventh slowest. `--compare ROOT` then prints each group's us/op beside
ROOT's run of the same workload and seed, with their ratio (this
checkout's over ROOT's, below 1 where this checkout is faster). Writes
nothing under perfbench/. Standard library only.

    python3 tools/op_shares.py --workload wdag-enum --seed 1
    python3 tools/op_shares.py --workload wdag-enum --seed 1 --root ../parent
    python3 tools/op_shares.py --workload wdag-enum --seed 1 --compare ../parent
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def round_ops(root: Path, workload: str, seed: int) -> list[tuple[int, str]]:
    """(distinct operation, name) of each operation of a round, in round
    order; distinct operations are numbered by id(op), as the worker does.
    The modules imported from root are dropped again, so that a second
    checkout's run can be read in the same process."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    path, loaded = sys.path[:], set(sys.modules)
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    try:
        import workloads

        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.build(workload, seed, tmp).ops
        distinct: dict[int, int] = {}
        return [(distinct.setdefault(id(op), len(distinct)), op.name) for op in ops]
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - loaded:
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(root) + "/"):
                del sys.modules[name]


def read_run(root: Path, workload: str, seed: int) -> tuple[Path, list, list[tuple[int, str]]]:
    """The run's results path, its latencies (one row per round) and the
    operations of a round."""
    path = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    rounds = json.loads(path.read_text(encoding="utf-8"))["details"]["latencies"]
    ops = round_ops(root.resolve(), workload, seed)
    if len(rounds[0]) != len(ops):
        sys.exit(f"{path} has {len(rounds[0])} operations a round, the workload builds {len(ops)}")
    return path, rounds, ops


def group_times(rounds: list, ops: list[tuple[int, str]], group) -> tuple[dict[str, float], dict[str, int]]:
    """Each group's summed latency and its count of completed calls."""
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    for row in rounds:
        for (_, name), t in zip(ops, row):
            if t is not None:
                times[group(name)] = times.get(group(name), 0.0) + t
                calls[group(name)] = calls.get(group(name), 0) + 1
    return times, calls


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout whose run and workloads are read")
    parser.add_argument("--compare", type=Path, metavar="ROOT", help="a second checkout, whose us/op is set beside")
    parser.add_argument("--by", choices=("kind", "name"), default="kind", help="group by kind or by whole name")
    parser.add_argument("--top", type=int, default=12, help="groups listed, the largest first")
    args = parser.parse_args(argv)
    path, rounds, ops = read_run(args.root, args.workload, args.seed)

    group = (lambda name: name.split()[0]) if args.by == "kind" else (lambda name: name)
    shares, calls = group_times(rounds, ops, group)
    total = sum(shares.values())
    per_round: dict[str, int] = {}
    for _, name in ops:
        per_round[group(name)] = per_round.get(group(name), 0) + 1
    names: dict[int, str] = dict(ops)
    reps: dict[int, list[float]] = {}  # the repetitions of each distinct operation
    for row in rounds:
        for (op, _), t in zip(ops, row):
            # a failed operation counts as slower than any completed one
            reps.setdefault(op, []).append(float("inf") if t is None else t)
    top = sorted(shares, key=lambda key: -shares[key])[: args.top]
    print(f"{path.name}: {len(rounds)} rounds of {len(ops)} operations, {len(reps)} distinct")
    print(f"{args.by:32s} {'ops/round':>9s} {'share':>7s} {'us/op':>9s}")
    for key in top:
        print(f"{key:32s} {per_round[key]:9d} {100 * shares[key] / total:6.1f}% {1e6 * shares[key] / calls[key]:9.2f}")

    per_op = sorted((statistics.median(ts), op) for op, ts in reps.items())
    n = len(per_op)
    middle = per_op[(n - 1) // 2 : n // 2 + 1]  # one operation, or the two a median averages
    p50 = statistics.median(t for t, _ in per_op)
    print(f"op_p50_ms {1e3 * p50:.4g}: " + ", ".join(f"{names[op]} ({1e3 * t:.4g} ms)" for t, op in middle))
    t, op = per_op[n - 11]
    print(f"op_tail_ms {1e3 * t:.4g}: {names[op]}")

    if args.compare is not None:
        _, other_rounds, other_ops = read_run(args.compare, args.workload, args.seed)
        other, other_calls = group_times(other_rounds, other_ops, group)
        print(f"us/op against {args.compare} ({len(other_rounds)} rounds)")
        print(f"{args.by:32s} {'here':>9s} {'there':>9s} {'ratio':>7s}")
        for key in top:
            here = 1e6 * shares[key] / calls[key]
            if key in other:
                there = 1e6 * other[key] / other_calls[key]
                print(f"{key:32s} {here:9.2f} {there:9.2f} {here / there:7.3f}")
            else:
                print(f"{key:32s} {here:9.2f} {'-':>9s} {'-':>7s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
