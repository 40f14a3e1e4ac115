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
eleventh slowest. Writes nothing under perfbench/. Standard library only.

    python3 tools/op_shares.py --workload wdag-enum --seed 1
    python3 tools/op_shares.py --workload wdag-enum --seed 1 --root ../parent
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
    order; distinct operations are numbered by id(op), as the worker does."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.build(workload, seed, tmp).ops
    distinct: dict[int, int] = {}
    return [(distinct.setdefault(id(op), len(distinct)), op.name) for op in ops]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout whose run and workloads are read")
    parser.add_argument("--by", choices=("kind", "name"), default="kind", help="group by kind or by whole name")
    parser.add_argument("--top", type=int, default=12, help="groups listed, the largest first")
    args = parser.parse_args(argv)
    path = args.root / "perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
    rounds = json.loads(path.read_text(encoding="utf-8"))["details"]["latencies"]
    ops = round_ops(args.root.resolve(), args.workload, args.seed)
    if len(rounds[0]) != len(ops):
        sys.exit(f"{path} has {len(rounds[0])} operations a round, the workload builds {len(ops)}")

    group = (lambda name: name.split()[0]) if args.by == "kind" else (lambda name: name)
    total, shares, per_round, calls = 0.0, {}, {}, {}
    names: dict[int, str] = dict(ops)
    reps: dict[int, list[float]] = {}  # the repetitions of each distinct operation
    for row in rounds:
        for (op, name), t in zip(ops, row):
            # a failed operation counts as slower than any completed one
            reps.setdefault(op, []).append(float("inf") if t is None else t)
            if t is not None:
                shares[group(name)] = shares.get(group(name), 0.0) + t
                calls[group(name)] = calls.get(group(name), 0) + 1
                total += t
    for _, name in ops:
        per_round[group(name)] = per_round.get(group(name), 0) + 1
    print(f"{path.name}: {len(rounds)} rounds of {len(ops)} operations, {len(reps)} distinct")
    print(f"{args.by:32s} {'ops/round':>9s} {'share':>7s} {'us/op':>9s}")
    for key, t in sorted(shares.items(), key=lambda item: -item[1])[: args.top]:
        print(f"{key:32s} {per_round[key]:9d} {100 * t / total:6.1f}% {1e6 * t / calls[key]:9.2f}")

    per_op = sorted((statistics.median(ts), op) for op, ts in reps.items())
    n = len(per_op)
    middle = per_op[(n - 1) // 2 : n // 2 + 1]  # one operation, or the two a median averages
    p50 = statistics.median(t for t, _ in per_op)
    print(f"op_p50_ms {1e3 * p50:.4g}: " + ", ".join(f"{names[op]} ({1e3 * t:.4g} ms)" for t, op in middle))
    t, op = per_op[n - 11]
    print(f"op_tail_ms {1e3 * t:.4g}: {names[op]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
