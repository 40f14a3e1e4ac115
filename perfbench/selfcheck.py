"""Shows that every kind of check rejects a wrong output.

    python3 perfbench/selfcheck.py [--seed N]

For each workload and each kind of operation, runs the first operation of
that kind that completes, checks its true output (which must pass), then
corrupts the output in a way the method forbids and checks again (which
must fail).
Exits 0 when every corruption was rejected. Run from a checkout's root.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def _cli(code_text, edit):
    code, text = code_text
    if text.startswith("seed,"):
        rows = list(csv.reader(io.StringIO(text)))
        rows[1][1] = str(int(rows[1][1]) + 1)
        return code, "".join(",".join(r) + "\n" for r in rows)
    doc = json.loads(text)
    edit(doc)
    return code, json.dumps(doc)


def _bump(x: str) -> str:
    return str(Fraction(x) + Fraction(1, 997))


CLI_EDITS = {
    "shearer-check": lambda d: d.update(in_bound=not d["in_bound"]),
    "boundary": lambda d: d.update(lo=d["hi"]),
    "gap": lambda d: d.update(upper=d["lower"], lower=str(Fraction(d["lower"]) / 2)),
    "beyond": lambda d: d.update(accepted=not d["accepted"]),
    "criterion": lambda d: d.update(accepted=not d["accepted"]),
    "mt-run": lambda d: d.update(sequence=d["sequence"] + [1]),
    "wdag-sum": lambda d: d["by_size"].update({"1": _bump(d["by_size"]["1"])}),
    "lattice-gap": lambda d: d.update(q_lower=str(Fraction(d["q_lower"]) * 2)),
}


def _flip_arc(d):
    arcs = sorted(d.arcs)
    u, v = arcs[0]
    return dataclasses.replace(d, arcs=frozenset(arcs[1:]) | {(v, u)})


def _corrupt(kind: str, out):
    if kind.startswith("cli "):
        command = kind.split()[1]
        return _cli(out, CLI_EDITS.get(command, CLI_EDITS["shearer-check"]))
    if kind == "shearer_membership":
        return not out
    if kind == "in_shearer_bound":
        return dataclasses.replace(out, in_bound=not out.in_bound)
    if kind == "expected_resample_bound":
        return out + 1
    if kind == "boundary_scale":
        return dataclasses.replace(out, hi=out.hi + 1)
    if kind == "estimate_expected_steps":
        first = out.per_trial[0]
        return dataclasses.replace(out, per_trial=((first[0], first[1] + 1, first[2]),) + out.per_trial[1:])
    if kind == "run_mt":
        return dataclasses.replace(out, sequence=out.sequence + (out.sequence[-1] if out.sequence else 1,))
    if kind == "enumerate_pwdags":
        return out[:-1]
    if kind == "group_pwdags":
        key = next(iter(out))
        return {**out, key: out[key][:-1]}
    if kind == "weight_sums":
        return dataclasses.replace(out, by_size={**out.by_size, 1: out.by_size[1] + Fraction(1, 997)})
    if kind == "homomorphic_graph":
        g = out.graph
        smaller = dataclasses.replace(g, edges=frozenset(sorted(g.edges)[1:]))
        return dataclasses.replace(out, graph=smaller)
    if kind == "partitions_psi":
        return out[:-1] + out[:1] if len(out) > 1 else [dataclasses.replace(out[0], s1=frozenset())]
    if kind in ("map_h", "split_labels"):
        return _flip_arc(out)
    raise KeyError(kind)


def _kind(name: str) -> str:
    parts = name.split()
    return " ".join(parts[:2]) if parts[0] == "cli" else parts[0]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        workdir = os.path.join(HERE, ".work", f"selfcheck-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workload = workloads.build(name, args.seed, workdir)
            seen = set()
            for op in workload.ops:
                kind = _kind(op.name)
                if kind in seen:
                    continue
                try:
                    out = op.call()
                except Exception as exc:  # a known fault; the next of its kind stands in
                    print(f"{name:14s} {kind:28s} {op.name!r} fails ({type(exc).__name__}); next of its kind")
                    continue
                seen.add(kind)
                op.check(out)
                try:
                    op.check(_corrupt(kind, out))
                    verdict = "NOT REJECTED"
                    ok = False
                except Exception as exc:
                    verdict = f"rejected ({type(exc).__name__}: {str(exc)[:60]})"
                print(f"{name:14s} {kind:28s} {verdict}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("every corruption rejected" if ok else "SOME CORRUPTION PASSED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
