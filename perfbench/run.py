"""Benchmark of the lll-workbench; run from the root of a checkout.

One run of one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones. Each
run also writes perfbench/results/<workload>-seed<N>-trace<T>.json with the
machine facts and the details behind the metrics.

Repeated sets of runs, checked against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --compare [--sets 2] [--runs 10] [--workloads a,b]

Every workload runs in fresh interpreters with LLL_WORKBENCH_THREADS=1, so
no worker pool starts. Untraced times are scaled by a calibration kernel
timed alongside the operations (calibrate.py), to take out how fast the
shared machine happens to be; the results file keeps the raw set-up times
and the kernel's times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calibrate  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("region-large", "resample-long", "wdag-enum", "cli-small")
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["LLL_WORKBENCH_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its JSON and the monotonic time it started."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--seconds", str(seconds)]
    spawned = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=_child_env(), text=True,
                          timeout=max(1.0, deadline - spawned))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    details: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    metrics: dict[str, dict] = {}
    if trace:
        got, _ = _worker(workload, seed, "trace", seconds, deadline)
        for name, (value, unit) in got["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        details.update(counts=got["counts"], walls=got["walls"])
    else:
        # One worker sets up and runs the timed rounds; two more only set
        # up, so that set-up time is a median of three fresh interpreters.
        kernel = calibrate.Kernel()
        procs = []
        for mode in ("run", "setup", "setup"):
            # set-up is scaled like the operations, by the kernel's time
            # just before the worker starts and just after it is ready
            before = calibrate.block(kernel, calibrate.FIRST_BLOCK_S)
            got, spawned = _worker(workload, seed, mode, seconds, deadline)
            got["setup_raw_s"] = got["ready_at"] - spawned
            got["setup_s"] = got["setup_raw_s"] * calibrate.NOMINAL_S / ((before + got["kernel_first_s"]) / 2)
            procs.append(got)
        timed = procs[0]
        rounds = timed["latencies"]
        # An operation's latency is the median of its repetitions in the
        # run, over its copies in every round; a failed operation counts as
        # slower than any completed one.
        reps: dict[int, list[float]] = {}
        for row in rounds:
            for op, t in zip(timed["op_ids"], row):
                reps.setdefault(op, []).append(t if t is not None else float("inf"))
        per_op = sorted(statistics.median(ts) for ts in reps.values())
        n = len(per_op)
        done = [t for row in rounds for t in row if t is not None]
        metrics["ops_per_s"] = {"value": len(done) / sum(done), "unit": "op/s"}
        metrics["op_p50_ms"] = {"value": 1e3 * statistics.median(per_op), "unit": "ms"}
        # the highest percentile with at least ten operations beyond it
        metrics["op_tail_ms"] = {"value": 1e3 * per_op[n - 11], "unit": "ms"}
        metrics["setup_s"] = {"value": statistics.median(got["setup_s"] for got in procs), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": timed["peak_rss_mb"], "unit": "MB"}
        details.update(
            setup_samples_s=[got["setup_s"] for got in procs],
            setup_raw_samples_s=[got["setup_raw_s"] for got in procs],
            kernel_median_s=statistics.median(timed["kernel_blocks_s"]),
            check_s=timed["check_s"],
            rounds=len(rounds),
            ops_per_round=len(rounds[0]),
            distinct_ops=n,
            op_tail_percentile=100.0 * (n - 10) / n,
            latencies=rounds,
        )
        got = timed
    result = {
        "correct": got["correct"],
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump({"machine": _machine(), "result": result, "details": details,
                   "errors": got["errors"]}, handle, indent=2, sort_keys=True)
    for message in got["errors"]:
        sys.stderr.write(f"check failed: {message}\n")
    for name, metric in metrics.items():
        sys.stdout.write(f"{name} = {metric['value']:.6g} {metric['unit']}\n")
    if not trace:
        sys.stdout.write(f"op_tail_ms is the p{details['op_tail_percentile']:.2f} of "
                         f"{n} operations, each the median of its repetitions in "
                         f"{details['rounds']} rounds of {details['ops_per_round']}\n")
    sys.stdout.write(f"attempted = {result['attempted']}, failed = {result['failed']}, "
                     f"correct = {result['correct']}\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# ---------------------------------------------------------------------------
# compare mode

def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare(sets: int, runs: int, workloads: list[str], first_seed: int) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report: dict = {"machine": _machine(), "workloads": {}}
    agree = True
    for workload in workloads:
        per_set = []
        for s in range(sets):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            shares = set()
            for r in range(runs):
                seed = first_seed + 1000 * s + r
                argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 10)
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                if proc.returncode != 0 or not res["correct"]:
                    agree = False
                shares.add(res["failed"] / res["attempted"])
                for name in bounds:
                    values[name].append(res["metrics"][name]["value"])
            per_set.append({"values": values, "failed_share": sorted(shares)})
        rows = {}
        for name, (bound, better) in bounds.items():
            medians = [statistics.median(ps["values"][name]) for ps in per_set]
            spreads = [_spread(ps["values"][name]) for ps in per_set]
            worse = [
                (m - medians[0]) / medians[0] if better == "lower" else (medians[0] - m) / medians[0]
                for m in medians[1:]
            ]
            ok = all(w <= bound for w in worse) and (name == "setup_s" or all(sp <= bound for sp in spreads))
            agree = agree and ok
            rows[name] = {"bound": bound, "medians": medians, "spreads": spreads, "worse": worse, "ok": ok}
            sys.stdout.write(f"{workload:14s} {name:12s} bound {bound:.2f} medians "
                             + " ".join(f"{m:.5g}" for m in medians)
                             + " spreads " + " ".join(f"{sp:.4f}" for sp in spreads)
                             + (" ok\n" if ok else " DISAGREE\n"))
        shares = [ps["failed_share"] for ps in per_set]
        if any(len(s) != 1 or s != shares[0] for s in shares):
            agree = False
            sys.stdout.write(f"{workload:14s} failed share differs between runs: {shares}\n")
        report["workloads"][workload] = {"metrics": rows, "failed_share": shares, "sets": per_set}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "compare.json"), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    sys.stdout.write("sets agree within the bounds\n" if agree else "sets DISAGREE\n")
    return 0 if agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="lll-workbench benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true", help="run repeated sets and check the bounds")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join("src", "lll_workbench")):
        sys.stderr.write("run from the root of a checkout: src/lll_workbench not found\n")
        return 2
    if args.compare:
        return compare(args.sets, args.runs, args.workloads.split(","), args.first_seed)
    if args.workload is None:
        parser.error("--workload is required")
    return one_run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
