"""One workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|setup|trace
                                [--seconds S]

Prints one JSON object on the last line of its standard output.

* run: import the workbench and build the inputs, then rounds of the
  operations until S seconds have passed, at least one. Every round is
  timed and its times scaled by the calibration kernel (calibrate.py). The
  first round's outputs are checked against the references; every later
  round must give the first round's outputs byte for byte.
* setup: import the workbench, build the inputs and time one calibration
  block, for the set-up time alone.
* trace: the checked first round, one untraced round, then the same round
  under the tracer; traced outputs must match untraced ones byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(out) -> bytes:
    """Digest of an output's bytes (its repr); the runner keeps digests, not
    outputs, so the outputs it compares add nothing to the heap the
    program's garbage collections scan."""
    return hashlib.blake2b(repr(out).encode(), digest_size=16).digest()


def _plain_time(call) -> tuple[object, float]:
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.first: list = []  # (ok, output digest) of the first round
        self.errors: list[str] = []
        self.check_s = 0.0  # time spent checking outputs

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def round(self, check: bool, keep: bool = False, scaler=None):
        """One pass over the operations. Returns latencies (None when the
        operation failed) and, with keep, the output digests. With a scaler,
        the latencies are scaled to the calibration kernel's speed."""
        from workloads import CheckFailed

        latencies, digests = [], []
        checked: dict[int, bytes] = {}  # op -> digest of its first copy in the round
        timer = _plain_time if scaler is None else scaler.time
        for k, op in enumerate(self.workload.ops):
            try:
                (out, took), ok = timer(op.call), True
            except Exception as exc:  # an operation that fails counts as failed
                out, ok = f"{type(exc).__name__}: {exc}", False
            latencies.append(took if ok and scaler is None else None)
            if ok and scaler is not None:
                scaler.add(latencies, k, took)
            digest = _digest(out)
            if keep:
                digests.append(digest)
            if check and id(op) in checked:
                self.first.append((ok, digest))
                if checked[id(op)] != digest:
                    self.note(f"{op.name}: output differs from its first copy")
            elif check:
                self.first.append((ok, digest))
                checked[id(op)] = digest
                if ok:
                    checking = time.perf_counter()
                    try:
                        op.check(out)
                    except CheckFailed as exc:
                        self.note(f"{op.name}: {exc}")
                    except Exception:
                        self.note(f"{op.name}: check raised {traceback.format_exc(limit=3)}")
                    self.check_s += time.perf_counter() - checking
            elif self.first[k] != (ok, digest):
                self.note(f"{op.name}: output differs from the first round")
            del out
        if scaler is not None:
            scaler.flush()
        if check:
            checking = time.perf_counter()
            for finish in self.workload.round_checks:
                try:
                    finish()
                except CheckFailed as exc:
                    self.note(str(exc))
            self.check_s += time.perf_counter() - checking
        return latencies, digests


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import lll_workbench
    import workloads
    import calibrate

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        distinct: dict[int, int] = {}
        result = {"ready_at": time.monotonic(), "ops_per_round": len(workload.ops),
                  "op_ids": [distinct.setdefault(id(op), len(distinct)) for op in workload.ops]}
        if args.mode == "setup":
            result["kernel_first_s"] = calibrate.block(calibrate.Kernel(), calibrate.FIRST_BLOCK_S)
            sys.stdout.write(json.dumps(result) + "\n")
            return 0
        scaler = calibrate.Scaler() if args.mode == "run" else None
        # the inputs live for the whole run; keep them out of the program's
        # garbage collections
        gc.collect()
        gc.freeze()
        runner = Runner(workload)
        if args.mode == "run":
            # every round is timed; the first is also checked, which happens
            # between operations and outside their timing and the run's
            started = time.monotonic()
            rounds = [runner.round(check=True, scaler=scaler)[0]]
            while time.monotonic() - started - runner.check_s < args.seconds:
                rounds.append(runner.round(check=False, scaler=scaler)[0])
            result["check_s"] = runner.check_s
            result["latencies"] = rounds
            result["kernel_first_s"] = scaler.first
            result["kernel_blocks_s"] = scaler.blocks
            result["attempted"] = sum(len(r) for r in rounds)
            result["failed"] = sum(1 for r in rounds for t in r if t is None)
        else:
            from tracer import Tracer

            runner.round(check=True)
            start = time.perf_counter()
            plain, plain_out = runner.round(check=False, keep=True)
            plain_wall = time.perf_counter() - start
            tracer = Tracer(lll_workbench)
            tracer.install()
            try:
                start = time.perf_counter()
                traced, traced_out = runner.round(check=False, keep=True)
                traced_wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            for op, a, b in zip(workload.ops, plain_out, traced_out):
                if a != b:
                    runner.note(f"{op.name}: traced output differs from untraced")
            result["attempted"] = len(traced)
            result["failed"] = sum(1 for t in traced if t is None)
            result["layers"] = {k: v for k, v in tracer.metrics(traced_wall - plain_wall).items()}
            result["counts"] = tracer.counts()
            result["walls"] = {"untraced_s": plain_wall, "traced_s": traced_wall}
        result["errors"] = runner.errors
        result["correct"] = not runner.errors
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
