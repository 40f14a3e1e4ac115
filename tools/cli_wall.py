"""Wall time of the README commands, each in a fresh interpreter, on two trees.

Runs every `lll-workbench` command of the README's command-line section
except `selftest` (which runs the whole acceptance suite) as a new Python
process, once per round on a base revision and once on the working tree,
over 21 rounds that alternate which tree goes first, and times
`python -c pass` in the same rounds as the floor every command pays. It prints one JSON object with each
command's median and quartiles in seconds on both trees, the rounds in
which the working tree was faster, the floor, and whether both trees wrote
the same exit code and stdout. Standard library only.

    python3 tools/cli_wall.py                  # HEAD against the working tree
    python3 tools/cli_wall.py --base HEAD~1 > wall.json

Children run with PYTHONDONTWRITEBYTECODE cleared and LLL_WORKBENCH_THREADS=1,
and each command runs once per tree before the timed rounds, so the bytecode
is written and read back as in an installed package instead of the package
being compiled again in every process. The base revision is exported with
`git archive` into a temporary directory; the command inputs (k3.json, c4.json,
single_half.json) are written into another, which is the children's working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INPUTS = {
    "k3.json": {"m": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
    "c4.json": {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
    "single_half.json": {
        "variables": [{"kind": "uniform01"}],
        "events": [{"allowed": {"1": {"intervals": [["0", "1/2"]]}}}],
    },
}

#: what the lll-workbench console script runs
#: timed rounds per command and tree
ROUNDS = 21

ENTRY = "import sys; from lll_workbench.cli import main; sys.argv[0] = 'lll-workbench'; main()"


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's command-line block, selftest left out."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lll-workbench ")]
    return [argv for argv in commands if argv[0] != "selftest"]


def child_env(src: Path | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["LLL_WORKBENCH_THREADS"] = "1"
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def run(argv: list[str], src: Path | None, cwd: str) -> tuple[float, int, bytes]:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(src), capture_output=True)
    return time.perf_counter() - started, done.returncode, done.stdout


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4), "runs": len(times)}


def measure(base_src: Path, change_src: Path, cwd: str) -> dict:
    trees = {"base": base_src, "change": change_src}
    commands = readme_commands()
    outputs = {}
    for name, src in trees.items():  # warm-up: writes each tree's bytecode
        for argv in commands:
            _, code, out = run(["-c", ENTRY, *argv], src, cwd)
            outputs[name, tuple(argv)] = (code, out)
    times: dict = {(name, tuple(argv)): [] for name in trees for argv in commands}
    floor = []
    for r in range(ROUNDS):
        floor.append(run(["-c", "pass"], None, cwd)[0])
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for argv in commands:
            for name in order:
                times[name, tuple(argv)].append(run(["-c", ENTRY, *argv], trees[name], cwd)[0])
    rows = []
    for argv in commands:
        key = tuple(argv)
        rows.append({
            "command": "lll-workbench " + shlex.join(argv),
            "base": summary(times["base", key]),
            "change": summary(times["change", key]),
            "rounds_change_faster": sum(c < b for b, c in zip(times["base", key], times["change", key])),
            "same_exit_code_and_stdout": outputs["base", key] == outputs["change", key],
            "exit_code": outputs["change", key][0],
        })
    return {"floor_python_c_pass": summary(floor), "commands": rows}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as cwd:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True)
        if archive.returncode:
            sys.exit(f"git archive {args.base}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", base_dir], input=archive.stdout, check=True)
        for name, doc in INPUTS.items():
            Path(cwd, name).write_text(json.dumps(doc))
        result = {
            "base": args.base,
            "change": "working tree",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "method": (
                "each command in a fresh interpreter, trees alternating first per round; "
                "PYTHONDONTWRITEBYTECODE cleared and LLL_WORKBENCH_THREADS=1 for the children; "
                "bytecode warmed by one untimed run of each command on each tree"
            ),
            **measure(Path(base_dir, "src"), ROOT / "src", cwd),
        }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
