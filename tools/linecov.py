"""Line coverage of src/lll_workbench by the test suite or by the program, standard library only.

Runs pytest in this process under `sys.settrace` (and `threading.settrace`),
recording the lines executed in the modules under src/lll_workbench, and
prints every executable line that no test reached, as ranges per module,
with a count per module and in total. A line is executable when the
compiled module, or a function or class body nested in it, starts a line
there. Lines that only child processes run (an `mt_engine` process pool,
the tests that start a fresh interpreter) are not seen, and the tracer slows
the suite about threefold.

With --program it traces what the program runs instead of the tests: every
README command but selftest through `cli.dispatch` (tools/cli_wall.py's
commands and inputs, in a temporary directory, LLL_WORKBENCH_THREADS=1),
`acceptance.run_all()`, and one round of each benchmark workload built by
perfbench/workloads.py at seed 1, each distinct operation run once and
checked, then the workload's round checks. The lines it prints are the src
code that no command, criterion or benchmark operation reaches.

    python3 tools/linecov.py                     # the whole suite
    python3 tools/linecov.py -- -q -k "not test_acceptance_criterion"
    python3 tools/linecov.py -- tests/test_shearer.py
    python3 tools/linecov.py --program

Arguments after `--` go to pytest unchanged.
"""

from __future__ import annotations

import argparse
import dis
import io
import json
import os
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lll_workbench"


def executable_lines(path: Path) -> set[int]:
    """The lines that start an instruction in the module or a code object
    nested in it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # a module starts at line 0
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as 'a-b' runs of consecutive numbers."""
    out: list[str] = []
    start = prev = None
    for line in lines + [None]:
        if start is not None and line == prev + 1:
            prev = line
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = line
    return ", ".join(out)


def trace(call) -> tuple[object, dict[str, set[int]]]:
    """What call() returns and the lines run per file under the package."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = hits.setdefault(name, set())
        seen.add(frame.f_code.co_firstlineno if event == "call" else frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        out = call()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return out, hits


def run_program() -> str:
    """Run the README commands, the acceptance criteria and one checked
    round of each workload; a summary of what failed."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    import cli_wall
    import workloads
    from lll_workbench import acceptance, cli

    os.environ["LLL_WORKBENCH_THREADS"] = "1"
    here = os.getcwd()
    codes = []
    failed_ops = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in cli_wall.INPUTS.items():
            Path(tmp, name).write_text(json.dumps(doc))
        os.chdir(tmp)
        try:
            for argv in cli_wall.readme_commands():
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    codes.append(cli.dispatch(argv))
        finally:
            os.chdir(here)
        failed_criteria = [r.criterion for r in acceptance.run_all() if not r.passed]
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 1, tmp)
            done = set()
            for op in workload.ops:
                if id(op) in done:
                    continue
                done.add(id(op))
                try:
                    op.check(op.call())
                except Exception as exc:  # a failed operation or check is reported, not fatal
                    failed_ops.append(f"{name}: {op.name}: {type(exc).__name__}")
            for finish in workload.round_checks:
                try:
                    finish()
                except Exception as exc:
                    failed_ops.append(f"{name}: round check: {type(exc).__name__}")
    return (
        f"README command exit codes {codes}; failed criteria {failed_criteria}; "
        f"failed workload checks {failed_ops}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--program", action="store_true", help="trace the commands, criteria and workloads, not the tests")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    if args.program:
        status, hits = trace(run_program)
    else:
        import pytest  # imported before tracing: only the package is traced

        code, hits = trace(lambda: pytest.main(args.pytest_args or ["-q", "-p", "no:cacheprovider"]))
        status = f"pytest exit {int(code)}"
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        modules[path.name] = {"executable": len(lines), "unreached": len(missed), "lines": ranges(missed)}
    total = sum(m["executable"] for m in modules.values())
    unreached = sum(m["unreached"] for m in modules.values())
    print(f"\n{status}; {unreached} of {total} executable lines unreached")
    for name, m in modules.items():
        print(f"{name}: {m['unreached']} of {m['executable']} unreached" + (f": {m['lines']}" if m["lines"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
