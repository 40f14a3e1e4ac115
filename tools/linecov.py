"""Line coverage of src/lll_workbench by the test suite, standard library only.

Runs pytest in this process under `sys.settrace` (and `threading.settrace`),
recording the lines executed in the modules under src/lll_workbench, and
prints every executable line that no test reached, as ranges per module,
with a count per module and in total. A line is executable when the
compiled module, or a function or class body nested in it, starts a line
there. Lines that only child processes run (an `mt_engine` process pool,
the tests that start a fresh interpreter) are not seen, and the tracer slows
the suite about threefold.

    python3 tools/linecov.py                     # the whole suite
    python3 tools/linecov.py -- -q -k "not test_acceptance_criterion"
    python3 tools/linecov.py -- tests/test_shearer.py

Arguments after `--` go to pytest unchanged.
"""

from __future__ import annotations

import argparse
import dis
import sys
import threading
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


def trace_pytest(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per file under the package."""
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

    import pytest  # imported before tracing: only the package is traced

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    code, hits = trace_pytest(args.pytest_args or ["-q", "-p", "no:cacheprovider"])
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        modules[path.name] = {"executable": len(lines), "unreached": len(missed), "lines": ranges(missed)}
    total = sum(m["executable"] for m in modules.values())
    unreached = sum(m["unreached"] for m in modules.values())
    print(f"\npytest exit {code}; {unreached} of {total} executable lines unreached")
    for name, m in modules.items():
        print(f"{name}: {m['unreached']} of {m['executable']} unreached" + (f": {m['lines']}" if m["lines"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
