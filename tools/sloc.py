"""Code lines of each src/lll_workbench module and each tests file, at a git
revision and in the working tree, with the net change: one table per
directory, so code moved from one into the other shows on both sides.

A code line holds some token other than a comment; blank lines, comment
lines and docstrings (the leading string of a module, class or function)
do not count. Standard library only.

    python3 tools/sloc.py            # HEAD against the working tree
    python3 tools/sloc.py a8888bc    # any revision git can name
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = (("module", "src/lll_workbench"), ("test file", "tests"))
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def table(rev: str, header: str, directory: str) -> str:
    old_names = {Path(p).name for p in git("ls-tree", "--name-only", f"{rev}:{directory}").split()}
    new_names = {p.name for p in (ROOT / directory).glob("*.py")}
    rows = []
    for name in sorted(n for n in old_names | new_names if n.endswith(".py")):
        old = code_lines(git("show", f"{rev}:{directory}/{name}")) if name in old_names else 0
        new = code_lines((ROOT / directory / name).read_text(encoding="utf-8")) if name in new_names else 0
        rows.append((name, old, new))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(header), *(len(r[0]) for r in rows))
    lines = [f"{header:<{width}}  {rev:>10}  {'worktree':>10}  {'net':>6}"]
    lines += [f"{name:<{width}}  {old:>10}  {new:>10}  {new - old:>+6}" for name, old, new in rows]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    print("\n\n".join(table(rev, header, directory) for header, directory in DIRECTORIES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
