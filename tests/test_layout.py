"""The package keeps only what a command, an acceptance criterion, the
benchmark harness or a tool runs: every public top-level function and class
of src/lll_workbench is named somewhere in src/, perfbench/ or tools/
outside its own definition. Code that only the tests reach belongs in the
tests, as their reference."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lll_workbench"
READERS = ("src", "perfbench", "tools")


def _definitions(path: Path):
    """(name, first line, last line) of each public top-level def or class,
    0-based, decorators included."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            yield node.name, first, node.end_lineno - 1


def unread_definitions() -> list[str]:
    texts = {path: path.read_text(encoding="utf-8") for top in READERS for path in sorted((ROOT / top).rglob("*.py"))}
    unread = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = texts[module].splitlines()
        for name, first, last in _definitions(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = "\n".join(lines[:first] + lines[last + 1 :])
            others = (text for path, text in texts.items() if path != module)
            if not word.search(outside) and not any(word.search(text) for text in others):
                unread.append(f"{module.name}: {name}")
    return unread


def test_every_public_definition_is_read_outside_the_tests():
    assert unread_definitions() == []
