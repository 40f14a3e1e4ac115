"""The package keeps only what a command, an acceptance criterion, the
benchmark harness or a tool runs: every public top-level function and class
of src/lll_workbench is named somewhere in src/, perfbench/ or tools/
outside its own definition. Code that only the tests reach belongs in the
tests, as their reference. And each command loads only the layers it runs."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
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


def _cli_wall():
    spec = importlib.util.spec_from_file_location("cli_wall", ROOT / "tools" / "cli_wall.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the modules every command loads: the front end and the Shearer side
SHEARER_SIDE = {"cli", "criterion", "graphs", "jsonio", "lattices", "shearer"}

#: the package modules each README command loads, besides the package itself
LOADED = {
    "shearer-check": SHEARER_SIDE,
    "boundary": SHEARER_SIDE,
    "gap": SHEARER_SIDE,
    "criterion": SHEARER_SIDE,
    "beyond": SHEARER_SIDE,
    "lattice-gap": SHEARER_SIDE,
    "wdag-sum": SHEARER_SIDE | {"wdag"},
    "mt-run": SHEARER_SIDE | {"mt_engine", "tables"},
    "mt-estimate": SHEARER_SIDE | {"mt_engine", "tables"},
}

#: written on stderr as the child exits: the lll_workbench.* modules it loaded
_REPORT = (
    "import atexit, json, sys; atexit.register(lambda: sys.stderr.write('\\n' + json.dumps(sorted("
    "m.split('.', 1)[1] for m in sys.modules if m.startswith('lll_workbench.')))))"
)


def test_each_readme_command_loads_only_the_layers_it_runs(tmp_path):
    # The Shearer side loads no engine, wdag calculus or tables; wdag-sum
    # loads no engine; the engine's commands load no wdag calculus.
    cli_wall = _cli_wall()
    for name, doc in cli_wall.INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    commands = cli_wall.readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(LOADED)
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-c", f"{_REPORT}; {cli_wall.ENTRY}", *argv],
            cwd=tmp_path, env=cli_wall.child_env(ROOT / "src"), capture_output=True, text=True,
        )
        assert done.returncode in (0, 1), (argv, done.stderr)  # accepted or rejected
        assert set(json.loads(done.stderr.splitlines()[-1])) == LOADED[argv[0]], argv
