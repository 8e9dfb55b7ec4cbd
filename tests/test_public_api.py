"""Every public name of the package has a caller outside the tests.

A public name is one listed in a module's `__all__` or bound at the top
of `aurifeuille/__init__.py` without a leading underscore.  It has a
caller when the library loads it (an AST `Name` load or an `Attribute`
in a module of `src/aurifeuille` other than `__init__.py`), or when the
benchmark harness (`perfbench/*.py`) or a CI workflow
(`.github/workflows/*.yml`) names it as a word.  A word in the harness
does not count when the harness defines a function or class of that
name, as the word then names its own.  A name that only the tests use
belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aurifeuille"


def _public_names():
    names = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _library_loads():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _words_outside_the_library():
    harness = [*(ROOT / "perfbench").glob("*.py")]
    words, own = set(), set()
    for path in harness:
        text = path.read_text()
        words.update(re.findall(r"\w+", text))
        own.update(
            node.name
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        )
    words -= own
    for path in (ROOT / ".github" / "workflows").glob("*.yml"):
        words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_public_name_has_a_caller_outside_the_tests():
    names = _public_names()
    assert "algorithm_l" in names and "full_factorization" in names
    used = _library_loads() | _words_outside_the_library()
    unused = sorted(names - used)
    assert not unused, f"public names that only the tests call: {unused}"
