"""Every public name of the package, and every public member of its public
classes, has a reader outside the tests.

A public name is one listed in a module's `__all__` or bound at the top
of `aurifeuille/__init__.py` without a leading underscore.  It has a
caller when the library loads it (an AST `Name` load or an `Attribute`
in a module of `src/aurifeuille` other than `__init__.py`), or when the
benchmark harness (`perfbench/*.py`) or a CI workflow
(`.github/workflows/*.yml`) names it as a word.  A word in the harness
does not count when the harness defines a function or class of that
name, as the word then names its own.

A public member is a method, property or `NamedTuple` field without a
leading underscore, defined in the body of a public class.  It has a
reader when an attribute of its name is read (an AST `Attribute` load)
in a module of `src/aurifeuille` other than `__init__.py` or in
`perfbench/*.py`, or when a CI workflow names it as a word.  The reads
are matched by name alone, whatever object they are made on.

A name or member that only the tests use belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aurifeuille"
LIBRARY = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
HARNESS = list((ROOT / "perfbench").glob("*.py"))


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


def _public_members():
    """{"Class.member": member} over the public classes of the package."""
    names = _public_names()
    members = {}
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and node.name in names):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    member = item.target.id
                else:
                    continue
                if not member.startswith("_"):
                    members[f"{node.name}.{member}"] = member
    return members


def _library_loads():
    used = set()
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _attribute_reads(paths):
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _workflow_words():
    words = set()
    for path in (ROOT / ".github" / "workflows").glob("*.yml"):
        words.update(re.findall(r"\w+", path.read_text()))
    return words


def _words_outside_the_library():
    words, own = set(), set()
    for path in HARNESS:
        text = path.read_text()
        words.update(re.findall(r"\w+", text))
        own.update(
            node.name
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        )
    return (words - own) | _workflow_words()


def test_every_public_name_has_a_caller_outside_the_tests():
    names = _public_names()
    assert "algorithm_l" in names and "full_factorization" in names
    used = _library_loads() | _words_outside_the_library()
    unused = sorted(names - used)
    assert not unused, f"public names that only the tests call: {unused}"


def test_every_public_member_has_a_reader_outside_the_tests():
    members = _public_members()
    # The scan reaches methods, properties and NamedTuple fields.
    assert {
        "IntPolynomial.evaluate_homogeneous",
        "IntPolynomial.coeffs",
        "AurifeuilleResult.F_minus",
        "LucasPair.split_at",
    } <= members.keys()
    read = _attribute_reads(LIBRARY) | _attribute_reads(HARNESS) | _workflow_words()
    unread = sorted(key for key, member in members.items() if member not in read)
    assert not unread, f"public members that only the tests read: {unread}"
