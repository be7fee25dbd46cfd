"""constitutive.py keeps a private function only where it saves a second copy.

Each density law is one public function.  A ``_``-prefixed function in
constitutive.py earns its place in one of two ways: another korteweg module
names it (the hot loop's unchecked kernels, ``_density``), or at least two
functions of constitutive.py use it (a shared piece such as
``_concentration_drho``).  A private function with a single user is a layer
nothing needs: its body belongs in that user.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "korteweg"
CONSTITUTIVE = PACKAGE / "constitutive.py"


def private_users(source: str) -> dict[str, set[str]]:
    """Per top-level ``_``-prefixed function of ``source``, the other top-level
    definitions that name it ("<module>" for a use outside every definition)."""
    body = ast.parse(source).body
    users = {node.name: set() for node in body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("_")}
    for node in body:
        owner = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in users and sub.id != owner:
                users[sub.id].add(owner)
    return users


def names_in(source: str) -> set[str]:
    """Every name ``source`` reads, imports or looks up as an attribute."""
    names = set()
    for sub in ast.walk(ast.parse(source)):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_function_is_shared_or_used_outside():
    outside = set().union(*(names_in(path.read_text()) for path in PACKAGE.glob("*.py")
                            if path != CONSTITUTIVE))
    users = private_users(CONSTITUTIVE.read_text())
    lonely = sorted(name for name, owners in users.items()
                    if name not in outside and len(owners) < 2)
    assert not lonely, f"constitutive.py: private functions with one user: {lonely}"


@pytest.mark.parametrize("source, users", [
    ("def _k(dn):\n    return dn\n\ndef law(r):\n    return _k(r)",
     {"_k": {"law"}}),
    ("def _k(dn):\n    return dn\n\ndef a(r):\n    return _k(r)\n\n"
     "def b(r):\n    return _k(r) + _k(r)", {"_k": {"a", "b"}}),
    ("def _k(n):\n    return _k(n - 1) if n else 0\n\n"
     "class C:\n    def m(self):\n        return _k(1)", {"_k": {"C"}}),
    ("def _k(x):\n    return x\n\nTABLE = {'k': _k}\n\ndef pub(x):\n    return x",
     {"_k": {"<module>"}}),
    ("def pub(x):\n    return _other(x)", {}),
], ids=["one-user", "two-users", "self-and-method", "module", "none"])
def test_private_users_finds_every_user(source, users):
    assert private_users(source) == users


@pytest.mark.parametrize("source, name", [
    ("from .constitutive import _capillarity as cap", "_capillarity"),
    ("from . import constitutive as law\nlaw._sound_speed_sq(dn, p)", "_sound_speed_sq"),
    ("from .constitutive import _density\nx = _density", "_density"),
], ids=["import", "attribute", "name"])
def test_names_in_sees_imports_and_lookups(source, name):
    assert name in names_in(source)
