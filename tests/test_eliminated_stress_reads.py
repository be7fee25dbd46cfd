"""Each reduced model's eliminated stress E is formed in one place in models.py.

Eliminating c leaves an isotropic stress E in div u, scaled by
``FluidParams._augmented_scale`` (NSK1) or ``FluidParams._theta_dtau2``
(NSK2).  ``models._eliminated_stress`` forms E for the pressure, the reduced
stress and both right-hand-side paths; ``models._stress_symbol`` holds its
Fourier form.  A read of either scale anywhere else in models.py is a second
assembly of E.
"""

import ast
from pathlib import Path

import pytest

MODELS = Path(__file__).resolve().parents[1] / "src" / "korteweg" / "models.py"
SCALES = ("_augmented_scale", "_theta_dtau2")
READERS = {"_eliminated_stress", "_stress_symbol"}


def scale_readers(source: str) -> dict[str, set[str]]:
    """Per scale, the top-level functions of ``source`` that read it as an
    attribute ("<module>" for a read outside every function)."""
    readers = {name: set() for name in SCALES}
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else "<module>"
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in readers:
                readers[sub.attr].add(owner)
    return readers


def test_eliminated_stress_scales_are_read_in_one_place():
    readers = scale_readers(MODELS.read_text())
    for name, owners in readers.items():
        assert owners <= READERS, f"models.py reads {name} in {sorted(owners - READERS)}"
    assert all("_eliminated_stress" in owners for owners in readers.values())


@pytest.mark.parametrize("source, readers", [
    ("def _eliminated_stress(p):\n    return p._theta_dtau2 * p._augmented_scale",
     {"_augmented_scale": {"_eliminated_stress"}, "_theta_dtau2": {"_eliminated_stress"}}),
    ("def _pressure(p):\n    def inner():\n        return p._augmented_scale\n    return inner",
     {"_augmented_scale": {"_pressure"}, "_theta_dtau2": set()}),
    ("class C:\n    scale = params._theta_dtau2",
     {"_augmented_scale": set(), "_theta_dtau2": {"<module>"}}),
    ("def f(p):\n    return p.delta_star", {"_augmented_scale": set(), "_theta_dtau2": set()}),
], ids=["kernel", "nested", "module", "none"])
def test_scale_readers_finds_every_read(source, readers):
    assert scale_readers(source) == readers
