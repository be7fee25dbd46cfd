"""The declared dependencies admit only releases the package runs on."""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_is_2_0():
    # the 2-D right-hand side writes its transforms into its workspace with
    # numpy.fft's out=, which numpy has taken since 2.0
    specs = re.findall(r'"numpy\s*([^"]*)"', PYPROJECT.read_text())
    floors = [tuple(int(p) for p in m.group(1).split(".")[:2])
              for m in (re.search(r">=\s*([\d.]+)", s) for s in specs) if m]
    assert floors, "pyproject.toml declares no numpy floor"
    assert min(floors) >= (2, 0)
