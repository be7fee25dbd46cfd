"""The declared dependencies admit only releases the package runs on."""

import re
from pathlib import Path

import numpy as np
import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_is_2_0():
    # the calculus calls the gufuncs of numpy.fft._pocketfft_umath, which numpy
    # has had since 2.0
    specs = re.findall(r'"numpy\s*([^"]*)"', PYPROJECT.read_text())
    floors = [tuple(int(p) for p in m.group(1).split(".")[:2])
              for m in (re.search(r">=\s*([\d.]+)", s) for s in specs) if m]
    assert floors, "pyproject.toml declares no numpy floor"
    assert min(floors) >= (2, 0)


# _Calculus.forward/inverse call these private gufuncs of numpy.fft directly:
# (values, factor) -> the transform along one core axis, in float64/complex128
POCKETFFT_GUFUNCS = {
    "fft": ("(n),()->(m)", "Dd->D"),
    "ifft": ("(m),()->(n)", "Dd->D"),
    "rfft_n_even": ("(n),()->(m)", "dd->D"),
    "rfft_n_odd": ("(n),()->(m)", "dd->D"),
    "irfft": ("(m),()->(n)", "Dd->d"),
}


@pytest.mark.parametrize("name", POCKETFFT_GUFUNCS)
def test_numpy_has_the_pocketfft_gufuncs_the_calculus_calls(name):
    from numpy.fft import _pocketfft_umath

    gufunc = getattr(_pocketfft_umath, name, None)
    assert isinstance(gufunc, np.ufunc), f"numpy.fft._pocketfft_umath has no gufunc {name}"
    signature, loop = POCKETFFT_GUFUNCS[name]
    assert (gufunc.signature, gufunc.nin, gufunc.nout) == (signature, 2, 1)
    assert loop in gufunc.types
