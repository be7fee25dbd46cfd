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
    if name in ("fft", "ifft"):   # a stacked 2-D pass along axis -2, as the calculus makes it
        _stacked_axis_2_pass_is_numpy_fft(_pocketfft_umath, forward=name == "fft")


def _stacked_axis_2_pass_is_numpy_fft(pocketfft, forward: bool):
    """One stacked (3, 33, 35) call of the pass along axis -2, the forward one after
    rfft_n_odd of the last axis or the inverse one in place before irfft, gives every
    row numpy's rfftn/irfftn bytes."""
    axis_2 = [(-2,), (), (-2,)]
    x = np.random.default_rng(3).standard_normal((3, 33, 35))
    hats = np.empty((3, 33, 18), dtype=complex)
    pocketfft.rfft_n_odd(x, 1.0, out=hats)
    if forward:
        pocketfft.fft(hats, 1.0, out=hats, axes=axis_2)
        assert [h.tobytes() for h in hats] == [np.fft.rfftn(a).tobytes() for a in x]
        return
    hats = np.array([np.fft.rfftn(a) for a in x])
    ref = [np.fft.irfftn(h, s=(33, 35), axes=(0, 1)).tobytes() for h in hats]
    out = np.empty(x.shape)
    pocketfft.irfft(pocketfft.ifft(hats, 1.0 / 33, out=hats, axes=axis_2), 1.0 / 35, out=out)
    assert [a.tobytes() for a in out] == ref
