"""Discrete differential calculus: gradient, divergence, Laplacian.

Two interchangeable discretizations:

* ``Scheme.SPECTRAL`` -- Fourier differentiation on periodic grids by real
  half-spectrum transforms; the Nyquist mode is dropped on every axis so
  odd derivatives stay real and skew-symmetric.  A divergence transforms
  each component once and sums in Fourier space before one inverse.
  Every transform here and in :mod:`korteweg.elliptic` goes through
  ``_rfft``/``_irfft``, which call ``rfft``/``irfft`` on 1-D arrays
  (same values, without ``rfftn``'s n-D argument handling) and
  ``rfftn``/``irfftn`` otherwise.
* ``Scheme.FD2`` -- second-order centered differences; periodic grids use
  wraparound, bounded 1-D grids use even-reflection ghost values
  (consistent with homogeneous Neumann data).

All operators are linear and act node-wise on the stored arrays.  Public
functions return validated fields; internal kernels (``_derivs``,
``_div``, ``_div_tensor``) work on arrays, and refuse a non-periodic grid
under the spectral scheme.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .fields import Components, ScalarField, SymTensorField, VectorField
from .grids import Discretization, Grid, Scheme


def _half_axes(grid: Grid):
    """Per axis of the rfftn half spectrum (the last axis halved): n, h, frequencies, shape."""
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        freq = np.fft.rfftfreq if axis == grid.dim - 1 else np.fft.fftfreq
        yield n, h, freq, [-1 if a == axis else 1 for a in range(grid.dim)]


@lru_cache(maxsize=128)
def _ik(grid: Grid) -> tuple[np.ndarray, ...]:
    """i k per axis on the half spectrum, zero at every axis's Nyquist mode (read-only)."""
    out = []
    for n, h, freq, shape in _half_axes(grid):
        k = 2.0 * np.pi * freq(n, d=h)
        if n % 2 == 0:
            k[n // 2] = 0.0
        out.append((1j * k).reshape(shape))
        out[-1].setflags(write=False)
    return tuple(out)


def _rfft(values: np.ndarray) -> np.ndarray:
    """The half spectrum of a grid array: ``rfft`` in 1-D, skipping ``rfftn``'s n-D set-up."""
    return np.fft.rfft(values) if values.ndim == 1 else np.fft.rfftn(values)


def _irfft(fhat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The grid array of a half spectrum, the inverse of :func:`_rfft`."""
    if len(shape) == 1:
        return np.fft.irfft(fhat, n=shape[0])
    return np.fft.irfftn(fhat, s=shape, axes=tuple(range(len(shape))))


def _fd2_deriv(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    h = grid.h[axis]
    if grid.is_periodic:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    # bounded 1-D: even-reflection ghosts f[-1] = f[0], f[n] = f[n-1]
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (values[1] - values[0]) / (2.0 * h)
    out[-1] = (values[-1] - values[-2]) / (2.0 * h)
    return out


def _derivs(values: np.ndarray, grid: Grid, d: Discretization) -> Components:
    """The gradient of one array.  Spectral: one forward transform, one inverse per axis."""
    if d.scheme is Scheme.SPECTRAL:
        d.require_compatible(grid)
        fhat = _rfft(values)
        return tuple(_irfft(ik * fhat, grid.shape) for ik in _ik(grid))
    return tuple(_fd2_deriv(values, grid, axis) for axis in range(grid.dim))


def _spectra(t: Components, grid: Grid, dealias: bool = False) -> list[np.ndarray]:
    """The half spectrum of each component; ``dealias`` zeroes every mode above n/3 on any axis."""
    hats = [_rfft(c) for c in t]
    if not dealias:
        return hats
    keep = np.ones((), dtype=bool)
    for n, _, freq, shape in _half_axes(grid):
        keep = keep & (np.abs(freq(n, d=1.0 / n)) <= n / 3.0).reshape(shape)
    return [np.where(keep, h, 0.0) for h in hats]


def _div_spectra(hats: list[np.ndarray], grid: Grid, rows: int) -> Components:
    """Row-wise divergence from the half spectra of a stored tensor: one inverse per row."""
    ik = _ik(grid)
    return tuple(_irfft(sum(ik[j] * hats[i + j] for j in range(grid.dim)), grid.shape)
                 for i in range(rows))


def _div_tensor(t: Components, grid: Grid, d: Discretization, rows: int = 0) -> Components:
    """Row-wise divergence of a stored symmetric tensor: row i is t[i:i + dim].

    ``rows`` = 1 takes the divergence of a vector.  Spectral: each component
    is transformed once, each row summed in Fourier space before one inverse.
    """
    dim, rows = grid.dim, rows or grid.dim
    if d.scheme is Scheme.SPECTRAL:
        d.require_compatible(grid)
        return _div_spectra(_spectra(t, grid), grid, rows)
    return tuple(sum(_fd2_deriv(t[i + j], grid, j) for j in range(dim)) for i in range(rows))


def _div(v: Components, grid: Grid, d: Discretization) -> np.ndarray:
    """Divergence of a vector given by its component arrays."""
    return _div_tensor(v, grid, d, rows=1)[0]


def grad(f: ScalarField, d: Discretization) -> VectorField:
    """Discrete gradient of a scalar field."""
    return VectorField(f.grid, _derivs(f.values, f.grid, d))


def div(v: VectorField, d: Discretization) -> ScalarField:
    """Discrete divergence of a vector field."""
    return ScalarField(v.grid, _div(v.components, v.grid, d))


def div_tensor(t: SymTensorField, d: Discretization) -> VectorField:
    """Row-wise divergence of a symmetric tensor: (div T)_i = sum_j d_j T_ij."""
    return VectorField(t.grid, _div_tensor(t.components, t.grid, d))


def laplacian(f: ScalarField, d: Discretization) -> ScalarField:
    """Discrete Laplacian.

    Spectral: multiplication by (i k)^2 with the same Nyquist mask as the
    first derivatives, so it equals div(grad(.)) exactly.  FD2: the compact
    3-point stencil per axis.
    """
    grid = f.grid
    if d.scheme is Scheme.SPECTRAL:
        d.require_compatible(grid)
        fhat = _rfft(f.values)
        return ScalarField(grid, _irfft(sum(ik * ik for ik in _ik(grid)) * fhat, grid.shape))
    total = np.zeros(grid.shape)
    v = f.values
    for axis in range(grid.dim):
        h2 = grid.h[axis] ** 2
        if grid.is_periodic:
            total += (np.roll(v, -1, axis=axis) - 2.0 * v + np.roll(v, 1, axis=axis)) / h2
        else:
            part = np.empty_like(v)
            part[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
            part[0] = (v[1] - v[0]) / h2
            part[-1] = (v[-2] - v[-1]) / h2
            total += part
    return ScalarField(grid, total)


def mean(f: ScalarField) -> float:
    """Grid average (trapezoid rule collapses to the plain average here)."""
    return float(f.values.mean())


def dealias_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule filter: zero every mode above n/3 on any axis."""
    if not grid.is_periodic:
        raise ConfigError("dealiasing is defined on periodic grids only")
    return _irfft(_spectra((values,), grid, dealias=True)[0], grid.shape)
