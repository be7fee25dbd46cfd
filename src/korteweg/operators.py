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
* ``Scheme.FD2`` -- second-order centered differences.  One ghost rule,
  ``_neighbours``, gives every FD2 kernel (here and the Neumann operator of
  :mod:`korteweg.elliptic`) a node's neighbours: wraparound on periodic
  grids, even reflection f[-1] = f[0], f[n] = f[n-1] on bounded 1-D grids
  (consistent with homogeneous Neumann data).

All operators are linear and act node-wise on the stored arrays.  Public
functions return validated fields; internal kernels (``_derivs``,
``_div``, ``_div_tensor``) work on arrays, and refuse a non-periodic grid
under the spectral scheme.

Two multi-array kernels serve the dependency levels of a right-hand side
(:mod:`korteweg.models`): ``_grads`` takes the gradients of several arrays
and ``_conservation_rates`` the divergences of a conservation law's flux.
On a 1-D spectral grid each stacks its rows and makes one ``rfft`` and one
``irfft`` call for all of them: at N = 256 numpy's cost per call, not the
FFT work, dominates, and a stacked call gives each row the bits of a call
of its own.  In 2-D and under FD2 they run the per-array kernels in turn:
a stacked ``rfftn`` over 5 arrays of 128 x 128 measured slower than 5 calls.
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
    """The grid array of a half spectrum, the inverse of :func:`_rfft`.

    On a 1-D grid ``fhat`` may stack spectra along a leading axis; each row is inverted.
    """
    if len(shape) == 1:
        return np.fft.irfft(fhat, n=shape[0])
    return np.fft.irfftn(fhat, s=shape, axes=tuple(range(len(shape))))


@lru_cache(maxsize=128)
def _ghost_index(n: int, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """The FD2 ghost rule as indices of each node's previous and next node (read-only):
    wraparound, or even reflection f[-1] = f[0], f[n] = f[n - 1] on a bounded axis."""
    i = np.arange(n)
    mode = "wrap" if periodic else "clip"
    out = i.take(i - 1, mode=mode), i.take(i + 1, mode=mode)
    for index in out:
        index.setflags(write=False)
    return out


def _neighbours(values: np.ndarray, grid: Grid,
                axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(previous, this, next) node values along ``axis`` under the FD2 ghost rule."""
    prev, nxt = _ghost_index(grid.n[axis], grid.is_periodic)
    return values.take(prev, axis=axis), values, values.take(nxt, axis=axis)


def _fd2_deriv(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    prev, _, nxt = _neighbours(values, grid, axis)
    return (nxt - prev) / (2.0 * grid.h[axis])


def _derivs(values: np.ndarray, grid: Grid, d: Discretization) -> Components:
    """The gradient of one array.  Spectral: one forward transform, one inverse per axis."""
    if d.scheme is Scheme.SPECTRAL:
        d.require_compatible(grid)
        fhat = _rfft(values)
        return tuple(_irfft(ik * fhat, grid.shape) for ik in _ik(grid))
    return tuple(_fd2_deriv(values, grid, axis) for axis in range(grid.dim))


@lru_cache(maxsize=128)
def _dealias_mask(grid: Grid) -> np.ndarray:
    """The 2/3 rule on the half spectrum: False at every mode above n/3 on any axis (read-only)."""
    keep = np.ones((), dtype=bool)
    for n, _, freq, shape in _half_axes(grid):
        keep = keep & (np.abs(freq(n, d=1.0 / n)) <= n / 3.0).reshape(shape)
    keep.setflags(write=False)
    return keep


def _spectra(t: Components, grid: Grid, dealias: bool = False) -> list[np.ndarray]:
    """The half spectrum of each component; ``dealias`` zeroes every mode above n/3 on any axis."""
    hats = [_rfft(c) for c in t]
    if not dealias:
        return hats
    keep = _dealias_mask(grid)
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


def _stacks(grid: Grid, d: Discretization) -> bool:
    """Whether the multi-array kernels stack their rows: spectral on a 1-D grid.

    Like the per-array kernels, refuses a non-periodic grid under the spectral scheme.
    """
    if d.scheme is not Scheme.SPECTRAL:
        return False
    d.require_compatible(grid)
    return grid.dim == 1


def _grads(arrays: Components, grid: Grid, d: Discretization) -> tuple[Components, ...]:
    """The gradient of each array, as :func:`_derivs` gives it.

    1-D spectral: one stacked forward and one stacked inverse for all of them.
    """
    if not _stacks(grid, d):
        return tuple(_derivs(a, grid, d) for a in arrays)
    rows = _irfft(_ik(grid)[0] * np.fft.rfft(np.array(arrays)), grid.shape)
    return tuple((row,) for row in rows)


def _conservation_rates(mass: Components, stress: Components, advective: Components,
                        grid: Grid, d: Discretization) -> tuple[np.ndarray, Components]:
    """(-div mass, div(stress - advective)): the rates of a conservation law for
    (rho, m) with flux [mass; advective - stress].

    ``mass`` is a vector, ``stress`` and ``advective`` stored symmetric tensors.
    Under ``d.dealias`` the 2/3 rule masks ``mass`` and ``advective`` (the
    quadratic terms) in the spectra the divergences take.  1-D spectral: every
    row in one stacked forward and both divergences in one stacked inverse.
    Otherwise :func:`_div` of ``mass``, then :func:`_div_tensor` of the rest.
    """
    if not _stacks(grid, d):
        if d.dealias:
            flux_hat = [s - a for s, a in zip(_spectra(stress, grid),
                                              _spectra(advective, grid, True))]
            return (-_div_spectra(_spectra(mass, grid, True), grid, 1)[0],
                    _div_spectra(flux_hat, grid, grid.dim))
        flux = tuple(s - a for s, a in zip(stress, advective))
        return -_div(mass, grid, d), _div_tensor(flux, grid, d)
    if d.dealias:
        keep = _dealias_mask(grid)
        hm, hs, ha = np.fft.rfft(np.array((*mass, *stress, *advective)))
        hats = np.array((np.where(keep, hm, 0.0), hs - np.where(keep, ha, 0.0)))
    else:
        hats = np.fft.rfft(np.array((*mass, stress[0] - advective[0])))
    div_mass, div_flux = _irfft(_ik(grid)[0] * hats, grid.shape)
    return -div_mass, (div_flux,)


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
    3-point stencil per axis under the ghost rule.
    """
    grid = f.grid
    if d.scheme is Scheme.SPECTRAL:
        d.require_compatible(grid)
        fhat = _rfft(f.values)
        return ScalarField(grid, _irfft(sum(ik * ik for ik in _ik(grid)) * fhat, grid.shape))
    total = np.zeros(grid.shape)
    for axis in range(grid.dim):
        prev, this, nxt = _neighbours(f.values, grid, axis)
        total += (nxt - 2.0 * this + prev) / grid.h[axis] ** 2
    return ScalarField(grid, total)


def mean(f: ScalarField) -> float:
    """Grid average (trapezoid rule collapses to the plain average here)."""
    return float(f.values.mean())


def dealias_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule filter: zero every mode above n/3 on any axis."""
    if not grid.is_periodic:
        raise ConfigError("dealiasing is defined on periodic grids only")
    return _irfft(_spectra((values,), grid, dealias=True)[0], grid.shape)
