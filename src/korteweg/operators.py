"""Discrete differential calculus: gradient, divergence, Laplacian.

Two interchangeable discretizations:

* ``Scheme.SPECTRAL`` -- Fourier differentiation on periodic grids.  The
  Nyquist mode is dropped (set to zero) so odd derivatives stay real and
  skew-symmetric.
* ``Scheme.FD2`` -- second-order centered differences; periodic grids use
  wraparound, bounded 1-D grids use even-reflection ghost values
  (consistent with homogeneous Neumann data).

All operators are linear and act node-wise on the stored arrays.  Public
functions return validated fields; internal kernels (``_derivs``,
``_div``, ``_div_tensor``) work on arrays and are what the hot loops call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .fields import Components, ScalarField, SymTensorField, VectorField
from .grids import Discretization, Grid, Scheme


@lru_cache(maxsize=128)
def _deriv_wavenumbers(n: int, h: float) -> np.ndarray:
    """FFT wavenumbers for first derivatives, Nyquist zeroed (read-only)."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    if n % 2 == 0:
        k[n // 2] = 0.0
    k.setflags(write=False)
    return k


def _axis_shaped(k: np.ndarray, dim: int, axis: int) -> np.ndarray:
    shape = [1] * dim
    shape[axis] = k.size
    return k.reshape(shape)


def _axis_wavenumbers(grid: Grid, axis: int) -> np.ndarray:
    return _axis_shaped(_deriv_wavenumbers(grid.n[axis], grid.h[axis]), grid.dim, axis)


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


def _derivs(values: np.ndarray, grid: Grid, axes, d: Discretization) -> Components:
    """First derivatives of one array along ``axes``.

    Spectral: one forward transform shared by all axes, one inverse each;
    every derivative passes here, so this is where a non-periodic grid is refused.
    """
    if d.scheme is Scheme.SPECTRAL:
        d.require_compatible(grid)
        fhat = np.fft.fftn(values)
        return tuple(np.fft.ifftn(1j * _axis_wavenumbers(grid, axis) * fhat).real
                     for axis in axes)
    return tuple(_fd2_deriv(values, grid, axis) for axis in axes)


def _deriv(values: np.ndarray, grid: Grid, axis: int, d: Discretization) -> np.ndarray:
    return _derivs(values, grid, (axis,), d)[0]


def _div(v: Components, grid: Grid, d: Discretization) -> np.ndarray:
    """Divergence of a vector given by its component arrays."""
    total = np.zeros(grid.shape)
    for axis in range(grid.dim):
        total += _deriv(v[axis], grid, axis, d)
    return total


def _div_tensor(t: Components, grid: Grid, d: Discretization) -> Components:
    """Row-wise divergence of a stored symmetric tensor: row i is t[i:i + dim]."""
    return tuple(_div(t[i:i + grid.dim], grid, d) for i in range(grid.dim))


def grad(f: ScalarField, d: Discretization) -> VectorField:
    """Discrete gradient of a scalar field."""
    return VectorField(f.grid, _derivs(f.values, f.grid, range(f.grid.dim), d))


def div(v: VectorField, d: Discretization) -> ScalarField:
    """Discrete divergence of a vector field."""
    return ScalarField(v.grid, _div(v.components, v.grid, d))


def div_tensor(t: SymTensorField, d: Discretization) -> VectorField:
    """Row-wise divergence of a symmetric tensor: (div T)_i = sum_j d_j T_ij."""
    return VectorField(t.grid, _div_tensor(t.components, t.grid, d))


def laplacian(f: ScalarField, d: Discretization) -> ScalarField:
    """Discrete Laplacian.

    Spectral: multiplication by -|k|^2 with the same Nyquist mask as the
    first derivatives, so it equals div(grad(.)) exactly.  FD2: the compact
    3-point stencil per axis.
    """
    d.require_compatible(f.grid)
    grid = f.grid
    if d.scheme is Scheme.SPECTRAL:
        fhat = np.fft.fftn(f.values)
        k2 = np.zeros(grid.shape)
        for axis in range(grid.dim):
            k = _axis_wavenumbers(grid, axis)
            k2 = k2 + k * k
        return ScalarField(grid, np.fft.ifftn(-k2 * fhat).real)
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


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask in FFT layout: True on retained (low) modes."""
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        n = grid.n[axis]
        modes = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        keep = modes <= n / 3.0
        mask &= _axis_shaped(keep, grid.dim, axis)
    return mask


def dealias_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    if not grid.is_periodic:
        raise ConfigError("dealiasing is defined on periodic grids only")
    return np.fft.ifftn(np.where(dealias_mask(grid), np.fft.fftn(values), 0.0)).real
