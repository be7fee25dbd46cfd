"""The mobility-weighted elliptic operator -div(gamma grad .) and its inverses.

Three inversion settings are provided, each normalized on the
zero-mean subspace (the operator kills constants, so compatible data must
have zero mean and the solution is fixed by mean(phi) = 0):

* periodic grids, constant mobility: diagonal Fourier solve on the real
  half spectrum, a multiplication by the inverse of the scheme's symbol,
  cached read-only per (grid, scheme) and zero on the symbol's null modes
  (the mean and the zeroed Nyquist modes);
* bounded Neumann 1-D grids: direct solve of the flux-form FD2 system
  (reflected ghosts = zero wall flux) by two prefix sums;
* free space 1-D: the kernel -|x|/2 on a window, for compactly supported
  data, by prefix sums of f and x f.

Variable mobility on periodic grids uses CG on the composed discrete
operator, preconditioned by the Fourier solve at the mean mobility; the
iteration count then depends on the mobility contrast, not on N.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CompatibilityError, ConfigError, DomainError, SolverError
from .fields import ScalarField
from .grids import FD2, Discretization, Grid, Scheme
from .operators import _derivs, _div, _ik, _irfft, _rfft

log = logging.getLogger(__name__)

COMPAT_RTOL = 1e-10
SOLVE_RTOL = 1e-10


@dataclass(frozen=True)
class Mobility:
    """Strictly positive mobility: a constant or one value per node."""

    value: float | np.ndarray

    def __post_init__(self):
        v = self.value
        if np.isscalar(v):
            if v <= 0.0:
                raise ConfigError("mobility must be positive")
            object.__setattr__(self, "value", float(v))
        else:
            arr = np.array(v, dtype=float, copy=True)
            if np.min(arr) <= 0.0:
                raise ConfigError("mobility field must be positive everywhere")
            arr.setflags(write=False)
            object.__setattr__(self, "value", arr)

    @classmethod
    def constant(cls, gamma0: float) -> "Mobility":
        return cls(float(gamma0))

    @classmethod
    def spatial(cls, values) -> "Mobility":
        return cls(np.asarray(values, dtype=float))

    @property
    def is_constant(self) -> bool:
        return np.isscalar(self.value)

    def values_on(self, grid: Grid) -> np.ndarray:
        if self.is_constant:
            return np.full(grid.shape, self.value)
        if self.value.shape != grid.shape:
            raise ConfigError("mobility field shape does not match grid")
        return np.asarray(self.value)


def _check_compatible(f: ScalarField, project: bool, context: str) -> np.ndarray:
    """Enforce (or project off) the zero-mean solvability constraint."""
    fv = f.values
    m = float(fv.mean())
    scale = float(np.max(np.abs(fv)))
    if scale == 0.0:
        return fv
    if abs(m) > COMPAT_RTOL * scale:
        if not project:
            raise CompatibilityError(
                f"{context}: right-hand side mean {m:.3e} exceeds "
                f"{COMPAT_RTOL:.0e} * max|f| = {COMPAT_RTOL * scale:.3e}")
        log.debug("%s: projecting off rhs mean %.3e", context, m)
    return fv - m


def apply_operator(gamma: Mobility, phi: ScalarField, d: Discretization) -> ScalarField:
    """-div(gamma grad phi), assembled in divergence form.

    Periodic grids compose the scheme's grad and div; bounded Neumann
    grids use the compact face-flux form whose wall fluxes vanish exactly
    under even reflection.
    """
    grid = phi.grid
    d.require_compatible(grid)
    return ScalarField(grid, _matvec(gamma.values_on(grid), grid, d)(phi.values))


def _matvec(gamma_vals: np.ndarray, grid: Grid, d: Discretization):
    """-div(gamma grad .) as an array->array map on either boundary kind."""
    if grid.is_periodic:
        def periodic(phi: np.ndarray) -> np.ndarray:
            g = _derivs(phi, grid, d)
            return -_div(tuple(gamma_vals * comp for comp in g), grid, d)

        return periodic
    h = grid.h[0]
    gface = 0.5 * (gamma_vals[1:] + gamma_vals[:-1])

    def neumann(phi: np.ndarray) -> np.ndarray:
        flux = gface * (phi[1:] - phi[:-1]) / h
        out = np.empty_like(phi)
        out[0] = flux[0] / h
        out[1:-1] = (flux[1:] - flux[:-1]) / h
        out[-1] = -flux[-1] / h
        return -out

    return neumann


def _pcg_zero_mean(matvec, b: np.ndarray, precond, context: str) -> np.ndarray:
    """Preconditioned CG on the mean-zero subspace.

    The operators used here map mean-zero vectors to mean-zero vectors
    exactly (divergence form), so a single initial projection suffices.
    """
    b = b - b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, 10 * b.size + 1):
        ap = matvec(p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        if rnorm <= SOLVE_RTOL * bnorm:
            log.debug("%s: cg converged in %d iterations, residual %.3e",
                      context, it, rnorm / bnorm)
            x -= x.mean()
            return x
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"{context}: cg failed to converge in {it} iterations "
                      f"(relative residual {rnorm / bnorm:.3e})")


@lru_cache(maxsize=128)
def _inverse_symbol(grid: Grid, scheme: Scheme) -> np.ndarray:
    """1 / the half-spectrum symbol of -div(grad .), zero on its null modes (read-only).

    The symbol is the scheme's: |k|^2 spectrally, sum (sin(k h) / h)^2 for FD2,
    with the Nyquist modes zeroed as in the first derivatives.
    """
    sym = sum(ik.imag * ik.imag if scheme is Scheme.SPECTRAL else (np.sin(ik.imag * h) / h) ** 2
              for ik, h in zip(_ik(grid), grid.h))
    inv = np.zeros_like(sym)
    np.divide(1.0, sym, out=inv, where=sym > 0.0)
    inv.setflags(write=False)
    return inv


def _fourier_solve(fv: np.ndarray, inv_sym: np.ndarray, gamma: float) -> np.ndarray:
    """Solve -gamma div(grad phi) = fv by the inverse symbol; zero-mean result."""
    phi = _irfft(_rfft(fv) * inv_sym, fv.shape)
    return (phi - phi.mean()) / gamma


def invert_periodic(gamma: Mobility, f: ScalarField,
                    d: Discretization = Discretization(Scheme.SPECTRAL),
                    project_mean: bool = False) -> ScalarField:
    """Solve -div(gamma grad phi) = f on a periodic grid, mean(phi) = 0.

    Constant mobility is a diagonal Fourier solve with the scheme-matched
    symbol, so the round trip through :func:`apply_operator` reproduces
    f minus its mean to solver precision.  Variable mobility uses CG with
    the composed operator, preconditioned by that Fourier solve at the
    mean mobility.
    """
    grid = f.grid
    if not grid.is_periodic:
        raise ConfigError("invert_periodic needs a periodic grid")
    d.require_compatible(grid)
    fv = _check_compatible(f, project_mean, "periodic solve")
    inv_sym = _inverse_symbol(grid, d.scheme)
    if gamma.is_constant:
        return ScalarField(grid, _fourier_solve(fv, inv_sym, gamma.value))
    gv = gamma.values_on(grid)
    gmean = float(np.mean(gv))
    return ScalarField(grid, _pcg_zero_mean(
        _matvec(gv, grid, d), fv, lambda r: _fourier_solve(r, inv_sym, gmean),
        "periodic variable-mobility solve"))


def invert_neumann_1d(gamma: Mobility, f: ScalarField,
                      project_mean: bool = False) -> ScalarField:
    """Solve the bounded 1-D problem with zero Neumann flux and zero mean.

    Exact: with zero wall flux, the flux through face i+1/2 is -h sum_{j<=i} f_j,
    and phi is the running sum of the face differences h flux / gamma_face.
    """
    grid = f.grid
    if grid.is_periodic or grid.dim != 1:
        raise ConfigError("invert_neumann_1d needs a bounded 1-D grid")
    fv = _check_compatible(f, project_mean, "neumann solve")
    gv = gamma.values_on(grid)
    h = grid.h[0]
    flux = -h * np.cumsum(fv[:-1])
    phi = np.concatenate(([0.0], np.cumsum(h * flux / (0.5 * (gv[1:] + gv[:-1])))))
    return ScalarField(grid, phi - phi.mean())


def invert_freespace_1d(gamma: Mobility, f: ScalarField,
                        support_rtol: float = 1e-10) -> ScalarField:
    """Kernel-convolution inverse on a 1-D window for compactly supported f.

    phi(x) = -(1/gamma) * integral |x - y|/2 f(y) dy  (trapezoid rule),
    shifted to zero mean over the window.  Requires f to vanish near the
    window edges and to have zero mean; then -gamma phi'' = f holds on the
    support interior at quadrature order.  With the prefix sums S of f and
    T of x f, sum_j |x_i - x_j| f_j = x_i (2 S_i - S_N) - (2 T_i - T_N).
    """
    grid = f.grid
    if grid.dim != 1:
        raise ConfigError("free-space inversion is one-dimensional only")
    if not gamma.is_constant:
        raise ConfigError("free-space inversion needs constant mobility")
    fv = f.values
    scale = float(np.max(np.abs(fv)))
    edge = max(2, grid.n[0] // 20)
    if scale > 0.0 and float(np.max(np.abs(fv[:edge])) + np.max(np.abs(fv[-edge:]))) \
            > support_rtol * scale:
        raise DomainError("free-space data must be supported away from the window edges")
    fv = _check_compatible(f, False, "free-space solve")
    x = grid.axis_coords(0)
    s, t = np.cumsum(fv), np.cumsum(x * fv)
    phi = (-0.5 * grid.h[0] / gamma.value) * (x * (2.0 * s - s[-1]) - (2.0 * t - t[-1]))
    return ScalarField(grid, phi - phi.mean())


def invert_for_model(gamma: Mobility, f: ScalarField, d: Discretization) -> ScalarField:
    """Inverse used inside the reduced model right-hand sides.

    Routes on the grid's boundary kind and projects off the data's mean.
    The data is a discrete divergence: its mean is round-off on periodic
    grids, but (u[n-1] - u[0]) / L on the bounded Neumann grid (FD2 with
    reflected ghosts), and the projection discards it.
    """
    if f.grid.is_periodic:
        return invert_periodic(gamma, f, d, project_mean=True)
    return invert_neumann_1d(gamma, f, project_mean=True)
