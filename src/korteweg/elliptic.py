"""The mobility-weighted elliptic operator -div(gamma grad .) and its inverses.

A mobility is made one way, ``Mobility(v)``: any 0-d value (a Python or numpy
number, or a 0-d array) is the constant, kept as a float; anything else is one
value per node, kept as a read-only float copy.  The profiles that runs and the
corpus use are built by :class:`korteweg.initial.MobilitySpec`.

Three inversion settings are provided, each normalized on the
zero-mean subspace (the operator kills constants, so compatible data must
have zero mean and the solution is fixed by mean(phi) = 0):

* periodic grids, constant mobility: diagonal Fourier solve on the real
  half spectrum, a multiplication by the inverse of the scheme's symbol,
  a read-only array built on first use by the grid's calculus
  (:class:`korteweg.operators._Calculus`, ``inv_sym``) and zero on the
  symbol's null modes (the mean and the zeroed Nyquist modes);
* bounded Neumann 1-D grids: direct solve of the flux-form FD2 system
  (reflected ghosts = zero wall flux) by two prefix sums, the face form of
  the operator;
* free space 1-D: the kernel -|x|/2 on a window, for compactly supported
  data, by prefix sums of f and x f.

Variable mobility on a 1-D periodic grid is a direct solve too: with D the
scheme's derivative, gamma D phi is an antiderivative of -f, so phi is two
spectral antiderivatives (``_Calculus.antideriv``) away from f, with the
free constants fixed by a 2 x 2 system (four transforms).  On a 2-D periodic grid
it is CG on the composed discrete operator, preconditioned by the Fourier
solve at the mean mobility; the iteration count then depends on the
mobility contrast, not on N.  Every periodic solve drops the data's part on
the operator's null modes: the mean and the checkerboards (-1)^i of even
axes (``_Calculus.checkerboards``), which the derivatives kill.  The first
two settings are one array kernel, ``_solve``, which solves for the
zero-mean part of its data, on the grid's calculus (so a right-hand side
looks the symbols up once per run), and each public function looks the
calculus up once.  The right-hand sides call it directly for a variable
mobility or on a bounded grid; with a constant mobility on a spectral grid
they apply the same inverse symbol as part of a Fourier multiplier
(:func:`korteweg.models._stress_symbol`) and solve nothing.
:func:`invert_for_model`, the one public inverse that discards a mean, calls
it too; the other public inverses first refuse data with a mean
(CompatibilityError).  The Neumann operator (``_matvec``) and its solve
share one face mobility, ``_faces``, and one wall rule: zero flux through
both walls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CompatibilityError, ConfigError, DomainError, SolverError,
                     _require_finite_fields)
from .fields import ScalarField
from .grids import FD2, SPECTRAL, Grid, Scheme
from .operators import _calculus, _Calculus

log = logging.getLogger(__name__)

COMPAT_RTOL = 1e-10
SOLVE_RTOL = 1e-10
SUPPORT_RTOL = 1e-10   # free-space data must fall below this fraction of max|f| at the edges


@dataclass(frozen=True)
class Mobility:
    """Strictly positive mobility: a constant (any 0-d value, kept as a float) or
    one value per node (kept as a read-only float copy)."""

    value: float | np.ndarray

    def __post_init__(self):
        v = self.value
        if np.ndim(v) == 0:
            if v <= 0.0:
                raise ConfigError("mobility must be positive")
            object.__setattr__(self, "value", float(v))
        else:
            arr = np.array(v, dtype=float, copy=True)
            if np.min(arr) <= 0.0:
                raise ConfigError("mobility field must be positive everywhere")
            arr.setflags(write=False)
            object.__setattr__(self, "value", arr)
        _require_finite_fields(self, "value")

    @property
    def is_constant(self) -> bool:
        return np.isscalar(self.value)

    @cached_property
    def _periodic_1d_weights(self) -> tuple:
        """w = 1/gamma, mean(w), w nu and mean(w nu), nu = (-1)^j: the constants of the
        1-D periodic direct solve, formed once per mobility."""
        w = 1.0 / self.value
        wnu = w * (1.0 - 2.0 * (np.arange(w.size) % 2))
        return w, float(w.mean()), wnu, float(wnu.mean())

    def values_on(self, grid: Grid) -> np.ndarray:
        if self.is_constant:
            return np.full(grid.shape, self.value)
        if self.value.shape != grid.shape:
            raise ConfigError("mobility field shape does not match grid")
        return np.asarray(self.value)


def _require_zero_mean(fv: np.ndarray, context: str) -> None:
    """Refuse data off the zero-mean subspace, where the inverse does not exist."""
    m = float(fv.mean())
    scale = float(np.max(np.abs(fv)))
    if abs(m) > COMPAT_RTOL * scale:
        raise CompatibilityError(
            f"{context}: right-hand side mean {m:.3e} exceeds "
            f"{COMPAT_RTOL:.0e} * max|f| = {COMPAT_RTOL * scale:.3e}")


def apply_operator(gamma: Mobility, phi: ScalarField, d: Scheme) -> ScalarField:
    """-div(gamma grad phi), assembled in divergence form.

    Periodic grids compose the scheme's grad and div; bounded Neumann
    grids use the compact face-flux form whose wall fluxes vanish exactly
    under even reflection.
    """
    grid = phi.grid
    return ScalarField(grid, _matvec(gamma.values_on(grid), _calculus(grid, d))(phi.values))


def _faces(gamma_vals: np.ndarray) -> np.ndarray:
    """The mobility at the n - 1 inner faces of a bounded 1-D grid: the mean of the
    two nodes beside each."""
    return 0.5 * (gamma_vals[1:] + gamma_vals[:-1])


def _matvec(gamma_vals: np.ndarray, ops: _Calculus):
    """-div(gamma grad .) as an array->array map on either boundary kind.

    Bounded: the differences of the face fluxes (``_faces``), zero at both walls.
    """
    grid = ops.grid
    if grid.is_periodic:
        def periodic(phi: np.ndarray) -> np.ndarray:
            return -ops.div(gamma_vals * ops.derivs(phi))

        return periodic
    h, faces = grid.h[0], _faces(gamma_vals)

    def neumann(phi: np.ndarray) -> np.ndarray:
        return -np.diff(faces * np.diff(phi) / h, prepend=0.0, append=0.0) / h

    return neumann


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a b by numpy's own pairwise sum, whose bits do not depend on the BLAS
    thread count, unlike ``np.vdot`` and ``np.linalg.norm`` on large arrays."""
    return float(np.add.reduce(a * b, axis=None))


def _pcg_zero_mean(matvec, b: np.ndarray, precond, context: str) -> np.ndarray:
    """Preconditioned CG on the mean-zero subspace.

    The operators used here map mean-zero vectors to mean-zero vectors
    exactly (divergence form), so a single initial projection suffices.
    Data on the operator's other null modes must already be dropped, or CG
    runs to its budget.  Inner products and norms are ``_dot``s.
    """
    b = b - b.mean()
    bnorm = math.sqrt(_dot(b, b))
    if not np.isfinite(bnorm):   # else CG iterates to its budget
        raise DomainError(f"{context}: non-finite right-hand side")
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, 10 * b.size + 1):
        ap = matvec(p)
        alpha = rz / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        rnorm = math.sqrt(_dot(r, r))
        if rnorm <= SOLVE_RTOL * bnorm:
            log.debug("%s: cg converged in %d iterations, residual %.3e",
                      context, it, rnorm / bnorm)
            x -= x.mean()
            return x
        z = precond(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"{context}: cg failed to converge in {it} iterations "
                      f"(relative residual {rnorm / bnorm:.3e})")


def _fourier_solve(fv: np.ndarray, ops: _Calculus, gamma: float) -> np.ndarray:
    """Solve -gamma div(grad phi) = fv by the inverse symbol of ``ops``; zero-mean result."""
    phi = ops.inverse(ops.forward(fv) * ops.inv_sym)
    return (phi - phi.mean()) / gamma


def _direct_periodic_1d(gamma: Mobility, fv: np.ndarray, ops: _Calculus) -> np.ndarray:
    """-D(gamma D phi) = fv on a 1-D periodic grid, D the scheme's derivative: exact.

    With D+ the pseudo-inverse of D (``ops.antideriv``), gamma D phi = g with
    g = -D+ fv + a + b nu, nu = (-1)^j (even N only, else b = 0), and
    phi = D+(g / gamma).  a and b make g / gamma orthogonal to D's null modes 1
    and nu, so that it has an antiderivative.  Data on those modes is dropped.
    """
    w, wbar, wnu, c = gamma._periodic_1d_weights
    wg = w * ops.inverse(ops.forward(fv) * -ops.antideriv)
    s0 = float(wg.mean())
    if not np.isfinite(s0):
        raise DomainError("periodic variable-mobility solve: non-finite right-hand side")
    if ops.checkerboards:   # [[wbar, c], [c, wbar]] (a, b) = -(s0, s1), det > 0 as w > 0
        s1 = float((wg * ops.checkerboards[0]).mean())
        det = wbar * wbar - c * c
        wg += ((c * s1 - wbar * s0) / det) * w + ((c * s0 - wbar * s1) / det) * wnu
    else:
        wg -= (s0 / wbar) * w
    return ops.inverse(ops.forward(wg) * ops.antideriv)


def _solve(gamma: Mobility, fv: np.ndarray, ops: _Calculus) -> np.ndarray:
    """-div(gamma grad phi) = fv - mean(fv), mean(phi) = 0, on arrays, either boundary kind.

    ``ops`` is the grid's calculus, which holds the inverse symbol of a
    periodic grid.  The solve is for the zero-mean part of the data: callers
    that must refuse a mean check it first (:func:`_require_zero_mean`).
    Periodic grids also drop the data's part on the operator's other null
    modes, the checkerboards the derivatives kill.  A variable mobility is a
    direct solve in 1-D (:func:`_direct_periodic_1d`) and CG in 2-D.
    Neumann: with zero wall flux, the flux through face i+1/2 is
    -h sum_{j<=i} f_j; phi is the running sum of h flux / gamma_face (``_faces``).
    """
    fv = fv - fv.mean()
    grid = ops.grid
    if grid.is_periodic and gamma.is_constant:
        return _fourier_solve(fv, ops, gamma.value)
    gv = gamma.values_on(grid)
    if grid.is_periodic:
        if grid.dim == 1:
            return _direct_periodic_1d(gamma, fv, ops)
        for mode in ops.checkerboards:
            fv -= float((fv * mode).mean()) * mode
        gmean = float(np.mean(gv))
        return _pcg_zero_mean(_matvec(gv, ops), fv,
                              lambda r: _fourier_solve(r, ops, gmean),
                              "periodic variable-mobility solve")
    h = grid.h[0]
    flux = -h * np.cumsum(fv[:-1])
    phi = np.concatenate(([0.0], np.cumsum(h * flux / _faces(gv))))
    return phi - phi.mean()


def invert_periodic(gamma: Mobility, f: ScalarField,
                    d: Scheme = SPECTRAL) -> ScalarField:
    """Solve -div(gamma grad phi) = f on a periodic grid, mean(phi) = 0.

    Constant mobility is a diagonal Fourier solve with the scheme-matched
    symbol, so the round trip through :func:`apply_operator` reproduces
    f minus its mean to solver precision.  Variable mobility is a direct
    solve by two antiderivatives in 1-D, and in 2-D CG with the composed
    operator, preconditioned by that Fourier solve at the mean mobility.
    Data on the checkerboard null modes of even axes is dropped.
    """
    grid = f.grid
    if not grid.is_periodic:
        raise ConfigError("invert_periodic needs a periodic grid")
    _require_zero_mean(f.values, "periodic solve")
    return ScalarField(grid, _solve(gamma, f.values, _calculus(grid, d)))


def invert_neumann_1d(gamma: Mobility, f: ScalarField) -> ScalarField:
    """Solve the bounded 1-D problem with zero Neumann flux and zero mean.

    Exact: a direct solve by two prefix sums (see :func:`_solve`).
    """
    grid = f.grid
    if grid.is_periodic or grid.dim != 1:
        raise ConfigError("invert_neumann_1d needs a bounded 1-D grid")
    _require_zero_mean(f.values, "neumann solve")
    return ScalarField(grid, _solve(gamma, f.values, _calculus(grid, FD2)))


def invert_freespace_1d(gamma: Mobility, f: ScalarField) -> ScalarField:
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
            > SUPPORT_RTOL * scale:
        raise DomainError("free-space data must be supported away from the window edges")
    _require_zero_mean(fv, "free-space solve")
    fv = fv - fv.mean()
    x = grid.axis_coords(0)
    s, t = np.cumsum(fv), np.cumsum(x * fv)
    phi = (-0.5 * grid.h[0] / gamma.value) * (x * (2.0 * s - s[-1]) - (2.0 * t - t[-1]))
    return ScalarField(grid, phi - phi.mean())


def invert_for_model(gamma: Mobility, f: ScalarField, d: Scheme) -> ScalarField:
    """Inverse used inside the reduced model right-hand sides.

    Routes on the grid's boundary kind and, unlike the strict inverses,
    solves for the zero-mean part of f without checking its mean.  The data
    is a discrete divergence: its mean is round-off on periodic grids, but
    (u[n-1] - u[0]) / L on the bounded Neumann grid (FD2 with reflected
    ghosts), and :func:`_solve` discards it.
    """
    return ScalarField(f.grid, _solve(gamma, f.values, _calculus(f.grid, d)))
