"""Assembly of the stress tensors appearing in both mixture models.

All tensors are assembled pointwise and differentiated with a single
Discretization, so the continuous rewriting identities hold at the
discrete level up to one scheme's truncation error.  The Helmholtz-energy
derivative inside the Korteweg tensor is the partial derivative in rho at
fixed |grad rho|^2 (the Dunn-Serrin convention).

The kernels ``_strain``, ``_viscous_stress``, ``_phase_stress`` and
``_korteweg`` take and return arrays, tensors as component tuples in the
storage order of :mod:`korteweg.fields`; each public function wraps one
kernel in a validated field.
"""

from __future__ import annotations

import numpy as np

from .constitutive import (FluidParams, augmented_bulk_viscosity, capillarity,
                           helmholtz_energy_drho)
from .errors import DomainError
from .fields import Components, ScalarField, SymTensorField, VectorField, _outer, _plus_diag, _sup
from .grids import Discretization, Grid
from .operators import _derivs, _div


def _strain(u: Components, grid: Grid, d: Discretization) -> Components:
    g = [_derivs(c, grid, range(grid.dim), d) for c in u]   # g[i][j] = d_j u_i
    return tuple(g[i][i] if i == j else 0.5 * (g[i][j] + g[j][i])
                 for i in range(grid.dim) for j in range(i, grid.dim))


def strain(u: VectorField, d: Discretization) -> SymTensorField:
    """Symmetric velocity gradient (grad u + grad u^T) / 2."""
    return SymTensorField(u.grid, _strain(u.components, u.grid, d))


def _viscous_stress(u: Components, grid: Grid, bulk, params: FluidParams, d: Discretization,
                    extra=None) -> Components:
    """(2 mu D(u) + bulk div u I) + extra I, the assembly behind the three Cauchy stresses.

    ``bulk`` is a constant or a grid function; ``extra`` is optional.
    """
    dd = _strain(u, grid, d)
    out = _plus_diag(tuple(2.0 * params.shear_viscosity * c for c in dd),
                     bulk * _div(u, grid, d))
    return out if extra is None else _plus_diag(out, extra)


def cauchy_stress(u: VectorField, params: FluidParams, d: Discretization) -> SymTensorField:
    """2 mu D(u) + lambda (div u) I."""
    return SymTensorField(u.grid, _viscous_stress(u.components, u.grid,
                                                  params.bulk_viscosity, params, d))


def _phase_stress(c: np.ndarray, p: np.ndarray, r: np.ndarray, grid: Grid,
                  params: FluidParams, d: Discretization) -> Components:
    gc = _derivs(c, grid, range(grid.dim), d)
    coef = params.temperature * params.delta * r
    return _plus_diag(tuple(-coef * o for o in _outer(gc, gc)), -p)


def phase_stress(c: ScalarField, p: ScalarField, rho: ScalarField,
                 params: FluidParams, d: Discretization) -> SymTensorField:
    """Non-hydrodynamic stress -p I - theta delta rho (grad c) (x) (grad c)."""
    if np.any(rho.values <= 0.0):
        raise DomainError("phase stress needs positive density")
    return SymTensorField(c.grid, _phase_stress(c.values, p.values, rho.values,
                                                c.grid, params, d))


def _korteweg(r: np.ndarray, grid: Grid, params: FluidParams, d: Discretization) -> Components:
    gr = _derivs(r, grid, range(grid.dim), d)
    grad_rho_sq = sum(g * g for g in gr)
    kap = capillarity(r, params)
    psi_r = helmholtz_energy_drho(r, grad_rho_sq, params)
    diag = -r * r * psi_r + r * _div(tuple(kap * g for g in gr), grid, d)
    return _plus_diag(tuple(-kap * o for o in _outer(gr, gr)), diag)


def korteweg_tensor(rho: ScalarField, params: FluidParams, d: Discretization) -> SymTensorField:
    """Dunn-Serrin capillary stress built from density gradients.

    K = -rho^2 psi_rho I + rho div(kappa grad rho) I - kappa grad rho (x) grad rho
    with kappa the capillarity and psi the extended Helmholtz energy.
    """
    if np.any(rho.values <= 0.0):
        raise DomainError("Korteweg tensor needs positive density")
    return SymTensorField(rho.grid, _korteweg(rho.values, rho.grid, params, d))


def augmented_cauchy_stress(u: VectorField, rho: ScalarField,
                            params: FluidParams, d: Discretization) -> SymTensorField:
    """Cauchy stress with the density-dependent augmented bulk viscosity."""
    return SymTensorField(u.grid, _viscous_stress(
        u.components, u.grid, augmented_bulk_viscosity(rho.values, params), params, d))


def nonlocal_cauchy_stress(u: VectorField, nonlocal_term: ScalarField,
                           params: FluidParams, d: Discretization) -> SymTensorField:
    """Cauchy stress plus the non-local isotropic part.

    ``nonlocal_term`` must be a precomputed inverse-elliptic image of
    div u; no solve happens here.
    """
    extra = params.temperature / params.delta_tau**2 * nonlocal_term.values
    return SymTensorField(u.grid, _viscous_stress(u.components, u.grid, params.bulk_viscosity,
                                                  params, d, extra=extra))


def korteweg_identity_residual(rho: ScalarField, params: FluidParams,
                               d: Discretization) -> float:
    """Sup-norm defect of the tensor rewriting identity.

    Checks, discretely, that
    div( rho^-1 div(rho^2 kappa grad rho) I ) equals
    grad( rho div(kappa grad rho) + 2 kappa |grad rho|^2 );
    exact in the continuum, so the result converges to zero at scheme
    order for smooth positive density.
    """
    if np.any(rho.values <= 0.0):
        raise DomainError("identity residual needs positive density")
    grid = rho.grid
    r = rho.values
    gr = _derivs(r, grid, range(grid.dim), d)
    kap = capillarity(r, params)
    lhs_inner = _div(tuple(r * r * kap * g for g in gr), grid, d) / r
    lhs = _derivs(lhs_inner, grid, range(grid.dim), d)   # div(s I) = grad s, also discretely
    rhs_inner = r * _div(tuple(kap * g for g in gr), grid, d) \
        + 2.0 * kap * sum(g * g for g in gr)
    rhs = _derivs(rhs_inner, grid, range(grid.dim), d)
    return _sup(a - b for a, b in zip(lhs, rhs))
