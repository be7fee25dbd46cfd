"""Assembly of the stress tensors appearing in both mixture models.

All tensors are assembled pointwise and differentiated with a single
Discretization, so the continuous rewriting identities hold at the
discrete level up to one scheme's truncation error.  The Helmholtz-energy
derivative inside the Korteweg tensor is the partial derivative in rho at
fixed |grad rho|^2 (the Dunn-Serrin convention).

The kernels ``_strain``, ``_viscous_stress``, ``_phase_stress`` and
``_korteweg`` take arrays (grad u and grad rho rather than u and rho) and
return arrays, tensors as component tuples in the storage order of
:mod:`korteweg.fields`; each public function wraps one in a validated field.
``_korteweg`` takes the density as a constitutive ``_Density`` and calls the
unchecked law kernels on it; its callers have checked rho > 0.
"""

from __future__ import annotations

import numpy as np

from .constitutive import (FluidParams, _capillarity, _Density, _density,
                           _helmholtz_energy_drho, augmented_bulk_viscosity, capillarity)
from .errors import DomainError
from .fields import Components, ScalarField, SymTensorField, VectorField, _outer, _plus_diag, _sup
from .grids import Discretization, Grid
from .operators import _derivs, _div


def _velocity_gradient(u: Components, grid: Grid, d: Discretization) -> tuple[Components, ...]:
    """g[i][j] = d_j u_i."""
    return tuple(_derivs(c, grid, d) for c in u)


def _div_of(g: tuple[Components, ...]) -> np.ndarray:
    """div u, the trace of the velocity gradient."""
    return sum(g[i][i] for i in range(len(g)))


def _strain(g: tuple[Components, ...]) -> Components:
    return tuple(g[i][i] if i == j else 0.5 * (g[i][j] + g[j][i])
                 for i in range(len(g)) for j in range(i, len(g)))


def strain(u: VectorField, d: Discretization) -> SymTensorField:
    """Symmetric velocity gradient (grad u + grad u^T) / 2."""
    return SymTensorField(u.grid, _strain(_velocity_gradient(u.components, u.grid, d)))


def _viscous_stress(g: tuple[Components, ...], bulk, params: FluidParams,
                    extra=None) -> Components:
    """(2 mu D(u) + bulk div u I) + extra I, the assembly behind the three Cauchy stresses.

    ``g`` is grad u; ``bulk`` is a constant or a grid function; ``extra`` is optional.
    """
    out = _plus_diag(tuple(2.0 * params.shear_viscosity * c for c in _strain(g)),
                     bulk * _div_of(g))
    return out if extra is None else _plus_diag(out, extra)


def cauchy_stress(u: VectorField, params: FluidParams, d: Discretization) -> SymTensorField:
    """2 mu D(u) + lambda (div u) I."""
    return SymTensorField(u.grid, _viscous_stress(
        _velocity_gradient(u.components, u.grid, d), params.bulk_viscosity, params))


def _phase_stress(c: np.ndarray, p: np.ndarray, r: np.ndarray, grid: Grid,
                  params: FluidParams, d: Discretization) -> Components:
    gc = _derivs(c, grid, d)
    coef = params.temperature * params.delta * r
    return _plus_diag(tuple(-coef * o for o in _outer(gc, gc)), -p)


def phase_stress(c: ScalarField, p: ScalarField, rho: ScalarField,
                 params: FluidParams, d: Discretization) -> SymTensorField:
    """Non-hydrodynamic stress -p I - theta delta rho (grad c) (x) (grad c)."""
    if np.any(rho.values <= 0.0):
        raise DomainError("phase stress needs positive density")
    return SymTensorField(c.grid, _phase_stress(c.values, p.values, rho.values,
                                                c.grid, params, d))


def _korteweg(dn: _Density, gr: Components, grid: Grid, params: FluidParams,
              d: Discretization) -> Components:
    r = dn.rho
    kap = _capillarity(dn, params)
    psi_r = _helmholtz_energy_drho(dn, sum(g * g for g in gr), params)
    diag = -r * r * psi_r + r * _div(tuple(kap * g for g in gr), grid, d)
    return _plus_diag(tuple(-kap * o for o in _outer(gr, gr)), diag)


def korteweg_tensor(rho: ScalarField, params: FluidParams, d: Discretization) -> SymTensorField:
    """Dunn-Serrin capillary stress built from density gradients.

    K = -rho^2 psi_rho I + rho div(kappa grad rho) I - kappa grad rho (x) grad rho
    with kappa the capillarity and psi the extended Helmholtz energy.
    """
    if np.any(rho.values <= 0.0):
        raise DomainError("Korteweg tensor needs positive density")
    r = rho.values
    return SymTensorField(rho.grid, _korteweg(_density(r, params), _derivs(r, rho.grid, d),
                                              rho.grid, params, d))


def augmented_cauchy_stress(u: VectorField, rho: ScalarField,
                            params: FluidParams, d: Discretization) -> SymTensorField:
    """Cauchy stress with the density-dependent augmented bulk viscosity."""
    return SymTensorField(u.grid, _viscous_stress(
        _velocity_gradient(u.components, u.grid, d),
        augmented_bulk_viscosity(rho.values, params), params))


def nonlocal_cauchy_stress(u: VectorField, nonlocal_term: ScalarField,
                           params: FluidParams, d: Discretization) -> SymTensorField:
    """Cauchy stress plus the non-local isotropic part.

    ``nonlocal_term`` must be a precomputed inverse-elliptic image of
    div u; no solve happens here.
    """
    extra = params.temperature / params.delta_tau**2 * nonlocal_term.values
    return SymTensorField(u.grid, _viscous_stress(
        _velocity_gradient(u.components, u.grid, d), params.bulk_viscosity, params, extra))


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
    gr = _derivs(r, grid, d)
    kap = capillarity(r, params)
    lhs_inner = _div(tuple(r * r * kap * g for g in gr), grid, d) / r
    lhs = _derivs(lhs_inner, grid, d)   # div(s I) = grad s, also discretely
    rhs_inner = r * _div(tuple(kap * g for g in gr), grid, d) \
        + 2.0 * kap * sum(g * g for g in gr)
    rhs = _derivs(rhs_inner, grid, d)
    return _sup(a - b for a, b in zip(lhs, rhs))
