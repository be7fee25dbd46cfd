"""Assembly of the stress tensors appearing in both mixture models.

All tensors are assembled pointwise from fields and differentiated with a
single Discretization, so the continuous rewriting identities hold at the
discrete level up to one scheme's truncation error.  The Helmholtz-energy
derivative inside the Korteweg tensor is the partial derivative in rho at
fixed |grad rho|^2 (the Dunn-Serrin convention).
"""

from __future__ import annotations

import numpy as np

from .constitutive import (FluidParams, augmented_bulk_viscosity, capillarity,
                           helmholtz_energy_drho)
from .errors import DomainError
from .fields import ScalarField, SymTensorField, VectorField, sup_norm
from .grids import Discretization
from .operators import _deriv, div, div_tensor, grad


def strain(u: VectorField, d: Discretization) -> SymTensorField:
    """Symmetric velocity gradient (grad u + grad u^T) / 2."""
    grid = u.grid
    d.require_compatible(grid)
    if grid.dim == 1:
        return SymTensorField(grid, (_deriv(u.components[0], grid, 0, d),))
    gux = grad(ScalarField(grid, u.components[0]), d)
    guy = grad(ScalarField(grid, u.components[1]), d)
    xx = gux.components[0]
    yy = guy.components[1]
    xy = 0.5 * (gux.components[1] + guy.components[0])
    return SymTensorField(grid, (xx, xy, yy))


def _viscous_stress(u: VectorField, bulk, params: FluidParams, d: Discretization,
                    extra=None) -> SymTensorField:
    """(2 mu D(u) + bulk div u I) + extra I, the assembly behind the three Cauchy stresses.

    ``bulk`` is a constant or a grid function; ``extra`` is optional.
    """
    dd = strain(u, d)
    diag = bulk * div(u, d).values
    out = [2.0 * params.shear_viscosity * c for c in dd.components]
    for i in ((0,) if u.grid.dim == 1 else (0, 2)):   # xx, yy
        out[i] = out[i] + diag
        if extra is not None:
            out[i] = out[i] + extra
    return SymTensorField(u.grid, tuple(out))


def cauchy_stress(u: VectorField, params: FluidParams, d: Discretization) -> SymTensorField:
    """2 mu D(u) + lambda (div u) I."""
    return _viscous_stress(u, params.bulk_viscosity, params, d)


def phase_stress(c: ScalarField, p: ScalarField, rho: ScalarField,
                 params: FluidParams, d: Discretization) -> SymTensorField:
    """Non-hydrodynamic stress -p I - theta delta rho (grad c) (x) (grad c)."""
    if np.any(rho.values <= 0.0):
        raise DomainError("phase stress needs positive density")
    grid = c.grid
    gc = grad(c, d).components
    coef = params.temperature * params.delta * rho.values
    outer = SymTensorField.outer(grid, gc)
    if grid.dim == 1:
        return SymTensorField(grid, (-p.values - coef * outer.components[0],))
    return SymTensorField(grid, (-p.values - coef * outer.components[0],
                                 -coef * outer.components[1],
                                 -p.values - coef * outer.components[2]))


def korteweg_tensor(rho: ScalarField, params: FluidParams, d: Discretization) -> SymTensorField:
    """Dunn-Serrin capillary stress built from density gradients.

    K = -rho^2 psi_rho I + rho div(kappa grad rho) I - kappa grad rho (x) grad rho
    with kappa the capillarity and psi the extended Helmholtz energy.
    """
    if np.any(rho.values <= 0.0):
        raise DomainError("Korteweg tensor needs positive density")
    grid = rho.grid
    r = rho.values
    gr = grad(rho, d).components
    grad_rho_sq = sum(g * g for g in gr)
    kap = capillarity(r, params)
    psi_r = helmholtz_energy_drho(r, grad_rho_sq, params)
    kflux = VectorField(grid, tuple(kap * g for g in gr))
    diag = -r * r * psi_r + r * div(kflux, d).values
    outer = SymTensorField.outer(grid, gr)
    if grid.dim == 1:
        return SymTensorField(grid, (diag - kap * outer.components[0],))
    return SymTensorField(grid, (diag - kap * outer.components[0],
                                 -kap * outer.components[1],
                                 diag - kap * outer.components[2]))


def augmented_cauchy_stress(u: VectorField, rho: ScalarField,
                            params: FluidParams, d: Discretization) -> SymTensorField:
    """Cauchy stress with the density-dependent augmented bulk viscosity."""
    return _viscous_stress(u, augmented_bulk_viscosity(rho.values, params), params, d)


def nonlocal_cauchy_stress(u: VectorField, nonlocal_term: ScalarField,
                           params: FluidParams, d: Discretization) -> SymTensorField:
    """Cauchy stress plus the non-local isotropic part.

    ``nonlocal_term`` must be a precomputed inverse-elliptic image of
    div u; no solve happens here.
    """
    scale = params.temperature / params.delta_tau**2
    return _viscous_stress(u, params.bulk_viscosity, params, d,
                           extra=scale * nonlocal_term.values)


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
    gr = grad(rho, d).components
    kap = capillarity(r, params)
    lhs_inner = div(VectorField(grid, tuple(r * r * kap * g for g in gr)), d).values / r
    lhs = div_tensor(SymTensorField.isotropic(grid, lhs_inner), d)
    rhs_inner = r * div(VectorField(grid, tuple(kap * g for g in gr)), d).values \
        + 2.0 * kap * sum(g * g for g in gr)
    rhs = grad(ScalarField(grid, rhs_inner), d)
    diff = VectorField(grid, tuple(a - b for a, b in zip(lhs.components, rhs.components)))
    return sup_norm(diff)
