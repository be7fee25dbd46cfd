"""Assembly of the stress tensors appearing in both mixture models.

All tensors are assembled pointwise and differentiated with a single
``Scheme``, so the continuous rewriting identities hold at the
discrete level up to one scheme's truncation error.  The Helmholtz-energy
derivative inside the Korteweg tensor is the partial derivative in rho at
fixed |grad rho|^2 (the Dunn-Serrin convention).  As rho^2 c'(rho) =
-1/delta_tau, ``_korteweg`` takes -rho^2 psi_rho = (theta/delta_tau) W'(c) +
2 kappa |grad rho|^2 in closed form; the chain stays in
``constitutive.helmholtz_energy_drho`` and ``manufactured._korteweg``, which
the checks compare it against.

The kernels ``_strain``, ``_viscous_stress``, ``_phase_stress`` and
``_korteweg`` take gradients (of u, c and rho) and return arrays, tensors in
the storage order of :mod:`korteweg.fields`: ``_strain`` as a component
tuple, ``_korteweg`` as the rows of one stack, and ``_viscous_stress`` and
``_phase_stress`` one component at a time, each written where the caller
names (a stack's rows, or one scratch array it adds from) and yielded, so a
flux is summed in place without a stack of temporaries; each public function
wraps one in a validated field.
``_korteweg`` takes the density as a constitutive ``_Density`` and calls the
unchecked law kernels on it; its callers have checked rho > 0.  The reduced
models add their eliminated stress (``korteweg.models._eliminated_stress``)
to its diagonal.  The public augmented and non-local Cauchy stresses form
that term their own way (the augmented viscosity as one grid function, a
given non-local image), so they stay an independent check of that assembly.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat

import numpy as np

from .constitutive import (FluidParams, _capillarity, _Density, _density,
                           augmented_bulk_viscosity, capillarity)
from .errors import DomainError
from .fields import Components, ScalarField, SymTensorField, VectorField, _plus_diag, _sup
from .grids import Scheme
from .operators import _calculus, _Calculus, _total


def _div_of(g: tuple[Components, ...]) -> np.ndarray:
    """div u, the trace of the velocity gradient."""
    return _total(g[i][i] for i in range(len(g)))


def _strain(g: tuple[Components, ...]) -> Components:
    return tuple(g[i][i] if i == j else 0.5 * (g[i][j] + g[j][i])
                 for i in range(len(g)) for j in range(i, len(g)))


def strain(u: VectorField, d: Scheme) -> SymTensorField:
    """Symmetric velocity gradient (grad u + grad u^T) / 2."""
    return SymTensorField(u.grid, _strain(_calculus(u.grid, d).grads(u.components)))


def _viscous_stress(g: tuple[Components, ...], bulk, params: FluidParams, rows=None):
    """2 mu D(u) + bulk div u I, the assembly behind the three Cauchy stresses and the
    reduced and full fluxes, one stored component at a time: each is written into
    the next of ``rows`` (a stack's rows, or one array over and over; fresh arrays
    without) and yielded, with the bits of 2 mu D_ij (+ bulk div u).

    ``g`` is grad u; ``bulk`` is a constant or a grid function.
    """
    two_mu, bulk_div = params._two_mu, bulk * _div_of(g)
    pairs = combinations_with_replacement(range(len(g)), 2)
    for (i, j), row in zip(pairs, repeat(None) if rows is None else rows):
        if i == j:
            row = np.multiply(two_mu, g[i][i], out=row)
            row += bulk_div
        else:   # two_mu (0.5 (g_ij + g_ji))
            row = np.add(g[i][j], g[j][i], out=row)
            row *= 0.5
            row *= two_mu
        yield row


def cauchy_stress(u: VectorField, params: FluidParams, d: Scheme) -> SymTensorField:
    """2 mu D(u) + lambda (div u) I."""
    return SymTensorField(u.grid, tuple(_viscous_stress(
        _calculus(u.grid, d).grads(u.components), params.bulk_viscosity, params)))


def _phase_stress(gc: Components, p: np.ndarray, r: np.ndarray, params: FluidParams,
                  rows=None):
    """-p I - theta delta rho (grad c) (x) (grad c) from grad c, one stored component
    at a time into ``rows`` as in :func:`_viscous_stress`."""
    coef = np.multiply(params.temperature * params.delta, r)
    np.negative(coef, out=coef)
    pairs = combinations_with_replacement(range(len(gc)), 2)
    for (i, j), row in zip(pairs, repeat(None) if rows is None else rows):
        row = np.multiply(gc[i], gc[j], out=row)
        row *= coef
        if i == j:   # the bits of (-coef g_i g_i) + (-p)
            row -= p
        yield row


def phase_stress(c: ScalarField, p: ScalarField, rho: ScalarField,
                 params: FluidParams, d: Scheme) -> SymTensorField:
    """Non-hydrodynamic stress -p I - theta delta rho (grad c) (x) (grad c)."""
    if np.any(rho.values <= 0.0):
        raise DomainError("phase stress needs positive density")
    return SymTensorField(c.grid, tuple(_phase_stress(_calculus(c.grid, d).derivs(c.values),
                                                      p.values, rho.values, params)))


def _korteweg(dn: _Density, gr: np.ndarray, ops: _Calculus, params: FluidParams,
              extra=None, ws=None, wprime=None) -> np.ndarray:
    """The Korteweg tensor from grad rho g, plus ``extra`` I when given (the reduced
    models' eliminated stress), in closed form and in place (module notes):
    K = [(theta/delta_tau) W'(c) + 2 kappa |g|^2 + rho div(kappa g)] I - kappa g (x) g.

    Its components are the rows of one stack, which holds kappa g in its last rows
    first; it and kappa are buffers of ``ws``.  W'(c) is ``wprime`` when the caller
    holds it.  The diagonal term is formed over dn's 1/rho, dead once kappa is, so
    a caller reads no 1/rho after the call."""
    dim, ws = len(gr), ws or ops.fresh
    k = ws.real(dim * (dim + 1) // 2)
    kap = _capillarity(dn, params, ws.real())
    kg = np.multiply(kap, gr, out=k[-dim:])
    del kap   # a fresh allocator keeps nothing: the name held it
    diag = ops.div(kg, ws, out=dn.v)
    diag *= dn.rho
    diag += (params.temperature / params.delta_tau) * (
        params.well.derivative(dn.c) if wprime is None else wprime)
    if extra is not None:
        diag += extra
    if dim == 1:   # 2 kappa g^2 - kappa g^2, with kg = k
        kg *= gr
        k += diag
    else:   # kappa g_i g_j; K_xx = diag + kappa (g_x^2 + 2 g_y^2), K_yy likewise
        yy = np.multiply(kg[1], gr[1], out=k[0])
        xx = np.multiply(kg[0], gr[0], out=k[2])   # over kg[1], now dead
        xy = np.multiply(kg[0], gr[1], out=k[1])   # in place: kg[0]'s last read
        diag += xx
        diag += yy
        yy += diag
        np.negative(xy, out=xy)
        xx += diag
    return k


def korteweg_tensor(rho: ScalarField, params: FluidParams, d: Scheme) -> SymTensorField:
    """Dunn-Serrin capillary stress built from density gradients.

    K = -rho^2 psi_rho I + rho div(kappa grad rho) I - kappa grad rho (x) grad rho
    with kappa the capillarity and psi the extended Helmholtz energy.
    """
    if np.any(rho.values <= 0.0):
        raise DomainError("Korteweg tensor needs positive density")
    r, ops = rho.values, _calculus(rho.grid, d)
    return SymTensorField(rho.grid, _korteweg(_density(r, params), ops.derivs(r), ops, params))


def augmented_cauchy_stress(u: VectorField, rho: ScalarField,
                            params: FluidParams, d: Scheme) -> SymTensorField:
    """Cauchy stress with the density-dependent augmented bulk viscosity."""
    return SymTensorField(u.grid, tuple(_viscous_stress(
        _calculus(u.grid, d).grads(u.components),
        augmented_bulk_viscosity(rho.values, params), params)))


def nonlocal_cauchy_stress(u: VectorField, nonlocal_term: ScalarField,
                           params: FluidParams, d: Scheme) -> SymTensorField:
    """Cauchy stress plus the non-local isotropic part.

    ``nonlocal_term`` must be a precomputed inverse-elliptic image of
    div u; no solve happens here.
    """
    viscous = tuple(_viscous_stress(_calculus(u.grid, d).grads(u.components),
                                    params.bulk_viscosity, params))
    return SymTensorField(u.grid, _plus_diag(viscous, params._theta_dtau2 * nonlocal_term.values))


def korteweg_identity_residual(rho: ScalarField, params: FluidParams,
                               d: Scheme) -> float:
    """Sup-norm defect of the tensor rewriting identity.

    Checks, discretely, that
    div( rho^-1 div(rho^2 kappa grad rho) I ) equals
    grad( rho div(kappa grad rho) + 2 kappa |grad rho|^2 );
    exact in the continuum, so the result converges to zero at scheme
    order for smooth positive density.
    """
    if np.any(rho.values <= 0.0):
        raise DomainError("identity residual needs positive density")
    r, ops = rho.values, _calculus(rho.grid, d)
    gr = ops.derivs(r)
    kap = capillarity(r, params)
    lhs_inner = ops.div(r * r * kap * gr) / r
    lhs = ops.derivs(lhs_inner)   # div(s I) = grad s, also discretely
    rhs_inner = r * ops.div(kap * gr) \
        + 2.0 * kap * sum(g * g for g in gr)
    rhs = ops.derivs(rhs_inner)
    return _sup(a - b for a, b in zip(lhs, rhs))
