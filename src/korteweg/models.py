"""Reduced Navier-Stokes-Korteweg systems and the full-model residuals.

The two mixture models (with and without phase transformation) reduce to
density/momentum systems once the incompressible-phases closure ties the
concentration to the density.  This module provides

* the semi-discrete right-hand sides of both reduced systems,
* reconstruction of the eliminated fields (concentration, pressure, and
  the production rate or chemical potential) from a reduced state, and
* residual evaluation of the *full* three-equation systems on reduced
  states -- the reduction theorems run backwards.

The two reductions differ in one term: eliminating c leaves an isotropic
stress E in div u, (delta_star / (sqrt(delta) rho)) div u for NSK1 (the
augmented bulk viscosity) and (theta / delta_tau^2) Lambda_gamma^{-1}(div u)
for NSK2 (the non-local term).  ``_eliminated_stress`` forms E, with the
model's one solve, for the pressure (local part - E) and the reduced stress;
``_reduced_stress`` assembles Korteweg + E I, plus the viscous stress from
grad u, for the right-hand sides, the gap and the residuals alike.  Per
evaluation each gradient is taken and E solved at most once; between the
validated inputs and returned fields everything runs on arrays.

Both reduced systems are conservation laws for (rho, m): the right-hand
side is the divergence of the flux [m; Sigma - m (x) u].  Its one assembly,
the array kernel ``_rhs``, serves the time loop; ``rhs_nsk1``/``rhs_nsk2``
wrap it.  It takes the rows (rho, *m), the grid's bound calculus
(:class:`korteweg.operators._Calculus`), the stress symbol and a workspace
(:class:`korteweg.operators._Workspace`, whose buffers each evaluation
replays in call order; the calculus's ``fresh`` allocator for the public
wrappers), which :func:`korteweg.timestepping.make_rhs` resolves once per
run, and returns fresh rates in the same stage layout,
one (1 + dim, *shape) array on every grid (``_stage_rows``).  The
certification kernels (``_pressure``, ``_diffusive_div``, ``_reconstruct``,
``_phase_rate``, ``_full_model``, ``_residual``) take that calculus too, as
``ops``: each public reconstruction, gap and residual looks it up once.

On a spectral grid the velocity-linear, constant-coefficient part of the
stress, 2 mu D(u) + lambda (div u) I and, for NSK2 with a constant
mobility, the non-local term, is a Fourier multiplier on u^
(``_stress_symbol``), added to the momentum spectra before their inverse:
grad u never returns to the grid, and a constant-mobility E needs neither
div u nor a solve.  ``_reduced_stress`` assembles the rest pointwise; FD2
has no symbol and assembles every term from grad u.  The levels:
(1) grad rho, div u where a pointwise term needs it and the symbol's
addend (``velocity_level``; FD2: grad u and grad rho in one ``grads``
call), (2) div(kappa grad rho) inside the Korteweg tensor, next to any
NSK2 solve, (3) the divergence of the flux, each level one stacked
forward and one stacked inverse transform call in 1-D and 2-D alike.
Level 3 assembles the flux (``conservation_flux``) and drops the (rho, u)
stack and the stress before its divergence (``conservation_rates``)
transforms it.  How a level is transformed and laid out is decided in
:mod:`korteweg.operators`, not here.

The gap and the residuals take grad u and grad rho in one ``grads`` call on
one (u, rho) stack, and grad c once.  They run on fresh arrays, so an array
is freed only when its last name goes: ``_full_model`` makes and drops its
arrays in the order that holds the fewest grid arrays at once (its
docstring).  The local pressure comes before the density and E exist, W'(c)
is formed once and handed to the Korteweg tensor, the phase rate comes last,
and both fluxes are summed in place one component at a time, the full one in
a stack of its own that its divergence reads without a copy.  A 2-D gap so
peaks at about 17 grid arrays, 19 with NSK2's grad c, on either scheme.

The full systems are never time-stepped: the closure makes them
differential-algebraic, so they are only ever checked residually.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import constitutive as law
from .constitutive import FluidParams, _density, _Density
from .elliptic import Mobility, _matvec, _solve
from .errors import ConfigError, StateError
from .fields import Components, ScalarField, VectorField, _sup
from .grids import SPECTRAL, Scheme
from .operators import _calculus, _Calculus, _total
from .tensors import _div_of, _korteweg, _phase_stress, _viscous_stress

RHO_FLOOR = 1e-8


class ModelKind(Enum):
    NSK1 = "nsk1"   # reduced from the phase-transformation (Allen-Cahn) model
    NSK2 = "nsk2"   # reduced from the conserved-phase (Cahn-Hilliard) model


def _require_above_floor(r: np.ndarray, state=None) -> float:
    """min r, unless it is at or below the density floor (StateError)."""
    rmin = float(r.min())
    if rmin <= RHO_FLOOR:
        raise StateError(f"density fell to {rmin:.3e} (floor {RHO_FLOOR:.0e})", state=state)
    return rmin


@dataclass(frozen=True)
class MixtureState:
    """Reduced-system unknowns: density rho and momentum density m = rho u.

    ``rho_min``, min rho, is kept from the floor check (not a dataclass field)
    for the step bound and the metrics.
    """

    rho: ScalarField
    m: VectorField
    t: float = 0.0

    def __post_init__(self):
        if self.m.grid != self.rho.grid:
            raise StateError("state fields live on different grids")
        object.__setattr__(self, "rho_min", _require_above_floor(
            self.rho.values, state=(self.rho, self.m, self.t)))

    @property
    def grid(self):
        return self.rho.grid

    def velocity(self) -> VectorField:
        return VectorField(self.grid, _velocity(self))

    @cached_property
    def max_speed(self) -> float:
        """max |u| over the nodes, formed once per state for the step bound and the
        metrics: the sqrt of the largest |u|^2, which is the largest node-wise sqrt
        bit for bit, as a correctly rounded sqrt is monotone."""
        return float(np.sqrt(_total(c * c for c in _velocity(self)).max()))

    @classmethod
    def from_primitive(cls, rho: ScalarField, u: VectorField, t: float = 0.0) -> "MixtureState":
        m = VectorField(rho.grid, tuple(rho.values * c for c in u.components))
        return cls(rho, m, t)


@dataclass(frozen=True)
class ReconstructedFields:
    """Eliminated quantities rebuilt from a reduced state."""

    c: ScalarField
    p: ScalarField
    q: ScalarField | None = None          # production rate (NSK1)
    mu_chem: ScalarField | None = None    # chemical potential (NSK2)


def _velocity(state: MixtureState) -> Components:
    r = state.rho.values
    return tuple(c / r for c in state.m.components)


class _StressSymbol(NamedTuple):
    """The multiplier part of div(reduced stress): row i is shear u^_i + i k_i
    (bulk (div u)^), shear = -mu |k|^2, bulk = mu + lambda [+ theta /
    (delta_tau^2 gamma |k|^2) if ``nonlocal_term``, zero where |k| is], with k
    Nyquist-zeroed as in the derivatives.  1-D folds bulk into shear and holds
    None."""

    shear: np.ndarray
    bulk: np.ndarray | float | None
    nonlocal_term: bool


def _require_mobility(kind: ModelKind, gamma: Mobility | None) -> None:
    if kind is ModelKind.NSK2 and gamma is None:
        raise ConfigError("the nsk2 model needs a mobility")


def _stress_symbol(ops: _Calculus, params: FluidParams, kind: ModelKind,
                   gamma: Mobility | None) -> _StressSymbol | None:
    """The run's symbol, real arrays on the half spectrum; None under FD2."""
    _require_mobility(kind, gamma)
    if not ops.spectral:
        return None
    k2 = ops.k2
    nonlocal_term = kind is ModelKind.NSK2 and gamma.is_constant
    bulk = params.shear_viscosity + params.bulk_viscosity
    if nonlocal_term:
        bulk = bulk + (params._theta_dtau2 / gamma.value) * ops.inv_sym
    shear = -params.shear_viscosity * k2
    if ops.dim == 1:
        return _StressSymbol(shear - bulk * k2, None, nonlocal_term)
    return _StressSymbol(shear, bulk, nonlocal_term)


def _eliminated_stress(r: np.ndarray, divu: np.ndarray | None, ops: _Calculus,
                       params: FluidParams, kind: ModelKind, gamma: Mobility | None,
                       ws=None) -> tuple[_Density, np.ndarray | None]:
    """The density of ``r`` and E, the isotropic stress in div u that eliminating c
    leaves, with the model's one elliptic solve: (delta_star / (sqrt(delta) rho))
    div u for NSK1, (theta / delta_tau^2) Lambda_gamma^{-1}(div u) for NSK2, made
    before 1/rho and c exist.  E is None without div u, where the stress symbol
    carries the constant-mobility term.  1/rho, c and E are buffers of ``ws``."""
    ws = ws or ops.fresh
    if divu is not None and kind is ModelKind.NSK2:
        E = np.multiply(params._theta_dtau2, _solve(gamma, divu, ops), out=ws.real())
        return _density(r, params, ws.real(), ws.real()), E
    dn = _density(r, params, ws.real(), ws.real())
    if divu is None:
        return dn, None
    E = np.multiply(params._augmented_scale, dn.v, out=ws.real())
    E *= divu
    return dn, E


def _pressure(r: np.ndarray, gr: np.ndarray, params: FluidParams,
              ops: _Calculus) -> np.ndarray:
    """The local part of the eliminated pressure, shared by both models, from which
    :func:`_reconstruct` takes E: rho^2 R'(rho) - (1/rho) div((delta_star/rho) grad rho).
    Each term is formed while the other's temporaries are dead."""
    local = r * r * law.bulk_energy_drho(r, params)
    capillary = ops.div((params.delta_star / r) * gr)
    capillary /= r
    local -= capillary
    return local


def _diffusive_div(state: MixtureState, gc: np.ndarray, params: FluidParams,
                   ops: _Calculus) -> np.ndarray:
    """div(delta rho grad c) from grad c."""
    r = state.rho.values
    return ops.div(params.delta * r * gc)


def _reconstruct(state: MixtureState, divu: np.ndarray, gr: Components, params: FluidParams,
                 kind: ModelKind, gamma: Mobility | None, ops: _Calculus):
    """The eliminated fields but the phase rate, as arrays from div u and grad rho:
    (the density with c, E, W'(c), p, grad c for mu (NSK2) or None)."""
    r = state.rho.values
    law.warn_outside_window(r, params, context="reconstruction")
    _require_mobility(kind, gamma)
    p = _pressure(r, gr, params, ops)   # before the density and E exist
    dn, E = _eliminated_stress(r, divu, ops, params, kind, gamma)
    p -= E
    wprime = params.well.derivative(dn.c)
    return dn, E, wprime, p, ops.derivs(dn.c) if kind is ModelKind.NSK2 else None


def _phase_rate(state: MixtureState, wprime: np.ndarray, p: np.ndarray, gc: np.ndarray | None,
                params: FluidParams, kind: ModelKind, ops: _Calculus) -> np.ndarray:
    """The eliminated phase rate from W'(c) and p: q (NSK1), or mu (NSK2) from grad c."""
    if kind is ModelKind.NSK1:
        return -(params.delta_tau / params.temperature) * p - wprime
    return (params.delta_tau / params.temperature) * p + wprime \
        - _diffusive_div(state, gc, params, ops) / state.rho.values


def reconstruct_fields(state: MixtureState, params: FluidParams, kind: ModelKind,
                       gamma: Mobility | None = None,
                       d: Scheme = SPECTRAL) -> ReconstructedFields:
    """Rebuild (c, p, q | mu) from a reduced state under the given model."""
    ops = _calculus(state.grid, d)
    divu, gr = ops.div(_velocity(state)), ops.derivs(state.rho.values)
    dn, _, wprime, p, gc = _reconstruct(state, divu, gr, params, kind, gamma, ops)
    rate = _phase_rate(state, wprime, p, gc, params, kind, ops)
    c, p, rate = (ScalarField(state.grid, v) for v in (dn.c, p, rate))
    return ReconstructedFields(c, p, **{"q" if kind is ModelKind.NSK1 else "mu_chem": rate})


def reconstruct_pressure_nsac(state: MixtureState, params: FluidParams,
                              d: Scheme) -> ScalarField:
    """The p of :func:`reconstruct_fields` under NSK1: -(delta_star / (sqrt(delta)
    rho)) div u + rho^2 R'(rho) - (1/rho) div((delta_star/rho) grad rho)."""
    return reconstruct_fields(state, params, ModelKind.NSK1, None, d).p


def reconstruct_pressure_nsch(state: MixtureState, params: FluidParams,
                              gamma: Mobility, d: Scheme) -> ScalarField:
    """The p of :func:`reconstruct_fields` under NSK2 (non-local):
    -(theta / delta_tau^2) Lambda_gamma^{-1}(div u) + the local part."""
    return reconstruct_fields(state, params, ModelKind.NSK2, gamma, d).p


def _reduced_stress(dn: _Density, gr: np.ndarray, gu: tuple[Components, ...] | None,
                    ops: _Calculus, params: FluidParams, E: np.ndarray | None,
                    ws=None, wprime=None) -> np.ndarray:
    """Korteweg plus E I, and 2 mu D(u) + lambda (div u) I from grad u ``gu`` unless
    it is None (the stress symbol carries it), as the rows of one stack, a buffer
    of ``ws``, as is the viscous term's scratch.  ``gr`` is grad rho, ``wprime``
    W'(c) if the caller holds it; ``dn`` is a validated state's density, so the
    laws run unchecked on it, and its 1/rho is overwritten (:func:`_korteweg`)."""
    ws = ws or ops.fresh
    stress = _korteweg(dn, gr, ops, params, E, ws, wprime)
    if gu is not None:   # K + (2 mu D + lambda div u I), one component at a time
        for row, v in zip(stress, _viscous_stress(gu, params.bulk_viscosity, params,
                                                   repeat(ws.real()))):
            row += v
    return stress


def _rhs(q, ops: _Calculus, params: FluidParams, kind: ModelKind, gamma: Mobility | None,
         symbol: _StressSymbol | None, ws=None) -> np.ndarray:
    """The rates (-div m, *div(Sigma - m (x) u)) of the rows q = (rho, *m), in the
    three dependency levels of the module notes; ``symbol`` is
    :func:`_stress_symbol` of the same arguments.

    The rows come as the stage array, or any sequence of the row arrays, and
    the fresh rates return as one (1 + dim, *shape) array.  The rows are not
    written.  rho must be finite and above the density floor.  Every other
    array is a buffer of ``ws``, each taken once per evaluation, in the same
    order every time; the caller rewinds a replaying workspace before the call.
    """
    ws, r, m = ws or ops.fresh, q[0], q[1:]
    ru = ws.real(len(q))   # (rho, *u)
    ru[0] = r
    u = np.divide(m, r, out=ru[1:])
    if symbol is None:
        gr, *gu = ops.grads(ru)
        divu, level1, addend = _div_of(gu), None, None
    else:
        level1, addend = ops.velocity_level(ru, symbol.shear, symbol.bulk,
                                            not symbol.nonlocal_term, ws)
        gr, gu = level1[:ops.dim], None
        divu = None if symbol.nonlocal_term else level1[ops.dim]
    # div u is None where the symbol carries the non-local term: no solve
    dn, E = _eliminated_stress(r, divu, ops, params, kind, gamma, ws)
    stress = _reduced_stress(dn, gr, gu, ops, params, E, ws)
    del gu, gr, divu, dn, E, level1   # level 3 needs none of them
    flux = ops.conservation_flux(m, u, stress, ws)
    del ru, u, stress   # nor these, once the flux is assembled
    return ops.conservation_rates(flux, addend, ws)


def _stage_rows(state: MixtureState) -> np.ndarray:
    """A state's rows (rho, *m) in the stage layout: one (1 + dim, *shape) array."""
    return np.array((state.rho.values, *state.m.components))


def _rhs_fields(state: MixtureState, params: FluidParams, kind: ModelKind,
                gamma: Mobility | None, d: Scheme) -> tuple[ScalarField, VectorField]:
    grid = state.grid
    ops = _calculus(grid, d)
    rates = _rhs((state.rho.values, *state.m.components), ops, params, kind, gamma,
                 _stress_symbol(ops, params, kind, gamma))
    return ScalarField(grid, rates[0]), VectorField(grid, rates[1:])


def rhs_nsk1(state: MixtureState, params: FluidParams,
             d: Scheme) -> tuple[ScalarField, VectorField]:
    """Semi-discrete right-hand side of the local reduced system."""
    return _rhs_fields(state, params, ModelKind.NSK1, None, d)


def rhs_nsk2(state: MixtureState, params: FluidParams, gamma: Mobility,
             d: Scheme) -> tuple[ScalarField, VectorField]:
    """Semi-discrete right-hand side of the non-local reduced system.

    The non-local stress costs one elliptic solve per evaluation, or none
    with a constant mobility on a spectral grid (a Fourier multiplier there).
    """
    return _rhs_fields(state, params, ModelKind.NSK2, gamma, d)


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norms of the full-model equations evaluated on a reduced state.

    The mass equation is not reported: with the density rate -div m it holds exactly.
    """

    momentum: float
    phase: float


def _full_model(state: MixtureState, params: FluidParams, kind: ModelKind,
                gamma: Mobility | None, ops: _Calculus):
    """The momentum-flux gap sup|div(S + P) - div(S_reduced + K)| and what the phase
    residual reuses: (gap, grad c, q | mu).  Each gradient is taken once.

    The arrays come in the order that keeps the fewest alive: grad u and grad rho
    from one (u, rho) stack; p, the density, E and W'(c) (``_reconstruct``); the
    reduced stress K + E I + S, after which 1/rho, E and grad rho are dropped; the
    viscous stress S into the full flux's stack, after which grad u is dropped; the
    reduced divergence, after which its stress is dropped; grad c (NSK1), then P
    added into the full flux one component at a time; its divergence, less the
    reduced one in place; the phase rate last.
    """
    r, dim = state.rho.values, ops.dim
    g = ops.grads(np.array((*_velocity(state), r)))
    gu, gr = g[:dim], g[dim]
    dn, E, wprime, p, gc = _reconstruct(state, _div_of(gu), gr, params, kind, gamma, ops)
    stress = _reduced_stress(dn, gr, gu, ops, params, E, wprime=wprime)
    c = dn.c if gc is None else None
    del dn, E, gr
    full = np.empty_like(stress)   # S, then S + P
    for _ in _viscous_stress(gu, params.bulk_viscosity, params, full):
        pass
    del g, gu
    reduced = ops.div_tensor(stress)
    del stress
    if gc is None:
        gc = ops.derivs(c)
    del c
    for row, ph in zip(full, _phase_stress(gc, p, r, params, repeat(np.empty(ops.shape)))):
        row += ph
    gap = ops.div_tensor(full)
    gap -= reduced
    return _sup(gap), gc, _phase_rate(state, wprime, p, gc, params, kind, ops)


def momentum_equivalence_gap(state: MixtureState, params: FluidParams, kind: ModelKind,
                             gamma: Mobility | None = None,
                             d: Scheme = SPECTRAL) -> float:
    """Sup-norm distance between the full and reduced momentum fluxes.

    This is the single number that certifies the reduction: it converges
    to zero at scheme order for smooth states.
    """
    return _full_model(state, params, kind, gamma, _calculus(state.grid, d))[0]


def _residual(state: MixtureState, params: FluidParams, kind: ModelKind,
              gamma: Mobility | None, ops: _Calculus) -> ResidualReport:
    """Full-model residuals; the models differ only in the phase right-hand side."""
    r = state.rho.values
    momentum, gc, rate = _full_model(state, params, kind, gamma, ops)
    drho = -ops.div(state.m.components)
    # d/dt(rho c) + div(rho c u) with the semi-discrete density rate
    ctilde = law.phase_mass_density(r, params)
    lhs = law.phase_mass_density_drho(r, params) * drho \
        + ops.div(tuple(ctilde * cu for cu in _velocity(state)))
    if kind is ModelKind.NSK1:
        rhs = (r * rate + _diffusive_div(state, gc, params, ops)) / np.sqrt(params.delta)
    else:
        rhs = -_matvec(gamma.values_on(state.grid), ops)(rate)
    return ResidualReport(momentum=momentum, phase=_sup((lhs - rhs,)))


def residual_nsac(state: MixtureState, params: FluidParams,
                  d: Scheme) -> ResidualReport:
    """Evaluate the full phase-transformation system on a reduced state.

    Time derivatives are semi-discrete: the density rate is the continuity
    right-hand side -div m (so the mass equation holds by construction and
    is not reported), the momentum rate comes from the reduced system (the
    momentum residual equals the equivalence gap), and d/dt(rho c) follows
    by the closure chain rule.  The phase-equation residual is the
    substantive check and converges at scheme order.
    """
    return _residual(state, params, ModelKind.NSK1, None, _calculus(state.grid, d))


def residual_nsch(state: MixtureState, params: FluidParams, gamma: Mobility,
                  d: Scheme) -> ResidualReport:
    """Evaluate the full conserved-phase system on a reduced state.

    Mirrors :func:`residual_nsac`; the phase residual checks
    d/dt(rho c) + div(rho c u) = div(gamma grad mu) with the
    reconstructed chemical potential.
    """
    return _residual(state, params, ModelKind.NSK2, gamma, _calculus(state.grid, d))
