"""Reduced Navier-Stokes-Korteweg systems and the full-model residuals.

The two mixture models (with and without phase transformation) reduce to
density/momentum systems once the incompressible-phases closure ties the
concentration to the density.  This module provides

* the semi-discrete right-hand sides of both reduced systems,
* reconstruction of the eliminated fields (concentration, pressure, and
  the production rate or chemical potential) from a reduced state, and
* residual evaluation of the *full* three-equation systems on reduced
  states -- the reduction theorems run backwards.

``_reduced_stress`` is the one place the reduced stress is assembled, for
the right-hand sides, the momentum-flux gap and the residuals alike: the
NSK1 augmented viscosity or the NSK2 non-local term, plus the Korteweg
tensor.  The non-local term is solved for once per evaluation.

The full systems are never time-stepped: the closure makes them
differential-algebraic, so they are only ever checked residually.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import constitutive as law
from .constitutive import FluidParams
from .elliptic import Mobility, apply_operator, invert_for_model
from .errors import ConfigError, StateError
from .fields import ScalarField, SymTensorField, VectorField, sup_norm
from .grids import Discretization, Scheme
from .operators import dealias_array, div, div_tensor, grad
from .tensors import (augmented_cauchy_stress, cauchy_stress, korteweg_tensor,
                      nonlocal_cauchy_stress, phase_stress)

RHO_FLOOR = 1e-8


class ModelKind(Enum):
    NSK1 = "nsk1"   # reduced from the phase-transformation (Allen-Cahn) model
    NSK2 = "nsk2"   # reduced from the conserved-phase (Cahn-Hilliard) model


@dataclass(frozen=True)
class MixtureState:
    """Reduced-system unknowns: density rho and momentum density m = rho u."""

    rho: ScalarField
    m: VectorField
    t: float = 0.0

    def __post_init__(self):
        if self.m.grid != self.rho.grid:
            raise StateError("state fields live on different grids")
        rmin = float(np.min(self.rho.values))
        if rmin <= RHO_FLOOR:
            raise StateError(f"density fell to {rmin:.3e} (floor {RHO_FLOOR:.0e})",
                             state=(self.rho, self.m, self.t))

    @property
    def grid(self):
        return self.rho.grid

    def velocity(self) -> VectorField:
        r = self.rho.values
        return VectorField(self.grid, tuple(c / r for c in self.m.components))

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


def _nonlocal_term(u: VectorField, kind: ModelKind, gamma: Mobility | None,
                   d: Discretization) -> ScalarField | None:
    """Lambda_gamma^{-1}(div u) for NSK2, the model's one elliptic solve; None for NSK1."""
    if kind is ModelKind.NSK1:
        return None
    return invert_for_model(gamma, div(u, d), d)


def _pressure(state: MixtureState, u: VectorField, params: FluidParams,
              d: Discretization, nonlocal_term: ScalarField | None = None) -> ScalarField:
    """Eliminated pressure: a bulk part plus the local part shared by both models.

    p = bulk + rho^2 R'(rho) - (1/rho) div((delta_star/rho) grad rho), where
    bulk = -(delta_star / (sqrt(delta) rho)) div u without a non-local term
    (NSK1) and -(theta / delta_tau^2) * nonlocal_term with one (NSK2).
    """
    r = state.rho.values
    if nonlocal_term is None:
        bulk = -(params.delta_star / (np.sqrt(params.delta) * r)) * div(u, d).values
    else:
        bulk = -(params.temperature / params.delta_tau**2) * nonlocal_term.values
    ds = params.delta_star
    flux = VectorField(state.grid, tuple((ds / r) * g for g in grad(state.rho, d).components))
    local = r * r * law.bulk_energy_drho(r, params) - div(flux, d).values / r
    return ScalarField(state.grid, bulk + local)


def reconstruct_pressure_nsac(state: MixtureState, params: FluidParams,
                              d: Discretization) -> ScalarField:
    """Pressure eliminated via the phase-transformation balance.

    p = -(delta_star / (sqrt(delta) rho)) div u
        + rho^2 R'(rho) - (1/rho) div((delta_star/rho) grad rho)
    """
    return _pressure(state, state.velocity(), params, d)


def reconstruct_pressure_nsch(state: MixtureState, params: FluidParams,
                              gamma: Mobility, d: Discretization) -> ScalarField:
    """Pressure eliminated via the conserved-phase balance (non-local).

    p = -(theta / delta_tau^2) * Lambda_gamma^{-1}(div u) + local part.
    """
    u = state.velocity()
    return _pressure(state, u, params, d, _nonlocal_term(u, ModelKind.NSK2, gamma, d))


def _diffusive_div(state: MixtureState, c: ScalarField, params: FluidParams,
                   d: Discretization) -> np.ndarray:
    """div(delta rho grad c)."""
    r = state.rho.values
    flux = VectorField(state.grid, tuple(params.delta * r * g for g in grad(c, d).components))
    return div(flux, d).values


def _reconstruct(state: MixtureState, u: VectorField, params: FluidParams, kind: ModelKind,
                 gamma: Mobility | None, d: Discretization
                 ) -> tuple[ReconstructedFields, ScalarField | None]:
    """The eliminated fields and the NSK2 non-local term solved for on the way."""
    r = state.rho.values
    law.warn_outside_window(r, params, context="reconstruction")
    if kind is ModelKind.NSK2 and gamma is None:
        raise ConfigError("the conserved-phase model needs a mobility")
    c = ScalarField(state.grid, law.concentration(r, params))
    wprime = params.well.derivative(c.values)
    nonlocal_term = _nonlocal_term(u, kind, gamma, d)
    p = _pressure(state, u, params, d, nonlocal_term)
    if kind is ModelKind.NSK1:
        q = -(params.delta_tau / params.temperature) * p.values - wprime
        return ReconstructedFields(c=c, p=p, q=ScalarField(state.grid, q)), None
    mu = (params.delta_tau / params.temperature) * p.values + wprime \
        - _diffusive_div(state, c, params, d) / r
    return ReconstructedFields(c=c, p=p, mu_chem=ScalarField(state.grid, mu)), nonlocal_term


def reconstruct_fields(state: MixtureState, params: FluidParams, kind: ModelKind,
                       gamma: Mobility | None = None,
                       d: Discretization = Discretization(Scheme.SPECTRAL)) -> ReconstructedFields:
    """Rebuild (c, p, q | mu) from a reduced state under the given model."""
    return _reconstruct(state, state.velocity(), params, kind, gamma, d)[0]


def _reduced_stress(u: VectorField, rho: ScalarField, params: FluidParams, d: Discretization,
                    nonlocal_term: ScalarField | None) -> SymTensorField:
    """The reduced stress of either model: viscous or non-local part plus Korteweg."""
    if nonlocal_term is None:
        bulk = augmented_cauchy_stress(u, rho, params, d)
    else:
        bulk = nonlocal_cauchy_stress(u, nonlocal_term, params, d)
    return bulk.add(korteweg_tensor(rho, params, d))


def _advective_fluxes(state: MixtureState, u: VectorField, d: Discretization):
    """Mass flux rho u and momentum flux rho u (x) u, optionally dealiased."""
    grid = state.grid
    mass_flux = [c.copy() for c in state.m.components]
    mom_flux = [state.m.components[i] * u.components[j]
                for i in range(grid.dim) for j in range(i, grid.dim)]
    if d.dealias and d.scheme is Scheme.SPECTRAL:
        mass_flux = [dealias_array(c, grid) for c in mass_flux]
        mom_flux = [dealias_array(c, grid) for c in mom_flux]
    return VectorField(grid, tuple(mass_flux)), SymTensorField(grid, tuple(mom_flux))


def _rhs(state: MixtureState, params: FluidParams, kind: ModelKind,
         gamma: Mobility | None, d: Discretization) -> tuple[ScalarField, VectorField]:
    grid = state.grid
    u = state.velocity()
    mass_flux, mom_flux = _advective_fluxes(state, u, d)
    drho = ScalarField(grid, -div(mass_flux, d).values)
    stress = _reduced_stress(u, state.rho, params, d, _nonlocal_term(u, kind, gamma, d))
    adv = div_tensor(mom_flux, d)
    visc = div_tensor(stress, d)
    dm = VectorField(grid, tuple(v - a for a, v in zip(adv.components, visc.components)))
    return drho, dm


def rhs_nsk1(state: MixtureState, params: FluidParams,
             d: Discretization) -> tuple[ScalarField, VectorField]:
    """Semi-discrete right-hand side of the local reduced system."""
    return _rhs(state, params, ModelKind.NSK1, None, d)


def rhs_nsk2(state: MixtureState, params: FluidParams, gamma: Mobility,
             d: Discretization) -> tuple[ScalarField, VectorField]:
    """Semi-discrete right-hand side of the non-local reduced system.

    Exactly one elliptic solve per evaluation (for the non-local stress).
    """
    return _rhs(state, params, ModelKind.NSK2, gamma, d)


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norms of the full-model equations evaluated on a reduced state."""

    mass: float
    momentum: float
    phase: float


def _full_model_gap(state: MixtureState, u: VectorField, params: FluidParams,
                    d: Discretization, rec: ReconstructedFields,
                    nonlocal_term: ScalarField | None) -> VectorField:
    """div(S + P) - div(S_reduced + K), the momentum-flux defect."""
    full = cauchy_stress(u, params, d).add(
        phase_stress(rec.c, rec.p, state.rho, params, d))
    lhs = div_tensor(full, d)
    rhs = div_tensor(_reduced_stress(u, state.rho, params, d, nonlocal_term), d)
    return VectorField(state.grid,
                       tuple(a - b for a, b in zip(lhs.components, rhs.components)))


def momentum_equivalence_gap(state: MixtureState, params: FluidParams, kind: ModelKind,
                             gamma: Mobility | None = None,
                             d: Discretization = Discretization(Scheme.SPECTRAL)) -> float:
    """Sup-norm distance between the full and reduced momentum fluxes.

    This is the single number that certifies the reduction: it converges
    to zero at scheme order for smooth states.
    """
    u = state.velocity()
    rec, nonlocal_term = _reconstruct(state, u, params, kind, gamma, d)
    return sup_norm(_full_model_gap(state, u, params, d, rec, nonlocal_term))


def _residual(state: MixtureState, params: FluidParams, kind: ModelKind,
              gamma: Mobility | None, d: Discretization) -> ResidualReport:
    """Full-model residuals; the models differ only in the phase right-hand side."""
    grid = state.grid
    r = state.rho.values
    u = state.velocity()
    rec, nonlocal_term = _reconstruct(state, u, params, kind, gamma, d)
    mass_div = div(state.m, d).values
    drho = -mass_div
    mass = sup_norm(ScalarField(grid, drho + mass_div))
    momentum = sup_norm(_full_model_gap(state, u, params, d, rec, nonlocal_term))
    # d/dt(rho c) + div(rho c u) with the semi-discrete density rate
    ctilde = law.phase_mass_density(r, params)
    fluxv = VectorField(grid, tuple(ctilde * c for c in u.components))
    lhs = law.phase_mass_density_drho(r, params) * drho + div(fluxv, d).values
    if kind is ModelKind.NSK1:
        rhs = (r * rec.q.values + _diffusive_div(state, rec.c, params, d)) \
            / np.sqrt(params.delta)
    else:
        rhs = -apply_operator(gamma, rec.mu_chem, d).values
    return ResidualReport(mass=mass, momentum=momentum,
                          phase=sup_norm(ScalarField(grid, lhs - rhs)))


def residual_nsac(state: MixtureState, params: FluidParams,
                  d: Discretization) -> ResidualReport:
    """Evaluate the full phase-transformation system on a reduced state.

    Time derivatives are semi-discrete: the density rate comes from the
    continuity right-hand side (mass residual is zero by construction),
    the momentum rate from the reduced system (momentum residual equals
    the equivalence gap), and d/dt(rho c) follows by the closure chain
    rule.  The phase-equation residual is the substantive check and
    converges at scheme order.
    """
    return _residual(state, params, ModelKind.NSK1, None, d)


def residual_nsch(state: MixtureState, params: FluidParams, gamma: Mobility,
                  d: Discretization) -> ResidualReport:
    """Evaluate the full conserved-phase system on a reduced state.

    Mirrors :func:`residual_nsac`; the phase residual checks
    d/dt(rho c) + div(rho c u) = div(gamma grad mu) with the
    reconstructed chemical potential.
    """
    return _residual(state, params, ModelKind.NSK2, gamma, d)
