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
tensor.  Per evaluation grad u is taken and the non-local term solved once;
between the validated inputs and returned fields everything runs on arrays.

The full systems are never time-stepped: the closure makes them
differential-algebraic, so they are only ever checked residually.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import constitutive as law
from .constitutive import FluidParams, _augmented_bulk_viscosity, _density
from .elliptic import Mobility, _matvec, invert_for_model
from .errors import ConfigError, StateError
from .fields import Components, ScalarField, VectorField, _outer, _sup
from .grids import Discretization, Grid, Scheme
from .operators import _derivs, _div, _div_spectra, _div_tensor, _spectra
from .tensors import _div_of, _korteweg, _phase_stress, _velocity_gradient, _viscous_stress

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
        return VectorField(self.grid, _velocity(self))

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


def _nonlocal_term(divu: np.ndarray, grid: Grid, kind: ModelKind, gamma: Mobility | None,
                   d: Discretization) -> np.ndarray | None:
    """Lambda_gamma^{-1}(div u) for NSK2, the model's one elliptic solve; None for NSK1."""
    if kind is ModelKind.NSK1:
        return None
    return invert_for_model(gamma, ScalarField(grid, divu), d).values


def _pressure(state: MixtureState, divu: np.ndarray, params: FluidParams,
              d: Discretization, nonlocal_term: np.ndarray | None = None) -> np.ndarray:
    """Eliminated pressure: a bulk part plus the local part shared by both models.

    p = bulk + rho^2 R'(rho) - (1/rho) div((delta_star/rho) grad rho), where
    bulk = -(delta_star / (sqrt(delta) rho)) div u without a non-local term
    (NSK1) and -(theta / delta_tau^2) * nonlocal_term with one (NSK2).
    """
    grid = state.grid
    r = state.rho.values
    if nonlocal_term is None:
        bulk = -(params.delta_star / (np.sqrt(params.delta) * r)) * divu
    else:
        bulk = -(params.temperature / params.delta_tau**2) * nonlocal_term
    ds = params.delta_star
    flux = tuple((ds / r) * g for g in _derivs(r, grid, d))
    local = r * r * law.bulk_energy_drho(r, params) - _div(flux, grid, d) / r
    return bulk + local


def reconstruct_pressure_nsac(state: MixtureState, params: FluidParams,
                              d: Discretization) -> ScalarField:
    """Pressure eliminated via the phase-transformation balance.

    p = -(delta_star / (sqrt(delta) rho)) div u
        + rho^2 R'(rho) - (1/rho) div((delta_star/rho) grad rho)
    """
    return ScalarField(state.grid, _pressure(state, _div(_velocity(state), state.grid, d),
                                             params, d))


def reconstruct_pressure_nsch(state: MixtureState, params: FluidParams,
                              gamma: Mobility, d: Discretization) -> ScalarField:
    """Pressure eliminated via the conserved-phase balance (non-local).

    p = -(theta / delta_tau^2) * Lambda_gamma^{-1}(div u) + local part.
    """
    divu = _div(_velocity(state), state.grid, d)
    nonlocal_term = _nonlocal_term(divu, state.grid, ModelKind.NSK2, gamma, d)
    return ScalarField(state.grid, _pressure(state, divu, params, d, nonlocal_term))


def _diffusive_div(state: MixtureState, c: np.ndarray, params: FluidParams,
                   d: Discretization) -> np.ndarray:
    """div(delta rho grad c)."""
    grid = state.grid
    r = state.rho.values
    flux = tuple(params.delta * r * g for g in _derivs(c, grid, d))
    return _div(flux, grid, d)


def _reconstruct(state: MixtureState, divu: np.ndarray, params: FluidParams, kind: ModelKind,
                 gamma: Mobility | None, d: Discretization):
    """The eliminated fields as arrays: (c, p, q | mu, NSK2 non-local term or None)."""
    r = state.rho.values
    law.warn_outside_window(r, params, context="reconstruction")
    if kind is ModelKind.NSK2 and gamma is None:
        raise ConfigError("the conserved-phase model needs a mobility")
    c = law.concentration(r, params)
    wprime = params.well.derivative(c)
    nonlocal_term = _nonlocal_term(divu, state.grid, kind, gamma, d)
    p = _pressure(state, divu, params, d, nonlocal_term)
    if kind is ModelKind.NSK1:
        return c, p, -(params.delta_tau / params.temperature) * p - wprime, None
    mu = (params.delta_tau / params.temperature) * p + wprime \
        - _diffusive_div(state, c, params, d) / r
    return c, p, mu, nonlocal_term


def reconstruct_fields(state: MixtureState, params: FluidParams, kind: ModelKind,
                       gamma: Mobility | None = None,
                       d: Discretization = Discretization(Scheme.SPECTRAL)) -> ReconstructedFields:
    """Rebuild (c, p, q | mu) from a reduced state under the given model."""
    divu = _div(_velocity(state), state.grid, d)
    c, p, rate, _ = _reconstruct(state, divu, params, kind, gamma, d)
    c, p, rate = (ScalarField(state.grid, v) for v in (c, p, rate))
    return ReconstructedFields(c, p, **{"q" if kind is ModelKind.NSK1 else "mu_chem": rate})


def _reduced_stress(r: np.ndarray, gu: tuple[Components, ...], grid: Grid, params: FluidParams,
                    d: Discretization, nonlocal_term: np.ndarray | None) -> Components:
    """The reduced stress of either model from grad u: viscous or non-local part plus Korteweg.

    ``r`` is a validated state's density, so the laws run unchecked on one _Density.
    """
    dn = _density(r, params)
    korteweg = _korteweg(dn, _derivs(r, grid, d), grid, params, d)
    if nonlocal_term is None:
        bulk = _viscous_stress(gu, _augmented_bulk_viscosity(dn, params), params)
    else:
        bulk = _viscous_stress(gu, params.bulk_viscosity, params,
                               params.temperature / params.delta_tau**2 * nonlocal_term)
    return tuple(a + b for a, b in zip(bulk, korteweg))


def _rhs(state: MixtureState, params: FluidParams, kind: ModelKind,
         gamma: Mobility | None, d: Discretization) -> tuple[ScalarField, VectorField]:
    """(-div m, div(Sigma - m (x) u)): each field differentiated once, one divergence each."""
    grid = state.grid
    m, u = state.m.components, _velocity(state)
    gu = _velocity_gradient(u, grid, d)
    stress = _reduced_stress(state.rho.values, gu, grid, params, d,
                             _nonlocal_term(_div_of(gu), grid, kind, gamma, d))
    mom_flux = _outer(m, u)
    if d.dealias:   # the 2/3 rule on m and m (x) u, in the spectra the divergences take
        flux_hat = [s - a for s, a in zip(_spectra(stress, grid), _spectra(mom_flux, grid, True))]
        return (ScalarField(grid, -_div_spectra(_spectra(m, grid, True), grid, 1)[0]),
                VectorField(grid, _div_spectra(flux_hat, grid, grid.dim)))
    flux = tuple(s - a for s, a in zip(stress, mom_flux))
    return ScalarField(grid, -_div(m, grid, d)), VectorField(grid, _div_tensor(flux, grid, d))


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
    """Sup-norms of the full-model equations evaluated on a reduced state.

    The mass equation is not reported: with the density rate -div m it holds exactly.
    """

    momentum: float
    phase: float


def _full_model_gap(state: MixtureState, gu: tuple[Components, ...], params: FluidParams,
                    d: Discretization, c: np.ndarray, p: np.ndarray,
                    nonlocal_term: np.ndarray | None) -> Components:
    """div(S + P) - div(S_reduced + K), the momentum-flux defect; ``gu`` is grad u."""
    grid = state.grid
    r = state.rho.values
    full = tuple(a + b for a, b in zip(_viscous_stress(gu, params.bulk_viscosity, params),
                                       _phase_stress(c, p, r, grid, params, d)))
    lhs = _div_tensor(full, grid, d)
    rhs = _div_tensor(_reduced_stress(r, gu, grid, params, d, nonlocal_term), grid, d)
    return tuple(a - b for a, b in zip(lhs, rhs))


def momentum_equivalence_gap(state: MixtureState, params: FluidParams, kind: ModelKind,
                             gamma: Mobility | None = None,
                             d: Discretization = Discretization(Scheme.SPECTRAL)) -> float:
    """Sup-norm distance between the full and reduced momentum fluxes.

    This is the single number that certifies the reduction: it converges
    to zero at scheme order for smooth states.
    """
    gu = _velocity_gradient(_velocity(state), state.grid, d)
    c, p, _, nonlocal_term = _reconstruct(state, _div_of(gu), params, kind, gamma, d)
    return _sup(_full_model_gap(state, gu, params, d, c, p, nonlocal_term))


def _residual(state: MixtureState, params: FluidParams, kind: ModelKind,
              gamma: Mobility | None, d: Discretization) -> ResidualReport:
    """Full-model residuals; the models differ only in the phase right-hand side."""
    grid = state.grid
    r = state.rho.values
    u = _velocity(state)
    gu = _velocity_gradient(u, grid, d)
    c, p, rate, nonlocal_term = _reconstruct(state, _div_of(gu), params, kind, gamma, d)
    drho = -_div(state.m.components, grid, d)
    momentum = _sup(_full_model_gap(state, gu, params, d, c, p, nonlocal_term))
    # d/dt(rho c) + div(rho c u) with the semi-discrete density rate
    ctilde = law.phase_mass_density(r, params)
    lhs = law.phase_mass_density_drho(r, params) * drho \
        + _div(tuple(ctilde * cu for cu in u), grid, d)
    if kind is ModelKind.NSK1:
        rhs = (r * rate + _diffusive_div(state, c, params, d)) / np.sqrt(params.delta)
    else:
        rhs = -_matvec(gamma.values_on(grid), grid, d)(rate)
    return ResidualReport(momentum=momentum, phase=_sup((lhs - rhs,)))


def residual_nsac(state: MixtureState, params: FluidParams,
                  d: Discretization) -> ResidualReport:
    """Evaluate the full phase-transformation system on a reduced state.

    Time derivatives are semi-discrete: the density rate is the continuity
    right-hand side -div m (so the mass equation holds by construction and
    is not reported), the momentum rate comes from the reduced system (the
    momentum residual equals the equivalence gap), and d/dt(rho c) follows
    by the closure chain rule.  The phase-equation residual is the
    substantive check and converges at scheme order.
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
