"""Explicit SSP-RK3 (Shu-Osher) integration of reduced mixture states."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import constitutive as law
from .constitutive import FluidParams
from .elliptic import Mobility
from .errors import ConfigError, DomainError, StateError
from .fields import ScalarField, VectorField
from .grids import Discretization
from .models import MixtureState, ModelKind, _velocity, rhs_nsk1, rhs_nsk2

# Shu-Osher stage weights (step-start weight, weight of the Euler step from
# the last stage); each row is a convex combination, which makes it SSP.
SHU_OSHER_COEFFS = ((0.0, 1.0), (0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))


@dataclass(frozen=True)
class StepControl:
    """CFL-style step selection and run horizon.

    ``dt_fixed`` bypasses the estimate (used by temporal-convergence
    studies); otherwise the step is the bound of :func:`estimate_dt`, and a
    bound below ``dt_min`` aborts the run rather than being raised to it.
    """

    t_end: float = 1.0
    cfl_advective: float = 0.4
    cfl_parabolic: float = 0.2
    dt_min: float = 1e-10
    dt_max: float = 1.0
    dt_fixed: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max")
        if not (0.0 < self.cfl_advective <= 1.0 and 0.0 < self.cfl_parabolic <= 1.0):
            raise ConfigError("CFL safety factors must be in (0, 1]")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be >= 0")

    def reached(self, t: float) -> bool:
        """Whether time ``t`` counts as the end of the run."""
        return t >= self.t_end - 1e-14


def dt_candidates(state: MixtureState, params: FluidParams,
                  control: StepControl = StepControl()) -> dict[str, float]:
    """Unclamped advective/viscous/capillary step candidates."""
    grid = state.grid
    h_min = min(grid.h)
    r = state.rho.values
    dn = law._density(r, params)   # a validated state: the laws run unchecked
    speed = np.sqrt(sum(c * c for c in _velocity(state)))
    cs_sq = 2.0 * r * law._bulk_energy_drho(dn, params) \
        + r * r * law._bulk_energy_d2rho(dn, params)
    cs = np.sqrt(max(float(np.max(cs_sq)), 1e-12))
    fastest = float(np.max(speed)) + cs
    adv = control.cfl_advective * h_min / fastest if fastest > 0.0 else np.inf

    rho_min = float(np.min(r))
    lam_star_max = float(np.max(np.abs(law._augmented_bulk_viscosity(dn, params))))
    visc_denom = 2.0 * params.shear_viscosity + lam_star_max
    visc = control.cfl_parabolic * h_min**2 * rho_min / visc_denom \
        if visc_denom > 1e-300 else np.inf

    ds = params.delta_star
    cap = control.cfl_parabolic * h_min**2 * rho_min**2 / np.sqrt(ds) \
        if ds > 1e-300 else np.inf
    return {"advective": adv, "viscous": visc, "capillary": cap}


def _step_bound(state: MixtureState, params: FluidParams, control: StepControl,
                step: int | None = None) -> float:
    """The smallest candidate capped at dt_max; below dt_min it is a stiffness abort."""
    cand = min(dt_candidates(state, params, control).values())
    if cand < control.dt_min:
        raise StateError(f"stiffness abort: stable step {cand:.3e} fell below "
                         f"dt_min {control.dt_min:.3e} at t = {state.t:.6g}",
                         state=state, step=step, t=state.t)
    return min(cand, control.dt_max)


def estimate_dt(state: MixtureState, params: FluidParams,
                kind: ModelKind = ModelKind.NSK1,
                control: StepControl = StepControl()) -> float:
    """The step bound of :func:`integrate`: the smallest candidate, capped at dt_max.

    Below dt_min it raises the stiffness-abort StateError.  Both models share
    it: the non-local stress is no stiffer than the local one at equal parameters.
    """
    return _step_bound(state, params, control)


RhsEvaluator = Callable[[MixtureState], tuple[ScalarField, VectorField]]


def make_rhs(params: FluidParams, kind: ModelKind, gamma: Mobility | None,
             d: Discretization) -> RhsEvaluator:
    if kind is ModelKind.NSK1:
        return lambda s: rhs_nsk1(s, params, d)
    if gamma is None:
        raise ConfigError("the non-local reduced model needs a mobility")
    return lambda s: rhs_nsk2(s, params, gamma, d)


def ssprk3_step(state: MixtureState, dt: float, rhs: RhsEvaluator) -> MixtureState:
    """One SSP-RK3 step: stage k + 1 is wa * u0 + wb * (u_k + dt * L(u_k)) per table row.

    Each stage is computed on arrays and validated once, as one MixtureState.  Time
    is combined like the state: the RHS sees t, t + dt, t + dt/2; the step ends at t + dt.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    grid, stage, c = state.grid, state, 0.0
    for wa, wb in SHU_OSHER_COEFFS:
        drho, dm = rhs(stage)
        rho = wa * state.rho.values + wb * (stage.rho.values + dt * drho.values)
        m = tuple(wa * a + wb * (b + dt * g) for a, b, g in
                  zip(state.m.components, stage.m.components, dm.components))
        c = wb * (c + 1.0)
        stage = MixtureState(ScalarField(grid, rho), VectorField(grid, m), state.t + c * dt)
    return stage


Observer = Callable[[int, MixtureState, float], None]


@dataclass
class IntegrationResult:
    state: MixtureState
    steps: int
    dt_last: float = 0.0
    metrics: list = field(default_factory=list)


def step_metrics(step: int, state: MixtureState, dt: float) -> dict:
    """One line of the metrics stream."""
    speed = np.sqrt(sum(c * c for c in _velocity(state)))
    return {
        "step": step,
        "t": state.t,
        "dt": dt,
        "mass": float(state.rho.values.mean()),
        "momentum": [float(c.mean()) for c in state.m.components],
        "min_rho": float(np.min(state.rho.values)),
        "max_speed": float(np.max(speed)),
    }


def integrate(state: MixtureState, control: StepControl, params: FluidParams,
              kind: ModelKind = ModelKind.NSK1, gamma: Mobility | None = None,
              d: Discretization = Discretization(),
              observers: tuple[Observer, ...] = (),
              record_metrics: bool = False) -> IntegrationResult:
    """Step the reduced system until t_end, invoking observers each step.

    Observers are called once at step 0 and after every accepted step.
    Aborts with a stiffness diagnostic if the step estimate undershoots
    dt_min.  A step whose stage states are inadmissible (non-finite values
    raise DomainError, a density below the floor StateError) is re-raised
    as StateError with the step, t, dt and last good state.
    """
    rhs = make_rhs(params, kind, gamma, d)
    d.require_compatible(state.grid)
    params.validate_for_dim(state.grid.dim)
    law.warn_outside_window(state.rho.values, params, context="initial state")
    result = IntegrationResult(state=state, steps=0)

    def notify(step, st, dt):
        if record_metrics:
            result.metrics.append(step_metrics(step, st, dt))
        for obs in observers:
            obs(step, st, dt)

    notify(0, state, 0.0)
    step = 0
    while not control.reached(state.t) and step < control.max_steps:
        dt = control.dt_fixed if control.dt_fixed is not None \
            else _step_bound(state, params, control, step + 1)
        dt = min(dt, control.t_end - state.t)
        try:
            state = ssprk3_step(state, dt, rhs)
        except (DomainError, StateError) as exc:
            raise StateError(f"step {step + 1} from t = {state.t:.6g} with dt = {dt:.3e}: "
                             f"{exc}", state=state, step=step + 1, t=state.t, dt=dt) from exc
        step += 1
        notify(step, state, dt)
        result.state = state
        result.steps = step
        result.dt_last = dt
    return result
