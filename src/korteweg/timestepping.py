"""Explicit SSP-RK3 (Shu-Osher) integration of reduced mixture states.

``make_rhs`` binds a run's right-hand side once: the grid's calculus (i k,
shapes; the inverse symbol of -div(grad .) on first use) and, on a spectral
grid, the stress symbol's real half-spectrum arrays
(:func:`korteweg.models._stress_symbol`) are resolved there, and the
constitutive coefficients are attributes of ``FluidParams``, formed once
per parameter set.  It also binds a workspace
(:class:`korteweg.operators._Workspace`) on every grid, the buffers into
which every evaluation writes its temporaries, transforms included, replayed
in call order from the first evaluation on, so that a spectral evaluation
allocates only its rates.  The stages run on the rows (rho, *m)
as one (1 + dim, *shape) array on every grid, so a stage is one Shu-Osher
combination, one finite scan and one floor check, and the spectral kernels
transform its rows with one stacked call.  A stage is formed in place in
the rates of its evaluation, and wa * u0 in the dead rows of the stage
before.  Each accepted step builds one validated MixtureState, scanned
once for min rho, which its floor check, the next step bound and the
metrics share, as they share its maximum speed.  Every law is a function
of rho alone, so the step bound reads only those two and rho_max, one
reduction: c_s^2 is taken at the extremes and at any maximum of c_s^2(rho)
between them, found once per ``FluidParams`` in closed form, so the bound
forms no grid array.  The metrics take their means as numpy's sum over the
size, the bits of ``mean()``.  ``integrate`` records metrics lines only
into a list it is given, and builds its ``IntegrationResult`` once, at
return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constitutive as law
from .constitutive import FluidParams
from .elliptic import Mobility
from .errors import (ConfigError, DomainError, SolverError, StateError,
                     _require_finite_fields)
from .fields import ScalarField, VectorField, _require_finite
from .grids import SPECTRAL, Grid, Scheme
from .models import (MixtureState, ModelKind, _require_above_floor, _rhs, _stage_rows,
                     _stress_symbol)
from .operators import _calculus, _Workspace

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
        _require_finite_fields(self, "t_end", "cfl_advective", "cfl_parabolic", "dt_min",
                               "dt_max", "dt_fixed")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max")
        if not (0.0 < self.cfl_advective <= 1.0 and 0.0 < self.cfl_parabolic <= 1.0):
            raise ConfigError("CFL safety factors must be in (0, 1]")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be >= 0")
        if self.dt_fixed is not None and not self.dt_fixed > 0.0:
            raise ConfigError("dt_fixed must be positive")

    def reached(self, t: float) -> bool:
        """Whether time ``t`` counts as the end of the run."""
        return t >= self.t_end - 1e-14


def dt_candidates(state: MixtureState, params: FluidParams,
                  control: StepControl = StepControl()) -> dict[str, float]:
    """Unclamped advective/viscous/capillary step candidates.

    Every law is a function of rho alone, so the candidates read only the
    density extremes and the largest speed: rho_min and max |u| are kept on the
    state, and rho_max is one reduction.  The sound speed is the largest c_s^2
    over [rho_min, rho_max], at the extremes and at any maximum of c_s^2(rho)
    between them (:func:`korteweg.constitutive._sound_speed_sq_max`), in Python
    floats; a well that overrides ``second_derivative`` takes c_s^2 over the grid.
    """
    h_min = min(state.grid.h)
    rho_min, rho_max = state.rho_min, float(state.rho.values.max())
    cs2 = law._sound_speed_sq_max(rho_min, rho_max, params)
    if cs2 is None:   # a well of another shape: its c_s^2 at every node
        cs2 = float(law._sound_speed_sq(law._density(state.rho.values, params), params).max())
    fastest = state.max_speed + math.sqrt(max(cs2, 1e-12))
    adv = control.cfl_advective * h_min / fastest if fastest > 0.0 else np.inf

    # lambda* = lambda + s / rho, s > 0, and its rounding are monotone in rho:
    # max |lambda*| is its larger value at the density extremes, bit for bit
    lam_star_max = max(abs(params.bulk_viscosity + params._augmented_scale * (1.0 / x))
                       for x in (rho_min, rho_max))
    visc_denom = params._two_mu + lam_star_max
    visc = control.cfl_parabolic * h_min**2 * rho_min / visc_denom \
        if visc_denom > 1e-300 else np.inf

    ds = params.delta_star
    cap = control.cfl_parabolic * h_min**2 * rho_min**2 / math.sqrt(ds) \
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

    Below dt_min it raises the stiffness-abort StateError.  Both models get
    the same candidates (:func:`dt_candidates`, with the NSK1 augmented
    viscosity), from the density extremes, the maxima of c_s^2(rho) between
    them and the largest speed, and ``kind`` is not used yet.  The shared
    bound is no stability claim for NSK2: on a near-constant state (N = 128,
    rho = 1.5) the SSP-RK3 limit is 3.81e-3 for NSK2 against 4.51e-3 for NSK1.
    """
    return _step_bound(state, params, control)


# rows (rho, *m) -> their rates, both in the stage layout: one (1 + dim, *shape)
# array; the rows are not written, and the rates are a fresh array, never a
# buffer of the evaluator's workspace, as ssprk3_step forms the next stage in it
RhsEvaluator = Callable[[np.ndarray], np.ndarray]


def make_rhs(params: FluidParams, kind: ModelKind, gamma: Mobility | None,
             d: Scheme, grid: Grid) -> RhsEvaluator:
    """The model's right-hand side on ``grid``, as rows (rho, *m) -> their rates.

    What stays fixed across calls is resolved here, once: the grid's
    calculus (i k, shapes; it holds the inverse symbol of -div(grad .) from
    its first use on), the stress symbol of a spectral grid as real arrays,
    through ``params`` the constitutive coefficients and the workspace whose
    buffers every call replays, rewound at the call's start, so the evaluator
    runs one call at a time.  The same workspace type serves every grid and scheme.
    """
    ops = _calculus(grid, d)
    symbol = _stress_symbol(ops, params, kind, gamma)
    ws = _Workspace(ops)

    def rhs(q: np.ndarray) -> np.ndarray:
        ws.rewind()
        return _rhs(q, ops, params, kind, gamma, symbol, ws)

    return rhs


def ssprk3_step(state: MixtureState, dt: float, rhs: RhsEvaluator) -> MixtureState:
    """One SSP-RK3 step: stage k + 1 is wa * u0 + wb * (u_k + dt * L(u_k)) per table row.

    The stages run on the rows (rho, *m) in the stage layout of the module
    notes, the layout ``rhs`` takes and returns.  Each stage is formed in
    place in the rates ``rhs`` returns, which the step consumes, with
    wa * u0 in the rows of the stage before; it never writes into u0 or the
    state.  Each stage gets a MixtureState's checks before the next evaluation
    (non-finite values: DomainError, density floor: StateError); the last one
    becomes the step's one validated MixtureState, at t + dt.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    grid = state.grid
    q0 = q = _stage_rows(state)
    for i, (wa, wb) in enumerate(SHU_OSHER_COEFFS):
        if i:
            _require_finite(q)
            _require_above_floor(q[0])
        dq = rhs(q)
        # bit for bit the out-of-place combination, as IEEE + and * commute; wa * u0
        # goes into the rows of the stage before, dead once added (a fresh array
        # at the first stage, whose rows are u0's)
        dq *= dt
        dq += q
        if wb != 1.0:
            dq *= wb
        if wa:
            dq += np.multiply(wa, q0, out=q if i else None)
        q = dq
    return MixtureState(ScalarField(grid, q[0]), VectorField(grid, q[1:]), state.t + dt)


Observer = Callable[[int, MixtureState, float], None]


@dataclass(frozen=True)
class IntegrationResult:
    """The last state, the steps taken and the last step (0 without one), and the
    metrics lines recorded (empty unless :func:`integrate` was given a list)."""

    state: MixtureState
    steps: int
    dt_last: float
    metrics: list


def _mean(a: np.ndarray) -> float:
    """a.mean() bit for bit (numpy's sum, then one divide), without its Python wrapper."""
    return float(np.add.reduce(a, axis=None) / a.size)


def step_metrics(step: int, state: MixtureState, dt: float) -> dict:
    """One line of the metrics stream."""
    return {
        "step": step,
        "t": state.t,
        "dt": dt,
        "mass": _mean(state.rho.values),
        "momentum": [_mean(c) for c in state.m.components],
        "min_rho": state.rho_min,
        "max_speed": state.max_speed,
    }


def integrate(state: MixtureState, control: StepControl, params: FluidParams,
              kind: ModelKind = ModelKind.NSK1, gamma: Mobility | None = None,
              d: Scheme = SPECTRAL,
              observers: tuple[Observer, ...] = (),
              metrics: list | None = None) -> IntegrationResult:
    """Step the reduced system until t_end, invoking observers each step.

    Observers are called once at step 0 and after every accepted step.  Given
    a list ``metrics``, each state's metrics line (:func:`step_metrics`) is
    appended to it before the observers are called, so an observer reads it as
    the list's last entry, and the result carries it as ``result.metrics``.
    Aborts with a stiffness diagnostic if the step estimate undershoots
    dt_min.  A step that fails in a stage (non-finite values raise
    DomainError, a density below the floor StateError, an elliptic solve
    that does not converge SolverError) is re-raised as StateError with
    the step, t, dt and last good state.
    """
    rhs = make_rhs(params, kind, gamma, d, state.grid)
    params.validate_for_dim(state.grid.dim)
    law.warn_outside_window(state.rho.values, params, context="initial state")

    def notify(step, st, dt):
        if metrics is not None:
            metrics.append(step_metrics(step, st, dt))
        for obs in observers:
            obs(step, st, dt)

    step, dt = 0, 0.0
    notify(step, state, dt)
    while not control.reached(state.t) and step < control.max_steps:
        dt = control.dt_fixed if control.dt_fixed is not None \
            else _step_bound(state, params, control, step + 1)
        dt = min(dt, control.t_end - state.t)
        try:
            state = ssprk3_step(state, dt, rhs)
        except (DomainError, SolverError, StateError) as exc:
            raise StateError(f"step {step + 1} from t = {state.t:.6g} with dt = {dt:.3e}: "
                             f"{exc}", state=state, step=step + 1, t=state.t, dt=dt) from exc
        step += 1
        notify(step, state, dt)
    return IntegrationResult(state, step, dt, [] if metrics is None else metrics)
