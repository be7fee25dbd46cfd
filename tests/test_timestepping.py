"""SSP-RK3 stepping, step control, and conservation under integration."""

import math
from pathlib import Path

import numpy as np
import pytest
from conftest import sine_state, traced_peak

import korteweg.constitutive
import korteweg.fields
import korteweg.models
import korteweg.timestepping
from korteweg import (FD2, SPECTRAL, ConfigError, FluidParams, Grid, MixtureState,
                      Mobility, ModelKind, ScalarField, StateError, StepControl,
                      VectorField, estimate_dt, integrate, reconstruct_fields, rhs_nsk1,
                      rhs_nsk2, ssprk3_step)
from korteweg.constitutive import Convention, DoubleWell
from korteweg.errors import KortewegError
from korteweg.harness import load_config
from korteweg.initial import MobilityKind, MobilitySpec
from korteweg.operators import _Calculus
from korteweg.timestepping import (SHU_OSHER_COEFFS, _step_bound, dt_candidates, make_rhs,
                                   step_metrics)

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def constant_state(grid, rho0=1.4):
    return MixtureState.from_primitive(ScalarField.constant(grid, rho0),
                                       VectorField.zero(grid))


def test_shu_osher_stages_are_convex_combinations():
    for prev_w, euler_w in SHU_OSHER_COEFFS:
        assert prev_w >= 0.0 and euler_w >= 0.0
        assert abs(prev_w + euler_w - 1.0) < 1e-15


def test_step_control_validation():
    with pytest.raises(ConfigError):
        StepControl(dt_min=1e-2, dt_max=1e-3)
    with pytest.raises(ConfigError):
        StepControl(cfl_advective=1.5)
    with pytest.raises(ConfigError):
        StepControl(t_end=-1.0)


def zero_rhs(q):
    return np.zeros_like(q)


def decay(q):
    return -q


def test_zero_rhs_leaves_state_unchanged(grid64):
    state = constant_state(grid64)
    out = ssprk3_step(state, 0.25, zero_rhs)
    assert np.array_equal(out.rho.values, state.rho.values)
    assert out.t == 0.25
    with pytest.raises(ConfigError):
        ssprk3_step(state, 0.0, zero_rhs)


def test_scalar_decay_matches_hand_computed_stages(grid64):
    # y' = -y, y0 = 1, dt = 0.1; Shu-Osher stage arithmetic gives
    # y1 = 1/3 + (2/3)*0.9*(3/4 + (1/4)*0.9*0.9) = 5429/6000
    state = constant_state(grid64, rho0=1.0)
    out = ssprk3_step(state, 0.1, decay)
    expected = 5429.0 / 6000.0
    assert np.max(np.abs(out.rho.values - expected)) < 1e-14
    assert abs(expected - np.exp(-0.1)) < 1e-5  # third-order one-step accuracy


def test_shu_osher_table_drives_the_stages(grid64, monkeypatch):
    # three chained forward-Euler stages: y' = -y from 1 lands on 0.9**3
    monkeypatch.setattr(korteweg.timestepping, "SHU_OSHER_COEFFS", ((0.0, 1.0),) * 3)
    state = constant_state(grid64, rho0=1.0)
    out = ssprk3_step(state, 0.1, decay)
    assert np.max(np.abs(out.rho.values - 0.9**3)) < 1e-14


def test_step_validates_one_state_per_step(grid64, monkeypatch):
    # the stages run on arrays; only the step's result is a MixtureState
    built = []
    original = MixtureState.__post_init__
    monkeypatch.setattr(MixtureState, "__post_init__",
                        lambda self: built.append(self.t) or original(self))
    state = constant_state(grid64)
    built.clear()
    out = ssprk3_step(state, 0.25, zero_rhs)
    assert built == [0.25] and out.t == 0.25


def test_constant_state_is_fixed_point(params, grid64):
    state = constant_state(grid64)
    rhs = make_rhs(params, ModelKind.NSK1, None, SPECTRAL, grid64)
    out = ssprk3_step(state, 0.05, rhs)
    assert np.max(np.abs(out.rho.values - state.rho.values)) < 1e-13
    assert np.max(np.abs(out.m.components[0] - state.m.components[0])) < 1e-13


def test_advective_candidate_scales_linearly_in_h(params):
    def adv(n):
        grid = Grid.periodic(n)
        x = grid.coords()[0]
        state = MixtureState.from_primitive(
            ScalarField(grid, 1.5 + 0.2 * np.sin(x)),
            VectorField(grid, (0.3 * np.cos(x),)))
        return dt_candidates(state, params)["advective"]

    ratio = adv(64) / adv(128)
    assert abs(ratio - 2.0) < 1e-6


def test_unconstrained_state_gets_dt_max(grid64):
    # no velocity, no viscosity, vanishing capillarity: no constraint binds
    loose = FluidParams(temperature=1e-300, shear_viscosity=0.0,
                        bulk_viscosity=0.0, well=DoubleWell(scale=0.0))
    state = constant_state(grid64)
    control = StepControl(t_end=1.0, dt_max=0.07)
    assert estimate_dt(state, loose, ModelKind.NSK1, control) == 0.07


def test_estimate_dt_is_clamped(params, grid64):
    state = constant_state(grid64)
    control = StepControl(t_end=1.0, dt_min=1e-5, dt_max=2e-5)
    dt = estimate_dt(state, params, ModelKind.NSK1, control)
    assert 1e-5 <= dt <= 2e-5


def test_estimate_dt_below_dt_min_is_a_stiffness_abort(params, grid64):
    state = constant_state(grid64)
    bound = min(dt_candidates(state, params).values())
    control = StepControl(t_end=1.0, dt_min=2.0 * bound, dt_max=1.0)
    with pytest.raises(StateError, match="stiffness"):
        estimate_dt(state, params, ModelKind.NSK1, control)


def test_integrate_zero_horizon_returns_initial(params, grid64):
    state = constant_state(grid64)
    res = integrate(state, StepControl(t_end=0.0), params)
    assert res.steps == 0
    assert res.state is state


def test_integrate_conserves_mass_and_momentum(params):
    grid = Grid.periodic(48)
    x = grid.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 * (1.0 + 0.05 * np.sin(x))),
        VectorField(grid, (0.02 * np.sin(x),)))
    control = StepControl(t_end=1e9, dt_fixed=2e-4, max_steps=1000)
    res = integrate(state, control, params, ModelKind.NSK1, None, SPECTRAL,
                    metrics=[])
    assert res.steps == 1000
    mass = [m["mass"] for m in res.metrics]
    mom = [m["momentum"][0] for m in res.metrics]
    assert max(abs(v - mass[0]) for v in mass) < 1e-12
    assert max(abs(v - mom[0]) for v in mom) < 1e-12


def test_temporal_self_convergence_is_third_order(params):
    grid = Grid.periodic(48)
    x = grid.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 + 0.15 * np.sin(x)),
        VectorField(grid, (0.05 * np.cos(x),)))
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        res = integrate(state, StepControl(t_end=0.08, dt_fixed=dt), params,
                        ModelKind.NSK1, None, SPECTRAL)
        finals.append(res.state.rho.values)
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    order = np.log2(e1 / e2)
    assert abs(order - 3.0) <= 0.3


def test_estimated_step_is_stable_and_four_times_is_not(params):
    # empirical stability scan frozen from calibration: the interface
    # state at N = 128 integrates 100 steps at the estimated step and
    # loses positivity at four times that step
    from korteweg.initial import default_corpus

    cs = next(s for s in default_corpus(params) if s.name == "interface_flow")
    state = cs.state(128)
    dt = min(dt_candidates(state, params).values())
    res = integrate(state, StepControl(t_end=1e9, dt_fixed=dt, max_steps=100),
                    params, ModelKind.NSK1, None, SPECTRAL)
    assert res.steps == 100
    assert np.min(res.state.rho.values) > 0.5
    with pytest.raises((KortewegError, FloatingPointError)):
        integrate(state, StepControl(t_end=1e9, dt_fixed=4.0 * dt, max_steps=100),
                  params, ModelKind.NSK1, None, SPECTRAL)


def test_stiffness_abort_on_dt_min_undershoot(params):
    from korteweg.initial import default_corpus

    cs = next(s for s in default_corpus(params) if s.name == "interface_rest")
    state = cs.state(64)
    control = StepControl(t_end=1.0, dt_min=0.5, dt_max=1.0)
    with pytest.raises(StateError, match="stiffness"):
        integrate(state, control, params, ModelKind.NSK1, None, SPECTRAL)


def test_integration_is_deterministic(params):
    grid = Grid.periodic(32)
    x = grid.coords()[0]

    def run():
        state = MixtureState.from_primitive(
            ScalarField(grid, 1.5 + 0.1 * np.sin(x)),
            VectorField(grid, (0.05 * np.sin(x),)))
        return integrate(state, StepControl(t_end=0.01), params,
                         ModelKind.NSK1, None, SPECTRAL).state

    a, b = run(), run()
    assert np.array_equal(a.rho.values, b.rho.values)
    assert np.array_equal(a.m.components[0], b.m.components[0])


def test_observers_are_invoked_every_step(params, grid64):
    state = constant_state(grid64)
    seen = []
    obs = lambda step, st, dt: seen.append(step)
    integrate(state, StepControl(t_end=1e9, dt_fixed=1e-3, max_steps=5), params,
              observers=(obs,))
    assert seen == [0, 1, 2, 3, 4, 5]


def moving_state(grid):
    xs = grid.coords()
    wave = sum(np.sin((axis + 1) * x) for axis, x in enumerate(xs))
    return MixtureState.from_primitive(
        ScalarField(grid, 1.4 + 0.1 * wave),
        VectorField(grid, tuple(0.05 * np.cos(x) for x in xs)))


CONSTANT = Mobility(1.0)
# (grid, scheme, model, mobility) per case of the array time loop
RUNS = {
    "1d-nsk1": (Grid.periodic(64), SPECTRAL, ModelKind.NSK1, None),
    "1d-nsk2": (Grid.periodic(64), SPECTRAL, ModelKind.NSK2, CONSTANT),
    "1d-odd-nsk1": (Grid.periodic(63), SPECTRAL, ModelKind.NSK1, None),
    "1d-odd-nsk2": (Grid.periodic(63), SPECTRAL, ModelKind.NSK2, CONSTANT),
    "1d-fd2-nsk1": (Grid.periodic(64), FD2, ModelKind.NSK1, None),
    "1d-fd2-nsk2": (Grid.periodic(64), FD2, ModelKind.NSK2, CONSTANT),
    "2d-nsk1": (Grid.periodic((32, 24)), SPECTRAL, ModelKind.NSK1, None),
    "2d-nsk2": (Grid.periodic((32, 24)), SPECTRAL, ModelKind.NSK2, CONSTANT),
    "periodic-cosine-nsk2": (Grid.periodic(64), SPECTRAL, ModelKind.NSK2,
                             Mobility(2.0 + np.cos(Grid.periodic(64).coords()[0]))),
    "bounded-cosine-nsk2": (Grid.bounded_neumann_1d(64, 1.0), FD2, ModelKind.NSK2,
                            MobilitySpec(MobilityKind.COSINE).build(
                                Grid.bounded_neumann_1d(64, 1.0))),
}


@pytest.mark.parametrize("case", ["1d-nsk1", "1d-nsk2", "bounded-cosine-nsk2", "2d-nsk1"])
def test_integrate_builds_one_field_of_each_kind_per_step(case, params, monkeypatch):
    grid, d, kind, gamma = RUNS[case]
    state = moving_state(grid)
    built = {}
    for cls in (ScalarField, VectorField, MixtureState):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, cls=cls, original=original:
                            built.update({cls.__name__: built.get(cls.__name__, 0) + 1})
                            or original(self))
    res = integrate(state, StepControl(t_end=1e9, max_steps=4), params, kind, gamma, d,
                    metrics=[])
    assert res.steps == 4
    assert built == {"ScalarField": 4, "VectorField": 4, "MixtureState": 4}


def reference_integrate(state, control, params, kind, gamma, d):
    """The field-based stage loop: every stage a validated MixtureState, the
    right-hand side through rhs_nsk1/rhs_nsk2.  Returns (final state, metrics)."""
    rhs = (lambda s: rhs_nsk1(s, params, d)) if kind is ModelKind.NSK1 else \
        (lambda s: rhs_nsk2(s, params, gamma, d))
    grid = state.grid
    metrics = [step_metrics(0, state, 0.0)]
    step = 0
    while not control.reached(state.t) and step < control.max_steps:
        dt = min(_step_bound(state, params, control, step + 1), control.t_end - state.t)
        stage, c = state, 0.0
        for wa, wb in SHU_OSHER_COEFFS:
            drho, dm = rhs(stage)
            rho = wa * state.rho.values + wb * (stage.rho.values + dt * drho.values)
            m = tuple(wa * a + wb * (b + dt * g) for a, b, g in
                      zip(state.m.components, stage.m.components, dm.components))
            c = wb * (c + 1.0)
            stage = MixtureState(ScalarField(grid, rho), VectorField(grid, m),
                                 state.t + c * dt)
        state = stage
        step += 1
        metrics.append(step_metrics(step, state, dt))
    return state, metrics


@pytest.mark.parametrize("case", sorted(RUNS))
def test_array_stages_match_field_stages_bit_for_bit(case, params):
    grid, d, kind, gamma = RUNS[case]
    state = moving_state(grid)
    control = StepControl(t_end=1e9, max_steps=6)
    res = integrate(state, control, params, kind, gamma, d, metrics=[])
    ref, ref_metrics = reference_integrate(state, control, params, kind, gamma, d)
    assert res.steps == 6 and res.state.t == ref.t
    assert np.array_equal(res.state.rho.values, ref.rho.values)
    assert all(np.array_equal(a, b) for a, b in zip(res.state.m.components, ref.m.components,
                                                     strict=True))
    assert res.metrics == ref_metrics


def mean_metrics(step, state, dt):
    """step_metrics read through numpy's array methods, mean() and min()."""
    return {"step": step, "t": state.t, "dt": dt,
            "mass": float(state.rho.values.mean()),
            "momentum": [float(c.mean()) for c in state.m.components],
            "min_rho": float(state.rho.values.min()), "max_speed": state.max_speed}


@pytest.mark.parametrize("grid", [
    Grid.periodic(64), Grid.periodic(63), Grid.periodic(256), Grid.periodic((48, 36)),
    Grid.periodic((33, 35)), Grid.periodic((128, 128)), Grid.bounded_neumann_1d(64, 1.0)],
    ids=["64", "63", "256", "48x36", "33x35", "128^2", "bounded-64"])
def test_metrics_are_the_bits_of_numpy_mean_and_min(grid):
    # magnitudes over six decades, so that the order of summation shows in the bits
    rng = np.random.default_rng(int(np.prod(grid.shape)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (1 + grid.dim, *grid.shape))
    q = 1.5 + np.abs(rng.standard_normal(scale.shape)) * scale
    q[1:] -= 1.5
    state = MixtureState(ScalarField(grid, q[0]), VectorField(grid, q[1:]), 0.25)
    want = mean_metrics(7, state, 1e-3)
    assert state.rho_min == want["min_rho"]
    got = step_metrics(7, state, 1e-3)
    assert repr(got) == repr(want)
    assert np.array([got["mass"], *got["momentum"]]).tobytes() == \
        np.array([want["mass"], *want["momentum"]]).tobytes()


def per_component_steps(state, steps, params, kind, gamma, d):
    """SSP-RK3 written out on one array per component: every stage's rates from the
    public rhs_nsk1/rhs_nsk2, combined row by row of SHU_OSHER_COEFFS; dt from
    estimate_dt."""
    grid, control = state.grid, StepControl(t_end=1e9)
    for _ in range(steps):
        dt = estimate_dt(state, params, kind, control)
        start = rows = (state.rho.values, *state.m.components)
        for wa, wb in SHU_OSHER_COEFFS:
            stage = MixtureState(ScalarField(grid, rows[0]), VectorField(grid, rows[1:]))
            drho, dm = rhs_nsk1(stage, params, d) if kind is ModelKind.NSK1 \
                else rhs_nsk2(stage, params, gamma, d)
            rows = tuple(wa * a + wb * (b + dt * g)
                         for a, b, g in zip(start, rows, (drho.values, *dm.components)))
        state = MixtureState(ScalarField(grid, rows[0]), VectorField(grid, rows[1:]),
                             state.t + dt)
    return state


GUARD_RUNS = {**{case: RUNS[case] for case in ("1d-nsk1", "1d-nsk2", "1d-fd2-nsk1",
                                               "1d-fd2-nsk2", "bounded-cosine-nsk2")},
    "2d-32-nsk1": (Grid.periodic((32, 32)), SPECTRAL, ModelKind.NSK1, None),
    "2d-32-nsk2": (Grid.periodic((32, 32)), SPECTRAL, ModelKind.NSK2, CONSTANT)}


@pytest.mark.parametrize("case", sorted(GUARD_RUNS))
def test_twenty_steps_equal_the_per_component_loop(case, params):
    # integrate binds the right-hand side once per run and, on a 1-D grid, runs the
    # stages on one stacked array; neither may change a bit of the result
    grid, d, kind, gamma = GUARD_RUNS[case]
    state = moving_state(grid)
    res = integrate(state, StepControl(t_end=1e9, max_steps=20), params, kind, gamma, d)
    ref = per_component_steps(state, 20, params, kind, gamma, d)
    assert res.steps == 20 and res.state.t == ref.t
    assert np.array_equal(res.state.rho.values, ref.rho.values)
    assert all(np.array_equal(a, b) for a, b in zip(res.state.m.components, ref.m.components,
                                                     strict=True))


@pytest.mark.parametrize("kind, gamma, ffts", [(ModelKind.NSK1, None, 18),
                                               (ModelKind.NSK2, CONSTANT, 18)],
                         ids=["nsk1", "nsk2"])
def test_one_step_hot_path_counts(kind, gamma, ffts, params, grid64, monkeypatch):
    # one 1-D spectral step without observers: three right-hand sides of 6
    # transform calls each, and 1 + dim validated arrays for the result
    state = moving_state(grid64)
    calls = {"fft": 0, "frozen": 0, "rhs": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("forward", "inverse"):
        monkeypatch.setattr(_Calculus, name, counted("fft", getattr(_Calculus, name)))
    monkeypatch.setattr(korteweg.fields, "_frozen_array",
                        counted("frozen", korteweg.fields._frozen_array))
    monkeypatch.setattr(korteweg.timestepping, "_rhs", counted("rhs", korteweg.timestepping._rhs))
    res = integrate(state, StepControl(t_end=1e9, max_steps=1), params, kind, gamma, SPECTRAL)
    assert res.steps == 1
    assert calls == {"fft": ffts, "frozen": 1 + grid64.dim, "rhs": 3}


@pytest.mark.parametrize("lam, mu", [(0.0, 0.01), (-0.3, 0.5), (-0.45, 0.5)],
                         ids=["lambda-0", "lambda-neg-sign-change", "lambda-neg"])
@pytest.mark.parametrize("n", [64, (32, 24)], ids=["1d", "2d"])
def test_viscous_candidate_reads_the_density_extremes(lam, mu, n):
    # lambda* = lambda + s / rho is monotone in 1/rho, so its largest magnitude sits at
    # rho_min or rho_max: at rho_min for lambda = 0; for lambda = -0.3 lambda* changes
    # sign and is largest at rho_min, for lambda = -0.45 negative and largest at rho_max
    params = FluidParams(bulk_viscosity=lam, shear_viscosity=mu)
    grid = Grid.periodic(n)
    params.validate_for_dim(grid.dim)
    r = 1.4 + 0.5 * np.prod([np.cos(x) for x in grid.coords()], axis=0)   # [0.9, 1.9]
    state = MixtureState.from_primitive(ScalarField(grid, r), VectorField.zero(grid))
    lam_star = params.bulk_viscosity + params._augmented_scale * (1.0 / r)
    control = StepControl()
    full_array = control.cfl_parabolic * min(grid.h) ** 2 * float(r.min()) \
        / (params._two_mu + float(np.abs(lam_star).max()))
    assert dt_candidates(state, params, control)["viscous"] == full_array


@pytest.mark.parametrize("params, binding", [
    (FluidParams(), "viscous"), (FluidParams(tau1=2.0, tau2=0.2), "capillary")],
    ids=["viscous", "capillary"])
def test_every_step_candidate_and_the_bound_are_python_floats(params, binding):
    # the capillary candidate divides by math.sqrt, not np.sqrt, so the bound is a
    # Python float whichever candidate binds
    state = sine_state(Grid.periodic(256))
    cand = dt_candidates(state, params)
    assert min(cand, key=cand.get) == binding
    assert all(type(v) is float for v in cand.values())
    assert type(estimate_dt(state, params)) is float


def random_rows(grid, rng):
    rows = [1.5 + 0.1 * rng.standard_normal(grid.shape)] + \
        [0.1 * rng.standard_normal(grid.shape) for _ in range(grid.dim)]
    return MixtureState(ScalarField(grid, rows[0]), VectorField(grid, tuple(rows[1:])))


def smooth_rates(q):
    """A nonlinear right-hand side in the stage layout, with fresh rates."""
    rows = [np.sin(a) * 0.3 - 0.1 * a * a for a in q]
    return np.array(rows) if isinstance(q, np.ndarray) else tuple(rows)


@pytest.mark.parametrize("table", [SHU_OSHER_COEFFS, ((0.0, 1.0),) * 3,
                                   ((0.0, 0.5), (0.25, 0.75), (0.0, 0.7))],
                         ids=["ssprk3", "euler", "wa-0-wb-not-1"])
@pytest.mark.parametrize("n", [64, (16, 12)], ids=["1d", "2d"])
def test_in_place_stages_equal_the_out_of_place_combination(table, n, monkeypatch):
    # the step forms each stage in the rates it is given; bit for bit that is
    # wa * q0 + wb * (q + dt * dq), and neither the state nor q0 is written
    monkeypatch.setattr(korteweg.timestepping, "SHU_OSHER_COEFFS", table)
    grid = Grid.periodic(n)
    state = random_rows(grid, np.random.default_rng(21))
    before = [a.copy() for a in (state.rho.values, *state.m.components)]
    out = ssprk3_step(state, 0.05, smooth_rates)
    q0 = q = [a.copy() for a in before]
    for wa, wb in table:
        dq = smooth_rates(np.array(q) if grid.dim == 1 else tuple(q))
        q = [wa * a + wb * (b + 0.05 * g) for a, b, g in zip(q0, q, dq)]
    got = (out.rho.values, *out.m.components)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, q, strict=True))
    assert all(np.array_equal(a, b) for a, b in
               zip((state.rho.values, *state.m.components), before, strict=True))


@pytest.mark.parametrize("kind", [ModelKind.NSK1, ModelKind.NSK2], ids=["nsk1", "nsk2"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
@pytest.mark.parametrize("n", [64, (16, 12)], ids=["1d", "2d"])
def test_time_loop_runs_the_closed_form_korteweg_tensor(n, d, kind, params, monkeypatch):
    # the Korteweg diagonal is (theta/delta_tau) W'(c) + 2 kappa |grad rho|^2 + ...
    # and the step bound's sound speed is closed form too; the Dunn-Serrin chain
    # through psi_rho and the bulk-energy derivatives stay out of the time loop
    def chain(*args):
        raise AssertionError("the time loop evaluated the Helmholtz-derivative chain")

    for name in ("helmholtz_energy_drho", "bulk_energy_drho", "bulk_energy_d2rho"):
        monkeypatch.setattr(korteweg.constitutive, name, chain, raising=True)
    grid = Grid.periodic(n)
    gamma = Mobility(2.0 + np.cos(grid.coords()[0])) if kind is ModelKind.NSK2 \
        else None
    res = integrate(moving_state(grid), StepControl(t_end=1e9, max_steps=3), params,
                    kind, gamma, d)
    assert res.steps == 3
    # the spy sits where the program looks the laws up: a reconstruction reads R'
    with pytest.raises(AssertionError, match="chain"):
        reconstruct_fields(res.state, params, kind, gamma, d)


@pytest.mark.parametrize("n", [64, (32, 24)], ids=["1d", "2d"])
def test_max_speed_is_the_largest_nodal_speed_bit_for_bit(n):
    # sqrt of the largest |u|^2 is the largest node-wise sqrt(|u|^2): a correctly
    # rounded sqrt is monotone
    grid = Grid.periodic(n)
    for seed in range(5):
        state = random_rows(grid, np.random.default_rng(seed))
        u = state.velocity().components
        squares = u[0] * u[0] if grid.dim == 1 else u[0] * u[0] + u[1] * u[1]
        assert state.max_speed == float(np.sqrt(squares).max())


def test_step_bound_and_metrics_share_one_speed_per_state(params, monkeypatch):
    # the bound of step n + 1 reads the state whose metrics line step n just wrote
    velocities = []
    original = korteweg.models._velocity
    monkeypatch.setattr(korteweg.models, "_velocity",
                        lambda state: velocities.append(state) or original(state))
    res = integrate(moving_state(Grid.periodic((16, 12))), StepControl(t_end=1e9, max_steps=4),
                    params, metrics=[])
    assert res.steps == 4 and len(velocities) == 5
    assert [m["max_speed"] for m in res.metrics] == [s.max_speed for s in velocities]


def grid_sound_speed_sq(state, params):
    """max c_s^2 over the nodes: the array kernel at every node."""
    r = state.rho.values
    return float(korteweg.constitutive._sound_speed_sq(korteweg.constitutive._density(r, params),
                                                       params).max())


def advective_from(state, cs2, control=StepControl()):
    """The advective candidate for a largest c_s^2 of ``cs2``."""
    return control.cfl_advective * min(state.grid.h) / (state.max_speed
                                                       + math.sqrt(max(cs2, 1e-12)))


def ranged_state(grid, lo, hi):
    """A moving state whose density spans [lo, hi] (up to the sampling)."""
    xs = grid.coords()
    if grid.is_periodic:
        carrier = np.prod([np.cos(x) for x in xs], axis=0)
    else:
        carrier = np.cos(np.pi * xs[0] / grid.length[0])
    rho = 0.5 * (lo + hi) + 0.5 * (hi - lo) * carrier
    return MixtureState.from_primitive(ScalarField(grid, rho),
                                       VectorField(grid, tuple(0.1 * np.sin(x) for x in xs)))


@pytest.mark.parametrize("grid", [Grid.periodic(64), Grid.periodic((48, 36)),
                                  Grid.bounded_neumann_1d(64, 1.0)],
                         ids=["64", "48x36", "bounded64"])
@pytest.mark.parametrize("lo, hi", [(0.9, 1.9), (1.0, 2.0), (1.5, 2.6)])
@pytest.mark.parametrize("params", [
    FluidParams(), FluidParams(tau2=0.3, temperature=1.3, well=DoubleWell(scale=0.7))],
    ids=["defaults", "tau2-0.3"])
def test_sound_speed_bound_without_an_interior_peak_is_the_grid_maximum(grid, lo, hi, params):
    # no maximum of c_s^2 (rho = 2.8652, or 3.6885 with tau2 = 0.3) lies in the
    # density range, so the bound's values at rho_min and rho_max are the grid's
    # largest, bit for bit: the scalar evaluation keeps the kernel's operation
    # order, which delta_tau = 0.7 puts to the test where 0.5 divides exactly.
    # [0.9, 1.9] holds the interior minimum at rho = 1.289, which the bound skips
    state = ranged_state(grid, lo, hi)
    rho_max = float(state.rho.values.max())
    assert not any(state.rho_min < p < rho_max for p in params._sound_speed_peaks)
    grid_max = grid_sound_speed_sq(state, params)
    assert korteweg.constitutive._sound_speed_sq_max(state.rho_min, rho_max, params) == grid_max
    assert dt_candidates(state, params)["advective"] == advective_from(state, grid_max)


@pytest.mark.parametrize("convention, lo, hi, peak", [
    (Convention.CONSISTENT, 2.0, 3.0, 2.8652), (Convention.LITERAL, 1.2, 2.0, 1.6427)],
    ids=["consistent", "literal"])
@pytest.mark.parametrize("n", [64, (48, 36)], ids=["64", "48x36"])
def test_sound_speed_bound_takes_an_interior_peak(convention, lo, hi, peak, n):
    # a range across the maximum of c_s^2 takes its closed-form value there: at
    # least the grid's largest, and the largest of a fine sampling around it
    params = FluidParams(convention=convention)
    (rho_peak,) = params._sound_speed_peaks
    assert abs(rho_peak - peak) < 5e-5
    at_peak = float(korteweg.constitutive._sound_speed_sq(
        korteweg.constitutive._density(np.array([rho_peak]), params), params)[0])
    state = ranged_state(Grid.periodic(n), lo, hi)
    rho_max = float(state.rho.values.max())
    bound = korteweg.constitutive._sound_speed_sq_max(state.rho_min, rho_max, params)
    assert bound == at_peak
    assert bound >= grid_sound_speed_sq(state, params)
    fine = np.linspace(rho_peak - 1e-3, rho_peak + 1e-3, 2001)
    sampled = korteweg.constitutive._sound_speed_sq(
        korteweg.constitutive._density(fine, params), params)
    assert 0.0 <= bound - sampled.max() <= 1e-14 * bound
    assert dt_candidates(state, params)["advective"] == advective_from(state, at_peak)


@pytest.mark.parametrize("tau1, tau2, scale", [(1.0, 0.5, 1.0), (0.5, 1.0, 1.0),
                                                (2.0, 0.3, 0.7), (0.3, 2.0, 2.5)])
@pytest.mark.parametrize("convention", [Convention.CONSISTENT, Convention.LITERAL])
def test_sound_speed_bound_covers_every_density_of_its_range(tau1, tau2, scale, convention):
    # the extremes and the maxima between them bound c_s^2 on the whole range, for
    # either sign of delta_tau and either convention
    params = FluidParams(tau1=tau1, tau2=tau2, well=DoubleWell(scale=scale),
                         convention=convention)
    grid = np.geomspace(0.2, 8.0, 40)
    for lo, hi in zip(grid[:-5], grid[5:]):
        fine = np.linspace(lo, hi, 4001)
        sampled = korteweg.constitutive._sound_speed_sq(
            korteweg.constitutive._density(fine, params), params)
        bound = korteweg.constitutive._sound_speed_sq_max(float(lo), float(hi), params)
        assert bound >= sampled.max() - 1e-14 * abs(sampled).max()
        assert bound <= sampled.max() + 1e-7 * abs(sampled).max()


def test_sound_speed_bound_without_a_well_is_the_floor(grid64):
    # c_s^2 = 0 everywhere: the advective candidate takes the 1e-12 floor
    params = FluidParams(well=DoubleWell(scale=0.0))
    assert params._sound_speed_peaks == ()
    state = ranged_state(grid64, 1.0, 2.0)
    assert korteweg.constitutive._sound_speed_sq_max(state.rho_min, 2.0, params) == 0.0
    assert dt_candidates(state, params)["advective"] == advective_from(state, 1e-12)


class SteeperWell(DoubleWell):
    """A well whose W'' is not the quartic's: its c_s^2 has no closed-form peaks."""

    def second_derivative(self, c):
        return self.scale * (2.0 - 12.0 * c + 12.0 * c * c) + 0.3 * np.cos(5.0 * c)


def test_a_well_of_another_shape_takes_the_grid_maximum(grid64, monkeypatch):
    # the closed form holds only for the quartic's W'': a well that overrides it
    # has c_s^2 formed at every node, as the one guarded branch
    densities = []
    original = korteweg.constitutive._density
    monkeypatch.setattr(korteweg.constitutive, "_density",
                        lambda r, p, *a: densities.append(r) or original(r, p, *a))
    state = ranged_state(grid64, 1.0, 2.0)
    quartic, steeper = FluidParams(), FluidParams(well=SteeperWell())
    dt_candidates(state, quartic)
    assert densities == []
    assert steeper._sound_speed_peaks is None
    assert korteweg.constitutive._sound_speed_sq_max(1.0, 2.0, steeper) is None
    grid_max = grid_sound_speed_sq(state, steeper)
    densities.clear()
    assert dt_candidates(state, steeper)["advective"] == advective_from(state, grid_max)
    assert len(densities) == 1 and densities[0] is state.rho.values


@pytest.mark.parametrize("name", ["nsk1_interface", "nsk2_interface", "nsk2_neumann",
                                  "literal_convention"])
def test_bundled_runs_take_the_steps_of_the_grid_wide_bound(name):
    # on every state of a bundled run, the step is the one the grid-wide c_s^2 gives
    # (its advective candidate binds nowhere), so the runs and their metrics stay
    # those of the bound that scanned every node
    cfg = load_config(CONFIGS / f"{name}.json")
    control, params = cfg.control, cfg.params
    seen = []
    integrate(cfg.build_initial_state(), control, params, cfg.model,
              cfg.build_mobility() if cfg.model is ModelKind.NSK2 else None, cfg.disc,
              observers=(lambda step, st, dt: seen.append((st, dt)),))
    assert len(seen) > 10
    for (state, _), (_, dt) in zip(seen, seen[1:]):
        cand = dt_candidates(state, params, control)
        grid_adv = advective_from(state, grid_sound_speed_sq(state, params), control)
        assert cand["advective"] <= grid_adv
        rho_max = float(state.rho.values.max())
        if not any(state.rho_min < p < rho_max for p in params._sound_speed_peaks):
            assert cand["advective"] == grid_adv
        grid_wide = min(grid_adv, cand["viscous"], cand["capillary"], control.dt_max)
        assert min(cand.values()) == min(grid_wide, cand["advective"])
        assert dt == min(grid_wide, control.t_end - state.t)


def test_step_bound_forms_no_grid_array(params):
    # the bound reads the extremes, the largest speed and one rho_max reduction: after
    # warm-up (the state's max |u|, the parameters' peaks) it allocates no grid array
    state = ranged_state(Grid.periodic((256, 256)), 1.0, 2.0)
    dt_candidates(state, params)
    assert traced_peak(lambda: dt_candidates(state, params)) <= 4096
