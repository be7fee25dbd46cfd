"""Reduced-system right-hand sides, reconstructions, and full-model residuals."""

import numpy as np
import pytest
import sympy as sp

import korteweg.constitutive as law
import korteweg.elliptic
import korteweg.fields
import korteweg.models
from korteweg import (FD2, SPECTRAL, ConfigError, Discretization, FluidParams, Grid,
                      MixtureState, Mobility, ModelKind, ScalarField, Scheme, StateError,
                      SymTensorField, VectorField, augmented_cauchy_stress, div_tensor,
                      invert_periodic, korteweg_tensor, nonlocal_cauchy_stress)
from korteweg.fields import sup_norm
from korteweg.initial import random_band_limited
from korteweg.manufactured import SymbolicState, exact_pressure, exact_rhs
from korteweg.models import (momentum_equivalence_gap, reconstruct_fields,
                             reconstruct_pressure_nsac, reconstruct_pressure_nsch,
                             residual_nsac, residual_nsch, rhs_nsk1, rhs_nsk2)
from korteweg.operators import dealias_array, div, mean
from korteweg.timestepping import make_rhs


def constant_state(grid, rho0=1.4, u0=0.0):
    u = VectorField(grid, tuple(np.full(grid.shape, u0) for _ in range(grid.dim)))
    return MixtureState.from_primitive(ScalarField.constant(grid, rho0), u)


def test_state_validation(grid64):
    rho = ScalarField.constant(grid64, 1.0)
    with pytest.raises(StateError):
        MixtureState(rho, VectorField.zero(Grid.periodic(32)))
    with pytest.raises(StateError):
        MixtureState(ScalarField.constant(grid64, 1e-9), VectorField.zero(grid64))
    s = MixtureState.from_primitive(rho, VectorField(grid64, (np.full(64, 0.5),)))
    assert np.max(np.abs(s.velocity().components[0] - 0.5)) < 1e-15


def test_pressure_nsac_constant_state(params, grid64):
    rho0 = 1.4
    p = reconstruct_pressure_nsac(constant_state(grid64, rho0), params, FD2)
    expected = rho0**2 * law.bulk_energy_drho(rho0, params)
    assert np.max(np.abs(p.values - expected)) < 1e-13


def test_pressure_nsac_no_well_uniform_flow(grid64):
    nowell = FluidParams(well=law.DoubleWell(scale=0.0))
    p = reconstruct_pressure_nsac(constant_state(grid64, 1.4, u0=0.7), nowell, FD2)
    assert sup_norm(p) == 0.0


def test_pressure_nsac_symbolic_oracle(params):
    x = sp.Symbol("x")
    sym = SymbolicState.one_d(1 + sp.Rational(1, 10) * sp.sin(x),
                              sp.Rational(1, 10) * sp.cos(x))
    oracle = exact_pressure(sym, params, ModelKind.NSK1)

    def err(n, d):
        grid = Grid.periodic(n)
        xv = grid.coords()[0]
        state = MixtureState.from_primitive(
            ScalarField(grid, 1.0 + 0.1 * np.sin(xv)),
            VectorField(grid, (0.1 * np.cos(xv),)))
        return np.max(np.abs(reconstruct_pressure_nsac(state, params, d).values
                             - oracle(xv)))

    assert err(128, SPECTRAL) < 1e-11
    assert 3.5 < err(128, FD2) / err(256, FD2) < 4.5


def test_pressure_nsch_reduces_to_local_part_for_zero_velocity(params, grid64):
    x = grid64.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid64, 1.2 + 0.1 * np.sin(x)), VectorField.zero(grid64))
    p_nsch = reconstruct_pressure_nsch(state, params, Mobility.constant(1.0), SPECTRAL)
    p_nsac = reconstruct_pressure_nsac(state, params, SPECTRAL)
    assert np.max(np.abs(p_nsch.values - p_nsac.values)) < 1e-13


def test_pressure_nsch_eigenfunction(params, grid64):
    # rho constant, u = A sin x, gamma = 1: the non-local term is an
    # eigenfunction solve, p = -(theta/dtau^2) A cos x + rho0^2 R'(rho0)
    x = grid64.coords()[0]
    amp, rho0 = 0.3, 1.4
    state = MixtureState.from_primitive(
        ScalarField.constant(grid64, rho0),
        VectorField(grid64, (amp * np.sin(x),)))
    p = reconstruct_pressure_nsch(state, params, Mobility.constant(1.0), SPECTRAL)
    scale = params.temperature / params.delta_tau**2
    expected = -scale * amp * np.cos(x) + rho0**2 * law.bulk_energy_drho(rho0, params)
    assert np.max(np.abs(p.values - expected)) < 1e-11
    # the non-local contribution is mean free
    p_local = reconstruct_pressure_nsac(state, params, SPECTRAL)
    local_only = p_local.values + (params.delta_star
                                   / (np.sqrt(params.delta) * rho0)) \
        * div(state.velocity(), SPECTRAL).values
    assert abs(float((p.values - local_only).mean())) < 1e-12


def test_reconstruct_fields_pure_phase_equilibrium(params, grid64):
    state = constant_state(grid64, rho0=1.0)  # 1/rho = tau1: pure phase 1
    rec1 = reconstruct_fields(state, params, ModelKind.NSK1, None, SPECTRAL)
    assert np.max(np.abs(rec1.c.values - 1.0)) < 1e-14
    assert sup_norm(rec1.p) < 1e-12
    assert sup_norm(rec1.q) < 1e-12
    rec2 = reconstruct_fields(state, params, ModelKind.NSK2,
                              Mobility.constant(1.0), SPECTRAL)
    assert sup_norm(rec2.mu_chem) < 1e-12
    with pytest.raises(ConfigError):
        reconstruct_fields(state, params, ModelKind.NSK2, None, SPECTRAL)


def test_chemical_potential_balance(params, grid64):
    # rho constant, u = sin x: mu = -(1/dtau) * inverse(div u), and the
    # conserved-phase balance div(gamma grad mu) = (1/dtau) div u holds
    # to solver precision
    from korteweg.elliptic import apply_operator, invert_periodic

    x = grid64.coords()[0]
    gamma = Mobility.constant(1.0)
    state = MixtureState.from_primitive(
        ScalarField.constant(grid64, 1.4),
        VectorField(grid64, (np.sin(x),)))
    rec = reconstruct_fields(state, params, ModelKind.NSK2, gamma, SPECTRAL)
    divu = div(state.velocity(), SPECTRAL)
    inv = invert_periodic(gamma, divu, SPECTRAL, project_mean=True)
    expected_mu = -inv.values / params.delta_tau
    assert np.max(np.abs(rec.mu_chem.values - expected_mu)) < 1e-11
    balance = -apply_operator(gamma, rec.mu_chem, SPECTRAL).values \
        - divu.values / params.delta_tau
    assert np.max(np.abs(balance)) < 1e-10


@pytest.mark.parametrize("kind", [ModelKind.NSK1, ModelKind.NSK2])
def test_rhs_constant_state_is_equilibrium(kind, params, grid64):
    state = constant_state(grid64)
    gamma = Mobility.constant(1.0)
    if kind is ModelKind.NSK1:
        drho, dm = rhs_nsk1(state, params, SPECTRAL)
    else:
        drho, dm = rhs_nsk2(state, params, gamma, SPECTRAL)
    assert sup_norm(drho) < 1e-12
    assert sup_norm(dm) < 1e-12


@pytest.mark.parametrize("d", [SPECTRAL, FD2])
def test_rhs_is_conservative(d, params):
    grid = Grid.periodic(96)
    x = grid.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 + 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)),
        VectorField(grid, (0.2 * np.sin(x),)))
    drho, dm = rhs_nsk1(state, params, d)
    assert abs(mean(drho)) < 1e-12
    assert abs(float(dm.components[0].mean())) < 1e-12
    drho2, dm2 = rhs_nsk2(state, params, Mobility.constant(1.0), d)
    assert abs(mean(drho2)) < 1e-12
    assert abs(float(dm2.components[0].mean())) < 1e-12


def test_rhs_nsk1_symbolic_oracle(params):
    x = sp.Symbol("x")
    sym = SymbolicState.one_d(1 + sp.Rational(1, 10) * sp.sin(x), sp.S.Zero)
    _, dm_exact = exact_rhs(sym, params, ModelKind.NSK1)

    def err(n, d):
        grid = Grid.periodic(n)
        xv = grid.coords()[0]
        state = MixtureState.from_primitive(
            ScalarField(grid, 1.0 + 0.1 * np.sin(xv)), VectorField.zero(grid))
        _, dm = rhs_nsk1(state, params, d)
        return np.max(np.abs(dm.components[0] - dm_exact[0](xv)))

    assert err(128, SPECTRAL) < 1e-10
    assert 3.5 < err(128, FD2) / err(256, FD2) < 4.5


@pytest.mark.parametrize("kind", [ModelKind.NSK1, ModelKind.NSK2], ids=["nsk1", "nsk2"])
def test_exact_rhs_matches_spectral_rhs(params, kind):
    # the manufactured state of the convergence tables; spectral
    # differentiation is exact to round-off on it at N = 64
    x = sp.Symbol("x")
    sym = SymbolicState.one_d(sp.Rational(3, 2) + sp.Rational(1, 5) * sp.sin(x),
                              sp.Rational(1, 20) * sp.sin(x)
                              + sp.Rational(1, 50) * sp.cos(2 * x))
    drho_exact, dm_exact = exact_rhs(sym, params, kind, gamma0=1.0)
    grid = Grid.periodic(64)
    xv = grid.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 + 0.2 * np.sin(xv)),
        VectorField(grid, (0.05 * np.sin(xv) + 0.02 * np.cos(2.0 * xv),)))
    drho, dm = make_rhs(params, kind, Mobility.constant(1.0), SPECTRAL)(state)
    assert np.max(np.abs(drho.values - drho_exact(xv))) < 1e-11
    assert np.max(np.abs(dm.components[0] - dm_exact[0](xv))) < 1e-11


def counting(monkeypatch, module, name, calls):
    """Count calls of ``module.name`` under ``calls[name]``."""
    original = getattr(module, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def solve_counter(monkeypatch):
    # the model's solve, and the public periodic inverse it reaches (the
    # benchmark counts solves per right-hand side through the latter)
    calls = {}
    counting(monkeypatch, korteweg.models, "invert_for_model", calls)
    counting(monkeypatch, korteweg.elliptic, "invert_periodic", calls)
    return calls


def test_rhs_nsk2_single_elliptic_solve(params, grid64, solve_counter):
    x = grid64.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid64, 1.4 + 0.1 * np.sin(x)),
        VectorField(grid64, (0.1 * np.sin(x),)))
    rhs_nsk2(state, params, Mobility.constant(1.0), SPECTRAL)
    assert solve_counter == {"invert_for_model": 1, "invert_periodic": 1}


@pytest.mark.parametrize("evaluate", [
    lambda s, p, g: momentum_equivalence_gap(s, p, ModelKind.NSK2, g, SPECTRAL),
    lambda s, p, g: residual_nsch(s, p, g, SPECTRAL)], ids=["gap", "residual"])
def test_nsk2_gap_and_residual_single_elliptic_solve(evaluate, params, grid64,
                                                     solve_counter):
    # the reconstruction's non-local term is reused by the momentum-flux gap
    x = grid64.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid64, 1.4 + 0.1 * np.sin(x)),
        VectorField(grid64, (0.1 * np.sin(x),)))
    evaluate(state, params, Mobility.constant(1.0))
    assert solve_counter == {"invert_for_model": 1, "invert_periodic": 1}


def wavy_state(grid):
    xs = grid.coords()
    wave = sum(np.sin((axis + 1) * x) for axis, x in enumerate(xs))
    return MixtureState.from_primitive(
        ScalarField(grid, 1.4 + 0.1 * wave),
        VectorField(grid, tuple(0.1 * np.cos(x) for x in xs)))


@pytest.mark.parametrize("grid", [Grid.periodic(64), Grid.periodic((32, 32))],
                         ids=["1d", "2d"])
def test_rhs_validates_only_what_it_returns(grid, params, monkeypatch):
    # the right-hand sides run on arrays: only the returned (drho, dm) and,
    # for NSK2, the solve's input and output are validated fields
    state = wavy_state(grid)
    calls = {}
    counting(monkeypatch, korteweg.fields, "_frozen_array", calls)
    returned = 1 + grid.dim
    rhs_nsk1(state, params, SPECTRAL)
    assert calls["_frozen_array"] == returned
    x = grid.coords()[0]
    for gamma in (Mobility.constant(1.0), Mobility.spatial(2.0 + np.cos(x))):
        calls["_frozen_array"] = 0
        rhs_nsk2(state, params, gamma, SPECTRAL)
        assert calls["_frozen_array"] <= returned + 2


def test_rhs_divergence_free_velocity_agrees_between_models(params, grid64):
    # constant density and velocity: discrete div u = 0 exactly, so the
    # augmented and non-local bulk terms both vanish and the two reduced
    # systems produce bit-identical rates
    state = constant_state(grid64, 1.4, u0=0.3)
    d1rho, d1m = rhs_nsk1(state, params, FD2)
    d2rho, d2m = rhs_nsk2(state, params, Mobility.constant(1.0), FD2)
    assert np.array_equal(d1rho.values, d2rho.values)
    assert np.array_equal(d1m.components[0], d2m.components[0])


def test_galilean_shift_only_changes_advection(params):
    grid = Grid.periodic(96)
    x = grid.coords()[0]
    rho = 1.5 + 0.2 * np.sin(x)
    u = 0.1 * np.cos(x)
    shift = 0.8

    def parts(uvals):
        state = MixtureState.from_primitive(ScalarField(grid, rho),
                                            VectorField(grid, (uvals,)))
        _, dm = rhs_nsk1(state, params, FD2)
        flux = VectorField(grid, (rho * uvals * uvals,))
        adv = div(flux, FD2).values
        return dm.components[0] + adv  # the non-advective part

    assert np.max(np.abs(parts(u) - parts(u + shift))) < 1e-11


FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")


@pytest.mark.parametrize("grid, dealias, nsk1, nsk2, names", [
    (Grid.periodic(64), False, 10, 12, ("rfft", "irfft")),
    (Grid.periodic((32, 32)), False, 20, 22, ("rfftn", "irfftn")),
    (Grid.periodic(64), True, 11, 13, ("rfft", "irfft")),
    (Grid.periodic((32, 32)), True, 23, 25, ("rfftn", "irfftn")),
], ids=["1d", "2d", "1d-dealias", "2d-dealias"])
def test_rhs_transform_counts(grid, dealias, nsk1, nsk2, names, params, monkeypatch):
    # rho, m and u are transformed once each, every divergence is summed in
    # Fourier space before one inverse, and every transform is real; the
    # 2/3 rule masks those spectra and adds one transform per m (x) u component.
    # 1-D transforms go through rfft/irfft, skipping rfftn/irfftn's n-D set-up.
    calls = {}
    for name in FFT_NAMES:
        counting(monkeypatch, np.fft, name, calls)
    state = wavy_state(grid)

    def counts(fn, *args):
        """(calls of ``names``, calls of every other transform) made by fn(*args)."""
        calls.update(dict.fromkeys(FFT_NAMES, 0))
        fn(*args)
        named = sum(calls[name] for name in names)
        return named, sum(calls.values()) - named

    d = Discretization(Scheme.SPECTRAL, dealias=dealias)
    gamma = Mobility.constant(1.0)
    assert counts(rhs_nsk1, state, params, d) == (nsk1, 0)
    assert counts(rhs_nsk2, state, params, gamma, d) == (nsk2, 0)
    assert counts(invert_periodic, gamma, div(state.velocity(), d), d) == (2, 0)


def composed_rhs(state, params, kind, gamma, d):
    """-div m and div(K + S - m (x) u) from the public operators."""
    grid = state.grid
    u = state.velocity()
    m = state.m.components
    mom = [m[i] * u.components[j] for i in range(grid.dim) for j in range(i, grid.dim)]
    if d.dealias:
        m, mom = [dealias_array(c, grid) for c in m], [dealias_array(c, grid) for c in mom]
    if kind is ModelKind.NSK1:
        s = augmented_cauchy_stress(u, state.rho, params, d)
    else:
        nonlocal_term = invert_periodic(gamma, div(u, d), d, project_mean=True)
        s = nonlocal_cauchy_stress(u, nonlocal_term, params, d)
    k = korteweg_tensor(state.rho, params, d)
    flux = SymTensorField(grid, tuple(a + b - c for a, b, c in
                                      zip(k.components, s.components, mom)))
    return -div(VectorField(grid, tuple(m)), d).values, div_tensor(flux, d).components


@pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
@pytest.mark.parametrize("model", ["nsk1", "nsk2-const", "nsk2-cos"])
@pytest.mark.parametrize("grid", [Grid.periodic(64), Grid.periodic(63),
                                  Grid.periodic((48, 36)), Grid.periodic((33, 35))],
                         ids=["64", "63", "48x36", "33x35"])
def test_rhs_matches_public_operator_composition(grid, model, dealias, params):
    d = Discretization(Scheme.SPECTRAL, dealias=dealias)
    rng = np.random.default_rng(17)
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.4 + 0.1 * random_band_limited(grid, rng, kmax=12)),
        VectorField(grid, tuple(0.1 * random_band_limited(grid, rng, kmax=12)
                                for _ in range(grid.dim))))
    x = grid.coords()[0]
    gamma = Mobility.spatial(2.0 + np.cos(x)) if model == "nsk2-cos" else Mobility.constant(1.0)
    kind = ModelKind.NSK1 if model == "nsk1" else ModelKind.NSK2
    drho, dm = make_rhs(params, kind, gamma, d)(state)
    ref_rho, ref_m = composed_rhs(state, params, kind, gamma, d)
    assert np.max(np.abs(drho.values - ref_rho)) <= 1e-11 * np.max(np.abs(ref_rho))
    scale = max(np.max(np.abs(c)) for c in ref_m)
    assert max(np.max(np.abs(a - b)) for a, b in zip(dm.components, ref_m)) <= 1e-11 * scale


def test_residual_nsac_equilibrium_and_floor(params, grid64):
    rep = residual_nsac(constant_state(grid64, 1.0), params, SPECTRAL)
    assert rep.momentum < 1e-12 and rep.phase < 1e-12
    # analytic sine state: the residual sits at the spectral round-off
    # floor at both resolutions (well under the calibrated 1e-6)
    for n in (64, 128):
        grid = Grid.periodic(n)
        x = grid.coords()[0]
        state = MixtureState.from_primitive(
            ScalarField(grid, 1.0 + 0.1 * np.sin(x)),
            VectorField(grid, (0.1 * np.sin(x),)))
        rep = residual_nsac(state, params, SPECTRAL)
        assert rep.phase < 1e-6


def test_residual_nsac_fd2_order(params):
    def phase_res(n):
        grid = Grid.periodic(n)
        x = grid.coords()[0]
        state = MixtureState.from_primitive(
            ScalarField(grid, 1.5 + 0.3 * np.tanh(2.5 * np.cos(x)) / np.tanh(2.5)),
            VectorField(grid, (0.05 * np.sin(x),)))
        return residual_nsac(state, params, FD2).phase

    assert 3.4 < phase_res(128) / phase_res(256) < 4.6


def test_residual_nsch_equilibrium_and_eigenfunction(params, grid64):
    gamma = Mobility.constant(1.0)
    rep = residual_nsch(constant_state(grid64, 1.0), params, gamma, SPECTRAL)
    assert rep.momentum < 1e-12 and rep.phase < 1e-12
    x = grid64.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField.constant(grid64, 1.4),
        VectorField(grid64, (np.sin(x),)))
    rep = residual_nsch(state, params, gamma, SPECTRAL)
    assert rep.phase < 1e-10


def test_residual_nsch_neumann_variable_mobility(params):
    from korteweg.initial import default_corpus

    cs = next(s for s in default_corpus(params) if not s.boundary.value == "periodic")
    res = []
    for n in (128, 256):
        grid = cs.grid(n)
        rep = residual_nsch(cs.on_grid(grid), params, cs.mobility_on(grid), FD2)
        res.append(rep.phase)
    assert 3.3 < res[0] / res[1] < 4.7


def test_dealias_flag_filters_advective_fluxes(params):
    from korteweg.grids import Discretization, Scheme

    grid = Grid.periodic(64)
    x = grid.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 + 0.05 * np.sin(x)),
        VectorField(grid, (0.05 * np.sin(x),)))
    plain = rhs_nsk1(state, params, SPECTRAL)
    filtered = rhs_nsk1(state, params, Discretization(Scheme.SPECTRAL, dealias=True))
    # narrow-band state: the 2/3-rule filter only touches negligible tails
    assert np.max(np.abs(plain[0].values - filtered[0].values)) < 1e-10
    assert np.max(np.abs(plain[1].components[0] - filtered[1].components[0])) < 1e-10


def test_momentum_equivalence_gap_values(params, grid64):
    assert momentum_equivalence_gap(constant_state(grid64), params,
                                    ModelKind.NSK1, None, SPECTRAL) < 1e-12
    from korteweg.initial import default_corpus
    for cs in default_corpus(params):
        if cs.boundary.value != "periodic":
            continue
        grid = cs.grid(128)
        gap = momentum_equivalence_gap(cs.on_grid(grid), params, ModelKind.NSK1,
                                       None, SPECTRAL)
        assert gap < 1e-7
