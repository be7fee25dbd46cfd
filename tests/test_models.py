"""Reduced-system right-hand sides, reconstructions, and full-model residuals."""

import numpy as np
import pytest
from conftest import traced_peak

import korteweg.constitutive as law
import korteweg.elliptic
import korteweg.fields
import korteweg.models
from korteweg import (FD2, SPECTRAL, ConfigError, Discretization, FluidParams, Grid,
                      MixtureState, Mobility, ModelKind, ScalarField, Scheme, StateError,
                      SymTensorField, VectorField, augmented_cauchy_stress, div_tensor,
                      invert_periodic, korteweg_tensor, nonlocal_cauchy_stress)
from korteweg.elliptic import invert_for_model
from korteweg.fields import _sup
from korteweg.initial import random_band_limited
from korteweg.manufactured import ManufacturedState, TrigPoly, exact_pressure, exact_rhs
from korteweg.models import (_eliminated_stress, _reduced_stress, _stage_rows, _stress_symbol,
                             momentum_equivalence_gap, reconstruct_fields,
                             reconstruct_pressure_nsac, reconstruct_pressure_nsch, residual_nsac,
                             residual_nsch, rhs_nsk1, rhs_nsk2)
from korteweg.operators import _calculus, _Calculus, _total, dealias_array, div, mean
from korteweg.tensors import _div_of
from korteweg.timestepping import make_rhs


def constant_state(grid, rho0=1.4, u0=0.0):
    u = VectorField(grid, tuple(np.full(grid.shape, u0) for _ in range(grid.dim)))
    return MixtureState.from_primitive(ScalarField.constant(grid, rho0), u)


def model_rates(state, params, kind, gamma, d):
    """make_rhs's array evaluator on a state: (d rho/dt, dm/dt) as arrays."""
    rates = make_rhs(params, kind, gamma, d, state.grid)(_stage_rows(state))
    return rates[0], tuple(rates[1:])


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
    assert _sup((p.values,)) == 0.0


def test_pressure_nsac_symbolic_oracle(params):
    exact = ManufacturedState(rho=TrigPoly(1.0, sin=(0.1,)), u=TrigPoly(cos=(0.1,)))
    oracle = exact_pressure(exact, params, ModelKind.NSK1)

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
    p_nsch = reconstruct_pressure_nsch(state, params, Mobility(1.0), SPECTRAL)
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
    p = reconstruct_pressure_nsch(state, params, Mobility(1.0), SPECTRAL)
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
    assert _sup((rec1.p.values,)) < 1e-12
    assert _sup((rec1.q.values,)) < 1e-12
    rec2 = reconstruct_fields(state, params, ModelKind.NSK2,
                              Mobility(1.0), SPECTRAL)
    assert _sup((rec2.mu_chem.values,)) < 1e-12
    with pytest.raises(ConfigError):
        reconstruct_fields(state, params, ModelKind.NSK2, None, SPECTRAL)


def test_chemical_potential_balance(params, grid64):
    # rho constant, u = sin x: mu = -(1/dtau) * inverse(div u), and the
    # conserved-phase balance div(gamma grad mu) = (1/dtau) div u holds
    # to solver precision
    from korteweg.elliptic import apply_operator

    x = grid64.coords()[0]
    gamma = Mobility(1.0)
    state = MixtureState.from_primitive(
        ScalarField.constant(grid64, 1.4),
        VectorField(grid64, (np.sin(x),)))
    rec = reconstruct_fields(state, params, ModelKind.NSK2, gamma, SPECTRAL)
    divu = div(state.velocity(), SPECTRAL)
    inv = invert_for_model(gamma, divu, SPECTRAL)
    expected_mu = -inv.values / params.delta_tau
    assert np.max(np.abs(rec.mu_chem.values - expected_mu)) < 1e-11
    balance = -apply_operator(gamma, rec.mu_chem, SPECTRAL).values \
        - divu.values / params.delta_tau
    assert np.max(np.abs(balance)) < 1e-10


@pytest.mark.parametrize("kind", [ModelKind.NSK1, ModelKind.NSK2])
def test_rhs_constant_state_is_equilibrium(kind, params, grid64):
    state = constant_state(grid64)
    gamma = Mobility(1.0)
    if kind is ModelKind.NSK1:
        drho, dm = rhs_nsk1(state, params, SPECTRAL)
    else:
        drho, dm = rhs_nsk2(state, params, gamma, SPECTRAL)
    assert _sup((drho.values,)) < 1e-12
    assert _sup(dm.components) < 1e-12


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
    drho2, dm2 = rhs_nsk2(state, params, Mobility(1.0), d)
    assert abs(mean(drho2)) < 1e-12
    assert abs(float(dm2.components[0].mean())) < 1e-12


def test_rhs_nsk1_symbolic_oracle(params):
    exact = ManufacturedState(rho=TrigPoly(1.0, sin=(0.1,)))
    _, dm_exact = exact_rhs(exact, params, ModelKind.NSK1)

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
    exact = ManufacturedState(rho=TrigPoly(1.5, sin=(0.2,)),
                              u=TrigPoly(cos=(0.0, 0.02), sin=(0.05,)))
    drho_exact, dm_exact = exact_rhs(exact, params, kind, gamma0=1.0)
    grid = Grid.periodic(64)
    xv = grid.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 + 0.2 * np.sin(xv)),
        VectorField(grid, (0.05 * np.sin(xv) + 0.02 * np.cos(2.0 * xv),)))
    drho, dm = model_rates(state, params, kind, Mobility(1.0), SPECTRAL)
    assert np.max(np.abs(drho - drho_exact(xv))) < 1e-11
    assert np.max(np.abs(dm[0] - dm_exact[0](xv))) < 1e-11


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
    # the one solve kernel, wherever it is looked up: the models call it
    # directly, the public inverses through korteweg.elliptic
    calls = {}
    counting(monkeypatch, korteweg.elliptic, "_solve", calls)
    counting(monkeypatch, korteweg.models, "_solve", calls)
    return calls


@pytest.mark.parametrize("mobility, d, solves", [
    ("constant", SPECTRAL, 0), ("cosine", SPECTRAL, 1), ("constant", FD2, 1)],
    ids=["spectral-constant", "spectral-cosine", "fd2-constant"])
def test_rhs_nsk2_single_elliptic_solve(mobility, d, solves, params, grid64, solve_counter):
    # a constant mobility on a spectral grid makes the non-local term a Fourier
    # multiplier, with no solve; otherwise it is solved exactly once
    x = grid64.coords()[0]
    state = MixtureState.from_primitive(
        ScalarField(grid64, 1.4 + 0.1 * np.sin(x)),
        VectorField(grid64, (0.1 * np.sin(x),)))
    gamma = Mobility(1.0) if mobility == "constant" else \
        Mobility(2.0 + np.cos(x))
    rhs_nsk2(state, params, gamma, d)
    assert solve_counter == {"_solve": solves}


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
    evaluate(state, params, Mobility(1.0))
    assert solve_counter == {"_solve": 1}


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
    for gamma in (Mobility(1.0), Mobility(2.0 + np.cos(x))):
        calls["_frozen_array"] = 0
        rhs_nsk2(state, params, gamma, SPECTRAL)
        assert calls["_frozen_array"] <= returned + 2


@pytest.mark.parametrize("evaluate", [
    lambda s, p: rhs_nsk2(s, p, None, SPECTRAL),
    lambda s, p: rhs_nsk2(s, p, None, FD2),
    lambda s, p: reconstruct_pressure_nsch(s, p, None, SPECTRAL),
    lambda s, p: reconstruct_fields(s, p, ModelKind.NSK2, None, SPECTRAL),
    lambda s, p: residual_nsch(s, p, None, SPECTRAL),
    lambda s, p: momentum_equivalence_gap(s, p, ModelKind.NSK2, None, SPECTRAL),
    lambda s, p: make_rhs(p, ModelKind.NSK2, None, SPECTRAL, s.grid),
], ids=["rhs_nsk2-spectral", "rhs_nsk2-fd2", "reconstruct_pressure_nsch", "reconstruct_fields",
        "residual_nsch", "momentum_equivalence_gap", "make_rhs"])
def test_nsk2_without_a_mobility_is_a_config_error(evaluate, params, grid64):
    with pytest.raises(ConfigError, match="^the nsk2 model needs a mobility$"):
        evaluate(constant_state(grid64, u0=0.1), params)


def test_rhs_divergence_free_velocity_agrees_between_models(params, grid64):
    # constant density and velocity: discrete div u = 0 exactly, so the
    # augmented and non-local bulk terms both vanish and the two reduced
    # systems produce bit-identical rates
    state = constant_state(grid64, 1.4, u0=0.3)
    d1rho, d1m = rhs_nsk1(state, params, FD2)
    d2rho, d2m = rhs_nsk2(state, params, Mobility(1.0), FD2)
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


NUMPY_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                   "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")


def transform_counter(monkeypatch):
    """counts(fn, *args): (transforms, calls) of the calculus's ``forward`` and
    ``inverse`` made by one call, and the calls of any numpy.fft transform; a
    stacked call counts one transform per row."""
    made, numpy_calls = [], []   # transforms per call of forward/inverse

    def tracking(original):
        def wrapper(ops, a, *args, **kwargs):
            made.append(int(np.prod(a.shape[:a.ndim - ops.dim])))
            return original(ops, a, *args, **kwargs)
        return wrapper

    def numpy_tracking(original):
        def wrapper(*args, **kwargs):
            numpy_calls.append(1)
            return original(*args, **kwargs)
        return wrapper

    for name in ("forward", "inverse"):
        monkeypatch.setattr(_Calculus, name, tracking(getattr(_Calculus, name)))
    for name in NUMPY_FFT_NAMES:
        monkeypatch.setattr(np.fft, name, numpy_tracking(getattr(np.fft, name)))

    def counts(fn, *args):
        made.clear()
        numpy_calls.clear()
        fn(*args)
        return sum(made), len(made), len(numpy_calls)

    return counts


@pytest.mark.parametrize("grid, dealias, transforms, calls", [
    (Grid.periodic(64), False, (10, 9), (6, 6)),
    (Grid.periodic((32, 32)), False, (17, 16), (6, 6)),
    (Grid.periodic(64), True, (11, 10), (6, 6)),
    (Grid.periodic((32, 32)), True, (20, 19), (6, 6)),
], ids=["1d", "2d", "1d-dealias", "2d-dealias"])
def test_rhs_transform_counts(grid, dealias, transforms, calls, params, monkeypatch):
    # rho, m and u are transformed once each, every divergence is summed in
    # Fourier space before one inverse, and every transform is real; grad u
    # never returns to the grid, as the viscous (and, for a constant mobility,
    # the non-local) stress is a Fourier multiplier on u^, and div u returns
    # only for NSK1.  The 2/3 rule masks those spectra and adds one transform per
    # m (x) u component.  Each dependency level stacks its rows into one forward
    # and one inverse call, in 1-D and in 2-D, and a stacked call counts one
    # transform per row.  No transform goes through numpy.fft's wrappers.
    counts = transform_counter(monkeypatch)
    state = wavy_state(grid)
    d = Discretization(Scheme.SPECTRAL, dealias=dealias)
    gamma = Mobility(1.0)
    assert counts(rhs_nsk1, state, params, d) == (transforms[0], calls[0], 0)
    assert counts(rhs_nsk2, state, params, gamma, d) == (transforms[1], calls[1], 0)
    assert counts(invert_periodic, gamma, div(state.velocity(), d), d) == (2, 2, 0)
    if grid.dim == 1:   # a variable mobility: two antiderivatives, no CG
        cosine = Mobility(2.0 + np.cos(grid.coords()[0]))
        assert counts(invert_periodic, cosine, div(state.velocity(), d), d) == (4, 4, 0)


@pytest.mark.parametrize("grid, transforms", [
    (Grid.periodic(64), (14, 18, 20, 26, 6, 12)),
    (Grid.periodic((32, 32)), (28, 33, 37, 45, 9, 17)),
], ids=["1d", "2d"])
def test_certificate_transform_counts(grid, transforms, params, monkeypatch):
    # the NSK1/NSK2 gap, residual_nsac/nsch and reconstruct_fields NSK1/NSK2:
    # the gap and the residuals take grad u and grad rho in one _grads call and
    # grad c once; the public reconstructions take only div u and grad rho
    counts = transform_counter(monkeypatch)
    state = wavy_state(grid)
    gamma = Mobility(1.0)
    evaluations = [
        (momentum_equivalence_gap, state, params, ModelKind.NSK1, None, SPECTRAL),
        (momentum_equivalence_gap, state, params, ModelKind.NSK2, gamma, SPECTRAL),
        (residual_nsac, state, params, SPECTRAL),
        (residual_nsch, state, params, gamma, SPECTRAL),
        (reconstruct_fields, state, params, ModelKind.NSK1, None, SPECTRAL),
        (reconstruct_fields, state, params, ModelKind.NSK2, gamma, SPECTRAL)]
    assert [counts(*e)[::2] for e in evaluations] == [(n, 0) for n in transforms]


def _outer(a, b):
    """Upper-triangle components a_i b_j (i <= j); a symmetric tensor when a = b."""
    return tuple(a[i] * b[j] for i in range(len(a)) for j in range(i, len(a)))


def per_array_rates(mass, stress, advective, grid, d, addend=None):
    """(-div mass, div(stress - advective) + addend) with one transform call per array
    and every divergence row written out (or FD2 derivatives per component); the 2/3
    rule masks the spectra of mass and advective when dealiased, and ``addend``
    (spectral) is one spectrum per momentum row."""
    ops, dim = _calculus(grid, d), grid.dim
    if not ops.spectral:
        flux = [s - a for s, a in zip(stress, advective)]
        return (-_total(ops._fd2_deriv(c, j) for j, c in enumerate(mass)),
                [_total(ops._fd2_deriv(flux[i + j], j) for j in range(dim)) for i in range(dim)])

    def spectrum(a, masked=False):
        h = ops.forward(a)
        if masked:
            np.copyto(h, 0.0, where=ops.drop)
        return h

    mass_hat = [spectrum(c, d.dealias) for c in mass]
    flux_hat = [spectrum(s) - spectrum(a, True) if d.dealias else spectrum(s - a)
                for s, a in zip(stress, advective)]
    rows = [_total(ik * h for ik, h in zip(ops.ik, flux_hat[i:])) for i in range(dim)]
    if addend is not None:
        rows = [h + a for h, a in zip(rows, addend)]
    return (-ops.inverse(_total(ik * h for ik, h in zip(ops.ik, mass_hat))),
            [ops.inverse(h) for h in rows])


def per_array_rhs(state, params, kind, gamma, d):
    """The right-hand side with one transform per array: under FD2 every gradient
    through derivs; spectrally the spectra of u and rho, grad rho, div u and the
    symbol's momentum addend written out per array; every divergence through
    per_array_rates."""
    grid = state.grid
    ops = _calculus(grid, d)
    r, m = state.rho.values, state.m.components
    u = tuple(c / r for c in m)
    symbol = _stress_symbol(ops, params, kind, gamma)
    if symbol is None:
        gu = tuple(ops.derivs(c) for c in u)
        gr, divu, addend = ops.derivs(r), _div_of(gu), None
    else:
        uhat, rhat = [ops.forward(c) for c in u], ops.forward(r)
        gr = tuple(ops.inverse(ik * rhat) for ik in ops.ik)
        div_hat = _total(ik * h for ik, h in zip(ops.ik, uhat))
        addend = (symbol.shear * uhat[0],) if grid.dim == 1 else tuple(
            symbol.shear * h + ik * (symbol.bulk * div_hat) for ik, h in zip(ops.ik, uhat))
        gu, divu = None, None if symbol.nonlocal_term else ops.inverse(div_hat)
    dn, E = _eliminated_stress(r, divu, ops, params, kind, gamma)
    stress = _reduced_stress(dn, gr, gu, ops, params, E)
    return per_array_rates(m, stress, _outer(m, u), grid, d, addend)


SPECTRAL_DEALIAS = Discretization(Scheme.SPECTRAL, dealias=True)


@pytest.mark.parametrize("grid, d", [
    *((Grid.periodic(n), d) for n in (64, 63, 256) for d in (SPECTRAL, SPECTRAL_DEALIAS)),
    (Grid.periodic((32, 24)), SPECTRAL), (Grid.periodic((32, 24)), SPECTRAL_DEALIAS),
    (Grid.bounded_neumann_1d(64, 1.0), FD2),
], ids=["64-plain", "64-dealias", "63-plain", "63-dealias", "256-plain", "256-dealias",
        "32x24-plain", "32x24-dealias", "bounded64-fd2"])
def test_stacked_kernels_equal_per_array_kernels(grid, d, params):
    # the multi-array kernels and the right-hand side give the per-array kernels'
    # bits on every grid: the stacked calls transform each row exactly as a call of
    # its own does, in 1-D and in 2-D
    ops = _calculus(grid, d)
    dim, rows = grid.dim, grid.dim * (grid.dim + 1) // 2
    rng = np.random.default_rng(grid.n[0])
    arrays = [random_band_limited(grid, rng, kmax=min(grid.n) // 3)
              for _ in range(dim + 2 * rows)]
    assert all(np.array_equal(g, ref) for gs, refs in
               zip(ops.grads(arrays), (ops.derivs(a) for a in arrays))
               for g, ref in zip(gs, refs))
    mass, u, stress = arrays[:dim], arrays[dim:2 * dim], arrays[2 * dim:2 * dim + rows]
    rate_mass, *rate_flux = ops.conservation_rates(mass, u, stress)
    ref_mass, ref_flux = per_array_rates(mass, stress, _outer(mass, u), grid, d)
    assert np.array_equal(rate_mass, ref_mass)
    assert all(np.array_equal(a, b) for a, b in zip(rate_flux, ref_flux))
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.4 + 0.1 * arrays[0]),
        VectorField(grid, tuple(0.1 * a for a in arrays[1:1 + dim])))
    x = grid.coords()[0]
    for kind, gamma in ((ModelKind.NSK1, None), (ModelKind.NSK2, Mobility(1.0)),
                        (ModelKind.NSK2, Mobility(2.0 + np.cos(x)))):
        drho, dm = model_rates(state, params, kind, gamma, d)
        ref_rho, ref_m = per_array_rhs(state, params, kind, gamma, d)
        assert np.array_equal(drho, ref_rho)
        assert all(np.array_equal(a, b) for a, b in zip(dm, ref_m))


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
        nonlocal_term = invert_for_model(gamma, div(u, d), d)
        s = nonlocal_cauchy_stress(u, nonlocal_term, params, d)
    k = korteweg_tensor(state.rho, params, d)
    flux = SymTensorField(grid, tuple(a + b - c for a, b, c in
                                      zip(k.components, s.components, mom)))
    return -div(VectorField(grid, tuple(m)), d).values, div_tensor(flux, d).components


def composition_cases():
    """(grid, model, d), with ids grid-model-discretization: the two spectral
    discretizations on four periodic grids, FD2 on three periodic grids and the
    bounded Neumann grid."""
    grids = {"64": Grid.periodic(64), "63": Grid.periodic(63), "48x36": Grid.periodic((48, 36)),
             "33x35": Grid.periodic((33, 35)), "bounded64": Grid.bounded_neumann_1d(64)}
    spectral = ("64", "63", "48x36", "33x35")
    discretizations = (("plain", SPECTRAL, spectral),
                       ("dealias", Discretization(Scheme.SPECTRAL, dealias=True), spectral),
                       ("fd2", FD2, ("64", "63", "48x36", "bounded64")))
    return [pytest.param(grids[g], model, d, id=f"{g}-{model}-{name}")
            for name, d, names in discretizations for g in names
            for model in ("nsk1", "nsk2-const", "nsk2-cos")]


@pytest.mark.parametrize("grid, model, d", composition_cases())
def test_rhs_matches_public_operator_composition(grid, model, d, params):
    rng = np.random.default_rng(17)
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.4 + 0.1 * random_band_limited(grid, rng, kmax=12)),
        VectorField(grid, tuple(0.1 * random_band_limited(grid, rng, kmax=12)
                                for _ in range(grid.dim))))
    x = grid.coords()[0]
    gamma = Mobility(2.0 + np.cos(x)) if model == "nsk2-cos" else Mobility(1.0)
    kind = ModelKind.NSK1 if model == "nsk1" else ModelKind.NSK2
    drho, dm = model_rates(state, params, kind, gamma, d)
    ref_rho, ref_m = composed_rhs(state, params, kind, gamma, d)
    assert np.max(np.abs(drho - ref_rho)) <= 1e-11 * np.max(np.abs(ref_rho))
    scale = max(np.max(np.abs(c)) for c in ref_m)
    assert max(np.max(np.abs(a - b)) for a, b in zip(dm, ref_m)) <= 1e-11 * scale


@pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
def test_momentum_rate_is_the_linear_symbol_at_constant_density(dealias):
    # a small momentum mode on a constant density: every Korteweg and advective term
    # vanishes at its wavenumber, so the rate is the velocity symbol a(k) m^(k),
    # the augmented viscosity (NSK1) or the non-local damping plus viscosity (NSK2)
    params, rho0, gamma0 = FluidParams(bulk_viscosity=0.004), 1.5, 0.5
    grid = Grid.periodic(64)
    d = Discretization(Scheme.SPECTRAL, dealias=dealias)
    x = grid.coords()[0]
    mu, lam = params.shear_viscosity, params.bulk_viscosity
    lam_star = float(law.augmented_bulk_viscosity(rho0, params))
    symbols = {
        ModelKind.NSK1: (None, lambda k: -(2.0 * mu + lam_star) * k * k / rho0),
        ModelKind.NSK2: (Mobility(gamma0),
                         lambda k: -params._theta_dtau2 / (gamma0 * rho0)
                         - (2.0 * mu + lam) * k * k / rho0)}
    for kind, (gamma, a) in symbols.items():
        for k in range(1, 32):
            m = 1e-7 * np.cos(k * x + 0.3 * k)
            state = MixtureState(ScalarField.constant(grid, rho0), VectorField(grid, (m,)))
            _, dm = model_rates(state, params, kind, gamma, d)
            want = a(k) * np.fft.rfft(m)[k]
            assert abs(np.fft.rfft(dm[0])[k] - want) <= 1e-6 * abs(want), (kind, k)


@pytest.mark.parametrize("mode", [(1, 0), (0, 3), (2, 1), (5, 7)])
def test_transverse_momentum_mode_decays_at_the_shear_rate(mode):
    # div m = 0: neither bulk viscosity nor the non-local term acts, and both
    # models damp the mode at mu |k|^2 / rho0
    params, rho0 = FluidParams(bulk_viscosity=0.004), 1.5
    grid = Grid.periodic((32, 32))
    x, y = grid.coords()
    kx, ky = mode
    norm = np.hypot(kx, ky)
    wave = 1e-7 * np.cos(kx * x + ky * y)
    m = (-ky / norm * wave, kx / norm * wave)
    state = MixtureState(ScalarField.constant(grid, rho0), VectorField(grid, m))
    rate = -params.shear_viscosity * (kx * kx + ky * ky) / rho0
    for kind, gamma in ((ModelKind.NSK1, None), (ModelKind.NSK2, Mobility(1.0))):
        _, dm = model_rates(state, params, kind, gamma, SPECTRAL)
        for got, comp in zip(dm, m):
            want = rate * np.fft.rfftn(comp)[kx, ky]
            if want != 0.0:
                assert abs(np.fft.rfftn(got)[kx, ky] - want) <= 1e-6 * abs(want), kind
            else:
                assert abs(np.fft.rfftn(got)[kx, ky]) <= 1e-22


def test_variable_mobility_rhs_forms_the_density_after_its_solve(params):
    # NSK2 solves for E before forming 1/rho and c, so neither is held through CG:
    # one 256^2 array is 0.52 MB, and holding both read 12.36 MB
    grid = Grid.periodic((256, 256))
    x, y = grid.coords()
    state = MixtureState.from_primitive(ScalarField(grid, 1.5 + 0.1 * np.cos(x) * np.cos(y)),
                                        VectorField(grid, (0.05 * np.sin(x), 0.05 * np.cos(y))))
    gamma = Mobility(2.0 + np.cos(x))
    rhs_nsk2(state, params, gamma, SPECTRAL)   # the calculus builds its symbols once
    assert traced_peak(lambda: rhs_nsk2(state, params, gamma, SPECTRAL)) <= 12.1e6


@pytest.mark.parametrize("d", [FD2, SPECTRAL], ids=["fd2", "spectral"])
@pytest.mark.parametrize("kind, gamma, arrays", [
    (ModelKind.NSK1, None, 18), (ModelKind.NSK2, Mobility(1.0), 20)],
    ids=["nsk1", "nsk2-const"])
def test_2d_gap_holds_few_grid_arrays(kind, gamma, arrays, d, params):
    # the gap runs on fresh arrays, freed at their last name: assembled in place and
    # dropped at their last read, a 2-D gap peaks at about 17 grid arrays, 19 with
    # NSK2's grad c, on either scheme.  The state is the check suite's 2-D state.
    grid = Grid.periodic((128, 128))
    x, y = grid.coords()
    carrier = 0.5 * (np.cos(x) + np.cos(y))
    state = MixtureState.from_primitive(
        ScalarField(grid, 1.5 + 0.3 * np.tanh(2.5 * carrier) / np.tanh(2.5)),
        VectorField(grid, (0.03 * np.sin(x) * np.cos(y), 0.02 * np.cos(x + y))))
    momentum_equivalence_gap(state, params, kind, gamma, d)   # builds the stencils once
    peak = traced_peak(lambda: momentum_equivalence_gap(state, params, kind, gamma, d))
    assert peak <= arrays * 128 * 128 * 8


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
    gamma = Mobility(1.0)
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
