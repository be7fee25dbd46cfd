"""Mobility-weighted elliptic operator: forward apply and three inverses."""

import logging

import numpy as np
import pytest

import korteweg.elliptic
from korteweg import (FD2, SPECTRAL, CompatibilityError, ConfigError, Discretization,
                      DomainError, FluidParams, Grid, MixtureState, ScalarField, Scheme,
                      VectorField, rhs_nsk2)
from korteweg.elliptic import (Mobility, _fourier_solve, _matvec, _pcg_zero_mean, _solve,
                               apply_operator, invert_for_model, invert_freespace_1d,
                               invert_neumann_1d, invert_periodic)
from korteweg.initial import random_band_limited
from korteweg.operators import _calculus, mean

DEALIASED = Discretization(Scheme.SPECTRAL, dealias=True)


def test_mobility_validation():
    with pytest.raises(ConfigError):
        Mobility(0.0)
    with pytest.raises(ConfigError):
        Mobility(np.array([1.0, -0.5, 2.0]))
    assert Mobility(2.0).is_constant
    assert not Mobility(np.ones(8)).is_constant


@pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.array(2.0)],
                         ids=["int", "float", "numpy-scalar", "0-d-array"])
def test_every_0d_mobility_is_the_constant(value):
    # each 0-d value is kept as the float constant, and every inverse takes it
    gamma = Mobility(value)
    assert gamma.is_constant and type(gamma.value) is float and gamma == Mobility(2.0)
    with pytest.raises(ConfigError, match="^mobility must be positive$"):
        Mobility(np.array(-2.0))
    periodic, bounded = Grid.periodic(64), Grid.bounded_neumann_1d(64)
    f, fb = (ScalarField(g, np.cos(2.0 * np.pi * g.coords()[0] / g.length[0]))
             for g in (periodic, bounded))
    for d in (SPECTRAL, FD2):
        for solve in (invert_periodic, invert_for_model, apply_operator):
            assert np.array_equal(solve(gamma, f, d).values, solve(Mobility(2.0), f, d).values)
    assert np.array_equal(invert_for_model(gamma, fb, FD2).values,
                          invert_for_model(Mobility(2.0), fb, FD2).values)
    xw = Grid.periodic(256, 40.0).coords()[0] - 20.0
    bump = ScalarField(Grid.periodic(256, 40.0), -2.0 * xw * np.exp(-xw * xw))
    for solve, data in ((invert_neumann_1d, fb), (invert_freespace_1d, bump)):
        assert np.array_equal(solve(gamma, data).values, solve(Mobility(2.0), data).values)


@pytest.mark.parametrize("grid", [Grid.periodic(64), Grid.periodic((16, 12)),
                                  Grid.bounded_neumann_1d(64)],
                         ids=["periodic-1d", "periodic-2d", "neumann"])
@pytest.mark.parametrize("values", [np.array([2.0]), np.full(32, 2.0)], ids=["one", "short"])
def test_every_solve_refuses_a_mobility_of_another_shape(grid, values):
    # the 1-D periodic solve reads only the mobility's cached weights, so the shape
    # check in Mobility.values_on is what stops a size-1 field from broadcasting
    f = np.cos(2.0 * np.pi * grid.coords()[0] / grid.length[0])
    with pytest.raises(ConfigError, match="shape"):
        _solve(Mobility(values), f, _calculus(grid, FD2))


def test_apply_operator_eigenfunctions():
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    one = Mobility(1.0)
    out = apply_operator(one, ScalarField(grid, np.cos(x)), SPECTRAL)
    assert np.max(np.abs(out.values - np.cos(x))) < 1e-12
    out0 = apply_operator(one, ScalarField.constant(grid, 4.2), SPECTRAL)
    assert np.max(np.abs(out0.values)) < 1e-12
    out2 = apply_operator(one, ScalarField(grid, np.cos(2 * x)), SPECTRAL)
    assert np.max(np.abs(out2.values - 4.0 * np.cos(2 * x))) < 1e-11


def test_apply_operator_zero_mean_in_divergence_form():
    grid = Grid.periodic(64)
    rng = np.random.default_rng(2)
    gamma = Mobility(1.5 + 0.5 * random_band_limited(grid, rng, 4))
    phi = ScalarField(grid, random_band_limited(grid, rng, 9))
    for d in (SPECTRAL, FD2):
        assert abs(mean(apply_operator(gamma, phi, d))) < 1e-13
    bgrid = Grid.bounded_neumann_1d(64)
    bphi = ScalarField(bgrid, random_band_limited(bgrid, rng, 5))
    assert abs(mean(apply_operator(Mobility(1.0), bphi, FD2))) < 1e-14


def test_invert_periodic_eigenfunctions():
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    one = Mobility(1.0)
    phi1 = invert_periodic(one, ScalarField(grid, np.cos(x)))
    assert np.max(np.abs(phi1.values - np.cos(x))) < 1e-12
    phi2 = invert_periodic(one, ScalarField(grid, np.cos(2 * x)))
    assert np.max(np.abs(phi2.values - np.cos(2 * x) / 4.0)) < 1e-12


def test_invert_periodic_roundtrip_and_mean():
    grid = Grid.periodic(128)
    rng = np.random.default_rng(4)
    f = ScalarField(grid, random_band_limited(grid, rng, kmax=20))
    gamma = Mobility(0.7)
    for d in (SPECTRAL, FD2):
        phi = invert_periodic(gamma, f, d)
        assert abs(float(phi.values.mean())) < 1e-13
        back = apply_operator(gamma, phi, d)
        assert np.max(np.abs(back.values - (f.values - f.values.mean()))) < 1e-10


@pytest.mark.parametrize("shape", [(32,), (16, 12)], ids=["1d", "2d"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_inverse_symbol_is_cached_and_zero_on_null_modes(shape, d):
    # the Fourier solve multiplies by 1/symbol: one read-only array held by the
    # grid's calculus, found again by an equal grid
    grid = Grid.periodic(shape)
    inv = _calculus(grid, d).inv_sym
    assert _calculus(Grid.periodic(shape), d).inv_sym is inv
    assert not inv.flags.writeable
    assert inv.flat[0] == 0.0   # the mean mode
    # the operator's symbol, read off the solve's images of single modes
    x = grid.coords()[-1]
    for k in range(1, shape[-1] // 2):
        f = ScalarField(grid, np.cos(k * x))
        sym = apply_operator(Mobility(1.0), f, d).values[(0,) * grid.dim]
        assert abs(inv.reshape(-1, inv.shape[-1])[0, k] * sym - 1.0) < 1e-12
    # the first derivatives zero the Nyquist mode, so the symbol vanishes there
    # when every other axis sits at its mean mode; so does the inverse
    assert inv[(0,) * (grid.dim - 1) + (shape[-1] // 2,)] == 0.0


def test_invert_periodic_compatibility_guard():
    grid = Grid.periodic(32)
    f = ScalarField.constant(grid, 1.0)
    with pytest.raises(CompatibilityError):
        invert_periodic(Mobility(1.0), f)
    # the model inverse strips the mean instead of raising
    phi = invert_for_model(Mobility(1.0), f, SPECTRAL)
    assert np.max(np.abs(phi.values)) < 1e-12


@pytest.mark.parametrize("n", [63, 96])
@pytest.mark.parametrize("d", [SPECTRAL, FD2, DEALIASED], ids=["spectral", "fd2", "dealiased"])
def test_invert_periodic_variable_mobility_roundtrip_1d(n, d):
    grid = Grid.periodic(n)
    x = grid.coords()[0]
    gamma = Mobility(2.0 + np.sin(x))
    rng = np.random.default_rng(8)
    f = ScalarField(grid, random_band_limited(grid, rng, kmax=8))
    phi = invert_periodic(gamma, f, d)
    back = apply_operator(gamma, phi, d)
    assert np.max(np.abs(back.values - (f.values - f.values.mean()))) < 1e-9
    assert abs(float(phi.values.mean())) < 1e-13


def _cg_reference(gamma, f, ops, monkeypatch):
    """The CG solution of -div(gamma grad phi) = f at a tight tolerance, f off the null modes."""
    monkeypatch.setattr(korteweg.elliptic, "SOLVE_RTOL", 1e-13)
    f = f - f.mean()
    for mode in ops.checkerboards:
        f = f - (f * mode).mean() * mode
    gmean = float(gamma.mean())
    return _pcg_zero_mean(_matvec(gamma, ops), f,
                          lambda r: _fourier_solve(r, ops, gmean), "reference")


@pytest.mark.parametrize("n", [63, 64, 96, 1024])
@pytest.mark.parametrize("d", [SPECTRAL, FD2, DEALIASED], ids=["spectral", "fd2", "dealiased"])
def test_direct_1d_solve_matches_a_cg_reference(n, d, monkeypatch):
    # gamma D phi = g is a first antiderivative of -f; choosing its constant (and,
    # for even n, its Nyquist part) makes g / gamma integrable again
    grid = Grid.periodic(n)
    x = grid.coords()[0]
    gamma = 2.0 + np.sin(x) + 0.5 * np.cos(3.0 * x)
    f = random_band_limited(grid, np.random.default_rng(n), kmax=12)
    ops = _calculus(grid, d)
    phi = _solve(Mobility(gamma), f, ops)
    ref = _cg_reference(gamma, f, ops, monkeypatch)
    assert np.max(np.abs(phi - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_direct_1d_weights_are_formed_once_per_mobility(n, d):
    # 1/gamma, its mean and (even n) the checkerboard weights are a mobility's, not a
    # solve's: every solve reuses them and gives the bits of weights formed afresh
    grid = Grid.periodic(n)
    x = grid.coords()[0]
    gv = 2.0 + np.sin(x) + 0.5 * np.cos(3.0 * x)
    gamma, ops = Mobility(gv), _calculus(grid, d)
    f = random_band_limited(grid, np.random.default_rng(n), kmax=12)
    first = _solve(gamma, f, ops)
    weights = gamma._periodic_1d_weights
    assert np.array_equal(_solve(gamma, f, ops), first)
    assert gamma._periodic_1d_weights is weights
    w = 1.0 / gv   # the weights formed in the solve itself
    wg = w * ops.inverse(ops.forward(f - f.mean()) * -ops.antideriv)
    s0, wbar = float(wg.mean()), float(w.mean())
    if n % 2:
        wg -= (s0 / wbar) * w
    else:
        nu = ops.checkerboards[0]
        wnu = w * nu
        c, s1 = float(wnu.mean()), float((wg * nu).mean())
        det = wbar * wbar - c * c
        wg += ((c * s1 - wbar * s0) / det) * w + ((c * s0 - wbar * s1) / det) * wnu
    assert np.array_equal(first, ops.inverse(ops.forward(wg) * ops.antideriv))


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("d", [SPECTRAL, FD2, DEALIASED], ids=["spectral", "fd2", "dealiased"])
def test_no_cg_on_a_1d_grid(n, d, caplog, monkeypatch):
    # every 1-D periodic inverse is direct: the strict and model inverses and a
    # variable-mobility NSK2 right-hand side make no CG call and log no CG record
    def no_cg(*args):
        raise AssertionError("CG called on a 1-D grid")

    monkeypatch.setattr(korteweg.elliptic, "_pcg_zero_mean", no_cg)
    grid = Grid.periodic(n)
    x = grid.coords()[0]
    gamma = Mobility(2.0 + np.cos(x))
    f = ScalarField(grid, random_band_limited(grid, np.random.default_rng(3), kmax=6))
    state = MixtureState(ScalarField(grid, 1.5 + 0.1 * np.cos(x)),
                         VectorField(grid, (0.05 * np.sin(2.0 * x),)))
    with caplog.at_level(logging.DEBUG, logger="korteweg.elliptic"):
        invert_periodic(gamma, ScalarField(grid, f.values - f.values.mean()), d)
        invert_for_model(gamma, f, d)
        rhs_nsk2(state, FluidParams(), gamma, d)
    assert not [r for r in caplog.records if "cg converged" in str(r.msg)]


def test_periodic_cg_logs_its_iteration_count(caplog):
    # the benchmark reads CG iteration counts from this DEBUG record
    grid = Grid.periodic((64, 64))
    x, y = grid.coords()
    f = ScalarField(grid, np.cos(2.0 * x))
    with caplog.at_level(logging.DEBUG, logger="korteweg.elliptic"):
        invert_periodic(Mobility(2.0 + np.sin(x) * np.cos(y)), f, SPECTRAL)
    records = [r for r in caplog.records if "cg converged" in str(r.msg)]
    assert len(records) == 1
    assert records[0].msg.startswith("%s: cg converged in %d iterations")
    context, iterations = records[0].args[:2]
    assert "periodic" in context
    assert isinstance(iterations, int) and iterations > 0


@pytest.mark.parametrize("shape", [64, (64, 64)], ids=["1d", "2d"])
def test_model_solve_refuses_non_finite_data(shape):
    # the right-hand sides pass arrays straight to the solve kernel, so the
    # direct solve and CG themselves refuse non-finite data (CG instead of
    # iterating to its budget)
    grid = Grid.periodic(shape)
    xs = grid.coords()
    f = np.cos(2.0 * xs[0])
    f.flat[3] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        _solve(Mobility(2.0 + np.sin(xs[-1])), f, _calculus(grid, SPECTRAL))


def _variable_mobility_case(shape, seed):
    grid = Grid.periodic(shape)
    xs = grid.coords()
    gamma = 2.0 + np.sin(xs[0]) * (np.cos(xs[1]) if grid.dim == 2 else 1.0)
    rng = np.random.default_rng(seed)
    return grid, Mobility(gamma), ScalarField(grid, random_band_limited(grid, rng, 8))


@pytest.mark.parametrize("shape", [(32, 32), (64, 64), (128, 128), (63, 48)],
                         ids=["2d-32", "2d-64", "2d-128", "2d-63x48"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_periodic_cg_iterations_independent_of_n(caplog, shape, d):
    # the mean-mobility Fourier preconditioner bounds the iteration count by
    # the mobility contrast, not by the grid size
    grid, gamma, f = _variable_mobility_case(shape, 12)
    with caplog.at_level(logging.DEBUG, logger="korteweg.elliptic"):
        invert_periodic(gamma, f, d)
    records = [r for r in caplog.records if "cg converged" in str(r.msg)]
    assert len(records) == 1
    assert records[0].args[1] <= 30


@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_invert_periodic_variable_mobility_roundtrip_2d(d):
    grid, gamma, f = _variable_mobility_case((64, 64), 13)
    phi = invert_periodic(gamma, f, d)
    back = apply_operator(gamma, phi, d)
    assert np.max(np.abs(back.values - (f.values - f.values.mean()))) < 1e-9
    assert abs(float(phi.values.mean())) < 1e-13


@pytest.mark.parametrize("shape", [64, (32, 32)], ids=["1d", "2d"])
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "cosine"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_periodic_solves_drop_data_on_the_null_modes(shape, variable, d):
    # one data contract for every periodic solve: the derivatives kill the
    # checkerboards (-1)^i of even axes, so the operator does too, and data on
    # them is dropped like a mean, by the Fourier solve, the direct solve and CG
    grid = Grid.periodic(shape)
    xs = grid.coords()
    gamma = Mobility(2.0 + np.cos(xs[0])) if variable else Mobility(2.0)
    f = random_band_limited(grid, np.random.default_rng(31), kmax=6)
    f -= f.mean()
    clean = invert_periodic(gamma, ScalarField(grid, f), d).values
    for mode in _calculus(grid, d).checkerboards:
        noisy = invert_periodic(gamma, ScalarField(grid, f + 1e-6 * mode), d).values
        assert np.max(np.abs(noisy - clean)) < 1e-12


@pytest.mark.parametrize("shape, count", [(16, 1), (15, 0), ((16, 16), 3), ((16, 15), 1)])
def test_checkerboards_are_the_derivatives_null_modes(shape, count):
    grid = Grid.periodic(shape)
    for d in (SPECTRAL, FD2):
        ops = _calculus(grid, d)
        modes = ops.checkerboards
        assert len(modes) == count and _calculus(grid, d).checkerboards is modes
        for mode in modes:
            assert not mode.flags.writeable and abs(float(mode.mean())) < 1e-15
            assert max(np.max(np.abs(g)) for g in ops.derivs(mode)) < 1e-12


def test_invert_neumann_eigenfunction():
    n = 128
    grid = Grid.bounded_neumann_1d(n, length=1.0)
    x = grid.coords()[0]
    h = grid.h[0]
    f = ScalarField(grid, np.cos(np.pi * x))
    phi = invert_neumann_1d(Mobility(1.0), f)
    # exact solution of the discrete system: the grid cosine is an
    # eigenvector with eigenvalue (2 - 2 cos(pi/n)) / h^2
    lam = (2.0 - 2.0 * np.cos(np.pi / n)) / h**2
    assert np.max(np.abs(phi.values - f.values / lam)) < 1e-10
    # and it converges to the analytic (L/pi)^2 cos(pi x / L) at O(h^2)
    assert np.max(np.abs(phi.values - f.values / np.pi**2)) < 1e-4


def test_invert_neumann_zero_and_errors():
    grid = Grid.bounded_neumann_1d(64)
    zero = ScalarField.constant(grid, 0.0)
    assert np.max(np.abs(invert_neumann_1d(Mobility(1.0), zero).values)) == 0.0
    with pytest.raises(CompatibilityError):
        invert_neumann_1d(Mobility(1.0), ScalarField.constant(grid, 2.0))
    # the direct solve is exact on the grid-cosine eigenvector
    x = grid.coords()[0]
    f = ScalarField(grid, np.cos(np.pi * x))
    lam = (2.0 - 2.0 * np.cos(np.pi / 64)) / grid.h[0] ** 2
    phi = invert_neumann_1d(Mobility(1.0), f)
    assert np.max(np.abs(phi.values - f.values / lam)) < 1e-12


def test_invert_neumann_variable_mobility_roundtrip():
    grid = Grid.bounded_neumann_1d(128, length=1.0)
    x = grid.coords()[0]
    gamma = Mobility(2.0 + np.sin(2.0 * np.pi * x))
    rng = np.random.default_rng(5)
    f = random_band_limited(grid, rng, kmax=6)
    f -= f.mean()
    ff = ScalarField(grid, f)
    phi = invert_neumann_1d(gamma, ff)
    back = apply_operator(gamma, phi, FD2)
    assert np.max(np.abs(back.values - f)) < 1e-9
    assert abs(float(phi.values.mean())) < 1e-13


@pytest.mark.parametrize("grid, d", [(Grid.bounded_neumann_1d(128, length=1.0), FD2),
                                     (Grid.periodic(96), SPECTRAL),
                                     (Grid.periodic((48, 48)), SPECTRAL)],
                         ids=["neumann-fd2", "periodic-1d", "periodic-2d-cg"])
def test_strict_inverse_refuses_a_mean_the_model_inverse_discards(grid, d):
    # one zero-mean contract on both boundary kinds, with cosine mobility:
    # the strict inverses refuse data with a mean, the model inverse solves
    # for the zero-mean part of the same data
    x = grid.coords()[0]
    k = (2.0 if grid.is_periodic else 1.0) * np.pi / grid.length[0]
    gamma = Mobility(2.0 + np.cos(k * x))
    rng = np.random.default_rng(23)
    f = ScalarField(grid, 0.5 + random_band_limited(grid, rng, kmax=6))
    with pytest.raises(CompatibilityError):
        if grid.is_periodic:
            invert_periodic(gamma, f, d)
        else:
            invert_neumann_1d(gamma, f)
    phi = invert_for_model(gamma, f, d)
    assert abs(float(phi.values.mean())) < 1e-13
    back = apply_operator(gamma, phi, d)
    assert np.max(np.abs(back.values - (f.values - f.values.mean()))) < 1e-9


def test_invert_neumann_direct_solve_at_large_n(caplog):
    grid = Grid.bounded_neumann_1d(2048, length=1.0)
    x = grid.coords()[0]
    gamma = Mobility(2.0 + np.sin(2.0 * np.pi * x))
    rng = np.random.default_rng(5)
    f = random_band_limited(grid, rng, kmax=6)
    f -= f.mean()
    with caplog.at_level(logging.DEBUG, logger="korteweg.elliptic"):
        phi = invert_neumann_1d(gamma, ScalarField(grid, f))
    back = apply_operator(gamma, phi, FD2)
    assert np.max(np.abs(back.values - f)) < 1e-9
    assert not [r for r in caplog.records if "cg converged" in str(r.msg)]


def test_selfadjointness_and_positivity():
    for make in (lambda: Grid.periodic(64), lambda: Grid.bounded_neumann_1d(64)):
        grid = make()
        rng = np.random.default_rng(17)
        f = random_band_limited(grid, rng, 6)
        g = random_band_limited(grid, rng, 6)
        f -= f.mean()
        g -= g.mean()
        gamma = Mobility(1.3)
        if grid.is_periodic:
            inv = lambda s: invert_periodic(gamma, s)
        else:
            inv = lambda s: invert_neumann_1d(gamma, s)
        ff, gf = ScalarField(grid, f), ScalarField(grid, g)
        lhs = float((f * inv(gf).values).mean())
        rhs = float((g * inv(ff).values).mean())
        assert abs(lhs - rhs) < 1e-10
        assert float((f * inv(ff).values).mean()) >= -1e-14


def test_mobility_scaling_inverse():
    grid = Grid.periodic(64)
    rng = np.random.default_rng(21)
    f = ScalarField(grid, random_band_limited(grid, rng, 8))
    phi1 = invert_periodic(Mobility(1.0), f)
    phi3 = invert_periodic(Mobility(3.0), f)
    assert np.max(np.abs(3.0 * phi3.values - phi1.values)) < 1e-12


def freespace_setup(n=512, length=40.0, gamma0=1.5):
    grid = Grid.periodic(n, length)
    x = grid.coords()[0] - 0.5 * length
    bump = np.exp(-x * x)
    f = ScalarField(grid, -2.0 * x * bump)  # derivative of a bump: zero mean
    return grid, x, f, Mobility(gamma0)


def test_freespace_matches_antidifferentiation_oracle():
    grid, x, f, gamma = freespace_setup()
    phi = invert_freespace_1d(gamma, f)
    h = grid.h[0]
    first = np.concatenate(([0.0], np.cumsum(0.5 * (f.values[1:] + f.values[:-1]) * h)))
    second = np.concatenate(([0.0], np.cumsum(0.5 * (first[1:] + first[:-1]) * h)))
    oracle = -second / 1.5
    oracle -= oracle.mean()
    assert np.max(np.abs(phi.values - oracle)) < 1e-3
    assert abs(float(phi.values.mean())) < 1e-13


@pytest.mark.parametrize("n", [512, 1024])
def test_freespace_prefix_sums_match_dense_kernel(n):
    grid, x, f, gamma = freespace_setup(n=n)
    fv = f.values - f.values.mean()
    xs = grid.axis_coords(0)
    dense = (grid.h[0] / 1.5) * (-0.5 * np.abs(xs[:, None] - xs[None, :]) @ fv)
    dense -= dense.mean()
    assert np.max(np.abs(invert_freespace_1d(gamma, f).values - dense)) < 1e-12


def test_freespace_zero_and_guards():
    grid, x, f, gamma = freespace_setup()
    zero = ScalarField.constant(grid, 0.0)
    assert np.max(np.abs(invert_freespace_1d(gamma, zero).values)) == 0.0
    edge = ScalarField(grid, np.cos(2.0 * np.pi * (x + 20.0) / 40.0))
    with pytest.raises(DomainError):
        invert_freespace_1d(gamma, edge)
    bump_only = ScalarField(grid, np.exp(-x * x))  # nonzero mean
    with pytest.raises(CompatibilityError):
        invert_freespace_1d(gamma, bump_only)


def test_freespace_agrees_with_periodic_inverse_on_support():
    # for data supported well inside a large box the two inverses agree
    # on the support up to the periodic-image effect, O(support / box),
    # shrinking proportionally as the box grows
    def disagreement(length):
        grid, x, f, gamma = freespace_setup(n=1024, length=length)
        phi_free = invert_freespace_1d(gamma, f)
        phi_per = invert_for_model(gamma, f, SPECTRAL)
        support = np.abs(x) < 5.0
        diff = phi_free.values[support] - phi_per.values[support]
        diff -= diff.mean()  # mean alignment
        return np.max(np.abs(diff))

    d120 = disagreement(120.0)
    d240 = disagreement(240.0)
    assert d120 < 10.0 / 120.0   # support/box with an O(1) dipole moment
    assert d240 < 0.6 * d120     # shrinks roughly linearly with the box
