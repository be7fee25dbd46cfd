"""Mobility-weighted elliptic operator: forward apply and three inverses."""

import logging

import numpy as np
import pytest

from korteweg import (FD2, SPECTRAL, CompatibilityError, ConfigError, DomainError,
                      Grid, ScalarField)
from korteweg.elliptic import (Mobility, _inverse_symbol, apply_operator, invert_freespace_1d,
                               invert_neumann_1d, invert_periodic)
from korteweg.initial import random_band_limited
from korteweg.operators import mean


def test_mobility_validation():
    with pytest.raises(ConfigError):
        Mobility.constant(0.0)
    with pytest.raises(ConfigError):
        Mobility.spatial(np.array([1.0, -0.5, 2.0]))
    assert Mobility.constant(2.0).is_constant
    assert not Mobility.spatial(np.ones(8)).is_constant


def test_apply_operator_eigenfunctions():
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    one = Mobility.constant(1.0)
    out = apply_operator(one, ScalarField(grid, np.cos(x)), SPECTRAL)
    assert np.max(np.abs(out.values - np.cos(x))) < 1e-12
    out0 = apply_operator(one, ScalarField.constant(grid, 4.2), SPECTRAL)
    assert np.max(np.abs(out0.values)) < 1e-12
    out2 = apply_operator(one, ScalarField(grid, np.cos(2 * x)), SPECTRAL)
    assert np.max(np.abs(out2.values - 4.0 * np.cos(2 * x))) < 1e-11


def test_apply_operator_zero_mean_in_divergence_form():
    grid = Grid.periodic(64)
    rng = np.random.default_rng(2)
    gamma = Mobility.spatial(1.5 + 0.5 * random_band_limited(grid, rng, 4))
    phi = ScalarField(grid, random_band_limited(grid, rng, 9))
    for d in (SPECTRAL, FD2):
        assert abs(mean(apply_operator(gamma, phi, d))) < 1e-13
    bgrid = Grid.bounded_neumann_1d(64)
    bphi = ScalarField(bgrid, random_band_limited(bgrid, rng, 5))
    assert abs(mean(apply_operator(Mobility.constant(1.0), bphi, FD2))) < 1e-14


def test_invert_periodic_eigenfunctions():
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    one = Mobility.constant(1.0)
    phi1 = invert_periodic(one, ScalarField(grid, np.cos(x)))
    assert np.max(np.abs(phi1.values - np.cos(x))) < 1e-12
    phi2 = invert_periodic(one, ScalarField(grid, np.cos(2 * x)))
    assert np.max(np.abs(phi2.values - np.cos(2 * x) / 4.0)) < 1e-12


def test_invert_periodic_roundtrip_and_mean():
    grid = Grid.periodic(128)
    rng = np.random.default_rng(4)
    f = ScalarField(grid, random_band_limited(grid, rng, kmax=20))
    gamma = Mobility.constant(0.7)
    for d in (SPECTRAL, FD2):
        phi = invert_periodic(gamma, f, d)
        assert abs(float(phi.values.mean())) < 1e-13
        back = apply_operator(gamma, phi, d)
        assert np.max(np.abs(back.values - (f.values - f.values.mean()))) < 1e-10


@pytest.mark.parametrize("shape", [(32,), (16, 12)], ids=["1d", "2d"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_inverse_symbol_is_cached_and_zero_on_null_modes(shape, d):
    # the Fourier solve multiplies by 1/symbol: one read-only array per (grid, scheme)
    grid = Grid.periodic(shape)
    inv = _inverse_symbol(grid, d.scheme)
    assert _inverse_symbol(Grid.periodic(shape), d.scheme) is inv
    assert not inv.flags.writeable
    assert inv.flat[0] == 0.0   # the mean mode
    # the operator's symbol, read off the solve's images of single modes
    x = grid.coords()[-1]
    for k in range(1, shape[-1] // 2):
        f = ScalarField(grid, np.cos(k * x))
        sym = apply_operator(Mobility.constant(1.0), f, d).values[(0,) * grid.dim]
        assert abs(inv.reshape(-1, inv.shape[-1])[0, k] * sym - 1.0) < 1e-12
    # the first derivatives zero the Nyquist mode, so the symbol vanishes there
    # when every other axis sits at its mean mode; so does the inverse
    assert inv[(0,) * (grid.dim - 1) + (shape[-1] // 2,)] == 0.0


def test_invert_periodic_compatibility_guard():
    grid = Grid.periodic(32)
    f = ScalarField.constant(grid, 1.0)
    with pytest.raises(CompatibilityError):
        invert_periodic(Mobility.constant(1.0), f)
    # projection mode strips the mean instead of raising
    phi = invert_periodic(Mobility.constant(1.0), f, project_mean=True)
    assert np.max(np.abs(phi.values)) < 1e-12


def test_invert_periodic_variable_mobility_cg():
    grid = Grid.periodic(96)
    x = grid.coords()[0]
    gamma = Mobility.spatial(2.0 + np.sin(x))
    rng = np.random.default_rng(8)
    f = ScalarField(grid, random_band_limited(grid, rng, kmax=8))
    for d in (SPECTRAL, FD2):
        phi = invert_periodic(gamma, f, d)
        back = apply_operator(gamma, phi, d)
        assert np.max(np.abs(back.values - (f.values - f.values.mean()))) < 1e-9


def test_periodic_cg_logs_its_iteration_count(caplog):
    # the benchmark reads CG iteration counts from this DEBUG record
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    f = ScalarField(grid, np.cos(2.0 * x))
    with caplog.at_level(logging.DEBUG, logger="korteweg.elliptic"):
        invert_periodic(Mobility.spatial(2.0 + np.sin(x)), f, SPECTRAL)
    records = [r for r in caplog.records if "cg converged" in str(r.msg)]
    assert len(records) == 1
    assert records[0].msg.startswith("%s: cg converged in %d iterations")
    context, iterations = records[0].args[:2]
    assert "periodic" in context
    assert isinstance(iterations, int) and iterations > 0


def _variable_mobility_case(shape, seed):
    grid = Grid.periodic(shape)
    xs = grid.coords()
    gamma = 2.0 + np.sin(xs[0]) * (np.cos(xs[1]) if grid.dim == 2 else 1.0)
    rng = np.random.default_rng(seed)
    return grid, Mobility.spatial(gamma), ScalarField(grid, random_band_limited(grid, rng, 8))


@pytest.mark.parametrize("shape", [64, 1024, (64, 64)], ids=["1d-64", "1d-1024", "2d-64"])
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


def test_invert_neumann_eigenfunction():
    n = 128
    grid = Grid.bounded_neumann_1d(n, length=1.0)
    x = grid.coords()[0]
    h = grid.h[0]
    f = ScalarField(grid, np.cos(np.pi * x))
    phi = invert_neumann_1d(Mobility.constant(1.0), f)
    # exact solution of the discrete system: the grid cosine is an
    # eigenvector with eigenvalue (2 - 2 cos(pi/n)) / h^2
    lam = (2.0 - 2.0 * np.cos(np.pi / n)) / h**2
    assert np.max(np.abs(phi.values - f.values / lam)) < 1e-10
    # and it converges to the analytic (L/pi)^2 cos(pi x / L) at O(h^2)
    assert np.max(np.abs(phi.values - f.values / np.pi**2)) < 1e-4


def test_invert_neumann_zero_and_errors():
    grid = Grid.bounded_neumann_1d(64)
    zero = ScalarField.constant(grid, 0.0)
    assert np.max(np.abs(invert_neumann_1d(Mobility.constant(1.0), zero).values)) == 0.0
    with pytest.raises(CompatibilityError):
        invert_neumann_1d(Mobility.constant(1.0), ScalarField.constant(grid, 2.0))
    # the direct solve is exact on the grid-cosine eigenvector
    x = grid.coords()[0]
    f = ScalarField(grid, np.cos(np.pi * x))
    lam = (2.0 - 2.0 * np.cos(np.pi / 64)) / grid.h[0] ** 2
    phi = invert_neumann_1d(Mobility.constant(1.0), f)
    assert np.max(np.abs(phi.values - f.values / lam)) < 1e-12


def test_invert_neumann_variable_mobility_roundtrip():
    grid = Grid.bounded_neumann_1d(128, length=1.0)
    x = grid.coords()[0]
    gamma = Mobility.spatial(2.0 + np.sin(2.0 * np.pi * x))
    rng = np.random.default_rng(5)
    f = random_band_limited(grid, rng, kmax=6)
    f -= f.mean()
    ff = ScalarField(grid, f)
    phi = invert_neumann_1d(gamma, ff)
    back = apply_operator(gamma, phi, FD2)
    assert np.max(np.abs(back.values - f)) < 1e-9
    assert abs(float(phi.values.mean())) < 1e-13


def test_invert_neumann_direct_solve_at_large_n(caplog):
    grid = Grid.bounded_neumann_1d(2048, length=1.0)
    x = grid.coords()[0]
    gamma = Mobility.spatial(2.0 + np.sin(2.0 * np.pi * x))
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
        gamma = Mobility.constant(1.3)
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
    phi1 = invert_periodic(Mobility.constant(1.0), f)
    phi3 = invert_periodic(Mobility.constant(3.0), f)
    assert np.max(np.abs(3.0 * phi3.values - phi1.values)) < 1e-12


def freespace_setup(n=512, length=40.0, gamma0=1.5):
    grid = Grid.periodic(n, length)
    x = grid.coords()[0] - 0.5 * length
    bump = np.exp(-x * x)
    f = ScalarField(grid, -2.0 * x * bump)  # derivative of a bump: zero mean
    return grid, x, f, Mobility.constant(gamma0)


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
        phi_per = invert_periodic(gamma, f, SPECTRAL, project_mean=True)
        support = np.abs(x) < 5.0
        diff = phi_free.values[support] - phi_per.values[support]
        diff -= diff.mean()  # mean alignment
        return np.max(np.abs(diff))

    d120 = disagreement(120.0)
    d240 = disagreement(240.0)
    assert d120 < 10.0 / 120.0   # support/box with an O(1) dipole moment
    assert d240 < 0.6 * d120     # shrinks roughly linearly with the box
