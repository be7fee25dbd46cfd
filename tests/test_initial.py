"""Initial-condition families and the bundled corpus."""

import numpy as np
import pytest

import korteweg.initial
from korteweg import ConfigError, FluidParams, Grid, ICFamily, InitialCondition, Mobility
from korteweg.initial import (MobilityKind, MobilitySpec, default_corpus,
                              random_band_limited, tanh_interface)


def test_constant_family(params):
    grid = Grid.periodic(32)
    state = InitialCondition(family=ICFamily.CONSTANT, rho0=1.7).build(grid, params)
    assert np.all(state.rho.values == 1.7)
    assert np.all(state.m.components[0] == 0.0)


def test_sine_density_family(params):
    grid = Grid.periodic(64)
    ic = InitialCondition(family=ICFamily.SINE_DENSITY, rho0=1.5, amplitude=0.1,
                          velocity_amplitude=0.05)
    state = ic.build(grid, params)
    assert abs(float(state.rho.values.mean()) - 1.5) < 1e-13
    assert np.max(state.rho.values) <= 1.5 * 1.1 + 1e-12
    assert np.max(np.abs(state.velocity().components[0])) > 0.0


def test_tanh_interface_endpoints_hit_pure_phases(params):
    # the interface plateaus are exactly the pure-phase densities
    grid = Grid.periodic(128)
    ic = InitialCondition(family=ICFamily.TANH_INTERFACE, interface_sharpness=3.0)
    state = ic.build(grid, params)
    r1, r2 = params.pure_phase_densities()
    assert abs(np.min(state.rho.values) - r1) < 1e-12
    assert abs(np.max(state.rho.values) - r2) < 1e-12


def test_random_band_family_is_seeded_and_positive(params, monkeypatch):
    grid = Grid.periodic(64)
    ic = InitialCondition(family=ICFamily.RANDOM_BAND, rho0=1.5, amplitude=0.1, kmax=4)
    a = ic.build(grid, params, seed=7)
    b = ic.build(grid, params, seed=7)
    assert np.array_equal(a.rho.values, b.rho.values)
    assert np.min(a.rho.values) > 0.0
    other = ic.build(grid, params, seed=8)
    assert not np.array_equal(a.rho.values, other.rho.values)
    # bounded: rho is the seed's first draw, the velocity the wall-even sin^2 profile,
    # and no random velocity is drawn
    draws = []
    monkeypatch.setattr(korteweg.initial, "random_band_limited",
                        lambda *args: draws.append(args) or random_band_limited(*args))
    bounded = Grid.bounded_neumann_1d(64)
    ic = InitialCondition(family=ICFamily.RANDOM_BAND, rho0=1.5, amplitude=0.1, kmax=4,
                          velocity_amplitude=0.05)
    state = ic.build(bounded, params, seed=7)
    assert len(draws) == 1
    drawn = random_band_limited(bounded, np.random.default_rng(7), 4)
    assert np.array_equal(state.rho.values, 1.5 * (1.0 + 0.1 * drawn))
    assert np.min(state.rho.values) > 0.0
    x = bounded.coords()[0]
    assert np.allclose(state.velocity().components[0], 0.05 * np.sin(np.pi * x) ** 2,
                       rtol=0.0, atol=1e-15)
    ic.build(Grid.periodic(64), params, seed=7)
    assert len(draws) == 3


def test_overlarge_amplitude_is_rejected(params):
    grid = Grid.periodic(32)
    ic = InitialCondition(family=ICFamily.SINE_DENSITY, rho0=1.0, amplitude=1.5)
    with pytest.raises(ConfigError):
        ic.build(grid, params)


def test_random_band_limited_spectrum():
    grid = Grid.periodic(64)
    rng = np.random.default_rng(0)
    f = random_band_limited(grid, rng, kmax=5)
    fhat = np.fft.fft(f)
    modes = np.abs(np.fft.fftfreq(64, d=1.0 / 64))
    assert np.max(np.abs(fhat[modes > 5.5])) < 1e-10 * np.max(np.abs(fhat))
    assert abs(f.mean()) < 1e-14


def test_default_corpus_shape(params):
    corpus = default_corpus(params)
    names = [cs.name for cs in corpus]
    assert len(set(names)) == len(names)
    periodic = [cs for cs in corpus if cs.boundary.value == "periodic"]
    bounded = [cs for cs in corpus if cs.boundary.value != "periodic"]
    assert len(periodic) >= 5 and len(bounded) >= 1
    for cs in corpus:
        state = cs.state(64)
        assert np.min(state.rho.values) > 0.0
        gamma = cs.mobility_on(cs.grid(64))
        assert np.min(np.atleast_1d(gamma.values_on(cs.grid(64)))) > 0.0
        # every periodic state runs at mobility 1; the wall state at 2 + cos(pi x / L)
        if cs.boundary.value == "periodic":
            assert gamma == Mobility(1.0)
        else:
            x = cs.grid(64).coords()[0]
            np.testing.assert_allclose(gamma.value, 2.0 + np.cos(np.pi * x), rtol=1e-15,
                                       atol=0.0)


@pytest.mark.parametrize("n, length", [(64, 1.0), (63, 0.7)])
def test_bounded_tanh_interface_is_its_closed_form(params, n, length):
    # between walls the carrier is cos(pi x / L): wall-even, falling from near the
    # upper plateau at x = 0 to near the lower one at x = L
    grid = Grid.bounded_neumann_1d(n, length)
    x = grid.coords()[0]
    rho = tanh_interface(grid, grid.coords(), params, 3.0)
    r1, r2 = params.pure_phase_densities()
    want = 0.5 * (r1 + r2) + 0.5 * (r2 - r1) * np.tanh(3.0 * np.cos(np.pi * x / length)) \
        / np.tanh(3.0)
    np.testing.assert_allclose(rho, want, rtol=1e-15, atol=0.0)
    assert np.all(np.diff(rho) < 0.0)
    assert r1 < rho.min() < rho.max() < r2


@pytest.mark.parametrize("grid", [Grid.periodic(64), Grid.periodic((16, 12)),
                                  Grid.bounded_neumann_1d(64, 1.0),
                                  Grid.bounded_neumann_1d(63, 3.3)],
                         ids=["periodic", "periodic-2d", "bounded", "bounded-63"])
def test_mobility_spec_builds_its_closed_form(grid):
    # constant: Mobility(value); cosine at mode 2: base + amplitude cos(4 pi x / L),
    # or cos(2 pi x / L) between walls (wall-even)
    assert MobilitySpec(value=2.5).build(grid) == Mobility(2.5)
    x = grid.coords()[0]
    angle = (4.0 if grid.is_periodic else 2.0) * np.pi * x / grid.length[0]
    gamma = MobilitySpec(MobilityKind.COSINE, base=1.5, amplitude=0.5, mode=2).build(grid)
    np.testing.assert_allclose(gamma.values_on(grid), 1.5 + 0.5 * np.cos(angle),
                               rtol=1e-15, atol=0.0)

