"""Initial-condition families and the bundled corpus."""

import numpy as np
import pytest

import korteweg.initial
from korteweg import ConfigError, FluidParams, Grid, ICFamily, InitialCondition
from korteweg.initial import default_corpus, random_band_limited


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
