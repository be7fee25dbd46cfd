"""Discrete calculus: exactness, order, and structural properties."""

import numpy as np
import pytest

from korteweg import (FD2, SPECTRAL, BoundaryKind, ConfigError, Discretization,
                      DomainError, Grid, ScalarField, Scheme, SymTensorField,
                      VectorField, div, div_tensor, grad, laplacian, mean)
from korteweg.fields import read_scalar_csv, sup_norm, write_scalar_csv
from korteweg.initial import random_band_limited
from korteweg.operators import dealias_array


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid.periodic(4)  # below the minimum cell count
    with pytest.raises(ConfigError):
        Grid(dim=2, n=(16, 16), length=(1.0, 1.0),
             boundary=BoundaryKind.BOUNDED_NEUMANN_1D)
    with pytest.raises(ConfigError):
        Grid.periodic(16, -1.0)
    g = Grid.periodic((16, 32), (1.0, 2.0))
    assert g.h == (1.0 / 16, 2.0 / 32)


def test_field_validation(grid64):
    with pytest.raises(DomainError):
        ScalarField(grid64, np.zeros(12))
    bad = np.zeros(grid64.shape)
    bad[3] = np.nan
    with pytest.raises(DomainError):
        ScalarField(grid64, bad)
    f = ScalarField.constant(grid64, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # fields are immutable


def test_spectral_grad_of_sine_is_exact(grid64):
    x = grid64.coords()[0]
    g = grad(ScalarField(grid64, np.sin(x)), SPECTRAL)
    assert np.max(np.abs(g.components[0] - np.cos(x))) < 1e-13


def test_grad_of_constant_is_zero(grid64):
    for d in (SPECTRAL, FD2):
        g = grad(ScalarField.constant(grid64, 3.7), d)
        assert sup_norm(g) < 1e-13


def test_fd2_grad_second_order():
    # oracle: the analytic derivative of exp(sin x)
    errs = []
    for n in (64, 128):
        grid = Grid.periodic(n)
        x = grid.coords()[0]
        g = grad(ScalarField(grid, np.exp(np.sin(x))), FD2)
        errs.append(np.max(np.abs(g.components[0] - np.cos(x) * np.exp(np.sin(x)))))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_div_2d_single_component():
    grid = Grid.periodic((32, 32))
    x, _ = grid.coords()
    v = VectorField(grid, (np.cos(x), np.zeros(grid.shape)))
    s = div(v, SPECTRAL)
    assert np.max(np.abs(s.values + np.sin(x))) < 1e-13


def test_div_constant_vector_is_zero():
    grid = Grid.periodic((32, 32))
    v = VectorField(grid, (np.full(grid.shape, 1.0), np.full(grid.shape, -2.0)))
    for d in (SPECTRAL, FD2):
        assert sup_norm(div(v, d)) < 1e-14


def test_div_of_band_limited_field_has_zero_mean():
    grid = Grid.periodic(64)
    rng = np.random.default_rng(3)
    v = VectorField(grid, (random_band_limited(grid, rng, kmax=8),))
    for d in (SPECTRAL, FD2):
        assert abs(mean(div(v, d))) < 1e-14


def test_div_tensor_isotropic_pressure():
    grid = Grid.periodic((32, 32))
    x, _ = grid.coords()
    t = SymTensorField(grid, (np.sin(x), np.zeros(grid.shape), np.sin(x)))   # sin(x) I
    out = div_tensor(t, SPECTRAL)
    assert np.max(np.abs(out.components[0] - np.cos(x))) < 1e-13
    assert np.max(np.abs(out.components[1])) < 1e-13


def test_div_tensor_constant_is_zero():
    grid = Grid.periodic((16, 16))
    t = SymTensorField(grid, (np.full(grid.shape, 2.5), np.zeros(grid.shape),
                              np.full(grid.shape, 2.5)))
    assert sup_norm(div_tensor(t, FD2)) < 1e-14


def test_div_tensor_outer_product_matches_hand_derivation():
    # T = a (x) a with a = grad(sin x) = (cos x, 0):
    # (div T)_x = d/dx cos^2 x = -sin(2x), (div T)_y = 0
    grid = Grid.periodic((48, 48))
    x, _ = grid.coords()
    a = grad(ScalarField(grid, np.sin(x)), SPECTRAL)
    ax, ay = a.components
    t = SymTensorField(grid, (ax * ax, ax * ay, ay * ay))
    out = div_tensor(t, SPECTRAL)
    assert np.max(np.abs(out.components[0] + np.sin(2.0 * x))) < 1e-12
    assert np.max(np.abs(out.components[1])) < 1e-12


@pytest.mark.parametrize("d", [SPECTRAL, FD2])
def test_laplacian_eigenfunctions(d, grid64):
    x = grid64.coords()[0]
    tol = 1e-12 if d is SPECTRAL else 4.0 * (2.0 * grid64.h[0]) ** 2 / 3.0
    lap1 = laplacian(ScalarField(grid64, np.sin(x)), d)
    assert np.max(np.abs(lap1.values + np.sin(x))) < max(tol / 4.0, 1e-12)
    lap0 = laplacian(ScalarField.constant(grid64, 1.0), d)
    assert sup_norm(lap0) < 1e-13
    lap2 = laplacian(ScalarField(grid64, np.sin(2.0 * x)), d)
    assert np.max(np.abs(lap2.values + 4.0 * np.sin(2.0 * x))) < max(tol * 4.0, 1e-12)


def test_spectral_laplacian_equals_div_grad():
    for shape in (64, (24, 24)):
        grid = Grid.periodic(shape)
        rng = np.random.default_rng(5)
        f = ScalarField(grid, random_band_limited(grid, rng, kmax=6))
        composed = div(grad(f, SPECTRAL), SPECTRAL)
        direct = laplacian(f, SPECTRAL)
        assert np.max(np.abs(composed.values - direct.values)) < 1e-12


def test_mean_values(grid64):
    x = grid64.coords()[0]
    assert abs(mean(ScalarField(grid64, np.sin(x)))) < 1e-14
    assert mean(ScalarField.constant(grid64, 2.25)) == 2.25
    assert abs(mean(ScalarField(grid64, np.sin(x) ** 2)) - 0.5) < 1e-14


@pytest.mark.parametrize("d", [SPECTRAL, FD2])
def test_operators_are_linear(d, grid64):
    rng = np.random.default_rng(9)
    f = random_band_limited(grid64, rng, kmax=10)
    g = random_band_limited(grid64, rng, kmax=10)
    a, b = 1.7, -0.4
    lhs = grad(ScalarField(grid64, a * f + b * g), d).components[0]
    rhs = a * grad(ScalarField(grid64, f), d).components[0] \
        + b * grad(ScalarField(grid64, g), d).components[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("d", [SPECTRAL, FD2])
def test_integration_by_parts(d, grid64):
    rng = np.random.default_rng(12)
    f = ScalarField(grid64, random_band_limited(grid64, rng, kmax=8))
    v = VectorField(grid64, (random_band_limited(grid64, rng, kmax=8),))
    defect = mean(ScalarField(grid64, f.values * div(v, d).values)) \
        + mean(ScalarField(grid64, grad(f, d).components[0] * v.components[0]))
    assert abs(defect) < 1e-12


def test_product_rule_residual_converges_at_scheme_order():
    def residual(n, d):
        grid = Grid.periodic(n)
        x = grid.coords()[0]
        f = ScalarField(grid, np.exp(np.sin(x)))
        v = VectorField(grid, (np.cos(2.0 * x),))
        fv = VectorField(grid, (f.values * v.components[0],))
        return sup_norm(ScalarField(grid, div(fv, d).values
                                    - f.values * div(v, d).values
                                    - grad(f, d).components[0] * v.components[0]))

    ratio = residual(64, FD2) / residual(128, FD2)
    assert 3.5 < ratio < 4.5
    assert residual(64, SPECTRAL) < 1e-11


def test_spectral_pure_modes_exact():
    grid = Grid.periodic(128)
    x = grid.coords()[0]
    for k in (1, 3, 17, 63):
        g = grad(ScalarField(grid, np.cos(k * x)), SPECTRAL)
        rel = np.max(np.abs(g.components[0] + k * np.sin(k * x))) / k
        assert rel < 1e-12


def test_spectral_nyquist_mode_is_dropped(grid64):
    x = grid64.coords()[0]
    f = ScalarField(grid64, np.cos(32.0 * x))  # the Nyquist mode at N = 64
    assert sup_norm(grad(f, SPECTRAL)) < 1e-12


def test_spectral_nyquist_mode_is_dropped_on_both_axes():
    # the last axis of a real transform keeps its Nyquist bin at the end of
    # the half spectrum, the other axes in the middle; both are zeroed
    grid = Grid.periodic((64, 64))
    for axis, x in enumerate(grid.coords()):
        f = ScalarField(grid, np.cos(32.0 * x))
        assert sup_norm(grad(f, SPECTRAL)) < 1e-12
        assert sup_norm(laplacian(f, SPECTRAL)) < 1e-12
        v = VectorField(grid, tuple(f.values if a == axis else np.zeros(grid.shape)
                                    for a in range(2)))
        assert sup_norm(div(v, SPECTRAL)) < 1e-12


def test_spectral_requires_periodic_grid():
    grid = Grid.bounded_neumann_1d(32)
    f = ScalarField.constant(grid, 1.0)
    with pytest.raises(ConfigError):
        grad(f, SPECTRAL)


def test_bounded_fd2_gradient_handles_wall_even_fields():
    # a wall-even analytic field: the even reflection is its smooth extension
    errs = []
    for n in (64, 128):
        grid = Grid.bounded_neumann_1d(n, 1.0)
        x = grid.coords()[0]
        f = ScalarField(grid, np.cos(np.pi * x))
        g = grad(f, FD2)
        errs.append(np.max(np.abs(g.components[0] + np.pi * np.sin(np.pi * x))))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_dealias_filter_keeps_low_modes():
    grid = Grid.periodic(48)
    x = grid.coords()[0]
    low = np.cos(3.0 * x)
    high = np.cos(20.0 * x)  # beyond N/3 = 16
    filtered = dealias_array(low + high, grid)
    assert np.max(np.abs(filtered - low)) < 1e-12


def test_scalar_csv_roundtrip(tmp_path, grid64):
    x = grid64.coords()[0]
    f = ScalarField(grid64, np.sin(x))
    path = tmp_path / "field.csv"
    write_scalar_csv(f, path, config_hash="deadbeef")
    meta, values = read_scalar_csv(path)
    assert meta["dim"] == "1"
    assert meta["n"] == "64"
    assert meta["boundary"] == "periodic"
    assert meta["config"] == "deadbeef"
    assert np.max(np.abs(values - f.values)) == 0.0


def test_discretization_enum_roundtrip():
    assert Discretization(Scheme.FD2).scheme is Scheme.FD2
    assert SPECTRAL.scheme is Scheme.SPECTRAL
