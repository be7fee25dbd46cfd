"""Discrete calculus: exactness, order, and structural properties."""

import numpy as np
import pytest
from conftest import traced_peak

from korteweg import (FD2, SPECTRAL, BoundaryKind, ConfigError, DomainError, Grid,
                      ScalarField, SymTensorField, VectorField, div, div_tensor, grad,
                      laplacian, mean)
from korteweg.fields import _sup, read_scalar_csv, write_scalar_csv
from korteweg.initial import random_band_limited
from korteweg.elliptic import _matvec
from korteweg.operators import _calculus, _Workspace


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid.periodic(4)  # below the minimum cell count
    with pytest.raises(ConfigError):
        Grid(n=(16, 16), length=(1.0, 1.0),
             boundary=BoundaryKind.BOUNDED_NEUMANN_1D)
    with pytest.raises(ConfigError):
        Grid.periodic(16, -1.0)
    g = Grid.periodic((16, 32), (1.0, 2.0))
    assert g.h == (1.0 / 16, 2.0 / 32)


def test_field_validation(grid64):
    with pytest.raises(DomainError):
        ScalarField(grid64, np.zeros(12))
    with pytest.raises(DomainError):
        ScalarField(grid64, None)
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
        assert _sup(g.components) < 1e-13


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
        assert _sup((div(v, d).values,)) < 1e-14


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
    assert _sup(div_tensor(t, FD2).components) < 1e-14


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
    assert _sup((lap0.values,)) < 1e-13
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
        return _sup((ScalarField(grid, div(fv, d).values
                                 - f.values * div(v, d).values
                                 - grad(f, d).components[0] * v.components[0]).values,))

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
    assert _sup(grad(f, SPECTRAL).components) < 1e-12


def test_spectral_nyquist_mode_is_dropped_on_both_axes():
    # the last axis of a real transform keeps its Nyquist bin at the end of
    # the half spectrum, the other axes in the middle; both are zeroed
    grid = Grid.periodic((64, 64))
    for axis, x in enumerate(grid.coords()):
        f = ScalarField(grid, np.cos(32.0 * x))
        assert _sup(grad(f, SPECTRAL).components) < 1e-12
        assert _sup((laplacian(f, SPECTRAL).values,)) < 1e-12
        v = VectorField(grid, tuple(f.values if a == axis else np.zeros(grid.shape)
                                    for a in range(2)))
        assert _sup((div(v, SPECTRAL).values,)) < 1e-12


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


def explicit_fd2_deriv(v, grid, axis):
    """The FD2 derivative with the ghost rule written out: np.roll, or wall rows by hand."""
    h = grid.h[axis]
    if grid.is_periodic:
        return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (v[1] - v[0]) / (2.0 * h)
    out[-1] = (v[-1] - v[-2]) / (2.0 * h)
    return out


def explicit_fd2_laplacian(v, grid):
    total = np.zeros(grid.shape)
    for axis in range(grid.dim):
        h2 = grid.h[axis] ** 2
        if grid.is_periodic:
            total += (np.roll(v, -1, axis=axis) - 2.0 * v + np.roll(v, 1, axis=axis)) / h2
        else:
            part = np.empty_like(v)
            part[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
            part[0] = (v[1] - v[0]) / h2
            part[-1] = (v[-2] - v[-1]) / h2
            total += part
    return total


def explicit_neumann_matvec(gamma, phi, h):
    """-div(gamma grad phi) in face-flux form, the zero wall fluxes written out."""
    flux = 0.5 * (gamma[1:] + gamma[:-1]) * (phi[1:] - phi[:-1]) / h
    out = np.empty_like(phi)
    out[0] = flux[0] / h
    out[1:-1] = (flux[1:] - flux[:-1]) / h
    out[-1] = -flux[-1] / h
    return -out


@pytest.mark.parametrize("grid", [
    Grid.bounded_neumann_1d(8, 1.0), Grid.bounded_neumann_1d(63, 1.0),
    Grid.bounded_neumann_1d(256, 1.0), Grid.periodic(64), Grid.periodic((48, 36))],
    ids=["bounded8", "bounded63", "bounded256", "64", "48x36"])
def test_fd2_ghost_rule_matches_explicit_wall_rows(grid):
    rng = np.random.default_rng(grid.n[0])
    f = rng.normal(size=grid.shape)
    ops = _calculus(grid, FD2)
    for axis in range(grid.dim):
        assert np.array_equal(ops._fd2_deriv(f, axis), explicit_fd2_deriv(f, grid, axis))
    lap = laplacian(ScalarField(grid, f), FD2).values
    ref = explicit_fd2_laplacian(f, grid)
    if grid.is_periodic:
        assert np.array_equal(lap, ref)
        return
    assert np.array_equal(lap[1:-1], ref[1:-1])
    # at a wall the ghost form (f[1] - 2 f[0]) + f[0] rounds its intermediate where
    # f[1] - f[0] does not: within 2 ulps of |f[1]| + 2 |f[0]|, over h^2
    tol = 2.0 * np.spacing(np.abs(f[[1, -2]]) + 2.0 * np.abs(f[[0, -1]])) / grid.h[0] ** 2
    assert np.all(np.abs(lap[[0, -1]] - ref[[0, -1]]) <= tol)
    gamma = 1.5 + rng.uniform(size=grid.shape)
    assert np.array_equal(_matvec(gamma, ops)(f),
                          explicit_neumann_matvec(gamma, f, grid.h[0]))


def take_fd2_deriv(values, grid, axis):
    """The FD2 derivative from neighbour copies: np.take of each node's next and
    previous node along ``axis``, wrapped (periodic) or clipped (walls)."""
    mode = "wrap" if grid.is_periodic else "clip"
    i, ax = np.arange(grid.n[axis]), axis - grid.dim
    d = values.take(i + 1, axis=ax, mode=mode) - values.take(i - 1, axis=ax, mode=mode)
    d /= 2.0 * grid.h[axis]
    return d


@pytest.mark.parametrize("grid", [
    Grid.bounded_neumann_1d(8, 1.0), Grid.bounded_neumann_1d(63, 2.0), Grid.periodic(8),
    Grid.periodic(64), Grid.periodic((48, 36)), Grid.periodic((33, 35))],
    ids=["bounded8", "bounded63", "8", "64", "48x36", "33x35"])
@pytest.mark.parametrize("rows", [None, 1, 3], ids=["array", "stack1", "stack3"])
def test_fd2_deriv_is_the_take_reference_and_allocates_only_its_output(grid, rows):
    # shifted slices differenced straight into the output give the bits of neighbour
    # copies; given out=, the derivative allocates only numpy's buffers for the
    # strided edge nodes (at most the edge values of its three operands) and a few
    # Python objects
    rng = np.random.default_rng(grid.n[0] + 7 * (rows or 0))
    values = rng.normal(size=grid.shape if rows is None else (rows, *grid.shape))
    before = values.tobytes()
    ops = _calculus(grid, FD2)
    for axis in range(grid.dim):
        ref = take_fd2_deriv(values, grid, axis).tobytes()
        assert ops._fd2_deriv(values, axis).tobytes() == ref
        out = np.empty_like(values)
        assert ops._fd2_deriv(values, axis, out=out) is out
        assert out.tobytes() == ref
        edges = 3 * 8 * 2 * values.size // grid.n[axis]
        assert traced_peak(lambda: ops._fd2_deriv(values, axis, out=out)) <= edges + 4096
    assert values.tobytes() == before
    with pytest.raises(ValueError):   # the flattened output must be a view
        ops._fd2_deriv(values, 0, out=np.empty((*values.shape, 2))[..., 0])


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


@pytest.mark.parametrize("grid", [
    Grid.periodic(64),
    Grid(n=(40,), length=(1.0,), boundary=BoundaryKind.BOUNDED_NEUMANN_1D),
    Grid(n=(11, 9), length=(1.0, 2.0), boundary=BoundaryKind.PERIODIC),
], ids=["periodic", "bounded", "2d"])
def test_scalar_csv_rows_match_per_value_formatting(tmp_path, grid):
    rng = np.random.default_rng(5)
    values = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-300, 300, size=grid.shape)
    values.reshape(-1)[:6] = [0.0, -0.0, 5e-324, -1e-310, 1e300, -1e-300]
    path = tmp_path / "field.csv"
    write_scalar_csv(ScalarField(grid, values), path)
    columns = [c.ravel() for c in (*grid.coords(), values)]
    expected = [",".join(f"{c[i]:.17g}" for c in columns) for i in range(values.size)]
    assert path.read_text().splitlines()[2:] == expected


@pytest.mark.parametrize("grid", [Grid.periodic(64), Grid.periodic((11, 9))], ids=["1d", "2d"])
def test_scalar_csv_rows_are_savetxt_bytes(tmp_path, grid):
    # the whole table is one % format; its bytes are np.savetxt's
    rng = np.random.default_rng(8)
    f = ScalarField(grid, rng.normal(size=grid.shape))
    path = tmp_path / "field.csv"
    write_scalar_csv(f, path)
    table = np.column_stack([c.ravel() for c in (*grid.coords(), f.values)])
    with open(tmp_path / "savetxt.csv", "w") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",")
    rows = path.read_bytes().split(b"\n", 2)[2]
    assert rows == (tmp_path / "savetxt.csv").read_bytes()
    _, values = read_scalar_csv(path)
    assert np.array_equal(values, f.values.ravel())


@pytest.mark.parametrize("shape", [(64,), (63,), (12, 9)], ids=["64", "63", "12x9"])
def test_calculus_arrays_are_cached_and_read_only(shape):
    # the grid's calculus holds i k per axis, read-only and found again by an equal
    # grid; the last axis is halved, and every even axis's Nyquist mode is zero
    ik = _calculus(Grid.periodic(shape), SPECTRAL).ik
    assert _calculus(Grid.periodic(shape), SPECTRAL).ik is ik
    for axis, (k, n) in enumerate(zip(ik, shape)):
        assert not k.flags.writeable
        assert k.size == (n // 2 + 1 if axis == len(shape) - 1 else n)
        assert (k.ravel()[n // 2] == 0.0) == (n % 2 == 0)
    # likewise the FD2 ghost indices: per axis each node's previous and next node,
    # wrapped on a periodic axis and reflected at the walls of a bounded one
    bounded = [Grid.bounded_neumann_1d(*shape)] if len(shape) == 1 else []
    for grid in [Grid.periodic(shape), *bounded]:
        ghost = _calculus(grid, FD2).ghost
        assert _calculus(Grid(grid.n, grid.length, grid.boundary), FD2).ghost is ghost
        for (prev, nxt), n in zip(ghost, grid.n):
            assert not prev.flags.writeable and not nxt.flags.writeable
            i = np.arange(n)
            edge = (n - 1, 0) if grid.is_periodic else (0, n - 1)
            assert list(prev) == [edge[0], *i[:-1]] and list(nxt) == [*i[1:], edge[1]]


def _unwritten(fn, *inputs):
    """fn(*inputs), asserting that it leaves every input's bytes as they were."""
    before = [a.tobytes() for a in inputs]
    result = fn(*inputs)
    assert [a.tobytes() for a in inputs] == before
    return result


def _transform_cases():
    rng = np.random.default_rng(7)
    for n in (64, 63):
        for rows in ((), (1,), (2,), (3,)):
            yield Grid.periodic(n), rng.standard_normal((*rows, n))
    for shape in ((32, 32), (33, 35), (48, 36)):
        for rows in ((), (2,)):
            yield Grid.periodic(shape), rng.standard_normal((*rows, *shape))


TRANSFORM_CASES = list(_transform_cases())


@pytest.mark.parametrize("grid, x", TRANSFORM_CASES,
                         ids=[f"{g.shape}-{x.shape}" for g, x in TRANSFORM_CASES])
@pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
def test_bound_transforms_are_numpy_fft_byte_for_byte(grid, x, with_out):
    # the calculus calls pocketfft's gufuncs with numpy's factors and axis order:
    # rfft/irfft of every row of a 1-D stack, rfftn/irfftn of every row of a 2-D one
    ops, shape = _calculus(grid, SPECTRAL), grid.shape
    if grid.dim == 1:
        ref_fwd = np.fft.rfft(x)
        hat = ref_fwd + 0.3j * np.random.default_rng(1).standard_normal(ref_fwd.shape)
        ref_inv = np.fft.irfft(hat, n=shape[0])
    else:
        ref_fwd = np.fft.rfftn(x, axes=(-2, -1))
        hat = ref_fwd + 0.3j * np.random.default_rng(1).standard_normal(ref_fwd.shape)
        ref_inv = np.fft.irfftn(hat, s=shape, axes=(-2, -1))
    fwd_out = np.empty_like(ref_fwd) if with_out else None
    inv_out = np.empty_like(ref_inv) if with_out else None
    fwd = _unwritten(lambda a: ops.forward(a, fwd_out), x)
    inv = _unwritten(lambda h: ops.inverse(h, inv_out), hat)
    assert fwd.dtype == ref_fwd.dtype and fwd.shape == ref_fwd.shape
    assert inv.dtype == ref_inv.dtype and inv.shape == ref_inv.shape
    assert fwd.tobytes() == ref_fwd.tobytes() and inv.tobytes() == ref_inv.tobytes()
    if with_out:
        assert fwd is fwd_out and inv is inv_out


@pytest.mark.parametrize("shape", [(32, 32), (33, 35)])
def test_2d_inverse_makes_its_axis_0_pass_in_the_workspace(shape):
    # the axis-0 pass runs in the spectrum the caller names: a workspace stack, or
    # the caller's own dead input in place; by default in a fresh array, which
    # leaves the spectrum handed in unwritten.  Every way gives numpy's bits.
    grid = Grid.periodic(shape)
    ops = _calculus(grid, SPECTRAL)
    ws = _Workspace(ops)
    hats = ops.forward(np.random.default_rng(3).standard_normal((2, *shape)))
    ref = np.fft.irfftn(hats, s=shape, axes=(-2, -1))
    fresh = _unwritten(lambda h: ops.inverse(h), hats)
    work = ws.half(2)
    named = _unwritten(lambda h: ops.inverse(h, ws.real(2), work), hats)
    assert not np.shares_memory(work, hats)
    in_place = ops.inverse(hats, work=hats)
    assert fresh.tobytes() == named.tobytes() == in_place.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(64,), (63,), (48, 36)], ids=["64", "63", "48x36"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
def test_first_derivative_symbol_is_the_derivatives_multiplier(shape, d):
    # d1 is the multiplier s of each axis's first derivative, D = i s, and the
    # symbols of -div(grad .) and of the 1-D antiderivative are read from it
    grid = Grid.periodic(shape)
    ops = _calculus(grid, d)
    f = random_band_limited(grid, np.random.default_rng(5), kmax=12)
    fh = ops.forward(f)
    for g, s in zip(grad(ScalarField(grid, f), d).components, ops.d1):
        assert np.max(np.abs(ops.forward(g) - 1j * s * fh)) < 1e-11 * np.max(np.abs(fh))
    assert np.array_equal(ops.k2, sum(s * s for s in ops.d1))
    if grid.dim == 1:
        s = ops.d1[0]
        want = np.zeros(s.shape, dtype=complex)
        want[s != 0.0] = -1j / s[s != 0.0]
        assert np.array_equal(ops.antideriv, want)
