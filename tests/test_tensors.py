"""Stress-tensor assembly and the rewriting identity."""

import numpy as np
import pytest

import korteweg.constitutive as law
from korteweg import (FD2, SPECTRAL, DomainError, FluidParams, Grid, MixtureState,
                      ScalarField, VectorField)
from korteweg.fields import _sup
from korteweg.manufactured import ManufacturedState, TrigPoly, exact_korteweg_tensor
from korteweg.operators import div, grad
from korteweg.tensors import (augmented_cauchy_stress, cauchy_stress,
                              korteweg_identity_residual, korteweg_tensor,
                              nonlocal_cauchy_stress, phase_stress, strain)


def interior(values, width=2):
    return values[width:-width] if values.ndim == 1 else values[width:-width, width:-width]


def test_strain_of_linear_field_interior():
    # u = (x, -y) wraps discontinuously; centered differences are exact
    # away from the wrap seam (the first and last node in each axis)
    grid = Grid.periodic((32, 32))
    x, y = grid.coords()
    u = VectorField(grid, (x.copy(), -y.copy()))
    d = strain(u, FD2)
    assert np.max(np.abs(interior(d.components[0]) - 1.0)) < 1e-13
    assert np.max(np.abs(interior(d.components[2]) + 1.0)) < 1e-13
    assert np.max(np.abs(interior(d.components[1]))) < 1e-13


def test_strain_of_rigid_rotation_vanishes():
    grid = Grid.periodic((32, 32))
    x, y = grid.coords()
    u = VectorField(grid, (-y.copy(), x.copy()))
    d = strain(u, FD2)
    assert np.max(np.abs(interior(d.components[1]))) < 1e-13
    assert np.max(np.abs(interior(d.components[0]))) < 1e-13


def test_strain_of_sine_velocity():
    grid = Grid.periodic((48, 48))
    x, _ = grid.coords()
    u = VectorField(grid, (np.sin(x), np.zeros(grid.shape)))
    d = strain(u, SPECTRAL)
    assert np.max(np.abs(d.components[0] - np.cos(x))) < 1e-12
    assert np.max(np.abs(d.components[1])) < 1e-12


def test_cauchy_stress_basics(params):
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    zero = cauchy_stress(VectorField.zero(grid), params, SPECTRAL)
    assert _sup(zero.components) == 0.0
    p1 = FluidParams(shear_viscosity=1.0, bulk_viscosity=0.0)
    s = cauchy_stress(VectorField(grid, (np.sin(x),)), p1, SPECTRAL)
    assert np.max(np.abs(s.components[0] - 2.0 * np.cos(x))) < 1e-12


def test_cauchy_stress_trace_of_divergence_free_field(params):
    grid = Grid.periodic((48, 48))
    x, y = grid.coords()
    u = VectorField(grid, (-np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)))
    s = cauchy_stress(u, params, SPECTRAL)
    assert np.max(np.abs(s.components[0] + s.components[2])) < 1e-12


def test_phase_stress_constant_concentration(params):
    grid = Grid.periodic(48)
    x = grid.coords()[0]
    p = ScalarField(grid, np.sin(x))
    c = ScalarField.constant(grid, 0.3)
    rho = ScalarField.constant(grid, 1.5)
    t = phase_stress(c, p, rho, params, SPECTRAL)
    assert np.max(np.abs(t.components[0] + p.values)) < 1e-12
    with pytest.raises(DomainError):
        phase_stress(c, p, ScalarField.constant(grid, -1.0), params, SPECTRAL)


def test_phase_stress_matches_capillarity_form_at_scheme_order(params):
    # with c = c(rho) and p = 0, the gradient part equals
    # capillarity(rho) * grad rho (x) grad rho up to the discrete chain rule
    def defect(n):
        grid = Grid.periodic(n)
        x = grid.coords()[0]
        rho = ScalarField(grid, 1.0 + 0.1 * np.sin(x))
        c = ScalarField(grid, law.concentration(rho.values, params))
        zero = ScalarField.constant(grid, 0.0)
        assembled = phase_stress(c, zero, rho, params, FD2)
        gr = grad(rho, FD2).components[0]
        kappa_form = -law.capillarity(rho.values, params) * gr * gr
        return np.max(np.abs(assembled.components[0] - kappa_form))

    assert 3.5 < defect(64) / defect(128) < 4.5


def test_korteweg_tensor_constant_density(params):
    grid = Grid.periodic(48)
    rho0 = 1.3
    k = korteweg_tensor(ScalarField.constant(grid, rho0), params, FD2)
    expected = -rho0**2 * law.bulk_energy_drho(rho0, params)
    assert np.max(np.abs(k.components[0] - expected)) < 1e-13
    nowell = FluidParams(well=law.DoubleWell(scale=0.0))
    k0 = korteweg_tensor(ScalarField.constant(grid, rho0), nowell, FD2)
    assert _sup(k0.components) == 0.0
    with pytest.raises(DomainError):
        korteweg_tensor(ScalarField.constant(grid, -0.1), params, FD2)


def test_korteweg_tensor_against_symbolic_oracle(params):
    exact = ManufacturedState(rho=TrigPoly(1.0, sin=(0.1,)))
    oracle = exact_korteweg_tensor(exact, params)[0]

    def err(n, d):
        grid = Grid.periodic(n)
        xv = grid.coords()[0]
        k = korteweg_tensor(ScalarField(grid, 1.0 + 0.1 * np.sin(xv)), params, d)
        return np.max(np.abs(k.components[0] - oracle(xv)))

    assert err(128, SPECTRAL) < 1e-10
    assert 3.5 < err(128, FD2) / err(256, FD2) < 4.5


class ShiftedWell(law.DoubleWell):
    """A double well that is not the quartic: the closed form must call W'."""

    def value(self, c):
        return self.scale * (c * c - 0.25) ** 2

    def derivative(self, c):
        return self.scale * 4.0 * c * (c * c - 0.25)


def public_law_korteweg(rho, params, d):
    """-rho^2 psi_rho I + rho div(kappa grad rho) I - kappa grad rho (x) grad rho from
    the public laws and operators: the Dunn-Serrin chain, not the closed form."""
    r = rho.values
    g = grad(rho, d).components
    kap = law.capillarity(r, params)
    diag = -r * r * law.helmholtz_energy_drho(r, sum(c * c for c in g), params) \
        + r * div(VectorField(rho.grid, tuple(kap * c for c in g)), d).values
    outer = [kap * g[i] * g[j] for i in range(len(g)) for j in range(i, len(g))]
    return [c + diag if i in (0, len(outer) - 1) else c
            for i, c in enumerate(-o for o in outer)]


@pytest.mark.parametrize("shape", [(64,), (63,), (48, 36)], ids=["64", "63", "48x36"])
@pytest.mark.parametrize("d", [SPECTRAL, FD2], ids=["spectral", "fd2"])
@pytest.mark.parametrize("params", [
    FluidParams(), FluidParams(convention=law.Convention.LITERAL),
    FluidParams(well=ShiftedWell(1.3), tau1=0.8, tau2=0.55)],
    ids=["consistent", "literal", "other-well"])
def test_closed_form_korteweg_matches_the_public_law_assembly(shape, d, params):
    # rho^2 c'(rho) = -1/delta_tau under either convention, so the kernel's closed
    # form equals the Dunn-Serrin assembly up to round-off
    grid = Grid.periodic(shape)
    xs = grid.coords()
    rho = ScalarField(grid, 1.5 + 0.2 * np.cos(xs[0]) + 0.1 * np.sin(3.0 * xs[-1]))
    k = korteweg_tensor(rho, params, d).components
    ref = public_law_korteweg(rho, params, d)
    scale = max(float(np.max(np.abs(c))) for c in ref)
    assert len(k) == len(ref)
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(k, ref)) <= 1e-13 * scale


def test_augmented_stress_relations(params):
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    rho = ScalarField(grid, 1.2 + 0.2 * np.sin(x))
    u = VectorField(grid, (0.3 * np.sin(x),))
    zero_u = VectorField.zero(grid)
    assert _sup(augmented_cauchy_stress(zero_u, rho, params, SPECTRAL).components) == 0.0
    s = cauchy_stress(u, params, SPECTRAL)
    s_aug = augmented_cauchy_stress(u, rho, params, SPECTRAL)
    divu = div(u, SPECTRAL).values
    expected = (params.delta_star / (np.sqrt(params.delta) * rho.values)) * divu
    assert np.max(np.abs(s_aug.components[0] - s.components[0] - expected)) < 1e-13
    # divergence-free u (constant): the augmented term is absent
    const_u = VectorField(grid, (np.full(grid.shape, 0.4),))
    sa = augmented_cauchy_stress(const_u, rho, params, FD2)
    sc = cauchy_stress(const_u, params, FD2)
    assert np.array_equal(sa.components[0], sc.components[0])


def test_nonlocal_stress_relations(params):
    grid = Grid.periodic(64)
    x = grid.coords()[0]
    u = VectorField(grid, (np.sin(x),))
    zero = ScalarField.constant(grid, 0.0)
    s = cauchy_stress(u, params, SPECTRAL)
    s_plain = nonlocal_cauchy_stress(u, zero, params, SPECTRAL)
    assert np.max(np.abs(s_plain.components[0] - s.components[0])) == 0.0
    assert _sup(nonlocal_cauchy_stress(VectorField.zero(grid), zero,
                                       params, SPECTRAL).components) == 0.0
    # eigenfunction: the inverse-elliptic image of div(sin x) is cos x
    from korteweg.elliptic import Mobility, invert_periodic
    nl = invert_periodic(Mobility(1.0), div(u, SPECTRAL), SPECTRAL)
    s_g = nonlocal_cauchy_stress(u, nl, params, SPECTRAL)
    scale = params.temperature / params.delta_tau**2
    assert np.max(np.abs(s_g.components[0] - s.components[0]
                         - scale * np.cos(x))) < 1e-12


def test_korteweg_identity_residual(params):
    grid = Grid.periodic(64)
    assert korteweg_identity_residual(ScalarField.constant(grid, 1.5),
                                      params, FD2) == 0.0
    assert korteweg_identity_residual(ScalarField.constant(grid, 1.5),
                                      params, SPECTRAL) < 1e-12

    def rho_on(n):
        g = Grid.periodic(n)
        return ScalarField(g, 1.0 + 0.1 * np.sin(g.coords()[0]))

    assert korteweg_identity_residual(rho_on(128), params, SPECTRAL) < 1e-8
    ratio = korteweg_identity_residual(rho_on(128), params, FD2) \
        / korteweg_identity_residual(rho_on(256), params, FD2)
    assert 3.5 < ratio < 4.5


def test_momentum_flux_equivalence_pointwise_tensor(params):
    # the assembled full-model and reduced-model fluxes agree up to the
    # discrete chain rule; refinement halves the gap by ~4 in FD2
    from korteweg.models import ModelKind, momentum_equivalence_gap

    def gap(n):
        g = Grid.periodic(n)
        xv = g.coords()[0]
        st = MixtureState.from_primitive(
            ScalarField(g, 1.5 + 0.3 * np.tanh(2.5 * np.cos(xv)) / np.tanh(2.5)),
            VectorField(g, (0.05 * np.sin(xv),)))
        return momentum_equivalence_gap(st, params, ModelKind.NSK1, None, FD2)

    assert 3.4 < gap(128) / gap(256) < 4.6
