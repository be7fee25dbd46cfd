"""Scalar constitutive laws: closures, energies, and their derivatives."""

import numpy as np
import pytest

import korteweg.constitutive as law
from korteweg import ConfigError, Convention, DomainError, DoubleWell, FluidParams


def make_params(**kw):
    base = dict(tau1=1.0, tau2=0.5, temperature=1.0, delta=1e-2)
    base.update(kw)
    return FluidParams(**base)


def test_params_validation():
    with pytest.raises(ConfigError):
        make_params(tau2=1.0)  # equal specific volumes
    with pytest.raises(ConfigError):
        make_params(tau1=-1.0)
    with pytest.raises(ConfigError):
        make_params(temperature=0.0)
    with pytest.raises(ConfigError):
        make_params(mobility=0.0)
    p = make_params(bulk_viscosity=-0.015)
    p.validate_for_dim(1)  # -0.015 + 0.02 >= 0
    with pytest.raises(ConfigError):
        p.validate_for_dim(2)  # -0.015 + 0.01 < 0


def test_derived_constants():
    p = make_params()
    assert p.delta_tau == 0.5
    assert abs(p.delta_star - 0.04) < 1e-16
    assert p.delta_star > 0.0
    assert p.pure_phase_densities() == (1.0, 2.0)


def test_double_well_shape():
    w = DoubleWell()
    assert w.value(0.0) == 0.0 and w.value(1.0) == 0.0
    assert w.derivative(0.0) == 0.0 and w.derivative(1.0) == 0.0
    c = np.linspace(-0.5, 1.5, 101)
    assert np.all(w.value(c) >= 0.0)
    assert DoubleWell(scale=0.0).value(0.3) == 0.0  # disabled well is allowed
    with pytest.raises(ConfigError):
        DoubleWell(scale=-1.0)


def test_gibbs_energy_values():
    p = make_params()
    assert law.gibbs_energy(0.0, 0.0, 0.0, p) == 0.0
    assert law.gibbs_energy(2.0, 1.0, 0.0, p) == 2.0  # tau1 * p at c = 1
    # frozen from direct evaluation: 0.75 + W(0.5) + 0.02 = 0.8325
    val = law.gibbs_energy(1.0, 0.5, 4.0, p)
    assert abs(val - 0.8325) < 1e-15


def test_concentration_conventions():
    p = make_params()
    assert abs(law.concentration(1.0, p) - 1.0) < 1e-15  # 1/rho = tau1
    assert abs(law.concentration(2.0, p)) < 1e-15        # 1/rho = tau2
    lit = make_params(convention=Convention.LITERAL)
    assert abs(law.concentration(1.0, lit)) < 1e-15
    with pytest.raises(DomainError):
        law.concentration(-1.0, p)
    with pytest.raises(DomainError):
        law.concentration(np.array([1.0, 0.0]), p)


@pytest.mark.parametrize("convention", [Convention.CONSISTENT, Convention.LITERAL])
def test_pivot_identity_both_conventions(convention):
    p = make_params(convention=convention)
    rho = np.linspace(0.6, 2.8, 1000)
    defect = law.phase_mass_density(rho, p) - rho * law.phase_mass_density_drho(rho, p)
    assert np.max(np.abs(defect - 1.0 / p.delta_tau)) < 1e-14


def test_phase_mass_density_values():
    p = make_params()
    assert abs(law.phase_mass_density(1.0, p) - 1.0) < 1e-15
    assert np.all(law.phase_mass_density_drho(np.array([0.7, 1.3, 2.1]), p) == -1.0)
    # oracle: centered finite difference of rho * c(rho)
    step = 1e-6
    fd = (law.phase_mass_density(1.3 + step, p)
          - law.phase_mass_density(1.3 - step, p)) / (2 * step)
    assert abs(fd - (-1.0)) < 1e-9


def test_closure_consistency_is_convention_dependent():
    rho = np.linspace(0.6, 2.8, 500)
    p = make_params()
    c = law.concentration(rho, p)
    assert np.max(np.abs(c * p.tau1 + (1 - c) * p.tau2 - 1.0 / rho)) < 1e-14
    lit = make_params(convention=Convention.LITERAL)
    c2 = law.concentration(rho, lit)
    defect = np.max(np.abs(c2 * lit.tau1 + (1 - c2) * lit.tau2 - 1.0 / rho))
    assert abs(defect - abs(lit.delta_tau)) < 1e-12  # off by the constant -1 * delta_tau


def test_bulk_energy_and_prefactor_identity():
    p = make_params()
    assert law.bulk_energy(1.0, p) == 0.0  # W(1) = 0 at the pure phase
    # frozen: c(4/3) = 0.5, R = theta * W(0.5) = 0.0625
    assert abs(law.bulk_energy(4.0 / 3.0, p) - 0.0625) < 1e-15
    rho = np.linspace(0.6, 2.8, 1000)
    defect = rho**2 * law.bulk_energy_drho(rho, p) \
        + (p.temperature / p.delta_tau) * p.well.derivative(law.concentration(rho, p))
    assert np.max(np.abs(defect)) < 1e-12


def test_capillarity_values():
    p = make_params()
    assert abs(law.capillarity(1.0, p) - 0.04) < 1e-16
    assert abs(law.capillarity(2.0, p) - 0.005) < 1e-17
    rho = np.linspace(0.5, 3.0, 50)
    assert np.max(np.abs(rho**2 * law.capillarity(rho, p) - p.delta_star / rho)) < 1e-15


def test_helmholtz_energy_and_partial():
    p = make_params()
    assert law.helmholtz_energy(1.3, 0.0, p) == law.bulk_energy(1.3, p)
    assert law.helmholtz_energy_drho(1.3, 0.0, p) == law.bulk_energy_drho(1.3, p)
    # gradient part at rho = 1: (delta_star / 2) * grad_rho_sq
    grad_part = law.helmholtz_energy(1.0, 2.0, p) - law.bulk_energy(1.0, p)
    assert abs(grad_part - 0.04) < 1e-16
    # oracle: centered finite difference in rho at fixed |grad rho|^2
    step = 1e-5
    for rho in (0.8, 1.3, 2.2):
        fd = (law.helmholtz_energy(rho + step, 2.0, p)
              - law.helmholtz_energy(rho - step, 2.0, p)) / (2 * step)
        exact = law.helmholtz_energy_drho(rho, 2.0, p)
        assert abs(fd - exact) / max(abs(exact), 1.0) < 1e-8


def test_augmented_bulk_viscosity():
    p = make_params(bulk_viscosity=0.1)
    assert abs(law.augmented_bulk_viscosity(2.0, p) - 0.3) < 1e-15
    tiny = make_params(temperature=1e-300, bulk_viscosity=0.1)
    assert abs(law.augmented_bulk_viscosity(1.0, tiny) - 0.1) < 1e-12
    rho = np.linspace(0.5, 3.0, 50)
    assert np.all(law.augmented_bulk_viscosity(rho, p) > p.bulk_viscosity)


DENSITY_LAWS = ("concentration", "concentration_drho", "phase_mass_density",
                "phase_mass_density_drho", "bulk_energy", "bulk_energy_drho",
                "bulk_energy_d2rho", "capillarity", "helmholtz_energy",
                "helmholtz_energy_drho", "augmented_bulk_viscosity")


def density_law(name, rho, p):
    """The public law ``name`` at rho; the Helmholtz laws at |grad rho|^2 = 2."""
    fn = getattr(law, name)
    return fn(rho, 2.0, p) if name.startswith("helmholtz") else fn(rho, p)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.array([1.0, 0.0]), np.array([1.5, -2.0])],
                         ids=["zero", "negative", "array-zero", "array-negative"])
@pytest.mark.parametrize("name", DENSITY_LAWS)
def test_public_density_laws_reject_nonpositive_density(name, rho):
    with pytest.raises(DomainError):
        density_law(name, rho, make_params())


@pytest.mark.parametrize("convention", [Convention.CONSISTENT, Convention.LITERAL])
@pytest.mark.parametrize("name", DENSITY_LAWS)
def test_kernels_match_public_laws(name, convention):
    # the hot path calls the unchecked kernels on one _Density per state;
    # the public, checked laws are the reference
    p = make_params(bulk_viscosity=0.1, well=DoubleWell(scale=0.7), convention=convention)
    rho = np.linspace(0.3, 4.0, 257)
    dn = law._density(rho, p)
    if name == "concentration":
        got = dn.c
    else:
        kernel = getattr(law, f"_{name}")
        got = kernel(dn, 2.0, p) if name.startswith("helmholtz") else kernel(dn, p)
    assert np.array_equal(got, density_law(name, rho, p))


def test_derivatives_match_finite_differences():
    p = make_params()
    rho = np.linspace(0.7, 2.5, 200)
    step = 1e-6
    pairs = [
        (lambda r: law.bulk_energy(r, p), lambda r: law.bulk_energy_drho(r, p)),
        (lambda r: law.bulk_energy_drho(r, p), lambda r: law.bulk_energy_d2rho(r, p)),
    ]
    for fn, dfn in pairs:
        fd = (fn(rho + step) - fn(rho - step)) / (2 * step)
        rel = np.abs(fd - dfn(rho)) / np.maximum(np.abs(dfn(rho)), 1.0)
        assert np.max(rel) < 1e-6


def test_density_window_warning(caplog):
    p = make_params()
    lo, hi = law.admissible_density_window(p)
    assert lo == 0.5 and hi == 3.0
    with caplog.at_level("WARNING"):
        assert law.warn_outside_window(np.array([0.4, 1.0]), p)
    assert "admissible window" in caplog.text
    assert not law.warn_outside_window(np.array([1.0, 2.0]), p)
