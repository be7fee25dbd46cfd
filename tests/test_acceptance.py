"""Acceptance criteria, one test per criterion with a printed verdict.

Each criterion is evaluated at its stated tolerance; the printed line
summarizes the measured values so a failed run points at the number that
moved.  Run `pytest -s tests/test_acceptance.py` to see every line.
"""

import numpy as np

import korteweg.constitutive as law
from korteweg import (FD2, SPECTRAL, Convention, FluidParams, Grid, MixtureState,
                      ModelKind, ScalarField, StepControl, VectorField,
                      integrate, korteweg_identity_residual)
from korteweg.initial import default_corpus
from korteweg.verification import (FD2_TRIPLE, SPECTRAL_DECREASE_MIN,
                                   SPECTRAL_PAIR, check_elliptic,
                                   check_shared_capillary_structure,
                                   check_temporal_order, fit_order,
                                   residual_record, run_check_suite)

PARAMS = FluidParams()


def verdict(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def reduction_certificate(kind: ModelKind) -> tuple[bool, str]:
    corpus = default_corpus(PARAMS)
    periodic = [cs for cs in corpus if cs.boundary.value == "periodic"]
    bounded = [cs for cs in corpus if cs.boundary.value != "periodic"]
    assert len(periodic) >= 5
    worst_ratio = np.inf
    worst_order = np.inf
    keys = ("equivalence_gap", "phase_res")
    for cs in periodic:
        coarse = residual_record(cs, SPECTRAL_PAIR[0], PARAMS, kind, SPECTRAL)
        fine = residual_record(cs, SPECTRAL_PAIR[1], PARAMS, kind, SPECTRAL)
        worst_ratio = min(worst_ratio, *(coarse[k] / max(fine[k], 1e-300) for k in keys))
    for cs in periodic + bounded:
        records = [residual_record(cs, n, PARAMS, kind, FD2) for n in FD2_TRIPLE]
        worst_order = min(worst_order, *(fit_order(FD2_TRIPLE, [r[k] for r in records])
                                         for k in keys))
    ok = worst_ratio >= SPECTRAL_DECREASE_MIN and worst_order >= 1.7
    detail = (f"{len(periodic)} periodic + {len(bounded)} bounded states, "
              f"min spectral decrease x{worst_ratio:.1e} (need >= 1e2), "
              f"min FD2 order {worst_order:.2f} (need >= 1.7)")
    return ok, detail


def test_criterion_1_reduction_certificate_local_model():
    ok, detail = reduction_certificate(ModelKind.NSK1)
    verdict(1, ok, "local reduction: " + detail)


def test_criterion_2_reduction_certificate_nonlocal_model():
    ok, detail = reduction_certificate(ModelKind.NSK2)
    verdict(2, ok, "non-local reduction: " + detail)


def test_criterion_3_korteweg_rewriting_identity():
    def rho_on(n, d):
        g = Grid.periodic(n)
        return korteweg_identity_residual(
            ScalarField(g, 1.0 + 0.1 * np.sin(g.coords()[0])), PARAMS, d)

    spectral128 = rho_on(128, SPECTRAL)
    errs = [rho_on(n, FD2) for n in (64, 128, 256)]
    order = fit_order((64, 128, 256), errs)
    ok = spectral128 < 1e-8 and abs(order - 2.0) <= 0.3
    verdict(3, ok, f"spectral N=128 residual {spectral128:.2e} (< 1e-8), "
                   f"FD2 order {order:.2f} (2 +- 0.3)")


def test_criterion_4_nonlocal_operator():
    results = {r.name.split("/")[-1]: r for r in check_elliptic()}
    eig = results["periodic_eigenfunctions"]
    per = results["periodic_roundtrip"]
    neu = results["neumann_roundtrip_variable"]
    free = results["freespace_antiderivative"]
    pde = results["freespace_pde_residual"]
    ok = all(r.passed for r in (eig, per, neu, free, pde))
    verdict(4, ok,
            f"eigenfunctions {eig.measured['max_err']:.1e} (< 1e-12), "
            f"periodic roundtrip {per.measured['max_err']:.1e} (< 1e-10), "
            f"neumann roundtrip {neu.measured['max_err']:.1e} (< 1e-9), "
            f"freespace oracle {free.measured['max_err']:.1e} at quadrature order")


def test_criterion_5_constitutive_identities():
    rho = np.linspace(0.6, 2.8, 1000)
    p = PARAMS
    pivot = np.max(np.abs(law.phase_mass_density(rho, p)
                          - rho * law.phase_mass_density_drho(rho, p)
                          - 1.0 / p.delta_tau))
    c = law.concentration(rho, p)
    closure = np.max(np.abs(c * p.tau1 + (1.0 - c) * p.tau2 - 1.0 / rho))
    prefactor = np.max(np.abs(rho**2 * law.bulk_energy_drho(rho, p)
                              + (p.temperature / p.delta_tau)
                              * p.well.derivative(c)))
    step = 1e-6
    fd = (law.bulk_energy(rho + step, p) - law.bulk_energy(rho - step, p)) / (2 * step)
    rel = np.max(np.abs(fd - law.bulk_energy_drho(rho, p))
                 / np.maximum(np.abs(law.bulk_energy_drho(rho, p)), 1.0))
    ok = pivot < 1e-14 and closure < 1e-14 and prefactor < 1e-12 and rel < 1e-6
    verdict(5, ok, f"pivot {pivot:.1e} (< 1e-14), closure {closure:.1e} (< 1e-14), "
                   f"pressure prefactor {prefactor:.1e} (< 1e-12), "
                   f"derivative vs fd {rel:.1e} (< 1e-6)")


def test_criterion_6_dynamics_sanity():
    grid = Grid.periodic(32)
    state = MixtureState.from_primitive(ScalarField.constant(grid, 1.4),
                                        VectorField.zero(grid))
    control = StepControl(t_end=1e9, dt_fixed=1e-3, max_steps=1000)
    res = integrate(state, control, PARAMS, ModelKind.NSK1, None, SPECTRAL,
                    metrics=[])
    fixed_drift = float(np.max(np.abs(res.state.rho.values - 1.4)))
    masses = [m["mass"] for m in res.metrics]
    moms = [m["momentum"][0] for m in res.metrics]
    drift = max(max(abs(v - masses[0]) for v in masses),
                max(abs(v - moms[0]) for v in moms))
    temporal = check_temporal_order(PARAMS)
    ok = fixed_drift < 1e-12 and drift < 1e-12 and temporal.passed
    verdict(6, ok, f"fixed-point drift {fixed_drift:.1e} over 1000 steps (< 1e-12), "
                   f"conservation drift {drift:.1e} (< 1e-12), "
                   f"temporal order {temporal.measured['order']:.2f} (3 +- 0.3)")


def test_criterion_7_shared_capillary_structure():
    results = check_shared_capillary_structure(PARAMS)
    k_same = results[0]
    rhs_same = results[1]
    ok = k_same.passed and rhs_same.passed
    verdict(7, ok, f"capillary tensor diff {k_same.measured['max_abs_diff']:.1e} "
                   f"(bit-identical), divergence-free first-rhs diff "
                   f"{rhs_same.measured['max_abs_diff']:.1e} (bit-identical)")


def test_criterion_8_full_check_suite_both_conventions():
    report = run_check_suite(FluidParams(), include_2d=True)
    lit = run_check_suite(FluidParams(convention=Convention.LITERAL),
                          include_2d=True)
    lit_failures = [r.name for r in lit.failures]
    ok = (report.all_passed and report.wallclock < 300.0
          and lit_failures == ["constitutive/closure_consistency"]
          and lit.wallclock < 300.0)
    verdict(8, ok,
            f"consistent: {len(report.results)} checks, "
            f"{len(report.failures)} failures in {report.wallclock:.1f}s (< 300s); "
            f"literal: failures = {lit_failures} (expected exactly the closure check)")
