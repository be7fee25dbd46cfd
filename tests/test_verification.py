"""The certification check suite and its convention sensitivity."""

import json

import numpy as np
import pytest

from korteweg import SPECTRAL, Convention, FluidParams, ModelKind
from korteweg.grids import Discretization, Scheme
from korteweg.verification import (CheckReport, check_constitutive,
                                   check_shared_capillary_structure,
                                   convergence_table, fit_order)


def test_fit_order_recovers_slope():
    ns = (32, 64, 128)
    errs = [100.0 / n**2 for n in ns]
    assert abs(fit_order(ns, errs) - 2.0) < 1e-12


def test_constitutive_checks_pass_under_consistent_convention():
    results = check_constitutive(FluidParams())
    assert all(r.passed for r in results)


def test_literal_convention_fails_exactly_the_closure_check():
    results = check_constitutive(FluidParams(convention=Convention.LITERAL))
    failed = [r for r in results if not r.passed]
    assert len(failed) == 1
    assert failed[0].name == "constitutive/closure_consistency"
    assert "expected" in failed[0].note


def test_shared_capillary_checks(params):
    results = check_shared_capillary_structure(params)
    assert all(r.passed for r in results)


def test_convergence_table_orders(params):
    rows = convergence_table(params, ModelKind.NSK1,
                             Discretization(Scheme.FD2), (32, 64, 128))
    assert len(rows) == 3
    assert 1.7 <= rows[0]["momentum_rate_error_order"] <= 2.3
    rows2 = convergence_table(params, ModelKind.NSK2,
                              Discretization(Scheme.FD2), (32, 64, 128))
    assert 1.7 <= rows2[0]["momentum_rate_error_order"] <= 2.3


def test_report_serialization():
    report = CheckReport()
    results = check_constitutive(FluidParams())
    report.results += results
    doc = json.loads(json.dumps(report.to_dict(), default=float))
    assert doc["n_checks"] == len(results) and doc["n_failed"] == 0
    assert report.all_passed
    assert all("PASS" in r.line() for r in results)


# FD2 convergence rows at N = 32, 64, 128 of the certification benchmark
# (n, rho_rate_error, momentum_rate_error, rho order, momentum order)
CONVERGENCE_ROWS = {
    ModelKind.NSK1: [
        (32, 0.0015008941451150892, 0.005666347221055468),
        (64, 0.00037845195476342297, 0.0014540231877495091),
        (128, 9.488054102024801e-05, 0.00036430904503542694),
    ],
    ModelKind.NSK2: [
        (32, 0.0015008941451150892, 0.005137853411764981),
        (64, 0.00037845195476342297, 0.001293620881966412),
        (128, 9.488054102024801e-05, 0.0003239838363008618),
    ],
}
CONVERGENCE_ORDERS = {ModelKind.NSK1: (1.9917830918840127, 1.979592144894647),
                      ModelKind.NSK2: (1.9917830918840127, 1.993585992970161)}


@pytest.mark.parametrize("kind", [ModelKind.NSK1, ModelKind.NSK2], ids=["nsk1", "nsk2"])
def test_convergence_table_rows_are_pinned(kind):
    params = FluidParams(tau1=1.0, tau2=0.5, temperature=1.0, delta=0.01,
                         shear_viscosity=0.01, bulk_viscosity=0.0, mobility=1.0)
    rows = convergence_table(params, kind, Discretization(Scheme.FD2), (32, 64, 128))
    orders = CONVERGENCE_ORDERS[kind]
    for row, (n, e_rho, e_m) in zip(rows, CONVERGENCE_ROWS[kind], strict=True):
        assert row["n"] == n
        got = [row["rho_rate_error"], row["momentum_rate_error"],
               row["rho_rate_error_order"], row["momentum_rate_error_order"]]
        np.testing.assert_allclose(got, [e_rho, e_m, *orders], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("kind, resolutions", [
    (ModelKind.NSK2, (16, 32, 64)), (ModelKind.NSK1, (8, 16, 32, 64))],
    ids=["nsk2-16-64", "nsk1-8-64"])
def test_convergence_order_needs_three_rows_above_roundoff(kind, resolutions):
    # spectrally one or two errors stand above the round-off floor, the rest are
    # round-off: no order (a fit through every row read 11.9 and 13.5)
    rows = convergence_table(FluidParams(), kind, SPECTRAL, resolutions)
    assert rows[0]["momentum_rate_error"] > 1e-7 > rows[-1]["momentum_rate_error"]
    assert all(np.isnan(r[f"{key}_order"]) for r in rows
               for key in ("rho_rate_error", "momentum_rate_error"))


def test_convergence_order_is_fitted_through_the_rows_above_roundoff():
    resolutions = (8, 10, 12, 14, 16, 64)
    rows = convergence_table(FluidParams(), ModelKind.NSK1, SPECTRAL, resolutions)
    errors = [r["momentum_rate_error"] for r in rows]
    assert errors[-1] < 1e-12 < min(errors[:-1])   # N = 64 is round-off
    assert rows[0]["momentum_rate_error_order"] == fit_order(resolutions[:-1], errors[:-1])
