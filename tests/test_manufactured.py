"""The exact manufactured oracle: pinned values, independence, and no sympy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import korteweg.manufactured as manufactured
from korteweg import ConfigError, FluidParams, Grid, ModelKind
from korteweg.constitutive import Convention, DoubleWell
from korteweg.manufactured import (ManufacturedState, TrigPoly, exact_korteweg_tensor,
                                   exact_pressure, exact_rhs)

ROOT = Path(__file__).resolve().parents[1]

# the state of the convergence tables
STATE = ManufacturedState(rho=TrigPoly(1.5, sin=(0.2,)),
                          u=TrigPoly(cos=(0.0, 0.02), sin=(0.05,)))
PARAMS = {
    "default": FluidParams(),
    "literal": FluidParams(convention=Convention.LITERAL),
    "bulk_well": FluidParams(bulk_viscosity=0.05, well=DoubleWell(scale=2.0)),
}
NODES = (3, 11, 24)   # node indices on Grid.periodic(32)

# Values of the earlier symbolic (sympy, lambdified) oracle at NODES, gamma0 = 1.
PINNED = {
    "default": {
        "rhs_nsk1_drho": (-0.013332763140424695, -0.011522061297552762, 2.847303808017596e-17),
        "rhs_nsk1_dm": (0.03272014910482801, 0.009483871447535453, 0.04259999999999991),
        "rhs_nsk2_drho": (-0.013332763140424695, -0.011522061297552762, 2.847303808017596e-17),
        "rhs_nsk2_dm": (-0.09439263050065455, -0.12371157092204764, 0.28259999999999996),
        "korteweg": (0.37661891835959993, 0.38143323932011636, -0.0717341829767863),
        "pressure_nsk1": (-0.3780300335188074, -0.3837428766110187, 0.07173418297678631),
        "pressure_nsk2": (-0.5062221645243794, -0.30738111792222894, 0.07173418297678635),
    },
    "literal": {
        "rhs_nsk1_drho": (-0.013332763140424695, -0.011522061297552762, 2.847303808017596e-17),
        "rhs_nsk1_dm": (-4.63302507282724, 3.0819083314288886, 0.042600000000000866),
        "rhs_nsk2_drho": (-0.013332763140424695, -0.011522061297552762, 2.847303808017596e-17),
        "rhs_nsk2_dm": (-4.760137852432723, 2.948712889059306, 0.2826000000000009),
        "korteweg": (-13.435591861985557, -14.968260552921235, -5.184160218479748),
        "pressure_nsk1": (13.43418074682635, 14.965950915630334, 5.184160218479748),
        "pressure_nsk2": (13.305988615820777, 15.042312674319122, 5.184160218479748),
    },
    "bulk_well": {
        "rhs_nsk1_drho": (-0.013332763140424695, -0.011522061297552762, 2.847303808017596e-17),
        "rhs_nsk1_dm": (0.08037887996729359, 0.021432750500734416, 0.04909999999999982),
        "rhs_nsk2_drho": (-0.013332763140424695, -0.011522061297552762, 2.847303808017596e-17),
        "rhs_nsk2_dm": (-0.04673389963818895, -0.11176269186884867, 0.2890999999999998),
        "korteweg": (0.7554791330501848, 0.7654756703967177, -0.14820209376422347),
        "pressure_nsk1": (-0.7568902482093921, -0.76778530768762, 0.14820209376422347),
        "pressure_nsk2": (-0.8850823792149642, -0.6914235489988302, 0.14820209376422352),
    },
}


def oracle_values(params: FluidParams, x) -> dict:
    out = {}
    for kind in (ModelKind.NSK1, ModelKind.NSK2):
        drho, dm = exact_rhs(STATE, params, kind, gamma0=1.0)
        out[f"rhs_{kind.value}_drho"] = drho(x)
        out[f"rhs_{kind.value}_dm"] = dm[0](x)
    out["korteweg"] = exact_korteweg_tensor(STATE, params)[0](x)
    out["pressure_nsk1"] = exact_pressure(STATE, params, ModelKind.NSK1)(x)
    out["pressure_nsk2"] = exact_pressure(STATE, params, ModelKind.NSK2, gamma0=1.0)(x)
    return out


@pytest.mark.parametrize("name", PINNED)
def test_oracle_matches_the_pinned_symbolic_values(name):
    x = Grid.periodic(32).coords()[0]
    got = oracle_values(PARAMS[name], x)
    assert got.keys() == PINNED[name].keys()
    for key, expected in PINNED[name].items():
        assert got[key].shape == x.shape
        np.testing.assert_allclose(got[key][list(NODES)], expected, rtol=0.0, atol=1e-13,
                                   err_msg=key)


def test_state_evaluates_its_trigonometric_polynomials():
    x = Grid.periodic(32).coords()[0]
    assert np.array_equal(STATE.rho(x), 1.5 + 0.2 * np.sin(x))
    assert np.array_equal(STATE.u(x), 0.05 * np.sin(x) + 0.02 * np.cos(2.0 * x))
    assert np.array_equal(STATE.u.derivative()(x), 0.05 * np.cos(x) - 0.04 * np.sin(2.0 * x))


def test_nonlocal_oracle_needs_a_constant_mobility(params):
    with pytest.raises(ConfigError, match="constant mobility"):
        exact_rhs(STATE, params, ModelKind.NSK2)
    with pytest.raises(ConfigError, match="constant mobility"):
        exact_pressure(STATE, params, ModelKind.NSK2)


def test_oracle_borrows_no_function_of_the_checked_code():
    # only the parameter and model types come from the package
    borrowed = {name for name, obj in vars(manufactured).items()
                if getattr(obj, "__module__", "").startswith("korteweg.")
                and obj.__module__ != manufactured.__name__}
    assert borrowed == {"Convention", "FluidParams", "ModelKind", "ConfigError"}


def test_convergence_tables_never_import_sympy():
    code = ("import sys\n"
            "import korteweg.manufactured, korteweg.verification\n"
            "from korteweg import FD2, FluidParams, ModelKind\n"
            "for kind in (ModelKind.NSK1, ModelKind.NSK2):\n"
            "    korteweg.verification.convergence_table(FluidParams(), kind, FD2, (32, 64, 128))\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
