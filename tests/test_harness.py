"""Run configs, snapshots, metrics, CLI subcommands, and exit codes."""

import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

import korteweg.elliptic
import korteweg.harness
import korteweg.timestepping
from korteweg import ConfigError, DomainError, SolverError, StateError, StepControl, integrate
from korteweg.cli import main
from korteweg.fields import read_scalar_csv
from korteweg.harness import config_from_dict, load_config, run_simulation

BASE_CONFIG = {
    "grid": {"n": [64], "length": [6.283185307179586], "boundary": "periodic"},
    "scheme": "spectral",
    "model": "nsk1",
    "params": {"tau1": 1.0, "tau2": 0.5, "temperature": 1.0, "delta": 0.01,
               "shear_viscosity": 0.01, "bulk_viscosity": 0.0, "mobility": 1.0,
               "well_scale": 1.0, "convention": "consistent"},
    "mobility": {"kind": "constant", "value": 1.0},
    "initial": {"family": "constant", "rho0": 1.5},
    "step": {"t_end": 0.05, "dt_max": 1e-3},
    "output": {"snapshot_every": 0, "metrics_every": 10},
    "seed": 0,
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in doc:
            doc[key].update(val)
        else:
            doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_config_validation_happens_before_compute(tmp_path):
    bad = write_config(tmp_path, grid={"n": [64], "length": [1.0],
                                       "boundary": "bounded_neumann_1d"},
                       scheme="spectral")
    with pytest.raises(ConfigError):
        load_config(bad)
    assert main(["run", str(bad)]) == 2
    with pytest.raises(ConfigError):
        config_from_dict({"grid": {"n": [64]}})
    with pytest.raises(ConfigError):
        config_from_dict({**BASE_CONFIG, "model": "not_a_model"})
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2


@pytest.mark.parametrize("section, entry, options", [
    ("params", "convention", "'consistent', 'literal'"),
    ("initial", "family", "'constant', 'sine_density', 'tanh_interface', 'random_band'"),
    ("mobility", "kind", "'constant', 'cosine'"),
    ("grid", "boundary", "'periodic', 'bounded_neumann_1d'"),
    (None, "scheme", "'spectral', 'fd2'"),
    (None, "model", "'nsk1', 'nsk2'"),
])
def test_invalid_choice_names_its_entry(section, entry, options):
    doc = json.loads(json.dumps(BASE_CONFIG))
    (doc[section] if section else doc)[entry] = "bogus"
    name = f"{section}.{entry}" if section else entry
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert str(err.value) == f"{name} must be one of {options}, got 'bogus'"


NEUMANN_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "nsk2_neumann.json"
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("keys, value", [
    (("params",), None), (("mobility",), "x"), (("initial",), [1.0]), (("step",), 1.5),
    (("output",), []),
    (("mobility", "base"), "x"), (("mobility", "base"), None), (("mobility", "base"), [1.0]),
    (("mobility", "amplitude"), {}), (("mobility", "mode"), None), (("mobility", "mode"), 1.5),
    (("initial", "rho0"), [1, 2]), (("initial", "amplitude"), "x"),
    (("initial", "velocity_amplitude"), NAN), (("initial", "mode"), "x"),
    (("params", "tau1"), True), (("params", "delta"), INF), (("params", "mobility"), "x"),
    (("step", "t_end"), NAN), (("step", "t_end"), INF), (("step", "dt_fixed"), "x"),
    (("step", "dt_fixed"), 0.0), (("step", "dt_fixed"), -1e-3),
    (("output", "snapshot_every"), None), (("output", "metrics_every"), [1.0]),
    (("grid", "n"), [128.5]), (("grid", "length"), [NAN]), (("dealias",), "x"),
    (("dealias",), True), (("seed",), 0.5), (("seed",), -1),
    (("output", "metrics_every"), 0), (("output", "snapshot_every"), -1),
    (("step", "tend"), 5), (("step", "max_steps"), 5), (("grid", "dim"), 1),
    (("params", "well"), 1.0), (("modle",), "nsk1"),
], ids=lambda v: repr(v))
def test_malformed_config_is_a_config_error(tmp_path, keys, value):
    doc = json.loads(NEUMANN_CONFIG.read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 2
    assert json.loads((tmp_path / "out" / "failure.json").read_text())["error"] == "ConfigError"
    # validated before any allocation: the failure record is the only output
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["failure.json"]


def test_negative_seed_override_is_a_config_error(tmp_path):
    path = write_config(tmp_path, initial={"family": "random_band", "rho0": 1.5,
                                           "amplitude": 0.05, "kmax": 4})
    assert main(["run", str(path), "--quiet", "--seed", "-1"]) == 2


def test_config_hash_is_stable(tmp_path):
    cfg = load_config(write_config(tmp_path))
    cfg2 = load_config(write_config(tmp_path, name="other.json"))
    assert cfg.config_hash() == cfg2.config_hash()
    cfg3 = load_config(write_config(tmp_path, name="third.json",
                                    step={"t_end": 0.06}))
    assert cfg.config_hash() != cfg3.config_hash()


def test_constant_state_run_is_a_fixed_point(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, step={"t_end": 0.1, "dt_fixed": 1e-3},
                        output={"dir": str(out), "snapshot_every": 0,
                                "metrics_every": 100})
    assert main(["run", str(path), "--quiet"]) == 0
    snaps = sorted(out.glob("snap_*_rho.csv"))
    assert snaps
    _, values = read_scalar_csv(snaps[-1])
    assert np.max(np.abs(values - 1.5)) < 1e-12
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 100


def test_sine_run_completes_with_conserved_mass(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        grid={"n": [128], "length": [6.283185307179586], "boundary": "periodic"},
        initial={"family": "sine_density", "rho0": 1.5, "amplitude": 0.1,
                 "velocity_amplitude": 0.02},
        step={"t_end": 0.1},
        output={"dir": str(out), "metrics_every": 1})
    assert main(["run", str(path), "--quiet"]) == 0
    lines = (out / "metrics.jsonl").read_text().strip().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(l) for l in lines[1:]]
    assert "config" in header
    masses = [r["mass"] for r in records]
    assert max(abs(m - masses[0]) for m in masses) < 1e-12
    assert records[-1]["t"] >= 0.1 - 1e-12


def test_runs_are_bit_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    path = write_config(
        tmp_path,
        initial={"family": "random_band", "rho0": 1.5, "amplitude": 0.05,
                 "velocity_amplitude": 0.02, "kmax": 4},
        step={"t_end": 0.02},
        seed=123)
    assert main(["run", str(path), "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", str(path), "--out", str(out_b), "--quiet"]) == 0
    snaps_a = sorted(p.name for p in out_a.glob("snap_*.csv"))
    assert snaps_a
    for name in snaps_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_failed_run_emits_machine_readable_record(tmp_path, capsys):
    out = tmp_path / "out"
    # force a stiffness abort through an unreachable dt_min
    path = write_config(tmp_path,
                        initial={"family": "sine_density", "rho0": 1.5,
                                 "amplitude": 0.1},
                        step={"t_end": 1.0, "dt_min": 0.5, "dt_max": 1.0},
                        output={"dir": str(out)})
    code = main(["run", str(path), "--quiet"])
    assert code == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "StateError"
    assert "stiffness" in record["message"]
    assert record["step"] == 1 and record["t"] == 0.0 and "dt" not in record


def test_overflow_in_a_step_is_a_numeric_failure(tmp_path):
    # the initial state is finite; its momentum flux overflows in the first step
    out = tmp_path / "out"
    path = write_config(tmp_path,
                        initial={"family": "sine_density", "velocity_amplitude": 1e160},
                        step={"t_end": 0.05, "dt_fixed": 1e-3},
                        output={"dir": str(out)})
    with pytest.raises(StateError) as info, np.errstate(over="ignore", invalid="ignore"):
        run_simulation(load_config(path), quiet=True)
    exc = info.value
    assert (exc.step, exc.t, exc.dt) == (1, 0.0, 1e-3)
    assert exc.state.t == 0.0 and np.all(np.isfinite(exc.state.m.components[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(path), "--quiet"]) == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "StateError"
    assert "non-finite" in record["message"]
    assert record["step"] == 1 and record["t"] == 0.0 and record["dt"] == 1e-3
    assert not (out / "summary.json").exists()


def test_density_floor_in_a_step_is_a_numeric_failure(tmp_path):
    # a fast flow pushes the density below its floor inside a fixed step
    out = tmp_path / "out"
    path = write_config(tmp_path, grid={"n": [128]},
                        initial={"family": "sine_density", "rho0": 1.5, "amplitude": 0.3,
                                 "velocity_amplitude": 2.0},
                        step={"t_end": 0.2, "dt_fixed": 0.02},
                        output={"dir": str(out)})
    with pytest.raises(StateError) as info:
        run_simulation(load_config(path), quiet=True)
    exc = info.value
    assert exc.step >= 1 and exc.dt == 0.02
    assert exc.state.t == exc.t and np.min(exc.state.rho.values) > 0.0
    assert main(["run", str(path), "--quiet"]) == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "StateError"
    assert "density fell" in record["message"]
    assert (record["step"], record["t"], record["dt"]) == (exc.step, exc.t, 0.02)
    assert not (out / "summary.json").exists()
    # the last good state lies beside failure.json, bit for bit
    assert record["state_files"] == ["last_good_rho.csv", "last_good_m0.csv"]
    for name, values in zip(record["state_files"], (exc.state.rho.values,
                                                    *exc.state.m.components), strict=True):
        meta, read = read_scalar_csv(out / name)
        assert meta["n"] == "128" and np.array_equal(read, values)


def test_solver_failure_in_a_step_is_a_numeric_failure(tmp_path, monkeypatch):
    # a variable-mobility CG solve (2-D; 1-D solves are direct) that cannot meet
    # a zero tolerance fails the first step
    monkeypatch.setattr(korteweg.elliptic, "SOLVE_RTOL", 0.0)
    out = tmp_path / "out"
    path = write_config(tmp_path, grid={"n": [8, 8], "length": [2.0 * np.pi] * 2},
                        model="nsk2",
                        mobility={"kind": "cosine", "base": 2.0, "amplitude": 1.0, "mode": 1},
                        initial={"family": "sine_density", "rho0": 1.5, "amplitude": 0.05,
                                 "velocity_amplitude": 0.02},
                        step={"t_end": 0.01, "dt_fixed": 1e-3},
                        output={"dir": str(out)})
    cfg = load_config(path)
    with pytest.raises(StateError) as info:
        integrate(cfg.build_initial_state(), cfg.control, cfg.params, cfg.model,
                  cfg.build_mobility(), cfg.disc)
    exc = info.value
    assert isinstance(exc.__cause__, SolverError)
    assert (exc.step, exc.t, exc.dt) == (1, 0.0, 1e-3) and exc.state.t == 0.0
    assert main(["run", str(path), "--quiet"]) == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "StateError" and "cg failed" in record["message"]
    assert (record["step"], record["t"], record["dt"]) == (1, 0.0, 1e-3)
    assert not (out / "summary.json").exists()


def failing_stage_two(rates):
    """The right-hand-side kernel with stage 2 of the first step replaced by ``rates``."""
    original = korteweg.timestepping._rhs
    calls = []

    def kernel(q, *args):
        calls.append(len(calls) + 1)
        return np.vstack(rates(q[0], q[1:])) if len(calls) == 2 else original(q, *args)

    return kernel, calls


@pytest.mark.parametrize("rates, cause", [
    (lambda rho, m: (np.full_like(rho, np.nan), m), DomainError),
    (lambda rho, m: (np.full_like(rho, -1e9), m), StateError),
], ids=["non-finite", "density-floor"])
def test_failed_array_stage_is_a_numeric_failure(rates, cause, tmp_path, monkeypatch):
    # the stages are arrays; each is checked before the next evaluation, and the
    # failure names the step, its start t and dt, with the last good state
    out = tmp_path / "out"
    path = write_config(tmp_path, initial={"family": "sine_density", "rho0": 1.5,
                                           "amplitude": 0.05, "velocity_amplitude": 0.02},
                        step={"t_end": 0.01, "dt_fixed": 1e-3}, output={"dir": str(out)})
    cfg = load_config(path)
    state = cfg.build_initial_state()
    kernel, calls = failing_stage_two(rates)
    monkeypatch.setattr(korteweg.timestepping, "_rhs", kernel)
    with pytest.raises(StateError) as info:
        integrate(state, cfg.control, cfg.params, cfg.model, cfg.build_mobility(), cfg.disc)
    exc = info.value
    assert calls == [1, 2] and isinstance(exc.__cause__, cause)
    assert (exc.step, exc.t, exc.dt) == (1, 0.0, 1e-3) and exc.state is state
    kernel, calls = failing_stage_two(rates)
    monkeypatch.setattr(korteweg.timestepping, "_rhs", kernel)
    assert main(["run", str(path), "--quiet"]) == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "StateError" and (record["step"], record["t"]) == (1, 0.0)
    assert record["dt"] == 1e-3
    assert not (out / "summary.json").exists()


def test_step_metrics_computed_once_per_record(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = write_config(tmp_path,
                        initial={"family": "sine_density", "rho0": 1.5, "amplitude": 0.05,
                                 "velocity_amplitude": 0.02},
                        step={"t_end": 0.01, "dt_fixed": 1e-3},
                        output={"dir": str(out), "metrics_every": 1})
    calls = []
    original = korteweg.timestepping.step_metrics
    monkeypatch.setattr(korteweg.timestepping, "step_metrics",
                        lambda *args: calls.append(args[0]) or original(*args))
    result = run_simulation(load_config(path), quiet=True)
    assert len(calls) == result.steps + 1 == len(result.metrics)
    lines = (out / "metrics.jsonl").read_text().splitlines()[1:]
    assert lines == [json.dumps(m) for m in result.metrics]


def test_snapshot_files_are_self_describing(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, output={"dir": str(out), "snapshot_every": 50},
                        step={"t_end": 0.01, "dt_fixed": 1e-3})
    cfg = load_config(path)
    assert main(["run", str(path), "--quiet"]) == 0
    snap = next(out.glob("snap_*_rho.csv"))
    meta, _ = read_scalar_csv(snap)
    assert meta["config"] == cfg.config_hash()
    assert meta["n"] == "64"


def test_neumann_fd2_run_completes(tmp_path):
    path = write_config(
        tmp_path,
        grid={"n": [64], "length": [1.0], "boundary": "bounded_neumann_1d"},
        scheme="fd2",
        model="nsk2",
        mobility={"kind": "cosine", "base": 2.0, "amplitude": 1.0, "mode": 1},
        initial={"family": "sine_density", "rho0": 1.5, "amplitude": 0.05,
                 "velocity_amplitude": 0.0},
        step={"t_end": 5e-4, "dt_max": 5e-5})
    assert main(["run", str(path), "--quiet"]) == 0


def test_cli_convergence_needs_three_resolutions(tmp_path):
    path = write_config(tmp_path, scheme="fd2")
    assert main(["convergence", str(path), "--n", "64", "--quiet"]) == 2


@pytest.mark.parametrize("resolutions, named", [("32,abc,128", "32,abc,128"),
                                                 ("32,32,64", "[32, 32, 64]")])
def test_cli_convergence_non_integer_resolution_is_a_config_error(tmp_path, capsys,
                                                                  resolutions, named):
    # a fit needs three distinct integer resolutions
    path = write_config(tmp_path, scheme="fd2")
    assert main(["convergence", str(path), "--n", resolutions, "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "ConfigError" and named in record["message"]


def test_cli_convergence_fd2_order(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, scheme="fd2")
    assert main(["convergence", str(path), "--n", "32,64,128",
                 "--out", str(out), "--quiet"]) == 0
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    order_col = header.index("momentum_rate_error_order")
    order = float(rows[1].split(",")[order_col])
    assert 1.7 <= order <= 2.3


def test_cli_convergence_spectral_floor(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, scheme="spectral")
    assert main(["convergence", str(path), "--n", "32,64,128",
                 "--out", str(out), "--quiet"]) == 0
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    icol = header.index("momentum_rate_error")
    floor = float(rows[-1].split(",")[icol])
    assert floor < 1e-9
    # every error sits at the round-off floor, so no column has an order
    for key in ("rho_rate_error_order", "momentum_rate_error_order"):
        assert all(row.split(",")[header.index(key)] == "nan" for row in rows[1:])


CONFIGS = NEUMANN_CONFIG.parent


def test_cli_convergence_refuses_the_wall_config(capsys):
    # the study runs its periodic manufactured state whatever the config says: on
    # the Neumann config it would report the periodic FD2 orders
    assert main(["convergence", str(NEUMANN_CONFIG), "--n", "32,64,128", "--quiet"]) == 2
    out, err = capsys.readouterr()
    record = json.loads(err.splitlines()[-1])
    assert out == "" and record["error"] == "ConfigError"
    assert "periodic grid of length 2 pi" in record["message"]
    assert "bounded_neumann_1d" in record["message"]


@pytest.mark.parametrize("overrides, named", [
    ({"grid": {"n": [64], "length": [1.0]}}, "length=1.0"),
    ({"grid": {"n": [16, 16], "length": [6.283185307179586] * 2}}, "dim=2"),
    ({"model": "nsk2", "mobility": {"kind": "constant", "value": 2.0}}, "constant mobility"),
    ({"model": "nsk2", "mobility": {"kind": "cosine"}}, "cosine mobility"),
], ids=["length", "2d", "mobility2", "cosine"])
def test_cli_convergence_refuses_a_setup_it_does_not_run(tmp_path, capsys, overrides, named):
    path = write_config(tmp_path, scheme="fd2", **overrides)
    assert main(["convergence", str(path), "--n", "16,32,64", "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "ConfigError" and named in record["message"]


@pytest.mark.parametrize("name", ["nsk1_interface", "nsk2_interface", "literal_convention"])
def test_cli_convergence_runs_the_bundled_periodic_configs(name, capsys):
    assert main(["convergence", str(CONFIGS / f"{name}.json"), "--n", "16,32,64",
                 "--quiet"]) == 0
    assert capsys.readouterr().out.startswith("n,rho_rate_error,")


@pytest.mark.parametrize("command", ["run", "check", "convergence", "compare"])
def test_cli_output_directory_that_cannot_be_made_is_a_config_error(command, tmp_path,
                                                                     capsys):
    # --out below a regular file cannot be created: exit 2, and the failure record
    # goes to stderr alone, as failure.json cannot be written there either
    blocker = tmp_path / "file"
    blocker.write_text("")
    a = write_config(tmp_path, name="a.json", model="nsk1")
    b = write_config(tmp_path, name="b.json", model="nsk2")
    args = {"run": ["run", str(a)], "check": ["check", str(a), "--no-2d"],
            "convergence": ["convergence", str(a), "--n", "16,32,64"],
            "compare": ["compare", str(a), str(b)]}[command]
    assert main([*args, "--out", str(blocker / "out"), "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "NotADirectoryError"
    assert blocker.read_text() == ""


def test_cli_compare_reports_shared_structure(tmp_path):
    out = tmp_path / "out"
    a = write_config(tmp_path, name="a.json", model="nsk1",
                     initial={"family": "sine_density", "rho0": 1.5,
                              "amplitude": 0.1, "velocity_amplitude": 0.02},
                     step={"t_end": 0.02})
    b = write_config(tmp_path, name="b.json", model="nsk2",
                     initial={"family": "sine_density", "rho0": 1.5,
                              "amplitude": 0.1, "velocity_amplitude": 0.02},
                     step={"t_end": 0.02})
    assert main(["compare", str(a), str(b), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    assert report["capillary_tensor_max_diff"] == 0.0
    assert report["divergence"][-1]["rho_distance"] > 0.0


def test_cli_compare_report_does_not_depend_on_the_config_order(tmp_path):
    # compare takes its nsk1 and nsk2 configs in either order
    initial = {"family": "sine_density", "rho0": 1.5, "amplitude": 0.1,
               "velocity_amplitude": 0.02}
    a = write_config(tmp_path, name="a.json", model="nsk1", initial=initial,
                     step={"t_end": 0.02})
    b = write_config(tmp_path, name="b.json", model="nsk2", initial=initial,
                     step={"t_end": 0.02}, mobility={"kind": "cosine"})
    reports = []
    for order, out in (((a, b), "ab"), ((b, a), "ba")):
        assert main(["compare", *map(str, order), "--out", str(tmp_path / out),
                     "--quiet"]) == 0
        reports.append((tmp_path / out / "compare_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["divergence"]) > 2


def test_cli_compare_at_zero_horizon_reports_the_start(tmp_path):
    # t_end = 0 takes no step: the report is the shared start alone
    out = tmp_path / "out"
    initial = {"family": "sine_density", "rho0": 1.5, "amplitude": 0.1,
               "velocity_amplitude": 0.02}
    a = write_config(tmp_path, name="a.json", model="nsk1", initial=initial,
                     step={"t_end": 0.0})
    b = write_config(tmp_path, name="b.json", model="nsk2", initial=initial,
                     step={"t_end": 0.0})
    assert main(["compare", str(a), str(b), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    assert report["capillary_tensor_max_diff"] == 0.0
    assert report["divergence"] == [{"step": 0, "t": 0.0, "rho_distance": 0.0,
                                     "momentum_distance": 0.0}]


def test_cli_compare_rejects_mismatched_configs(tmp_path):
    a = write_config(tmp_path, name="a.json", model="nsk1")
    b = write_config(tmp_path, name="b.json", model="nsk1")
    assert main(["compare", str(a), str(b), "--quiet"]) == 2


def test_run_simulation_without_output_dir(tmp_path):
    cfg = load_config(write_config(tmp_path, step={"t_end": 0.005,
                                                   "dt_fixed": 1e-3}))
    result = run_simulation(cfg, quiet=True)
    assert result.steps == 5


def test_run_short_of_t_end_is_a_numeric_failure(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = write_config(tmp_path, step={"t_end": 0.05, "dt_fixed": 1e-3},
                        output={"dir": str(out)})
    cfg = load_config(path)
    budget = dataclasses.replace(cfg, control=dataclasses.replace(cfg.control, max_steps=5))
    with pytest.raises(StateError, match="5 steps reached t = 0.005 of t_end = 0.05"):
        run_simulation(budget, quiet=True)
    assert not (out / "summary.json").exists()
    # config files carry no step budget: shrink the default one for the CLI
    monkeypatch.setattr(korteweg.harness, "StepControl",
                        functools.partial(StepControl, max_steps=5))
    assert main(["run", str(path), "--quiet"]) == 3
    assert json.loads((out / "failure.json").read_text())["error"] == "StateError"
    assert not (out / "summary.json").exists()


def test_two_d_run_completes(tmp_path):
    length = 6.283185307179586
    path = write_config(
        tmp_path,
        grid={"n": [24, 24], "length": [length, length], "boundary": "periodic"},
        initial={"family": "sine_density", "rho0": 1.5, "amplitude": 0.05,
                 "velocity_amplitude": 0.01},
        step={"t_end": 2e-3, "dt_max": 1e-3})
    assert main(["run", str(path), "--quiet"]) == 0


def test_cli_check_consistent_passes_and_literal_fails_once(tmp_path):
    out = tmp_path / "chk"
    path = write_config(tmp_path)
    assert main(["check", str(path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["n_failed"] == 0
    assert report["residual_records"]
    assert report["wallclock_s"] < 300.0
    assert "config" in report

    out2 = tmp_path / "chk2"
    lit = write_config(tmp_path, name="lit.json",
                       params={"convention": "literal"})
    assert main(["check", str(lit), "--out", str(out2), "--quiet"]) == 4
    report2 = json.loads((out2 / "check_report.json").read_text())
    failed = [r for r in report2["results"] if not r["passed"]]
    assert [r["name"] for r in failed] == ["constitutive/closure_consistency"]
    assert "expected" in failed[0]["note"]
