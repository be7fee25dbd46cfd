"""The four benchmark workloads: inputs, one operation each, and its checks.

A run workload integrates bundled tanh-interface or Neumann physics
through ``korteweg.harness.run_simulation``.  Operation 0 of a run starts
from the unperturbed state and is compared with ``reference.json`` at a
tight tolerance; every later operation adds a band-limited velocity
perturbation drawn from (seed, operation index) and is compared with the
same reference inside the band the perturbation can move it.  ``certify``
runs the check suite and the manufactured-solution convergence tables.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

PERTURBATION = 1e-4        # peak of the seeded velocity perturbation
REF_RTOL = 1e-8            # operation 0 against the stored reference
# Seeded operations.  The perturbation moves rms(m) by at most
# rms(rho du) <= max(rho) * PERTURBATION ~ 2e-4 at t = 0; the band doubles
# that for growth.  Density norms moved by < 4e-5 relative over 18 seeds.
BAND_RTOL = 1e-3
BAND_ATOL = 4.0 * PERTURBATION
CONSERVATION_TOL = 1e-12   # mass and momentum drift on periodic grids
CONVERGENCE_RTOL = 1e-6    # convergence errors and orders: 6 significant figures
CONVERGENCE_N = (32, 64, 128)

TWO_PI = 2.0 * math.pi


def _doc(model: str, n, *, t_end: float, dt_max: float = 0.01, scheme: str = "spectral",
         boundary: str = "periodic", mobility=None, initial=None) -> dict:
    """Flat run config in the format of the bundled demo configs."""
    n = list(n)
    length = [TWO_PI] * len(n) if boundary == "periodic" else [1.0]
    return {
        "grid": {"n": n, "length": length, "boundary": boundary},
        "scheme": scheme, "dealias": False, "model": model,
        "params": {"tau1": 1.0, "tau2": 0.5, "temperature": 1.0, "delta": 0.01,
                   "shear_viscosity": 0.01, "bulk_viscosity": 0.0, "mobility": 1.0,
                   "well_scale": 1.0, "convention": "consistent"},
        "mobility": mobility or {"kind": "constant", "value": 1.0},
        "initial": initial or {"family": "tanh_interface", "interface_sharpness": 2.5,
                               "velocity_amplitude": 0.02},
        "step": {"t_end": t_end, "cfl_advective": 0.4, "cfl_parabolic": 0.2,
                 "dt_min": 1e-10, "dt_max": dt_max},
        "output": {"dir": None, "snapshot_every": 100, "metrics_every": 10},
        "seed": 0,
    }


COSINE = {"kind": "cosine", "base": 2.0, "amplitude": 1.0, "mode": 1}
NEUMANN_IC = {"family": "sine_density", "rho0": 1.5, "amplitude": 0.05,
              "velocity_amplitude": 0.0}


@dataclasses.dataclass(frozen=True)
class SubRun:
    """One run_simulation call of an operation."""

    label: str
    doc: dict
    write_output: bool = False

    @property
    def periodic(self) -> bool:
        return self.doc["grid"]["boundary"] == "periodic"


def _interface_pair(n, t_end, write_output=False):
    return [SubRun(m, _doc(m, n, t_end=t_end), write_output) for m in ("nsk1", "nsk2")]


def _variable_mobility(n_neumann, t_neumann, n_periodic, t_periodic):
    return [SubRun("neumann", _doc("nsk2", (n_neumann,), t_end=t_neumann, dt_max=1e-4,
                                   scheme="fd2", boundary="bounded_neumann_1d",
                                   mobility=COSINE, initial=NEUMANN_IC)),
            SubRun("periodic", _doc("nsk2", (n_periodic,), t_end=t_periodic,
                                    mobility=COSINE))]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subruns: dict            # size -> list[SubRun]; empty for certify
    tail_percentile: float   # declared step_ms_tail percentile (>= 10 samples beyond per run)


WORKLOADS = {
    w.name: w for w in (
        Workload("interface_1d",
                 "1-D spectral N=256 NSK1+NSK2 through run_simulation with output: "
                 "per-call and field overhead, harness I/O and step metrics",
                 {"full": _interface_pair((256,), 0.2, True),
                  "tiny": _interface_pair((64,), 0.02, True)}, 99.0),
        Workload("interface_2d",
                 "2-D spectral 128^2 NSK1+NSK2: FFT-bound, 37/43 complex transforms per RHS",
                 {"full": _interface_pair((128, 128), 0.02),
                  "tiny": _interface_pair((32, 32), 0.005)}, 95.0),
        Workload("variable_mobility",
                 "NSK2 with cosine mobility on Neumann FD2 N=256 and periodic spectral N=128: "
                 "CG-bound elliptic solves on both boundary kinds",
                 {"full": _variable_mobility(256, 1e-3, 128, 0.03),
                  "tiny": _variable_mobility(64, 2e-4, 32, 0.005)}, 95.0),
        Workload("certify",
                 "check suite (48 checks) plus NSK1/NSK2 convergence tables at N=32,64,128: "
                 "sympy oracles and the NSK2 double solve",
                 {}, 95.0),
    )
}


# ---------------------------------------------------------------------------
# set-up


@dataclasses.dataclass
class Prepared:
    """Everything built before the timed section of one operation."""

    workload: Workload
    size: str
    rep: int
    configs: list = dataclasses.field(default_factory=list)   # (SubRun, RunConfig)
    certify: dict = dataclasses.field(default_factory=dict)
    work_dir: Path | None = None


def perturbation(grid, seed: int, rep: int) -> list[np.ndarray]:
    """Band-limited (|k| <= 4) velocity perturbation; zero for operation 0.

    Periodic grids get a random cosine series; bounded grids a sine-squared
    series, which vanishes with zero slope at both walls.  Drawn here rather
    than with the package's own random fields, so that the inputs stay the
    same when the package changes.
    """
    if rep == 0:
        return [np.zeros(grid.shape) for _ in range(grid.dim)]
    rng = np.random.default_rng([seed, rep])
    xs = grid.coords()
    out = []
    for _ in range(grid.dim):
        field = np.zeros(grid.shape)
        if grid.is_periodic:
            for _ in range(8):
                ks = rng.integers(-4, 5, size=grid.dim)
                arg = sum(TWO_PI * k * x / l for k, x, l in zip(ks, xs, grid.length))
                field += rng.normal() * np.cos(arg + rng.uniform(0.0, TWO_PI))
        else:
            for k in range(1, 5):
                field += rng.normal() * np.sin(math.pi * k * xs[0] / grid.length[0]) ** 2
        peak = float(np.max(np.abs(field)))
        out.append(PERTURBATION * field / peak if peak > 0.0 else field)
    return out


def import_program(workload: Workload) -> None:
    """Load every korteweg module the workload's operation reaches."""
    import korteweg.harness  # noqa: F401
    if workload.name == "certify":
        import korteweg.manufactured  # noqa: F401  (sympy import is part of set-up)
        import korteweg.verification  # noqa: F401


def prepare(workload: Workload, size: str, seed: int, rep: int, work_root: Path) -> Prepared:
    """Import the package and build configs, states and mobilities."""
    import_program(workload)
    import korteweg
    from korteweg import harness
    from korteweg.models import ModelKind

    prep = Prepared(workload, size, rep)
    if workload.name == "certify":
        cfgs = {m: harness.config_from_dict(_doc(m, (128,), t_end=0.2, scheme="fd2"))
                for m in ("nsk1", "nsk2")}
        kinds = ("nsk2",) if size == "tiny" else ("nsk1", "nsk2")
        prep.certify = {"params": cfgs["nsk1"].params,
                        "corpus": korteweg.default_corpus(cfgs["nsk1"].params),
                        "convergence": [(m, cfgs[m]) for m in kinds]}
        return prep

    @dataclasses.dataclass(frozen=True)
    class PreparedConfig(harness.RunConfig):
        """RunConfig whose initial state and mobility were built in set-up."""

        state: object = None
        gamma: object = None

        def build_initial_state(self):
            return self.state

        def build_mobility(self):
            return self.gamma

    for sub in workload.subruns[size]:
        out_dir = None
        if sub.write_output:
            prep.work_dir = work_root
            out_dir = str(work_root / sub.label)
        cfg = harness.config_from_dict(sub.doc, out_dir=out_dir)
        base = cfg.build_initial_state()
        u = base.velocity()
        du = perturbation(cfg.grid, seed, rep)
        state = korteweg.MixtureState.from_primitive(
            base.rho, korteweg.VectorField(cfg.grid, tuple(
                c + d for c, d in zip(u.components, du))))
        gamma = cfg.build_mobility() if cfg.model is ModelKind.NSK2 else None
        fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(harness.RunConfig)}
        prep.configs.append((sub, PreparedConfig(**fields, state=state, gamma=gamma)))
    return prep


# ---------------------------------------------------------------------------
# the timed operation


def _clock() -> tuple[float, float]:
    """(wall seconds, CPU seconds of this process)."""
    return time.perf_counter(), time.process_time()


def run_op(prep: Prepared) -> dict:
    """The timed section; returns raw outputs for ``check``.

    Times are taken on both clocks.  The bounded metrics use the process
    CPU time: the program is single-threaded, so on an idle machine it
    equals the wall time, and other processes of the machine do not add
    to it.
    """
    from korteweg import harness

    if prep.workload.name == "certify":
        from korteweg import verification
        c = prep.certify
        w0, c0 = _clock()
        report = verification.run_check_suite(c["params"], include_2d=True, corpus=c["corpus"])
        w1, c1 = _clock()
        tables = {m: verification.convergence_table(cfg.params, cfg.model, cfg.disc,
                                                    list(CONVERGENCE_N))
                  for m, cfg in c["convergence"]}
        w2, c2 = _clock()
        return {"wall_s": w2 - w0, "cpu_s": c2 - c0, "check_s": c1 - c0,
                "convergence_s": c2 - c1, "report": report, "tables": tables}
    results = []
    w0, c0 = _clock()
    for _sub, cfg in prep.configs:
        results.append(harness.run_simulation(cfg, quiet=True))
    w1, c1 = _clock()
    return {"wall_s": w1 - w0, "cpu_s": c1 - c0, "results": results}


# ---------------------------------------------------------------------------
# correctness


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def state_summary(result) -> dict:
    """Final-state norms and conservation drifts of one run_simulation result."""
    st = result.state
    mass = [m["mass"] for m in result.metrics]
    moms = [m["momentum"] for m in result.metrics]
    return {
        "steps": result.steps, "t": st.t,
        "rho_rms": float(np.sqrt(np.mean(st.rho.values ** 2))),
        "rho_min": float(np.min(st.rho.values)), "rho_max": float(np.max(st.rho.values)),
        "m_rms": [float(np.sqrt(np.mean(c ** 2))) for c in st.m.components],
        "mass": mass[-1],
        "mass_drift": max(abs(m - mass[0]) for m in mass),
        "momentum_drift": max(abs(m[i] - moms[0][i]) for m in moms for i in range(len(m))),
        "finite": bool(np.all(np.isfinite(st.rho.values))
                       and all(np.all(np.isfinite(c)) for c in st.m.components)),
    }


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _check_output(out_dir: Path, summary: dict, every: int, snap_every: int) -> list[str]:
    """The files run_simulation promises for an output directory."""
    problems = []
    lines = (out_dir / "metrics.jsonl").read_text().splitlines()
    expected = 1 + summary["steps"] // every + 1
    if len(lines) != expected:
        problems.append(f"metrics.jsonl has {len(lines)} lines, expected {expected}")
    done = json.loads((out_dir / "summary.json").read_text())
    if done["steps"] != summary["steps"] or done["t"] != summary["t"]:
        problems.append(f"summary.json {done} disagrees with the returned result")
    snaps = sorted({p.name.split("_")[1] for p in out_dir.glob("snap_*_rho.csv")})
    want = sorted({f"{s:06d}" for s in [*range(0, summary["steps"] + 1, snap_every),
                                        summary["steps"]]})
    if snaps != want:
        problems.append(f"snapshots at steps {snaps}, expected {want}")
    return problems


def check(prep: Prepared, out: dict, reference: dict | None) -> tuple[list[str], dict]:
    """Correctness gate of one operation: (problems, facts worth printing)."""
    if prep.workload.name == "certify":
        return _check_certify(prep, out, reference)
    problems, facts = [], {"subruns": {}}
    ref_runs = (reference or {}).get(prep.workload.name) if prep.size == "full" else None
    for (sub, cfg), result in zip(prep.configs, out["results"]):
        s = state_summary(result)
        facts["subruns"][sub.label] = s
        tag = f"{sub.label}:"
        t_end = cfg.control.t_end
        if not s["finite"]:
            problems.append(f"{tag} non-finite final state")
        if s["steps"] < 1 or abs(s["t"] - t_end) > 1e-12:
            problems.append(f"{tag} stopped at t={s['t']!r} after {s['steps']} steps, "
                            f"t_end={t_end!r}")
        if sub.periodic and s["mass_drift"] > CONSERVATION_TOL:
            problems.append(f"{tag} mass drift {s['mass_drift']:.3e} > {CONSERVATION_TOL:g}")
        if sub.periodic and s["momentum_drift"] > CONSERVATION_TOL:
            problems.append(f"{tag} momentum drift {s['momentum_drift']:.3e} "
                            f"> {CONSERVATION_TOL:g}")
        if cfg.out_dir is not None:
            problems += [f"{tag} {p}" for p in _check_output(
                cfg.out_dir, s, cfg.metrics_every, cfg.snapshot_every)]
        if ref_runs is not None:
            problems += [f"{tag} {p}" for p in _compare(s, ref_runs[sub.label], prep.rep)]
    if prep.work_dir is not None:
        facts["bytes_written"] = sum(p.stat().st_size for p in prep.work_dir.rglob("*")
                                     if p.is_file())
        shutil.rmtree(prep.work_dir, ignore_errors=True)
    return problems, facts


def _compare(s: dict, ref: dict, rep: int) -> list[str]:
    """Final-state norms against the reference of the unperturbed state."""
    problems = []
    if rep == 0:
        if s["steps"] != ref["steps"]:
            problems.append(f"steps {s['steps']} != reference {ref['steps']}")
        pairs = [("rho_rms", REF_RTOL, 0.0), ("rho_min", REF_RTOL, 0.0),
                 ("rho_max", REF_RTOL, 0.0), ("mass", REF_RTOL, 0.0)]
        m_tol = (REF_RTOL, 1e-14)
    else:
        pairs = [("rho_rms", BAND_RTOL, 0.0), ("rho_min", BAND_RTOL, 0.0),
                 ("rho_max", BAND_RTOL, 0.0), ("mass", BAND_RTOL, 0.0)]
        m_tol = (0.0, BAND_ATOL)
    for key, rtol, atol in pairs:
        if not _close(s[key], ref[key], rtol, atol):
            problems.append(f"{key} {s[key]!r} vs reference {ref[key]!r} (rtol {rtol:g})")
    for i, (a, b) in enumerate(zip(s["m_rms"], ref["m_rms"])):
        if not _close(a, b, *m_tol):
            problems.append(f"m_rms[{i}] {a!r} vs reference {b!r} (rtol, atol {m_tol})")
    return problems


def certify_summary(out: dict) -> dict:
    report = out["report"]
    return {"checks": {r.name: bool(r.passed) for r in report.results},
            "convergence": {m: [{k: float(v) for k, v in row.items()} for row in rows]
                            for m, rows in out["tables"].items()}}


def _check_certify(prep: Prepared, out: dict, reference: dict | None):
    s = certify_summary(out)
    problems = [f"check failed: {name}" for name, ok in s["checks"].items() if not ok]
    facts = {"checks_passed": sum(s["checks"].values()), "checks": len(s["checks"])}
    ref = (reference or {}).get("certify")
    if ref is None:
        return problems, facts
    if sorted(s["checks"]) != sorted(ref["checks"]):
        problems.append(f"check set differs from the reference "
                        f"({len(s['checks'])} vs {len(ref['checks'])} checks)")
    for model, rows in s["convergence"].items():
        for row, ref_row in zip(rows, ref["convergence"][model], strict=True):
            for key, val in row.items():
                if not _close(val, ref_row[key], CONVERGENCE_RTOL):
                    problems.append(f"convergence {model} n={row['n']} {key} "
                                    f"{val!r} vs reference {ref_row[key]!r}")
    return problems, facts
