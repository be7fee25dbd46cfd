"""Run configuration, snapshot/metrics output, and run orchestration.

Configs are flat JSON documents, validated before any allocation.  Every
emitted file embeds the config hash and the grid header, so runs are
self-describing and bit-reproducible for a fixed config + seed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .constitutive import Convention, DoubleWell, FluidParams
from .elliptic import Mobility
from .errors import ConfigError, StateError
from .fields import write_scalar_csv, ScalarField
from .grids import BoundaryKind, Discretization, Grid, Scheme
from .initial import ICFamily, InitialCondition
from .models import MixtureState, ModelKind
from .timestepping import StepControl, integrate, step_metrics

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MobilitySpec:
    """Mobility described by the config: constant or a cosine profile."""

    kind: str = "constant"
    value: float = 1.0
    base: float = 2.0
    amplitude: float = 1.0
    mode: int = 1

    def build(self, grid: Grid) -> Mobility:
        if self.kind == "constant":
            return Mobility.constant(self.value)
        if self.kind == "cosine":
            x = grid.coords()[0]
            if grid.is_periodic:
                prof = self.base + self.amplitude * np.cos(
                    2.0 * np.pi * self.mode * x / grid.length[0])
            else:
                prof = self.base + self.amplitude * np.cos(
                    np.pi * self.mode * x / grid.length[0])
            return Mobility.spatial(prof)
        raise ConfigError(f"unknown mobility kind {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    disc: Discretization
    params: FluidParams
    model: ModelKind
    mobility: MobilitySpec
    initial: InitialCondition
    control: StepControl
    out_dir: Path | None = None
    snapshot_every: int = 0
    metrics_every: int = 1
    seed: int = 0

    def __post_init__(self):
        self.disc.require_compatible(self.grid)
        self.params.validate_for_dim(self.grid.dim)
        if self.model is ModelKind.NSK2 and self.mobility is None:
            raise ConfigError("the nsk2 model needs a mobility")

    def build_mobility(self) -> Mobility:
        return self.mobility.build(self.grid)

    def build_initial_state(self) -> MixtureState:
        ic = self.initial
        if ic.family is ICFamily.RANDOM_BAND and ic.seed != self.seed:
            ic = replace(ic, seed=self.seed)  # the run seed drives the rng
        return ic.build(self.grid, self.params)

    def to_dict(self) -> dict:
        return {
            "grid": {"n": list(self.grid.n), "length": list(self.grid.length),
                     "boundary": self.grid.boundary.value},
            "scheme": self.disc.scheme.value,
            "dealias": self.disc.dealias,
            "model": self.model.value,
            "params": {
                "tau1": self.params.tau1, "tau2": self.params.tau2,
                "temperature": self.params.temperature, "delta": self.params.delta,
                "shear_viscosity": self.params.shear_viscosity,
                "bulk_viscosity": self.params.bulk_viscosity,
                "mobility": self.params.mobility,
                "well_scale": self.params.well.scale,
                "convention": self.params.convention.value,
            },
            "mobility": {"kind": self.mobility.kind, "value": self.mobility.value,
                         "base": self.mobility.base,
                         "amplitude": self.mobility.amplitude,
                         "mode": self.mobility.mode},
            "initial": _ic_dict(self.initial),
            "step": {"t_end": self.control.t_end,
                     "cfl_advective": self.control.cfl_advective,
                     "cfl_parabolic": self.control.cfl_parabolic,
                     "dt_min": self.control.dt_min, "dt_max": self.control.dt_max,
                     "dt_fixed": self.control.dt_fixed},
            "output": {"dir": str(self.out_dir) if self.out_dir else None,
                       "snapshot_every": self.snapshot_every,
                       "metrics_every": self.metrics_every},
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        """Hash of the physics content (the output location is excluded)."""
        doc = self.to_dict()
        doc.pop("output", None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _ic_dict(ic: InitialCondition) -> dict:
    return {"family": ic.family.value, "rho0": ic.rho0, "amplitude": ic.amplitude,
            "mode": ic.mode, "interface_sharpness": ic.interface_sharpness,
            "velocity_amplitude": ic.velocity_amplitude,
            "velocity_mode": ic.velocity_mode, "kmax": ic.kmax, "seed": ic.seed}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(value, name: str, integer: bool = False):
    """A finite JSON number (an integer where asked), else ConfigError."""
    ok = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        ok = False
    _require(ok, f"{name} must be a finite {'integer' if integer else 'number'}, "
                 f"got {value!r}")
    return value


def config_from_dict(doc: dict, out_dir: str | None = None,
                     seed: int | None = None) -> RunConfig:
    """Build and cross-validate a RunConfig from a parsed JSON document.

    Every section must be a JSON object and every number a finite real (an
    integer for counts, modes and seeds); anything else is a ConfigError.
    """
    _require(isinstance(doc, dict), "config root must be a JSON object")

    def section(key: str, default: dict):
        """The section as a dict, and a reader of its numeric entries."""
        sec = doc.get(key, default)
        _require(isinstance(sec, dict), f"config section {key!r} must be a JSON object")

        def num(name: str, fallback, integer: bool = False):
            return _number(sec.get(name, fallback), f"{key}.{name}", integer)

        return sec, num

    try:
        gdoc, _ = section("grid", {})
        grid = Grid(dim=len(gdoc["n"]),
                    n=tuple(_number(k, "grid.n", True) for k in gdoc["n"]),
                    length=tuple(_number(v, "grid.length") for v in gdoc["length"]),
                    boundary=BoundaryKind(gdoc.get("boundary", "periodic")))
        dealias = doc.get("dealias", False)
        _require(isinstance(dealias, bool), f"dealias must be true or false, got {dealias!r}")
        disc = Discretization(Scheme(doc.get("scheme", "spectral")), dealias=dealias)
        pdoc, p = section("params", {})
        params = FluidParams(
            tau1=p("tau1", 1.0), tau2=p("tau2", 0.5),
            temperature=p("temperature", 1.0),
            delta=p("delta", 1e-2),
            shear_viscosity=p("shear_viscosity", 1e-2),
            bulk_viscosity=p("bulk_viscosity", 0.0),
            mobility=p("mobility", 1.0),
            well=DoubleWell(scale=p("well_scale", 1.0)),
            convention=Convention(pdoc.get("convention", "consistent")))
        model = ModelKind(doc.get("model", "nsk1"))
        mdoc, m = section("mobility", {"kind": "constant", "value": params.mobility})
        mobility = MobilitySpec(
            kind=mdoc.get("kind", "constant"),
            value=m("value", params.mobility),
            base=m("base", 2.0), amplitude=m("amplitude", 1.0),
            mode=m("mode", 1, integer=True))
        idoc, i = section("initial", {"family": "constant"})
        initial = InitialCondition(
            family=ICFamily(idoc.get("family", "constant")),
            rho0=i("rho0", 1.5), amplitude=i("amplitude", 0.1),
            mode=i("mode", 1, integer=True),
            interface_sharpness=i("interface_sharpness", 4.0),
            velocity_amplitude=i("velocity_amplitude", 0.0),
            velocity_mode=i("velocity_mode", 1, integer=True),
            kmax=i("kmax", 4, integer=True), seed=i("seed", 0, integer=True))
        sdoc, st = section("step", {})
        control = StepControl(
            t_end=st("t_end", 0.1),
            cfl_advective=st("cfl_advective", 0.4),
            cfl_parabolic=st("cfl_parabolic", 0.2),
            dt_min=st("dt_min", 1e-10), dt_max=st("dt_max", 1.0),
            dt_fixed=None if sdoc.get("dt_fixed") is None else st("dt_fixed", None))
        odoc, o = section("output", {})
        out = out_dir if out_dir is not None else odoc.get("dir")
        cfg = RunConfig(
            grid=grid, disc=disc, params=params, model=model, mobility=mobility,
            initial=initial, control=control,
            out_dir=Path(out) if out else None,
            snapshot_every=o("snapshot_every", 0, integer=True),
            metrics_every=o("metrics_every", 1, integer=True),
            seed=_number(seed if seed is not None else doc.get("seed", 0), "seed", True))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg


def load_config(path, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc, out_dir=out_dir, seed=seed)


def write_state_snapshot(state: MixtureState, out_dir: Path, step: int,
                         config_hash: str | None = None) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    path = out_dir / f"snap_{step:06d}_rho.csv"
    write_scalar_csv(state.rho, path, config_hash)
    written.append(path)
    for i in range(state.grid.dim):
        path = out_dir / f"snap_{step:06d}_m{i}.csv"
        write_scalar_csv(ScalarField(state.grid, state.m.components[i]), path,
                         config_hash)
        written.append(path)
    return written


class MetricsWriter:
    """Line-delimited JSON metrics stream."""

    def __init__(self, path: Path, config_hash: str, every: int = 1):
        self.path = path
        self.every = max(1, every)
        self.config_hash = config_hash
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "w")
        self._fh.write(json.dumps({"config": config_hash}) + "\n")

    def __call__(self, record: dict) -> None:
        if record["step"] % self.every == 0:
            self._fh.write(json.dumps(record) + "\n")

    def close(self):
        self._fh.close()


def run_simulation(cfg: RunConfig, quiet: bool = False):
    """Integrate a config end to end, writing snapshots and metrics.

    Returns the IntegrationResult; raises ConfigError / StateError /
    SolverError for the CLI layer to map onto exit codes.  A run that
    exhausts its step budget before t_end raises StateError and writes
    no summary.
    """
    chash = cfg.config_hash()
    state = cfg.build_initial_state()
    mobility = cfg.build_mobility() if cfg.model is ModelKind.NSK2 else None
    records = []
    metrics = None

    def record(step, st, dt):
        records.append(step_metrics(step, st, dt))
        if metrics is not None:
            metrics(records[-1])

    observers = [record]
    if cfg.out_dir is not None:
        metrics = MetricsWriter(cfg.out_dir / "metrics.jsonl", chash,
                                cfg.metrics_every)
        if cfg.snapshot_every > 0:
            def snapshot(step, st, dt, _dir=cfg.out_dir, _hash=chash,
                         _every=cfg.snapshot_every):
                if step % _every == 0:
                    write_state_snapshot(st, _dir, step, _hash)
            observers.append(snapshot)
    try:
        result = integrate(state, cfg.control, cfg.params, cfg.model, mobility,
                           cfg.disc, observers=tuple(observers))
    finally:
        if metrics is not None:
            metrics.close()
    result.metrics = records
    if not cfg.control.reached(result.state.t):
        raise StateError(
            f"step budget exhausted: {result.steps} steps reached t = "
            f"{result.state.t:.6g} of t_end = {cfg.control.t_end:.6g}",
            state=result.state, step=result.steps, t=result.state.t)
    if cfg.out_dir is not None:
        write_state_snapshot(result.state, cfg.out_dir, result.steps, chash)
        summary = {"config": chash, "steps": result.steps,
                   "t": result.state.t, "dt_last": result.dt_last}
        (cfg.out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    if not quiet:
        log.info("run complete: %d steps to t = %.6g", result.steps, result.state.t)
    return result
