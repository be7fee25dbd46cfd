"""Run configuration, snapshot/metrics output, and run orchestration.

Configs are flat JSON documents, validated before any allocation.  The
params, mobility, initial and step sections are read, defaulted and
written back through the classes they build, and an entry that
``RunConfig.to_dict`` would not write is rejected.  Every emitted file
embeds the config hash and the grid header, so runs are self-describing
and bit-reproducible for a fixed config + seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .constitutive import DoubleWell, FluidParams
from .elliptic import Mobility
from .errors import ConfigError, StateError
from .fields import write_scalar_csv, ScalarField
from .grids import BoundaryKind, Discretization, Grid, Scheme
from .initial import ICFamily, InitialCondition
from .models import MixtureState, ModelKind
from .timestepping import StepControl, integrate, step_metrics

log = logging.getLogger(__name__)


class MobilityKind(Enum):
    CONSTANT = "constant"
    COSINE = "cosine"


@dataclass(frozen=True)
class MobilitySpec:
    """Mobility described by the config: constant or a cosine profile."""

    kind: MobilityKind = MobilityKind.CONSTANT
    value: float = 1.0
    base: float = 2.0
    amplitude: float = 1.0
    mode: int = 1

    def build(self, grid: Grid) -> Mobility:
        if self.kind is MobilityKind.CONSTANT:
            return Mobility.constant(self.value)
        x = grid.coords()[0]
        k = (2.0 if grid.is_periodic else 1.0) * np.pi * self.mode
        return Mobility.spatial(self.base + self.amplitude * np.cos(k * x / grid.length[0]))


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
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _require(self.snapshot_every >= 0, "output.snapshot_every must be >= 0")
        _require(self.metrics_every >= 1, "output.metrics_every must be >= 1")

    def build_mobility(self) -> Mobility:
        return self.mobility.build(self.grid)

    def build_initial_state(self) -> MixtureState:
        ic = self.initial
        if ic.family is ICFamily.RANDOM_BAND and ic.seed != self.seed:
            ic = replace(ic, seed=self.seed)  # the run seed drives the rng
        return ic.build(self.grid, self.params)

    def to_dict(self) -> dict:
        """The config document, every entry written; it reads back to this config."""
        return {
            "grid": {"n": list(self.grid.n), "length": list(self.grid.length),
                     "boundary": self.grid.boundary.value},
            "scheme": self.disc.scheme.value,
            "dealias": self.disc.dealias,
            "model": self.model.value,
            "params": {**_entries_of(self.params), "well_scale": self.params.well.scale},
            "mobility": _entries_of(self.mobility),
            "initial": _entries_of(self.initial),
            "step": _entries_of(self.control),
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


def _entries(cls) -> dict:
    """Config entries of a class, name -> default: the parameters whose default is
    an enum, a number or null, which also fixes the entry's kind."""
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()
            if name != "max_steps"  # config files carry no step budget
            and isinstance(p.default, (Enum, int, float, type(None)))}


def _entries_of(obj) -> dict:
    values = ((name, getattr(obj, name)) for name in _entries(type(obj)))
    return {name: v.value if isinstance(v, Enum) else v for name, v in values}


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


def _choice(kind: type[Enum], value, name: str):
    """The member of enum ``kind`` whose value is ``value``, else ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        options = ", ".join(repr(m.value) for m in kind)
        raise ConfigError(f"{name} must be one of {options}, got {value!r}") from None


def _section(doc: dict, key: str) -> dict:
    sec = doc.get(key, {})
    _require(isinstance(sec, dict), f"config section {key!r} must be a JSON object")
    return sec


def _read(cls, doc: dict, key: str, **defaults):
    """Build cls from config section ``key``.

    Each entry of cls takes its value from the section, else from
    ``defaults``, else from cls, and must be of the kind of its class
    default.  ``defaults`` may also pass a parameter that is not an entry.
    """
    sec, args = _section(doc, key), dict(defaults)
    for name, default in _entries(cls).items():
        value = args[name] = sec.get(name, defaults.get(name, default))
        if isinstance(default, Enum):
            args[name] = _choice(type(default), value, f"{key}.{name}")
        elif not (default is None and value is None):
            _number(value, f"{key}.{name}", integer=isinstance(default, int))
    return cls(**args)


def _reject_unknown(doc: dict, known: dict, where: str = "") -> None:
    """Raise ConfigError for the first entry of doc that known (a to_dict document) lacks."""
    for key, value in doc.items():
        _require(key in known, f"unknown config entry '{where}{key}'")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _reject_unknown(value, known[key], f"{where}{key}.")


def config_from_dict(doc: dict, out_dir: str | None = None,
                     seed: int | None = None) -> RunConfig:
    """Build and cross-validate a RunConfig from a parsed JSON document.

    Every section must be a JSON object, every number a finite real (an
    integer for counts, modes and seeds) and every entry one that
    ``to_dict`` writes; anything else is a ConfigError.  Defaults are
    those of the classes built, but step.t_end = 0.1 and mobility.value =
    params.mobility.
    """
    _require(isinstance(doc, dict), "config root must be a JSON object")
    try:
        gdoc = _section(doc, "grid")
        grid = Grid(dim=len(gdoc["n"]),
                    n=tuple(_number(k, "grid.n", True) for k in gdoc["n"]),
                    length=tuple(_number(v, "grid.length") for v in gdoc["length"]),
                    boundary=_choice(BoundaryKind, gdoc.get("boundary", "periodic"),
                                     "grid.boundary"))
        dealias = doc.get("dealias", False)
        _require(isinstance(dealias, bool), f"dealias must be true or false, got {dealias!r}")
        scale = _section(doc, "params").get("well_scale", DoubleWell.scale)
        params = _read(FluidParams, doc, "params",
                       well=DoubleWell(scale=_number(scale, "params.well_scale")))
        odoc = _section(doc, "output")
        out = out_dir if out_dir is not None else odoc.get("dir")
        cfg = RunConfig(
            grid=grid,
            disc=Discretization(_choice(Scheme, doc.get("scheme", "spectral"), "scheme"),
                                dealias=dealias),
            params=params, model=_choice(ModelKind, doc.get("model", "nsk1"), "model"),
            mobility=_read(MobilitySpec, doc, "mobility", value=params.mobility),
            initial=_read(InitialCondition, doc, "initial"),
            control=_read(StepControl, doc, "step", t_end=0.1),
            out_dir=Path(out) if out else None,
            snapshot_every=_number(odoc.get("snapshot_every", 0), "output.snapshot_every", True),
            metrics_every=_number(odoc.get("metrics_every", 1), "output.metrics_every", True),
            seed=_number(seed if seed is not None else doc.get("seed", 0), "seed", True))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    _reject_unknown(doc, cfg.to_dict())
    return cfg


def load_config(path, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc, out_dir=out_dir, seed=seed)


def write_state_snapshot(state: MixtureState, out_dir: Path, step: int,
                         config_hash: str | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_scalar_csv(state.rho, out_dir / f"snap_{step:06d}_rho.csv", config_hash)
    for i, c in enumerate(state.m.components):
        write_scalar_csv(ScalarField(state.grid, c), out_dir / f"snap_{step:06d}_m{i}.csv",
                         config_hash)


class MetricsWriter:
    """Line-delimited JSON metrics stream."""

    def __init__(self, path: Path, config_hash: str, every: int = 1):
        self.every = every
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
