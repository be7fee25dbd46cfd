"""The run-config format: every bundled and benchmark config reads, hashes
and round-trips unchanged, an entry the format does not have is an error, and
the classes a config builds refuse non-finite numbers."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from korteweg import ConfigError, DoubleWell, FluidParams, Grid, Mobility, StepControl
from korteweg.harness import config_from_dict

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

BUNDLED_HASHES = {
    "literal_convention": "5cf8eeca0bbbceda",
    "nsk1_interface": "41fb3b875bde3f0b",
    "nsk2_interface": "b5d7ccbb9e391daf",
    "nsk2_neumann": "9824e33fb3acc942",
}


def _workload_docs() -> dict:
    """Every run config the benchmark builds, read from its module without running it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses resolve their module
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    docs = {f"{w.name}/{size}/{sub.label}": sub.doc
            for w in workloads.WORKLOADS.values()
            for size, subs in w.subruns.items() for sub in subs}
    for model in ("nsk1", "nsk2"):   # the configs certify reads its params from
        docs[f"certify/{model}"] = workloads._doc(model, (128,), t_end=0.2, scheme="fd2")
    return docs


DOCS = {**{p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))},
        **_workload_docs()}


def test_every_config_is_collected():
    assert len(DOCS) == 18
    assert sorted(BUNDLED_HASHES) == sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(DOCS))
def test_config_round_trips_through_to_dict(name):
    cfg = config_from_dict(DOCS[name])
    assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("name", sorted(BUNDLED_HASHES))
def test_bundled_config_hash_is_pinned(name):
    assert config_from_dict(DOCS[name]).config_hash() == BUNDLED_HASHES[name]


@pytest.mark.parametrize("name", sorted(DOCS))
def test_unknown_entries_are_config_errors(name):
    doc = DOCS[name]
    with pytest.raises(ConfigError, match="unknown config entry 'modle'"):
        config_from_dict({**doc, "modle": "nsk2"})
    for key, section in doc.items():
        if isinstance(section, dict):
            with pytest.raises(ConfigError, match=f"unknown config entry '{key}.bogus'"):
                config_from_dict({**doc, key: {**section, "bogus": 1}})


def test_section_defaults_come_from_the_classes():
    cfg = config_from_dict({"grid": {"n": [16], "length": [1.0]},
                            "params": {"mobility": 2.5}})
    assert cfg.control.t_end == 0.1 and cfg.mobility.value == 2.5
    doc = cfg.to_dict()
    assert doc["params"]["well_scale"] == 1.0 and doc["step"]["dt_fixed"] is None
    assert doc["initial"]["family"] == "constant" and doc["mobility"]["kind"] == "constant"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: Grid.periodic(16, NAN), lambda: Grid.periodic((16, 16), (1.0, INF)),
    lambda: Grid.bounded_neumann_1d(16, -INF),
    lambda: FluidParams(delta=NAN), lambda: FluidParams(tau1=INF),
    lambda: FluidParams(temperature=INF), lambda: FluidParams(shear_viscosity=NAN),
    lambda: FluidParams(bulk_viscosity=-INF), lambda: FluidParams(mobility=NAN),
    lambda: Mobility(NAN), lambda: Mobility(INF),
    lambda: Mobility([1.0, INF]), lambda: Mobility([1.0, NAN]),
    lambda: DoubleWell(scale=NAN), lambda: DoubleWell(scale=INF),
    lambda: StepControl(t_end=NAN), lambda: StepControl(t_end=INF),
    lambda: StepControl(dt_max=INF), lambda: StepControl(dt_fixed=INF),
], ids=["grid-nan", "grid-2d-inf", "bounded-neg-inf", "delta-nan", "tau1-inf",
        "temperature-inf", "shear-nan", "bulk-neg-inf", "params-mobility-nan",
        "mobility-nan", "mobility-inf", "spatial-inf", "spatial-nan", "well-nan", "well-inf",
        "t_end-nan", "t_end-inf", "dt_max-inf", "dt_fixed-inf"])
def test_non_finite_numbers_are_config_errors(build):
    # a NaN passes every comparison-based range check; t_end = NaN would step
    # to the budget, as StepControl.reached is never true
    with pytest.raises(ConfigError, match="must be finite"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Grid.periodic(16.7), lambda: Grid.periodic(INF), lambda: Grid.periodic(NAN),
    lambda: Grid.periodic(True), lambda: Grid.periodic((16, 12.5)),
    lambda: Grid.periodic(("16",)), lambda: Grid.bounded_neumann_1d(16.5),
    lambda: Grid.bounded_neumann_1d(NAN),
], ids=["fraction", "inf", "nan", "bool", "2d-fraction", "string", "bounded-fraction",
        "bounded-nan"])
def test_cell_counts_must_be_whole_numbers(build):
    # int() would truncate 16.7 to 16 cells and raise OverflowError or
    # ValueError on an infinity or a NaN
    with pytest.raises(ConfigError, match="Grid.n"):
        build()


def test_integral_cell_counts_of_any_number_type_build_the_same_grid():
    assert Grid.periodic(16.0) == Grid.periodic(np.int64(16)) == Grid.periodic(16)
    assert Grid.periodic(16).n == (16,) and type(Grid.periodic(16.0).n[0]) is int
