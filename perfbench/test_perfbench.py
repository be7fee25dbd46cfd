"""Tests of the benchmark itself: exact counts, restored patches, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import logging
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the package sources on sys.path)
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced(name: str, tmp_path: Path, rep: int = 1) -> dict:
    record = worker.execute(name, "tiny", 7, rep, "traced", tmp_path / "work",
                            time.monotonic(), tmp_path / "spans.jsonl")
    assert record["problems"] == []
    return record


@pytest.mark.parametrize("name, nsk1, nsk2", [("interface_1d", 14, 18),
                                              ("interface_2d", 37, 43)])
def test_exact_counts_repeat(name, nsk1, nsk2, tmp_path):
    for rep in (0, 1):
        layers = traced(name, tmp_path, rep)["layers"]
        assert layers["models.rhs_calls_per_step"] == 3
        assert layers["operators.fft_per_rhs.nsk1"] == nsk1
        assert layers["operators.fft_per_rhs.nsk2"] == nsk2
        assert layers["elliptic.solves_per_rhs"] == 0.5


def _snapshot() -> dict:
    held = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "korteweg" or modname.startswith("korteweg."):
            held[modname] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == modname:
                    held[f"{modname}.{attr}"] = dict(vars(value))
    held["numpy.fft"] = dict(vars(np.fft))
    logger = logging.getLogger("korteweg.elliptic")
    held["logger"] = {"level": logger.level, "handlers": list(logger.handlers)}
    return held


def test_patches_are_restored(tmp_path):
    workloads.import_program(workloads.WORKLOADS["certify"])
    before = _snapshot()
    record = traced("variable_mobility", tmp_path)
    assert record["layers"]["elliptic.cg_iters.neumann"] > 0
    assert record["layers"]["elliptic.cg_iters.periodic"] > 0
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        if key == "logger":
            assert after[key] == attrs
            continue
        changed = [a for a in attrs if after[key].get(a) is not attrs[a]]
        assert changed == [], f"{key}: {changed} not restored"
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"run", "id", "parent", "name", "start", "end"} <= spans[0].keys()


def test_gate_flags_reference_mismatch(tmp_path):
    workload = workloads.WORKLOADS["interface_1d"]
    prep = workloads.prepare(workload, "tiny", 7, 0, tmp_path / "work")
    out = workloads.run_op(prep)
    doctored = {}
    for (sub, _cfg), result in zip(prep.configs, out["results"]):
        s = workloads.state_summary(result)
        doctored[sub.label] = dict(s, rho_max=s["rho_max"] * (1 + 1e-6))
    prep.size = "full"   # compare the tiny run against the doctored reference
    problems, _ = workloads.check(prep, out, {"interface_1d": doctored})
    assert len(problems) == 2 and all("rho_max" in p for p in problems)


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_every_workload(name, trace):
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        [(name, unit) for name, unit, *_ in PER_LAYER]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "interface_1d", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode not in (0, None)
    assert "correct" not in proc.stdout
