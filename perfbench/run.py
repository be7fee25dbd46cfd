"""Benchmark entry point for the korteweg package.

    python3 perfbench/run.py --workload interface_1d --seed 1 --seconds 20 --trace 0

Runs operations of one workload in a closed loop, each in a fresh process
(``worker.py``), and ends at the operation boundary nearest to ``--seconds``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` operations alternate untraced and traced and it carries the
per-layer metrics plus the tracing overhead.  Every operation's outputs
are checked; the exit code is 1 when any check failed, 2 when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import INTERVAL_S, REFERENCE_S, tick_cpu_s  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 8            # setup_s is the median of at least this many set-ups
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine_facts() -> dict:
    """nproc, cache sizes and the numeric stack the numbers were taken on."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    versions = {}
    for pkg in ("numpy", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cache_per_core": caches, **versions,
            "fft_backend": "numpy.fft (pocketfft)", "python": sys.version.split()[0]}


def spawn(args, rep: int, mode: str, work: Path, spans: Path | None) -> dict:
    """Run one worker process to completion and return its record.

    While the worker runs, this process times the host-speed kernel every
    ``INTERVAL_S`` on the same CPU; the ticks inside the worker's timed
    section give ``host_speed``, its speed relative to the reference.
    """
    # a fixed hash seed keeps sympy's set and dict orders, and with them its
    # simplification paths, the same in every operation
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--mode", mode,
           "--size", args.size, "--work", str(work / f"{args.workload}-{rep}")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    work.mkdir(parents=True, exist_ok=True)
    out_path, err_path = (work / f"{args.workload}-{rep}.{s}" for s in ("out", "err"))
    ticks: list[tuple[float, float]] = []      # (time.monotonic() at start, CPU seconds)
    timed_out = False
    t0 = time.monotonic()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd + ["--spawn", repr(t0)], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        try:
            while proc.poll() is None:
                if time.monotonic() - t0 > CHILD_TIMEOUT_S:
                    timed_out = True
                    break
                ticks.append((time.monotonic(), tick_cpu_s()))
                try:
                    proc.wait(timeout=INTERVAL_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    duration = time.monotonic() - t0
    stdout, stderr = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    if timed_out:
        return {"problems": [f"rep {rep}: timed out after {CHILD_TIMEOUT_S} s"],
                "duration_s": duration}
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(stderr)
        return {"problems": [f"rep {rep}: worker exited {proc.returncode} without a result"],
                "duration_s": duration}
    if proc.returncode != 0 or record["problems"]:
        sys.stderr.write(stderr)
    record["duration_s"] = duration
    record["problems"] = [f"rep {rep}: {p}" for p in record["problems"]]
    lo, hi = record.get("op_window", (t0, t0 + duration))
    inside = [cpu for t, cpu in ticks if lo <= t <= hi] or [cpu for _, cpu in ticks] \
        or [tick_cpu_s()]
    record["host_speed"] = statistics.fmean(inside) / REFERENCE_S
    return record


def tail(samples: list[float], declared: float) -> tuple[float, float]:
    """(percentile, value): the declared percentile, or the next lower one
    that still leaves at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (q for q in TAIL_LADDER if q <= declared):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return 50.0, statistics.median(ordered)


def step_stats(workload, ops: list[dict], key: str) -> tuple[float, float, float, float, int]:
    """(steps per second, p50 ms, tail percentile, tail ms, samples) of per-step times."""
    steps = [s for op in ops for s in op[key]]
    pct, tail_s = tail(steps, workload.tail_percentile)
    return (len(steps) / sum(steps), statistics.median(steps) * 1e3, pct, tail_s * 1e3,
            len(steps))


def end_to_end(workload, ops: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    """Bounded metrics on process CPU time; step latencies and wall-clock twins go to
    the notes."""
    values = {
        "setup_s": ("s", statistics.median(r["setup_s"] for r in setups)),
        "op_ref_s": ("s", statistics.median(op["cpu_s"] / op["host_speed"] for op in ops)),
        "peak_rss_mb": ("MB", statistics.median(op["rss_mb"] for op in ops)),
    }
    notes = [f"setup_s is the median of {len(setups)} set-ups, op_ref_s the median of "
             f"{len(ops)} operations",
             "op CPU s: " + " ".join(f"{op['cpu_s']:.4g}" for op in ops)
             + f" (mean {statistics.fmean(op['cpu_s'] for op in ops):.6g})",
             "host speed (kernel s / reference): "
             + " ".join(f"{op['host_speed']:.3g}" for op in ops)]
    for clock, key in (("CPU", "step_cpu_s"), ("wall", "step_wall_s")):
        rate, p50, pct, tail_ms, n = step_stats(workload, ops, key)
        notes.append(f"{clock} clock steps: {rate:.6g} steps/s, p50 {p50:.6g} ms, "
                     f"p{pct:g} {tail_ms:.6g} ms, over {n} steps")
    notes.append(f"wall clock: setup_s {statistics.median(r['setup_wall_s'] for r in setups):.6g} s "
                 f"(from the spawn), op {statistics.median(op['wall_s'] for op in ops):.6g} s")
    for key in ("check_s", "convergence_s"):
        got = [op[key] for op in ops if key in op]
        if got:
            notes.append(f"{key} = {statistics.median(got):.6g} s (CPU)")
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}, notes


def per_layer(workload, timed: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced operations; step latencies and the tracing overhead
    come from the untraced ones."""
    out = {name: statistics.median(op["layers"][name] for op in traced)
           for name in traced[0]["layers"]}
    rate, p50, pct, tail_ms, n = step_stats(workload, timed, "step_cpu_s")
    out.update({"timestepping.steps_per_cpu_s": rate, "timestepping.step_cpu_ms_p50": p50,
                "timestepping.step_cpu_ms_tail": tail_ms})
    timed_ref = statistics.median(op["cpu_s"] / op["host_speed"] for op in timed)
    traced_ref = statistics.median(op["cpu_s"] / op["host_speed"] for op in traced)
    out["trace.op_cpu_s"] = statistics.median(op["cpu_s"] for op in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_ref - timed_ref) / timed_ref
    notes = [f"timestepping.step_cpu_ms_tail is p{pct:g} of {n} untraced steps",
             f"tracing overhead: traced op_ref_s {traced_ref:.6g} s vs untraced "
             f"{timed_ref:.6g} s over {len(traced)}/{len(timed)} operations"]
    return {name: {"value": out[name], "unit": unit} for name, unit, *_ in PER_LAYER}, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small grids for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "korteweg" / "__init__.py").is_file():
        print(f"korteweg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the worker processes inherit this one CPU, so that the host-speed probe in
    # spawn() runs where the operation runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work"
    span_dir = work / "spans"
    if args.trace:
        span_dir.mkdir(parents=True, exist_ok=True)
        for old in span_dir.glob(f"{args.workload}-*"):
            old.unlink()

    ops: list[dict] = []
    setups: list[dict] = []
    problems: list[str] = []
    start = time.monotonic()
    rep = 0
    while True:
        mode = "traced" if args.trace and rep % 2 == 1 else "timed"
        spans = span_dir / f"{args.workload}-seed{args.seed}-rep{rep}.jsonl" \
            if mode == "traced" else None
        record = spawn(args, rep, mode, work, spans)
        record["mode"] = mode
        ops.append(record)
        problems += record["problems"]
        if "setup_s" in record:
            setups.append(record)
        rep += 1
        elapsed = time.monotonic() - start
        typical = statistics.fmean(op["duration_s"] for op in ops)
        # end at the operation boundary nearest to --seconds: a long operation
        # (certify's ~16 s) then fills the run instead of leaving half of it idle
        if (rep >= 1 + args.trace and elapsed + typical / 2 > args.seconds) or problems:
            break
    while len(setups) < MIN_SETUPS and not problems:
        record = spawn(args, rep, "setup", work, None)
        problems += record["problems"]
        if "setup_s" in record:
            setups.append(record)
        rep += 1
    for leftover in work.glob(f"{args.workload}-*"):
        shutil.rmtree(leftover, ignore_errors=True)

    attempted = rep
    failed = len({p.split(":", 1)[0] for p in problems})
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} operations "
          f"({'alternating untraced/traced' if args.trace else 'untraced'}), "
          f"each in a fresh process, closed loop")
    print(f"machine: {json.dumps(machine_facts())}")
    metrics = {}
    if not problems:
        if args.trace:
            metrics, notes = per_layer(workload, [o for o in ops if o["mode"] == "timed"],
                                       [o for o in ops if o["mode"] == "traced"])
        else:
            metrics, notes = end_to_end(workload, ops, setups)
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        for note in notes:
            print(f"  note: {note}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
