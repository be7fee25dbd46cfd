"""One benchmark operation in a fresh process.

Started by ``run.py``; prints one JSON line with the set-up time, the
timed outputs and the correctness verdict.  Modes:

* ``setup``  -- set up and stop (extra ``setup_s`` samples);
* ``timed``  -- set up, run the operation untraced, check it;
* ``traced`` -- the same with spans and counters, written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import StepClock, Tracer  # noqa: E402


def execute(name: str, size: str, seed: int, rep: int, mode: str, work: Path,
            spawn: float, spans: Path | None = None) -> dict:
    """Set up and (unless ``mode == "setup"``) run and check one operation."""
    workload = workloads.WORKLOADS[name]
    tracer = None
    if mode == "traced":
        # installed before set-up, so that initial-state builds are traced too
        workloads.import_program(workload)
        tracer = Tracer(f"{name}/{seed}/{rep}")
        tracer.install()
    clock = StepClock()
    record = {"problems": []}
    try:
        prep = workloads.prepare(workload, size, seed, rep, work)
        record["setup_s"] = time.process_time()
        record["setup_wall_s"] = time.monotonic() - spawn
        if mode == "setup":
            return record
        t0 = time.monotonic()
        with clock:
            out = workloads.run_op(prep)
        record["op_window"] = [t0, time.monotonic()]
    except Exception as exc:  # every failure of the program is a failed operation
        traceback.print_exc()
        record["problems"].append(f"exception: {type(exc).__name__}: {exc}")
        return record
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.finish()

    problems, facts = workloads.check(prep, out, workloads.load_reference())
    record.update(problems=problems, facts=facts, step_wall_s=clock.wall, step_cpu_s=clock.cpu,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for key in ("wall_s", "cpu_s", "check_s", "convergence_s"):
        if key in out:
            record[key] = out[key]
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, facts.get("bytes_written", 0))
        if spans is not None:
            tracer.write(spans)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True, help="scratch directory for program output")
    ap.add_argument("--spans", help="where a traced operation writes its spans")
    args = ap.parse_args(argv)
    record = execute(args.workload, args.size, args.seed, args.rep, args.mode,
                     Path(args.work), args.spawn, Path(args.spans) if args.spans else None)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
