"""Command-line front end: run, check, convergence, compare.

Exit codes: 0 ok, 2 config or output-directory error, 3 numeric abort, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import CompatibilityError, ConfigError, DomainError, SolverError, StateError
from .harness import load_config, run_simulation, write_state_snapshot
from .models import MixtureState
from .verification import (compare_models, convergence_csv, convergence_table,
                           require_convergence_setup, run_check_suite)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK_FAILED = 4

log = logging.getLogger("korteweg")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="korteweg",
        description="Reduced Navier-Stokes-Korteweg two-phase flow toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="rng seed (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_run = sub.add_parser("run", help="integrate a configured simulation")
    p_run.add_argument("config")
    common(p_run)

    p_check = sub.add_parser("check", help="run the certification check suite")
    p_check.add_argument("config")
    p_check.add_argument("--no-2d", action="store_true",
                         help="skip the two-dimensional case")
    common(p_check)

    p_conv = sub.add_parser("convergence", help="manufactured-solution order study")
    p_conv.add_argument("config")
    p_conv.add_argument("--n", required=True,
                        help="comma-separated resolutions, e.g. 32,64,128,256")
    common(p_conv)

    p_cmp = sub.add_parser("compare", help="compare an nsk1 and an nsk2 run")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    common(p_cmp)
    return ap


def _write(dest: Path | None, name: str, text: str) -> None:
    """Write a report file ``name`` into ``dest``, made if missing; nothing without one."""
    if dest is not None:
        dest.mkdir(parents=True, exist_ok=True)
        (dest / name).write_text(text)


def _emit_failure(out_dir: Path | None, exc: Exception) -> None:
    """The failure record on stderr and in ``out_dir``'s failure.json, with a numeric
    abort's last good state as snapshots beside it (its ``state_files``); on stderr
    only where ``out_dir`` cannot be written."""
    record = {"error": type(exc).__name__, "message": str(exc)}
    record.update((k, getattr(exc, k)) for k in ("step", "t", "dt")   # numeric aborts
                  if getattr(exc, k, None) is not None)
    state = getattr(exc, "state", None)
    try:
        if out_dir is not None and isinstance(state, MixtureState):
            record["state_files"] = write_state_snapshot(state, out_dir, 0, stem="last_good")
        _write(out_dir, "failure.json", json.dumps(record, indent=1))
    except OSError:
        pass
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    out_dir = Path(args.out) if args.out else None
    try:
        if args.command == "run":
            cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
            out_dir = out_dir or cfg.out_dir
            run_simulation(cfg, quiet=args.quiet)
            return EXIT_OK

        if args.command == "check":
            cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
            report = run_check_suite(cfg.params, include_2d=not args.no_2d)
            for r in report.results:
                print(r.line())
            print(f"{len(report.results) - len(report.failures)}/{len(report.results)} "
                  f"checks passed in {report.wallclock:.1f}s")
            doc = {**report.to_dict(), "config": cfg.config_hash()}
            _write(cfg.out_dir, "check_report.json", json.dumps(doc, indent=1, default=float))
            return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED

        if args.command == "convergence":
            cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
            require_convergence_setup(cfg)
            try:
                resolutions = [int(v) for v in args.n.split(",") if v]
            except ValueError:
                raise ConfigError(f"--n needs comma-separated integers, got {args.n!r}") from None
            table = convergence_csv(convergence_table(cfg.params, cfg.model, cfg.disc,
                                                      resolutions))
            print(table, end="")
            _write(cfg.out_dir, "convergence.csv", table)
            return EXIT_OK

        if args.command == "compare":
            cfg_a = load_config(args.config_a, out_dir=args.out, seed=args.seed)
            cfg_b = load_config(args.config_b, out_dir=args.out, seed=args.seed)
            text = json.dumps(compare_models(cfg_a, cfg_b).to_dict(), indent=1)
            print(text)
            _write(cfg_a.out_dir, "compare_report.json", text)
            return EXIT_OK

    except (ConfigError, CompatibilityError, DomainError, OSError) as exc:
        _emit_failure(out_dir, exc)
        return EXIT_CONFIG
    except (StateError, SolverError, FloatingPointError, OverflowError) as exc:
        _emit_failure(out_dir, exc)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
