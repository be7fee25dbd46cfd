"""Regenerate ``reference.json`` from the checked-out package.

    python3 perfbench/make_reference.py

Records, for operation 0 of each run workload (the unperturbed state),
the final-state norms of every sub-run, and for ``certify`` the check
names and the convergence tables.  Take it at the commit the benchmark is
meant to hold later commits to; the gate in ``workloads.check`` compares
against it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            prep = workloads.prepare(workload, "full", 0, 0, Path(tmp) / name)
            out = workloads.run_op(prep)
            problems, facts = workloads.check(prep, out, None)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            if name == "certify":
                reference[name] = workloads.certify_summary(out)
            else:
                reference[name] = {label: {k: v for k, v in s.items()
                                           if k not in ("mass_drift", "momentum_drift", "finite")}
                                   for label, s in facts["subruns"].items()}
            print(f"{name}: {out['wall_s']:.2f} s", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
