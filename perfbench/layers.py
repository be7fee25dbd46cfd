"""Per-layer metrics derived from the spans of one traced operation.

``PER_LAYER`` is the catalogue: name, unit, the end-to-end metric and
workload the number should move, and the workload where it should stay
put.  A layer that a workload never reaches reports 0 there.
"""

from __future__ import annotations

import statistics

CHECK_GROUPS = ("constitutive", "operators", "elliptic", "korteweg_identity",
                "reduction_certificates", "equilibrium_and_conservation",
                "temporal_order", "shared_capillary_structure", "two_d_case")

# name, unit, (end-to-end metric, workload it should move), workload where it should not move
PER_LAYER = (
    ("fields.constructions_per_step", "count",
     "op_ref_s on interface_1d and variable_mobility", "interface_2d (~0 share)"),
    ("fields.validate_ms_per_step", "ms",
     "op_ref_s on interface_1d and variable_mobility", "interface_2d (~0 share)"),
    ("constitutive.ms_per_step", "ms", "op_ref_s on interface_1d", "certify"),
    ("operators.fft_per_rhs.nsk1", "count", "op_ref_s on interface_2d (14 in 1-D, 37 in 2-D)",
     "certify"),
    ("operators.fft_per_rhs.nsk2", "count", "op_ref_s on interface_2d (18 in 1-D, 43 in 2-D)",
     "certify"),
    ("operators.fft_bytes_per_rhs", "bytes", "op_ref_s on interface_2d (computed from array sizes)",
     "certify"),
    ("operators.fft_ms_per_rhs", "ms", "op_ref_s on interface_2d", "certify"),
    ("operators.deriv_ms.grad", "ms", "op_ref_s on interface_2d", "certify"),
    ("operators.deriv_ms.div", "ms", "op_ref_s on interface_2d", "certify"),
    ("operators.deriv_ms.div_tensor", "ms", "op_ref_s on interface_2d", "certify"),
    ("tensors.korteweg_ms", "ms", "op_ref_s on interface_2d and interface_1d", "certify"),
    ("tensors.stress_ms", "ms", "op_ref_s on interface_2d and interface_1d", "certify"),
    ("models.rhs_self_ms", "ms", "op_ref_s on interface_1d", "certify"),
    ("models.rhs_calls_per_step", "count", "op_ref_s on interface_1d (exactly 3)", "all (fixed by SSP-RK3)"),
    ("models.solves_per_gap", "count", "op_ref_s on certify (2 per NSK2 gap)", "interface_1d, interface_2d"),
    ("elliptic.solves_per_rhs", "count", "op_ref_s on variable_mobility", "interface_1d, interface_2d"),
    ("elliptic.cg_iters.neumann", "count", "op_ref_s on variable_mobility", "interface_1d, interface_2d"),
    ("elliptic.cg_iters.periodic", "count", "op_ref_s on variable_mobility", "interface_1d, interface_2d"),
    ("elliptic.solve_ms.neumann", "ms", "op_ref_s on variable_mobility", "interface_1d, interface_2d"),
    ("elliptic.solve_ms.periodic", "ms", "op_ref_s on variable_mobility",
     "interface_1d, interface_2d (constant-mobility Fourier solve)"),
    ("timestepping.steps_per_cpu_s", "1/s", "op_ref_s on every run workload (untraced)", "certify"),
    ("timestepping.step_cpu_ms_p50", "ms", "op_ref_s on every run workload (untraced)", "certify"),
    ("timestepping.step_cpu_ms_tail", "ms", "op_ref_s on interface_1d (untraced; p99, else p95)",
     "certify"),
    ("timestepping.step_ms", "ms", "op_ref_s on interface_1d", "certify"),
    ("timestepping.dt_ms", "ms", "op_ref_s on interface_1d", "certify"),
    ("timestepping.metrics_ms", "ms", "op_ref_s on interface_1d", "interface_2d"),
    ("harness.io_ms_per_step", "ms", "op_ref_s on interface_1d", "interface_2d, variable_mobility (no output dir)"),
    ("harness.bytes_written", "bytes", "op_ref_s on interface_1d", "interface_2d, variable_mobility (no output dir)"),
    ("initial.build_ms", "ms", "setup_s on every workload", "op_ref_s on every workload"),
    ("manufactured.oracle_s", "s", "op_ref_s on certify", "interface_1d, interface_2d, variable_mobility"),
    ("manufactured.eval_ms", "ms", "op_ref_s on certify", "interface_1d, interface_2d, variable_mobility"),
    *((f"verification.group_s.{g}", "s", "op_ref_s on certify",
       "interface_1d, interface_2d, variable_mobility") for g in CHECK_GROUPS),
    ("verification.check_s", "s", "op_ref_s on certify (the korteweg check command)",
     "interface_1d, interface_2d, variable_mobility"),
    ("verification.convergence_s", "s", "op_ref_s on certify (the korteweg convergence command)",
     "interface_1d, interface_2d, variable_mobility"),
    ("trace.op_cpu_s", "s", "none: CPU seconds of a traced operation", "-"),
    ("trace.overhead_pct", "%", "none: cost of tracing, (traced - untraced) / untraced op_ref_s",
     "-"),
)

_MARKERS = {"timestepping.integrate": "integrate", "timestepping.ssprk3_step": "step",
            "models.rhs_nsk1": "rhs", "models.rhs_nsk2": "rhs",
            "models.momentum_equivalence_gap.nsk2": "gap2"}
_SOLVES = ("elliptic.invert_periodic", "elliptic.invert_neumann_1d")


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans: list[list], bytes_written: int = 0) -> dict[str, float]:
    """Per-layer numbers of one traced operation (excluding the trace.* pair)."""
    by_id = {s[0]: s for s in spans}
    subtree: dict[int, dict] = {}
    child_s: dict[int, float] = {}
    for sid, parent, _name, start, end, counts in spans:   # children close first
        tot = subtree.setdefault(sid, {})
        for key, val in counts.items():
            tot[key] = tot.get(key, 0) + val
        if parent is not None:
            ptot = subtree.setdefault(parent, {})
            for key, val in tot.items():
                ptot[key] = ptot.get(key, 0) + val
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)

    above: dict[int, frozenset] = {}

    def markers(sid) -> frozenset:
        """Markers of the spans strictly above ``sid``."""
        if sid not in above:
            parent = by_id[sid][1]
            if parent is None:
                above[sid] = frozenset()
            else:
                mark = _MARKERS.get(by_id[parent][2])
                above[sid] = markers(parent) | ({mark} if mark else frozenset())
        return above[sid]

    named: dict[str, list] = {}
    for span in spans:
        named.setdefault(span[2], []).append(span)

    def of(*names) -> list:
        return [s for n in names for s in named.get(n, ())]

    def mean_ms(*names) -> float:
        sel = of(*names)
        return statistics.fmean((s[4] - s[3]) * 1e3 for s in sel) if sel else 0.0

    def total_s(*names) -> float:
        return float(sum(s[4] - s[3] for s in of(*names)))

    def summed(sel, key) -> float:
        return sum(subtree[s[0]].get(key, 0) for s in sel)

    steps = len(of("timestepping.ssprk3_step"))
    integrate = of("timestepping.integrate")
    rhs1, rhs2 = of("models.rhs_nsk1"), of("models.rhs_nsk2")
    rhs = rhs1 + rhs2
    solves = of(*_SOLVES)
    gaps = of("models.momentum_equivalence_gap.nsk2")
    root = subtree[0]
    constitutive = [s for n, sel in named.items() if n.startswith("constitutive.")
                    for s in sel if "integrate" in markers(s[0])]

    out = {
        "fields.constructions_per_step": _ratio(summed(integrate, "fields.n"), steps),
        "fields.validate_ms_per_step": _ratio(summed(integrate, "fields.s") * 1e3, steps),
        "constitutive.ms_per_step": _ratio(sum(s[4] - s[3] for s in constitutive) * 1e3, steps),
        "operators.fft_per_rhs.nsk1": _ratio(summed(rhs1, "fft.n"), len(rhs1)),
        "operators.fft_per_rhs.nsk2": _ratio(summed(rhs2, "fft.n"), len(rhs2)),
        "operators.fft_bytes_per_rhs": _ratio(summed(rhs, "fft.bytes"), len(rhs)),
        "operators.fft_ms_per_rhs": _ratio(summed(rhs, "fft.s") * 1e3, len(rhs)),
        "operators.deriv_ms.grad": mean_ms("operators.grad"),
        "operators.deriv_ms.div": mean_ms("operators.div"),
        "operators.deriv_ms.div_tensor": mean_ms("operators.div_tensor"),
        "tensors.korteweg_ms": mean_ms("tensors.korteweg_tensor"),
        "tensors.stress_ms": mean_ms("tensors.augmented_cauchy_stress",
                                     "tensors.nonlocal_cauchy_stress"),
        "models.rhs_self_ms": (statistics.fmean((s[4] - s[3] - child_s.get(s[0], 0.0)) * 1e3
                                                for s in rhs) if rhs else 0.0),
        "models.rhs_calls_per_step": _ratio(sum("step" in markers(s[0]) for s in rhs), steps),
        "models.solves_per_gap": _ratio(sum("gap2" in markers(s[0]) for s in solves), len(gaps)),
        "elliptic.solves_per_rhs": _ratio(sum("rhs" in markers(s[0]) for s in solves), len(rhs)),
        "elliptic.cg_iters.neumann": _ratio(root.get("cg.neumann.iters", 0),
                                            root.get("cg.neumann.solves", 0)),
        "elliptic.cg_iters.periodic": _ratio(root.get("cg.periodic.iters", 0),
                                             root.get("cg.periodic.solves", 0)),
        "elliptic.solve_ms.neumann": mean_ms("elliptic.invert_neumann_1d"),
        "elliptic.solve_ms.periodic": mean_ms("elliptic.invert_periodic"),
        "timestepping.step_ms": mean_ms("timestepping.ssprk3_step"),
        "timestepping.dt_ms": mean_ms("timestepping.dt_candidates"),
        "timestepping.metrics_ms": mean_ms("timestepping.step_metrics"),
        "harness.io_ms_per_step": _ratio(total_s("harness.write_state_snapshot",
                                                 "harness.MetricsWriter.__call__") * 1e3, steps),
        "harness.bytes_written": float(bytes_written),
        "initial.build_ms": mean_ms("initial.InitialCondition.build", "initial.CorpusState.on_grid"),
        "manufactured.oracle_s": total_s("manufactured.exact_rhs"),
        "manufactured.eval_ms": mean_ms("manufactured.eval"),
        "verification.check_s": total_s("verification.run_check_suite"),
        "verification.convergence_s": total_s("verification.convergence_table.nsk1",
                                              "verification.convergence_table.nsk2"),
    }
    for group in CHECK_GROUPS:
        out[f"verification.group_s.{group}"] = total_s(f"verification.check_{group}")
    return out
