"""Spans and counters recorded from outside the ``korteweg`` package.

The tracer wraps the public entry points of each package module in the
modules that look them up, counts ``numpy.fft`` calls and field
constructions, and reads CG iteration counts from the
``korteweg.elliptic`` logger.  Spans (id, parent, name, start, end) and
their counters stay in memory; ``write`` dumps them once the traced
operation has finished.  ``restore`` puts every patched attribute back.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import sys
import time

import numpy as np

# numpy.fft entry points; korteweg looks them up as ``np.fft.<name>``.
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
             "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft")

# (module, attribute, patch inside the defining module too).  Functions are
# patched wherever a korteweg module holds them; methods on their class.
ENTRY_POINTS = (
    ("operators", "grad", True), ("operators", "div", True),
    ("operators", "div_tensor", True),
    # constitutive helpers call each other; only the calls from other layers count
    ("constitutive", "concentration", False), ("constitutive", "capillarity", False),
    ("constitutive", "bulk_energy_drho", False), ("constitutive", "bulk_energy_d2rho", False),
    ("constitutive", "helmholtz_energy_drho", False),
    ("constitutive", "augmented_bulk_viscosity", False),
    ("constitutive", "phase_mass_density", False),
    ("constitutive", "phase_mass_density_drho", False),
    ("constitutive", "warn_outside_window", False),
    ("tensors", "strain", True), ("tensors", "cauchy_stress", True),
    ("tensors", "augmented_cauchy_stress", True), ("tensors", "nonlocal_cauchy_stress", True),
    ("tensors", "phase_stress", True), ("tensors", "korteweg_tensor", True),
    ("tensors", "korteweg_identity_residual", True),
    ("elliptic", "apply_operator", True), ("elliptic", "invert_periodic", True),
    ("elliptic", "invert_neumann_1d", True), ("elliptic", "invert_freespace_1d", True),
    ("elliptic", "invert_for_model", True),
    ("models", "rhs_nsk1", True), ("models", "rhs_nsk2", True),
    ("models", "reconstruct_fields", True), ("models", "reconstruct_pressure_nsac", True),
    ("models", "reconstruct_pressure_nsch", True),
    ("models", "momentum_equivalence_gap", True),
    ("models", "residual_nsac", True), ("models", "residual_nsch", True),
    ("timestepping", "integrate", True), ("timestepping", "ssprk3_step", True),
    ("timestepping", "dt_candidates", True), ("timestepping", "step_metrics", True),
    ("initial", "InitialCondition.build", True), ("initial", "CorpusState.on_grid", True),
    ("initial", "default_corpus", True),
    ("harness", "config_from_dict", True), ("harness", "run_simulation", True),
    ("harness", "write_state_snapshot", True), ("harness", "MetricsWriter.__call__", True),
    ("manufactured", "exact_rhs", True),
    ("verification", "run_check_suite", True), ("verification", "convergence_table", True),
    ("verification", "check_constitutive", True), ("verification", "check_operators", True),
    ("verification", "check_elliptic", True),
    ("verification", "check_korteweg_identity", True),
    ("verification", "check_reduction_certificates", True),
    ("verification", "check_equilibrium_and_conservation", True),
    ("verification", "check_temporal_order", True),
    ("verification", "check_shared_capillary_structure", True),
    ("verification", "check_two_d_case", True),
)

FIELD_CLASSES = ("ScalarField", "VectorField", "SymTensorField")


def _kind_label(args, kwargs, position):
    kind = kwargs.get("kind", args[position] if len(args) > position else None)
    return f".{kind.value}" if kind is not None else ""


# span-name suffixes that split one entry point by an argument
LABELS = {
    "models.momentum_equivalence_gap": functools.partial(_kind_label, position=2),
    "verification.convergence_table": functools.partial(_kind_label, position=1),
}


class _CgHandler(logging.Handler):
    """Turns the elliptic solver's DEBUG convergence record into counters."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if "cg converged" not in str(record.msg) or len(record.args) < 2:
            return
        boundary = "neumann" if "neumann" in str(record.args[0]) else "periodic"
        self.tracer.count(f"cg.{boundary}.iters", int(record.args[1]))
        self.tracer.count(f"cg.{boundary}.solves", 1)


def _korteweg_modules() -> dict:
    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("korteweg.") and mod is not None}
    mods[""] = sys.modules["korteweg"]
    return mods


class _Patcher:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_everywhere(self, original, wrapper, skip=None) -> None:
        """Replace ``original`` in every korteweg module that holds it."""
        for holder in _korteweg_modules().values():
            if holder is skip:
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class StepClock(_Patcher):
    """Times every accepted step through one extra ``integrate`` observer.

    A step's latency is the gap between consecutive observer calls, so it
    covers the step size estimate, the SSP-RK3 stages, the metrics record
    and the program's own observers.
    """

    def __init__(self):
        super().__init__()
        self.wall: list[float] = []     # wall seconds per accepted step
        self.cpu: list[float] = []      # process CPU seconds per accepted step
        self._last = (0.0, 0.0)

    def _tick(self, step, _state, _dt) -> None:
        now = (time.perf_counter(), time.process_time())
        if step > 0:
            self.wall.append(now[0] - self._last[0])
            self.cpu.append(now[1] - self._last[1])
        self._last = now

    def install(self) -> None:
        timestepping = sys.modules["korteweg.timestepping"]
        original = timestepping.integrate
        signature = inspect.signature(original)

        @functools.wraps(original)
        def integrate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["observers"] = (*bound.arguments.get("observers", ()), self._tick)
            return original(*bound.args, **bound.kwargs)

        self._set_everywhere(original, integrate)


class Tracer(_Patcher):
    """In-memory span recorder; one instance per traced operation."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[list] = []          # [id, parent, name, start, end, counts]
        self._stack: list[list] = [[0, None, "op", time.perf_counter(), None, {}]]
        self._next_id = 1
        self._logger_state = None

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value) -> None:
        counts = self._stack[-1][5]
        counts[key] = counts.get(key, 0) + value

    def _span(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        label = LABELS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self._next_id, stack[-1][0],
                   name + label(args, kwargs) if label else name, 0.0, 0.0, {}]
            self._next_id += 1
            stack.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                spans.append(rec)

        return wrapper

    def _oracle(self, fn):
        """exact_rhs span whose returned callables record an eval span each."""
        traced = self._span("manufactured.exact_rhs", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            drho, dms = traced(*args, **kwargs)
            return (self._span("manufactured.eval", drho),
                    [self._span("manufactured.eval", f) for f in dms])

        return wrapper

    def _counted(self, fn, key: str, nbytes):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            counts = self._stack[-1][5]
            counts[key + ".s"] = counts.get(key + ".s", 0.0) + (clock() - t0)
            counts[key + ".n"] = counts.get(key + ".n", 0) + 1
            if nbytes is not None:
                counts[key + ".bytes"] = counts.get(key + ".bytes", 0) + nbytes(args, out)
            return out

        return wrapper

    def finish(self) -> list[list]:
        root = self._stack[0]
        root[4] = time.perf_counter()
        self.spans.append(root)
        return self.spans

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point of every loaded korteweg module."""
        mods = _korteweg_modules()
        for modname, attr, inner in ENTRY_POINTS:
            mod = mods.get(modname)
            if mod is None:
                continue
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._span(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = (self._oracle(original) if name == "manufactured.exact_rhs"
                       else self._span(name, original))
            self._set_everywhere(original, wrapper, skip=None if inner else mod)
        for cls_name in FIELD_CLASSES:
            cls = getattr(mods["fields"], cls_name)
            self._set(cls, "__post_init__",
                      self._counted(cls.__dict__["__post_init__"], "fields", None))
        fft_bytes = lambda args, out: int(np.asarray(args[0]).nbytes + out.nbytes)
        for fname in FFT_NAMES:
            self._set(np.fft, fname, self._counted(getattr(np.fft, fname), "fft", fft_bytes))
        logger = logging.getLogger("korteweg.elliptic")
        handler = _CgHandler(self)
        self._logger_state = (logger, logger.level, handler)
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)

    def restore(self) -> None:
        super().restore()
        if self._logger_state is not None:
            logger, level, handler = self._logger_state
            logger.removeHandler(handler)
            logger.setLevel(level)
            self._logger_state = None

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     **({"counts": counts} if counts else {})}) + "\n")
