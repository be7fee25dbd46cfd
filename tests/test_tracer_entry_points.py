"""Every entry point the benchmark tracer patches still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _inner in tracer.ENTRY_POINTS:
        owner, name = importlib.import_module(f"korteweg.{modname}"), attr
        if "." in attr:   # a method: the tracer reads the class's own __dict__
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name, None)
        if not callable(vars(owner).get(name) if owner is not None else None):
            missing.append(f"{modname}.{attr}")
    assert missing == []
