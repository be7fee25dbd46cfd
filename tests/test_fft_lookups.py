"""Every numpy.fft transform is looked up when it is called, and only in operators.py.

The transform-count tests (``tests/test_models.py``,
``tests/test_timestepping.py``) and the benchmark tracer count transforms by
patching ``numpy.fft``.  A transform bound to a name ahead of the call (a
module alias, a default argument, an attribute) keeps the unpatched function
and hides its calls from them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "korteweg"


def fft_references(source: str) -> list[tuple[int, bool]]:
    """(line, called in place) per reference to numpy.fft in ``source``: an import of
    it, or ``<numpy>.fft``, which counts as called in place only inside
    ``<numpy>.fft.<name>(...)``."""
    tree = ast.parse(source)
    numpy = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names if a.name == "numpy"}
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") for a in node.names):
                refs.append((node.lineno, False))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.fft") or (
                    module == "numpy" and any(a.name == "fft" for a in node.names)):
                refs.append((node.lineno, False))
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in numpy):
            name = parent[node]
            call = parent.get(name)
            in_place = (isinstance(name, ast.Attribute) and isinstance(call, ast.Call)
                        and call.func is name)
            refs.append((node.lineno, in_place))
    return refs


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_numpy_fft_is_called_in_place_in_operators_only(module):
    refs = fft_references((SRC / module).read_text())
    if module != "operators.py":
        assert refs == [], f"{module} references numpy.fft (lines {[r[0] for r in refs]})"
        return
    assert refs, "operators.py holds the transforms"
    bound = [line for line, in_place in refs if not in_place]
    assert bound == [], f"operators.py binds numpy.fft ahead of the call (lines {bound})"


@pytest.mark.parametrize("source, in_place", [
    ("import numpy as np\ny = np.fft.rfft(x)", [True]),
    ("import numpy as xp\ny = xp.fft.irfftn(a, s=s, axes=(0, 1))", [True]),
    ("import numpy as np\nrfft = np.fft.rfft", [False]),
    ("import numpy as np\ndef f(x, rfft=np.fft.rfft):\n    return rfft(x)", [False]),
    ("import numpy as np\nclass C:\n    def __init__(self):\n        self.rfft = np.fft.rfft",
     [False]),
    ("import numpy as np\nfft = np.fft\ny = fft.rfft(x)", [False]),
    ("import numpy as np\ny = (np.fft.rfft if a else np.fft.rfftn)(x)", [False, False]),
    ("import numpy.fft as npfft", [False]),
    ("from numpy.fft import rfft", [False]),
    ("from numpy import fft", [False]),
    ("import numpy as np\ny = np.sum(x)", []),
], ids=["call", "call-alias", "module-alias", "default-argument", "attribute",
        "namespace-alias", "conditional", "import-module", "import-from", "import-fft",
        "none"])
def test_fft_references_tells_calls_from_bindings(source, in_place):
    assert [r[1] for r in fft_references(source)] == in_place
