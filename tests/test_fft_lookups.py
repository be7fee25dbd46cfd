"""No module calls a numpy.fft transform, and only operators.py names pocketfft's gufuncs.

Every transform goes through ``_Calculus.forward``/``inverse`` in
``operators.py``, which call the gufuncs of numpy's private
``numpy.fft._pocketfft_umath`` directly.  The transform-count tests
(``tests/test_models.py``, ``tests/test_timestepping.py``) patch those two
methods, so a transform made any other way (a ``numpy.fft`` function, or a
gufunc reached from another module) would hide from them.  ``operators.py``
still calls numpy.fft's frequency helpers, in place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "korteweg"
PRIVATE = "_pocketfft_umath"
FREQUENCIES = {"rfftfreq", "fftfreq"}


def pocketfft_references(source: str) -> list[int]:
    """The lines that name ``_pocketfft_umath``: in an import or as an attribute."""
    refs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(PRIVATE in n for n in names + [a.name for a in node.names]):
                refs.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == PRIVATE:
            refs.append(node.lineno)
    return refs


def fft_references(source: str) -> list[tuple[int, str | None]]:
    """(line, the name called in place or None) per reference to numpy.fft in
    ``source`` other than to its ``_pocketfft_umath``: an import of it, or
    ``<numpy>.fft``, which is a call in place only inside ``<numpy>.fft.<name>(...)``."""
    tree = ast.parse(source)
    numpy = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names if a.name == "numpy"}
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") and PRIVATE not in a.name
                   for a in node.names):
                refs.append((node.lineno, None))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if PRIVATE in module:
                continue
            if (module.startswith("numpy.fft") and any(a.name != PRIVATE for a in node.names)
                    or module == "numpy" and any(a.name == "fft" for a in node.names)):
                refs.append((node.lineno, None))
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in numpy):
            name = parent[node]
            if isinstance(name, ast.Attribute) and name.attr == PRIVATE:
                continue
            call = parent.get(name)
            in_place = (isinstance(name, ast.Attribute) and isinstance(call, ast.Call)
                        and call.func is name)
            refs.append((node.lineno, name.attr if in_place else None))
    return refs


MODULES = sorted(p.name for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_numpy_fft_is_called_in_place_in_operators_only(module):
    # and there only for the frequency helpers: no module calls a transform
    refs = fft_references((SRC / module).read_text())
    if module != "operators.py":
        assert refs == [], f"{module} references numpy.fft (lines {[r[0] for r in refs]})"
        return
    assert refs, "operators.py takes its wavenumbers from numpy.fft's frequency helpers"
    other = [line for line, name in refs if name not in FREQUENCIES]
    assert other == [], f"operators.py uses numpy.fft beyond its frequencies (lines {other})"


@pytest.mark.parametrize("module", MODULES)
def test_pocketfft_gufuncs_are_named_in_operators_only(module):
    refs = pocketfft_references((SRC / module).read_text())
    if module == "operators.py":
        assert refs, "operators.py binds the transforms to pocketfft's gufuncs"
    else:
        assert refs == [], f"{module} names {PRIVATE} (lines {refs})"


@pytest.mark.parametrize("source, in_place", [
    ("import numpy as np\ny = np.fft.rfft(x)", ["rfft"]),
    ("import numpy as xp\ny = xp.fft.irfftn(a, s=s, axes=(0, 1))", ["irfftn"]),
    ("import numpy as np\nrfft = np.fft.rfft", [None]),
    ("import numpy as np\ndef f(x, rfft=np.fft.rfft):\n    return rfft(x)", [None]),
    ("import numpy as np\nclass C:\n    def __init__(self):\n        self.rfft = np.fft.rfft",
     [None]),
    ("import numpy as np\nfft = np.fft\ny = fft.rfft(x)", [None]),
    ("import numpy as np\ny = (np.fft.rfft if a else np.fft.rfftn)(x)", [None, None]),
    ("import numpy.fft as npfft", [None]),
    ("from numpy.fft import rfft", [None]),
    ("from numpy import fft", [None]),
    ("import numpy as np\ny = np.sum(x)", []),
    ("import numpy as np\nk = np.fft.rfftfreq(8, d=0.5)", ["rfftfreq"]),
    ("from numpy.fft import _pocketfft", [None]),
    ("from numpy.fft import _pocketfft_umath as pfu", []),
    ("import numpy as np\ny = np.fft._pocketfft_umath.irfft(a, 0.5, out=b)", []),
], ids=["call", "call-alias", "module-alias", "default-argument", "attribute",
        "namespace-alias", "conditional", "import-module", "import-from", "import-fft",
        "none", "frequencies", "import-wrappers", "import-gufuncs", "gufunc-attribute"])
def test_fft_references_tells_calls_from_bindings(source, in_place):
    assert [r[1] for r in fft_references(source)] == in_place


@pytest.mark.parametrize("source, lines", [
    ("from numpy.fft import _pocketfft_umath as pfu", [1]),
    ("import numpy.fft._pocketfft_umath", [1]),
    ("from numpy.fft._pocketfft_umath import irfft", [1]),
    ("import numpy as np\nf = np.fft._pocketfft_umath.irfft", [2]),
    ("import numpy as np\ny = np.fft.irfft(a)", []),
], ids=["import-from", "import-module", "import-gufunc", "attribute", "wrapper"])
def test_pocketfft_references_finds_every_naming(source, lines):
    assert pocketfft_references(source) == lines
