"""The -Laplacian symbol, the Neumann face mobility, a mobility's constructor,
the mode angle and the tanh interface each have one definition.

``operators._Calculus.k2`` forms |k|^2 (sum (sin(k h) / h)^2 under FD2) from the
first-derivative symbol ``d1``; the inverse symbol, the stress symbol and the
spectral Laplacian read it.  ``elliptic._faces`` forms the face mobility
0.5 (gamma[1:] + gamma[:-1]), which the Neumann operator and its prefix-sum
solve share.  A square of a wavenumber table, or a mean of the neighbouring
entries of an array, anywhere else in the package is a second definition; so
is a neighbour-copy helper ``_neighbours``.  The one other neighbour mean is
the trapezoid rule of the free-space check's oracle, which integrates data and
is not a mobility.

A mobility is made by ``Mobility(v)`` alone: the class defines no ``constant``
or ``spatial`` and no other class or static method.  ``initial.mode_angle`` is
the one division by a grid length (the phase 2 pi k x / L, or pi k x / L
between walls), and ``initial.tanh_profile`` the one plateau-plus-tanh
interface mid + half tanh(s c) / tanh(s).

The conservation flux has one layout, [m; stress - m (x) u], since the 2/3-rule
dealiasing option is gone: no module but ``harness``, which reads and writes
the config entry only as false, names ``dealias``, in an identifier or a
string.  A discretization is a ``grids.Scheme`` member: no module defines a
``Discretization``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "korteweg"
SQUARE_OWNERS = {"operators._Calculus.k2"}
FACE_OWNERS = {"elliptic._faces", "verification.check_elliptic"}
ANGLE_OWNERS = {"initial.mode_angle"}
TANH_OWNERS = {"initial.tanh_profile"}
DEALIAS_OWNERS = {"harness.<module>", "harness.RunConfig.to_dict", "harness.config_from_dict"}


def _owners(tree: ast.Module, module: str):
    """(qualified owner, node) for each node under each top-level function or class
    method of ``tree``, "<module>" for a node outside them."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = item.name if isinstance(item, ast.FunctionDef) else "<class>"
                yield from ((f"{module}.{node.name}.{name}", sub) for sub in ast.walk(item))
        elif isinstance(node, ast.FunctionDef):
            yield from ((f"{module}.{node.name}", sub) for sub in ast.walk(node))
        else:
            yield from ((f"{module}.<module>", sub) for sub in ast.walk(node))


def _mentions(node: ast.AST, names: set[str]) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in names
               or isinstance(sub, ast.Attribute) and sub.attr in names
               for sub in ast.walk(node))


def is_symbol_square(node: ast.AST) -> bool:
    """t * t or t ** 2 of an expression t in a wavenumber table (``ik``, its
    ``imag`` or the first-derivative symbol ``d1``)."""
    if not (isinstance(node, ast.BinOp) and _mentions(node.left, {"ik", "imag", "d1"})):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) \
        and node.right.value == 2


def _slice_of(node: ast.AST):
    """(value, lower, upper) of a subscript a[lower:upper] with constant bounds."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)):
        return None
    try:
        bounds = tuple(b if b is None else ast.literal_eval(b)
                       for b in (node.slice.lower, node.slice.upper))
    except ValueError:   # a bound that is not a constant
        return None
    return ast.dump(node.value), *bounds


def is_neighbour_mean(node: ast.AST) -> bool:
    """a[1:] + a[:-1] or a[:-1] + a[1:]: each entry with the next."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    pair = {_slice_of(node.left), _slice_of(node.right)}
    return any(s is not None for s in pair) and len({s and s[0] for s in pair}) == 1 \
        and {s and s[1:] for s in pair} == {(1, None), (None, -1)}


def is_grid_angle(node: ast.AST) -> bool:
    """a / b with a grid length in b (``grid.length[i]``): the phase of a mode."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
        and _mentions(node.right, {"length"})


def _is_tanh_ratio(node: ast.AST) -> bool:
    """a / tanh(s) with a tanh in a."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
        and isinstance(node.right, ast.Call) and _mentions(node.right.func, {"tanh"}) \
        and _mentions(node.left, {"tanh"})


def is_tanh_profile(node: ast.AST) -> bool:
    """mid + half * tanh(s c) / tanh(s), in either order of the sum."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
        and (_is_tanh_ratio(node.left) or _is_tanh_ratio(node.right))


def mobility_constructors(source: str, module: str) -> set[str]:
    """The methods of a class ``Mobility`` named ``constant`` or ``spatial``, or
    made class or static methods."""
    return {f"{module}.{cls.name}.{item.name}"
            for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and cls.name == "Mobility"
            for item in cls.body if isinstance(item, ast.FunctionDef)
            and (item.name in {"constant", "spatial"}
                 or any(_mentions(dec, {"classmethod", "staticmethod"})
                        for dec in item.decorator_list))}


def _text(node: ast.AST):
    """The identifier a node names (a name, attribute, argument, keyword, import or
    definition), or its value if it is a string constant; None otherwise."""
    for attr in ("id", "attr", "arg", "name", "asname"):
        if isinstance(getattr(node, attr, None), str):
            return getattr(node, attr)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def names_dealias(node: ast.AST) -> bool:
    """An identifier or a string that contains "dealias", in any case."""
    text = _text(node)
    return text is not None and "dealias" in text.lower()


def definitions(source: str, module: str, name: str) -> set[str]:
    """``module.name`` if the source defines ``name`` anywhere: a class, a function
    or an assignment to it."""
    return {f"{module}.{name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id == name}


def forms(source: str, module: str, match) -> set[str]:
    return {owner for owner, node in _owners(ast.parse(source), module) if match(node)}


def package_forms(match) -> set[str]:
    return set().union(*(forms(path.read_text(), path.stem, match)
                         for path in PACKAGE.glob("*.py")))


def test_the_laplacian_symbol_is_formed_in_one_place():
    assert package_forms(is_symbol_square) == SQUARE_OWNERS


def test_the_face_mobility_is_formed_in_one_place():
    assert package_forms(is_neighbour_mean) == FACE_OWNERS


def test_the_mode_angle_is_formed_in_one_place():
    assert package_forms(is_grid_angle) == ANGLE_OWNERS


def test_the_tanh_interface_is_formed_in_one_place():
    assert package_forms(is_tanh_profile) == TANH_OWNERS


def test_a_mobility_has_one_constructor():
    assert set().union(*(mobility_constructors(path.read_text(), path.stem)
                         for path in PACKAGE.glob("*.py"))) == set()


def test_no_module_defines_a_neighbour_copy_helper():
    defined = {owner for path in PACKAGE.glob("*.py")
               for owner, node in _owners(ast.parse(path.read_text()), path.stem)
               if isinstance(node, ast.FunctionDef) and node.name == "_neighbours"}
    assert defined == set()


def test_only_the_harness_names_dealias():
    assert package_forms(names_dealias) == DEALIAS_OWNERS


def test_no_module_defines_a_discretization_wrapper():
    assert set().union(*(definitions(path.read_text(), path.stem, "Discretization")
                         for path in PACKAGE.glob("*.py"))) == set()


@pytest.mark.parametrize("source, owners", [
    ("class C:\n    def k2(self):\n        return sum(ik.imag * ik.imag for ik in self.ik)",
     {"m.C.k2"}),
    ("class C:\n    def k2(self):\n        return sum(d1 * d1 for d1 in self.d1)", {"m.C.k2"}),
    ("def laplacian(ops, f):\n    return sum(ik * ik for ik in ops.ik) * f", {"m.laplacian"}),
    ("def inv(k, h):\n    return 1.0 / (np.sin(k.imag * h) / h) ** 2", {"m.inv"}),
    ("def speed(u):\n    return sum(c * c for c in u)", set()),
    ("def pressure(r):\n    return r * r", set()),
    ("def profile(x):\n    return np.sin(x) ** 2", set()),
], ids=["method", "symbol", "complex", "fd2", "velocity", "density", "sine-squared"])
def test_symbol_square_finder(source, owners):
    assert forms(source, "m", is_symbol_square) == owners


@pytest.mark.parametrize("source, owners", [
    ("def f(g):\n    return 0.5 * (g[1:] + g[:-1])", {"m.f"}),
    ("def f(g):\n    return g[:-1] + g[1:]", {"m.f"}),
    ("x = g.values[1:] + g.values[:-1]", {"m.<module>"}),
    ("def f(g, h):\n    return g[1:] + h[:-1]", set()),
    ("def f(g):\n    return g[2:] + g[:-2]", set()),
    ("def f(g):\n    return g[1:] - g[:-1]", set()),
], ids=["faces", "reversed", "module", "two-arrays", "wider", "difference"])
def test_neighbour_mean_finder(source, owners):
    assert forms(source, "m", is_neighbour_mean) == owners


@pytest.mark.parametrize("source, owners", [
    ("def wave(grid, xs, k):\n    return np.sin(2.0 * np.pi * k * xs[0] / grid.length[0])",
     {"m.wave"}),
    ("class S:\n    def build(self, grid, x):\n        k = np.pi * self.mode\n"
     "        return np.cos(k * x / grid.length[0])", {"m.S.build"}),
    ("w = np.cos(np.pi * x / grid.length[0])", {"m.<module>"}),
    ("def h(grid):\n    return grid.length[0] / grid.n[0]", set()),
    ("def f(x):\n    return np.cos(np.pi * x)", set()),
    ("def f(x, n):\n    return 2.0 * np.pi * x / n", set()),
], ids=["periodic", "precomputed-k", "module", "spacing", "fixed-domain", "by-count"])
def test_grid_angle_finder(source, owners):
    assert forms(source, "m", is_grid_angle) == owners


@pytest.mark.parametrize("source, owners", [
    ("def p(mid, half, s, x):\n    return mid + half * np.tanh(s * np.cos(x)) / np.tanh(s)",
     {"m.p"}),
    ("rho = lambda x: 1.5 + 0.4 * np.tanh(3.0 * np.cos(x)) / np.tanh(3.0)", {"m.<module>"}),
    ("def p(c):\n    return 0.3 * np.tanh(2.5 * c) / np.tanh(2.5) + 1.5", {"m.p"}),
    ("u = lambda x: 0.05 * np.tanh(3.0 * np.cos(x)) / np.tanh(3.0)", set()),
    ("def f(x):\n    return 1.0 + np.tanh(x)", set()),
    ("def f(x, s):\n    return 1.0 + np.tanh(s * x) / s", set()),
], ids=["function", "lambda", "reversed", "no-plateau", "bare-tanh", "unnormalized"])
def test_tanh_profile_finder(source, owners):
    assert forms(source, "m", is_tanh_profile) == owners


@pytest.mark.parametrize("source, owners", [
    ("class Mobility:\n    @classmethod\n    def constant(cls, g):\n        return cls(g)",
     {"m.Mobility.constant"}),
    ("class Mobility:\n    def spatial(self):\n        return self", {"m.Mobility.spatial"}),
    ("class Mobility:\n    @staticmethod\n    def of(v):\n        return Mobility(v)",
     {"m.Mobility.of"}),
    ("class Mobility:\n    @property\n    def is_constant(self):\n        return True\n"
     "    def __post_init__(self):\n        pass", set()),
    ("class Grid:\n    @classmethod\n    def periodic(cls, n):\n        return cls(n)", set()),
], ids=["classmethod", "named", "staticmethod", "plain-methods", "other-class"])
def test_mobility_constructor_finder(source, owners):
    assert mobility_constructors(source, "m") == owners


@pytest.mark.parametrize("source, owners", [
    ("def f(d):\n    return d.dealias", {"m.f"}),
    ("def dealias_array(v):\n    return v", {"m.dealias_array"}),
    ("def f(grid, dealias=False):\n    return grid", {"m.f"}),
    ("x = Calculus(grid, dealias=True)", {"m.<module>"}),
    ("from m import dealias_array", {"m.<module>"}),
    ("class C:\n    def f(self, doc):\n        return doc['dealias']", {"m.C.f"}),
    ('"""The 2/3-rule Dealiasing filter."""', {"m.<module>"}),
    ("def f(alias):\n    return alias", set()),
], ids=["attribute", "definition", "argument", "keyword", "import", "string", "docstring",
        "other-name"])
def test_dealias_name_finder(source, owners):
    assert forms(source, "m", names_dealias) == owners


@pytest.mark.parametrize("source, owners", [
    ("class Discretization:\n    pass", {"m.Discretization"}),
    ("Discretization = Scheme", {"m.Discretization"}),
    ("def f():\n    Discretization = 1\n    return Discretization", {"m.Discretization"}),
    ("def f(d: Discretization):\n    return d", set()),
    ("class Scheme:\n    SPECTRAL = 'spectral'", set()),
], ids=["class", "alias", "local", "annotation", "other-class"])
def test_definition_finder(source, owners):
    assert definitions(source, "m", "Discretization") == owners
