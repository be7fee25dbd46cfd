"""Field construction: a field holds its own copy of every input."""

import numpy as np
import pytest

from korteweg import Grid, ScalarField, VectorField

GRID = Grid.periodic(64)


def read_only(a):
    a.setflags(write=False)
    return a


def values():
    return 1.0 + np.linspace(0.0, 1.0, GRID.shape[0])


@pytest.mark.parametrize("make", [
    values,                                                     # writable
    lambda: read_only(values()),                                # read-only owner
    lambda: read_only(values()[:]),                             # read-only view
], ids=["writable", "read-only", "read-only-view"])
def test_a_field_holds_its_own_read_only_copy(make):
    a = make()
    f = ScalarField(GRID, a)
    assert not np.shares_memory(f.values, a) and not f.values.flags.writeable
    owner = a if a.base is None else a.base
    owner.setflags(write=True)
    owner[0] = 5.0   # writing the caller's array leaves the field as it was
    assert f.values[0] == 1.0


def test_vector_components_are_copied_from_a_read_only_stack():
    stack = read_only(1.0 + np.random.default_rng(0).random((2, 64)))
    v = VectorField(GRID, stack[1:])
    assert not any(np.shares_memory(c, stack) for c in v.components)
    assert all(np.array_equal(c, row) for c, row in zip(v.components, stack[1:], strict=True))
