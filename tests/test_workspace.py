"""The right-hand side that make_rhs binds, with a workspace on every grid.

It gives the bits of the public right-hand sides under both schemes.  Its
buffers must change no bit of the rates, never be returned, never hold an
input row, and leave an evaluation allocating only what it returns (a spectral
grid) or its rates and a few temporaries (FD2).  Every evaluation takes the
first one's buffers again, in the same order.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import traced_peak

from korteweg import (FD2, SPECTRAL, DoubleWell, Grid, MixtureState, Mobility, ModelKind,
                      ScalarField, VectorField, rhs_nsk1, rhs_nsk2, timestepping)
from korteweg.initial import random_band_limited
from korteweg.models import _stage_rows
from korteweg.operators import _calculus, _Workspace
from korteweg.timestepping import make_rhs

GRID = Grid.periodic((32, 24))
MODELS = {
    "nsk1": (ModelKind.NSK1, None),
    "nsk2-const": (ModelKind.NSK2, Mobility(1.3)),
    "nsk2-cos": (ModelKind.NSK2, Mobility(2.0 + np.cos(GRID.coords()[0]))),
}


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    rho = 1.4 + 0.1 * random_band_limited(grid, rng, kmax=10)
    u = tuple(0.1 * random_band_limited(grid, rng, kmax=10) for _ in range(grid.dim))
    return MixtureState.from_primitive(ScalarField(grid, rho), VectorField(grid, u))


def public_rates(state, params, kind, gamma, d):
    drho, dm = rhs_nsk1(state, params, d) if kind is ModelKind.NSK1 \
        else rhs_nsk2(state, params, gamma, d)
    return (drho.values, *dm.components)


def model_on(grid, model):
    """The model's (kind, mobility), its cosine mobility made on ``grid``."""
    kind, gamma = MODELS[model]
    if gamma is not None and not gamma.is_constant:
        gamma = Mobility(2.0 + np.cos(grid.coords()[0]))
    return kind, gamma


BOUND_CASES = {
    "32x24": (GRID, SPECTRAL), "63": (Grid.periodic(63), SPECTRAL),
    "33x35": (Grid.periodic((33, 35)), SPECTRAL), "32x24-fd2": (GRID, FD2),
    "bounded64-fd2": (Grid.bounded_neumann_1d(64, 1.0), FD2),
}


@pytest.mark.parametrize("case", BOUND_CASES)
@pytest.mark.parametrize("model", MODELS)
def test_bound_rates_are_the_public_rates_byte_for_byte(model, case, params):
    # the public wrappers run the same kernels on fresh arrays; the later calls
    # of the bound evaluator run on the buffers that the first one recorded
    grid, d = BOUND_CASES[case]
    kind, gamma = model_on(grid, model)
    rhs = make_rhs(params, kind, gamma, d, grid)
    for seed in (1, 2, 3):
        state = random_state(grid, seed)
        got = rhs(_stage_rows(state))
        ref = public_rates(state, params, kind, gamma, d)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in ref]


@pytest.mark.parametrize("model", MODELS)
def test_rates_are_fresh_and_the_rows_unwritten(model, params):
    kind, gamma = MODELS[model]
    rhs = make_rhs(params, kind, gamma, SPECTRAL, GRID)
    rows = tuple(np.array(a) for a in _stage_rows(random_state(GRID, 4)))
    before = [a.tobytes() for a in rows]
    first, second = rhs(rows), rhs(rows)
    assert [a.tobytes() for a in rows] == before
    assert [a.tobytes() for a in first] == [b.tobytes() for b in second]
    arrays = (*first, *second, *rows)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])


@pytest.mark.parametrize("model", ["nsk1", "nsk2-const"])
def test_a_bound_evaluation_allocates_only_its_rates(model, params):
    # after a warm-up the workspace holds every buffer an evaluation needs, the
    # half spectrum of each inverse's axis-0 pass included: a 128^2 evaluation
    # peaks at its three rates and a few kilobytes of Python objects
    grid = Grid.periodic((128, 128))
    kind, gamma = MODELS[model]
    rhs = make_rhs(params, kind, gamma, SPECTRAL, grid)
    rows = _stage_rows(random_state(grid, 5))
    rhs(rows)
    real = 128 * 128 * 8
    assert traced_peak(lambda: rhs(rows)) <= 3 * real + 32 * 1024


@pytest.mark.parametrize("model", ["nsk1", "nsk2-const"])
def test_a_bound_fd2_evaluation_allocates_its_rates_and_few_temporaries(model, params):
    # under FD2 the workspace holds every array of the levels but those of grad u,
    # grad rho and div u and the derivative temporaries of the divergences: a warm
    # 128^2 evaluation peaks at 10 grid arrays, 11 with NSK2's solve, against 20
    # when every temporary was allocated
    grid = Grid.periodic((128, 128))
    kind, gamma = MODELS[model]
    rhs = make_rhs(params, kind, gamma, FD2, grid)
    rows = _stage_rows(random_state(grid, 5))
    rhs(rows)
    arrays = {"nsk1": 10, "nsk2-const": 11}[model]
    assert traced_peak(lambda: rhs(rows)) <= arrays * 128 * 128 * 8 + 32 * 1024


class Recording(_Workspace):
    """A workspace that lists the buffers an evaluation takes, in call order."""

    def __init__(self, ops):
        super().__init__(ops)
        self.taken = []

    def _take(self, shape, dtype):
        self.taken.append(super()._take(shape, dtype))
        return self.taken[-1]


WARM_CASES = {
    **{str(shape): (Grid.periodic(shape), SPECTRAL)
       for shape in (64, 63, 256, (32, 24), (33, 35), (48, 36))},
    "32x24-fd2": (GRID, FD2), "64-fd2": (Grid.periodic(64), FD2),
    "bounded64-fd2": (Grid.bounded_neumann_1d(64, 1.0), FD2),
}


@pytest.mark.parametrize("case", WARM_CASES)
@pytest.mark.parametrize("model", MODELS)
def test_a_warm_workspace_makes_no_new_buffer(case, model, params, monkeypatch):
    # the first evaluation records one buffer per request; every later one takes
    # exactly those again, in the same order, and makes none
    made = []
    monkeypatch.setattr(timestepping, "_Workspace",
                        lambda ops: made.append(Recording(ops)) or made[-1])
    grid, d = WARM_CASES[case]
    kind, gamma = model_on(grid, model)
    rhs = make_rhs(params, kind, gamma, d, grid)
    [ws] = made
    rhs(_stage_rows(random_state(grid, 6)))
    first = [id(b) for b in ws.taken]
    assert first == [id(b) for b in ws.buffers] and len(set(first)) == len(first)
    for seed in (7, 8):
        ws.taken.clear()
        rhs(_stage_rows(random_state(grid, seed)))
        assert [id(b) for b in ws.taken] == [id(b) for b in ws.buffers] == first


def test_a_changed_request_gets_a_new_buffer():
    # a replayed request of another shape or dtype gets a new buffer in its slot,
    # which the next replay takes; the slots around it keep theirs
    ops = _calculus(GRID, SPECTRAL)
    ws = _Workspace(ops)
    first = [ws.real(3), ws.half(2), ws.real()]
    ws.rewind()
    second = [ws.real(3), ws.real(2), ws.half()]
    assert second[0] is first[0]
    assert second[1] is not first[1] and second[2] is not first[2]
    assert [(b.shape, b.dtype) for b in second] == [
        ((3, *ops.shape), float), ((2, *ops.shape), float), (ops.half_shape, complex)]
    ws.rewind()
    again = [ws.real(3), ws.real(2), ws.half()]
    assert [id(b) for b in again] == [id(b) for b in second] == [id(b) for b in ws.buffers]


STORED = {}   # grid shape -> the W'(c) of StoredWell, made before any evaluation


class StoredWell(DoubleWell):
    """A double well whose W'(c) is an array made before the evaluation, so that a
    traced peak shows what the right-hand side itself allocates."""

    def derivative(self, c):
        return STORED[c.shape]


@pytest.mark.parametrize("model", ["nsk1", "nsk2-const"])
def test_a_bound_1d_evaluation_allocates_only_its_rates(model, params):
    # besides its two rates, a warm 1-D evaluation allocates only the scaled W'(c),
    # one array that is dead before the rates are made
    grid = Grid.periodic(16384)
    STORED[grid.shape] = np.zeros(grid.shape)
    params = replace(params, well=StoredWell())
    kind, gamma = MODELS[model]
    rhs = make_rhs(params, kind, gamma, SPECTRAL, grid)
    rows = _stage_rows(random_state(grid, 5))
    rhs(rows)
    assert traced_peak(lambda: rhs(rows)) <= 2 * grid.shape[0] * 8 + 32 * 1024
