"""The spectral right-hand side that make_rhs binds with a workspace.

Its buffers must change no bit of the rates, never be returned, never hold an
input row, and leave an evaluation allocating only what it returns.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import traced_peak

from korteweg import (SPECTRAL, Discretization, DoubleWell, Grid, MixtureState, Mobility,
                      ModelKind, ScalarField, Scheme, VectorField, rhs_nsk1, rhs_nsk2)
from korteweg.initial import random_band_limited
from korteweg.models import _rhs, _stage_rows, _stress_symbol
from korteweg.operators import _calculus, _Workspace
from korteweg.timestepping import make_rhs

DEALIAS = Discretization(Scheme.SPECTRAL, dealias=True)
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


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("d", [SPECTRAL, DEALIAS], ids=["plain", "dealias"])
def test_bound_rates_are_the_public_rates_byte_for_byte(model, d, params):
    # the public wrappers run the same kernels on fresh arrays; the later calls
    # of the bound evaluator run on buffers that the earlier ones gave back
    kind, gamma = MODELS[model]
    rhs = make_rhs(params, kind, gamma, d, GRID)
    for seed in (1, 2, 3):
        state = random_state(GRID, seed)
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


@pytest.mark.parametrize("shape", [64, 63, (32, 24), (33, 35)], ids=str)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("d", [SPECTRAL, DEALIAS], ids=["plain", "dealias"])
def test_a_warm_workspace_makes_no_new_buffer(shape, model, d, params):
    # every buffer an evaluation takes goes back to the workspace, so after a
    # warm-up the later evaluations take only buffers of the first one
    grid = Grid.periodic(shape)
    kind, gamma = MODELS[model]
    if gamma is not None and not gamma.is_constant:
        gamma = Mobility(2.0 + np.cos(grid.coords()[0]))
    ops = _calculus(grid, d)
    ws, symbol = _Workspace(ops), _stress_symbol(ops, params, kind, gamma)
    _rhs(_stage_rows(random_state(grid, 6)), ops, params, kind, gamma, symbol, ws)
    warm = sorted(id(b) for pool in (ws.real_free, ws.half_free) for free in pool.values()
                  for b in free)
    taken = []
    for name in ("real", "half"):
        take = getattr(ws, name)
        setattr(ws, name, lambda rows=None, take=take: taken.append(take(rows)) or taken[-1])
    for seed in (7, 8):
        _rhs(_stage_rows(random_state(grid, seed)), ops, params, kind, gamma, symbol, ws)
        assert sorted(id(b) for pool in (ws.real_free, ws.half_free)
                      for free in pool.values() for b in free) == warm
        assert {id(b) for b in taken} <= set(warm)


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
