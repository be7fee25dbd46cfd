import tracemalloc

import numpy as np
import pytest

from korteweg import FluidParams, Grid, MixtureState, ScalarField, VectorField


@pytest.fixture
def params():
    return FluidParams()


@pytest.fixture
def grid64():
    return Grid.periodic(64)


def sine_state(grid, rho_amp=0.1, u_amp=0.1) -> MixtureState:
    x = grid.coords()[0]
    return MixtureState.from_primitive(
        ScalarField(grid, 1.0 + rho_amp * np.sin(x)),
        VectorField(grid, (u_amp * np.sin(x),)))


def traced_peak(fn) -> int:
    """The peak bytes that tracemalloc traces while ``fn()`` runs: what it allocates,
    counted at its most at once.  Warm any cache ``fn`` fills before the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
