"""Initial-condition families, mobility profiles and the named verification corpus.

Corpus states are defined analytically so a single state can be sampled
at any resolution for refinement studies.  The bounded-grid states are
built from wall-symmetric cosine series (density, mobility) and
squared-sine series (velocity), which makes even-reflection ghosts exact
restrictions of smooth extensions and keeps div u mean-free on the wall
quadrature.

Each grid profile has one formula.  ``mode_angle`` is the phase of a mode:
2 pi k x / L on a periodic axis, pi k x / L between walls, where its cosine
is wall-even; the initial families, the random band and the cosine
mobility read it.  ``tanh_profile`` is the interface mid + half tanh(s c) /
tanh(s) over a carrier c in [-1, 1], for ``tanh_interface``, the corpus and
the check suite's states.  A mobility profile, of a run config or of a
corpus state, is a ``MobilitySpec``: a constant or a cosine profile, which
``build`` samples on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .constitutive import FluidParams
from .elliptic import Mobility
from .errors import ConfigError
from .fields import ScalarField, VectorField
from .grids import BoundaryKind, Grid
from .models import MixtureState


class ICFamily(Enum):
    CONSTANT = "constant"
    SINE_DENSITY = "sine_density"
    TANH_INTERFACE = "tanh_interface"
    RANDOM_BAND = "random_band"


@dataclass(frozen=True)
class InitialCondition:
    """Named initial-state family with per-family parameters.

    amplitude          relative density perturbation (sine/random)
    mode               integer wavenumber of the perturbation
    interface_sharpness  s in tanh(s cos(2 pi x / L)); the profile is an
                       exactly periodic analytic interface whose plateaus
                       hit the pure-phase densities 1/tau1 and 1/tau2
    velocity_amplitude magnitude of the initial velocity
    """

    family: ICFamily = ICFamily.CONSTANT
    rho0: float = 1.5
    amplitude: float = 0.1
    mode: int = 1
    interface_sharpness: float = 4.0
    velocity_amplitude: float = 0.0
    velocity_mode: int = 1
    kmax: int = 4

    def build(self, grid: Grid, params: FluidParams, seed: int = 0) -> MixtureState:
        """The state on ``grid``; ``seed`` drives the random_band family's rng."""
        xs = grid.coords()
        if self.family is ICFamily.CONSTANT:
            rho = np.full(grid.shape, self.rho0)
            u = [np.zeros(grid.shape) for _ in range(grid.dim)]
        elif self.family is ICFamily.SINE_DENSITY:
            rho = self.rho0 * (1.0 + self.amplitude * _wave(grid, xs, self.mode))
            u = _velocity(grid, xs, self.velocity_amplitude, self.velocity_mode)
        elif self.family is ICFamily.TANH_INTERFACE:
            rho = tanh_interface(grid, xs, params, self.interface_sharpness)
            u = _velocity(grid, xs, self.velocity_amplitude, self.velocity_mode)
        elif self.family is ICFamily.RANDOM_BAND:
            rng = np.random.default_rng(seed)
            rho = self.rho0 * (1.0 + self.amplitude
                               * random_band_limited(grid, rng, self.kmax))
            if grid.is_periodic:
                u = [self.velocity_amplitude * random_band_limited(grid, rng, self.kmax)
                     for _ in range(grid.dim)]
            else:
                u = _velocity(grid, xs, self.velocity_amplitude, self.velocity_mode)
        else:  # pragma: no cover
            raise ConfigError(f"unknown initial-condition family {self.family}")
        if np.min(rho) <= 0.0:
            raise ConfigError("initial density is not positive; reduce the amplitude")
        return MixtureState.from_primitive(ScalarField(grid, rho),
                                           VectorField(grid, tuple(u)))


def mode_angle(grid: Grid, xs, mode: int, axis: int = 0) -> np.ndarray:
    """The phase of mode ``mode`` along ``axis`` at the nodes ``xs`` (``grid.coords()``):
    2 pi mode x / L on a periodic grid, pi mode x / L between walls (its cosine is
    wall-even)."""
    return (2.0 if grid.is_periodic else 1.0) * np.pi * mode * xs[axis] / grid.length[axis]


def tanh_profile(carrier, mid: float, half: float, sharpness: float) -> np.ndarray:
    """The interface mid + half tanh(s c) / tanh(s) over a carrier c in [-1, 1]: it
    takes the plateau values mid -+ half where c = -+1."""
    return mid + half * np.tanh(sharpness * carrier) / np.tanh(sharpness)


def _wave(grid: Grid, xs, mode: int) -> np.ndarray:
    """Periodic: sin(2 pi k x / L); bounded: cos(pi k x / L) (wall-even)."""
    if grid.is_periodic:
        w = np.sin(mode_angle(grid, xs, mode))
        if grid.dim == 2:
            w = 0.5 * (w + np.sin(mode_angle(grid, xs, mode, 1)))
        return w
    return np.cos(mode_angle(grid, xs, mode))


def _velocity(grid: Grid, xs, amplitude: float, mode: int) -> list[np.ndarray]:
    if amplitude == 0.0:
        return [np.zeros(grid.shape) for _ in range(grid.dim)]
    if grid.is_periodic:
        u0 = amplitude * np.sin(mode_angle(grid, xs, mode))
        if grid.dim == 1:
            return [u0]
        return [u0, amplitude * np.cos(mode_angle(grid, xs, mode, 1))]
    # wall-zero, wall-even: sin^2 vanishes at both walls with zero slope
    return [amplitude * np.sin(mode_angle(grid, xs, mode)) ** 2]


def _plateaus(params: FluidParams) -> tuple[float, float]:
    """Mid and half of the pure-phase densities: the plateaus are mid -+ half."""
    r1, r2 = params.pure_phase_densities()
    return 0.5 * (r1 + r2), 0.5 * (r2 - r1)


def tanh_interface(grid: Grid, xs, params: FluidParams, sharpness: float) -> np.ndarray:
    """Smooth two-phase interface whose extremes are the pure-phase densities; its
    carrier is the cosine of the mode-1 angle (the mean over the axes in 2-D)."""
    carrier = np.cos(mode_angle(grid, xs, 1))
    if grid.dim == 2:
        carrier = 0.5 * (carrier + np.cos(mode_angle(grid, xs, 1, 1)))
    return tanh_profile(carrier, *_plateaus(params), sharpness)


def random_band_limited(grid: Grid, rng: np.random.Generator, kmax: int = 4) -> np.ndarray:
    """Zero-mean random field with spectrum confined to |k| <= kmax, peak 1.

    Periodic grids use random Fourier modes; bounded grids use a cosine
    series (wall-even), so the field is always smooth for the grid's
    ghost rule.
    """
    xs = grid.coords()
    out = np.zeros(grid.shape)
    if grid.is_periodic:
        for _ in range(2 * kmax):
            ks = [rng.integers(-kmax, kmax + 1) for _ in range(grid.dim)]
            if all(k == 0 for k in ks):
                continue
            phase = rng.uniform(0.0, 2.0 * np.pi)
            arg = sum(mode_angle(grid, xs, k, axis) for axis, k in enumerate(ks))
            out += rng.normal() * np.cos(arg + phase)
    else:
        for k in range(1, kmax + 1):
            out += rng.normal() * np.cos(mode_angle(grid, xs, k))
        out -= out.mean()
    peak = np.max(np.abs(out))
    if peak > 0.0:
        out = out / peak
    return out


class MobilityKind(Enum):
    CONSTANT = "constant"
    COSINE = "cosine"


@dataclass(frozen=True)
class MobilitySpec:
    """A mobility profile: the constant ``value``, or base + amplitude cos of the
    angle of ``mode`` (wall-even between walls)."""

    kind: MobilityKind = MobilityKind.CONSTANT
    value: float = 1.0
    base: float = 2.0
    amplitude: float = 1.0
    mode: int = 1

    def build(self, grid: Grid) -> Mobility:
        if self.kind is MobilityKind.CONSTANT:
            return Mobility(self.value)
        angle = mode_angle(grid, grid.coords(), self.mode)
        return Mobility(self.base + self.amplitude * np.cos(angle))


@dataclass(frozen=True)
class CorpusState:
    """Analytic 1-D state, with its mobility profile, that can be sampled on any grid
    of a given boundary kind."""

    name: str
    boundary: BoundaryKind
    rho_fn: Callable[..., np.ndarray]
    u_fns: tuple[Callable[..., np.ndarray], ...]
    mobility: MobilitySpec = MobilitySpec()

    def grid(self, n: int) -> Grid:
        if self.boundary is BoundaryKind.PERIODIC:
            return Grid.periodic(n)
        return Grid.bounded_neumann_1d(n, 1.0)

    def on_grid(self, grid: Grid) -> MixtureState:
        xs = grid.coords()
        rho = ScalarField(grid, self.rho_fn(*xs))
        u = VectorField(grid, tuple(fn(*xs) for fn in self.u_fns))
        return MixtureState.from_primitive(rho, u)

    def state(self, n: int) -> MixtureState:
        return self.on_grid(self.grid(n))

    def mobility_on(self, grid: Grid) -> Mobility:
        return self.mobility.build(grid)


def default_corpus(params: FluidParams) -> list[CorpusState]:
    """Named analytic states used by every certification study.

    The periodic states carry interface profiles with moderate
    analyticity width (sharpness 2 to 3): Fourier truncation error is
    well above round-off at N = 64 and falls by many orders of magnitude
    at N = 128, while centered differences reach their asymptotic
    second-order regime by N = 128.  The bounded state exercises variable
    mobility with wall-compatible fields (wall-even density and mobility,
    squared-sine velocity).
    """
    zero = lambda x: np.zeros_like(x)
    mid, half = _plateaus(params)

    def interface(sharpness, phase):
        return lambda x: tanh_profile(np.cos(x - phase), mid, half, sharpness)

    states = [
        CorpusState(
            name="interface_rest",
            boundary=BoundaryKind.PERIODIC,
            rho_fn=interface(2.5, 0.0),
            u_fns=(zero,)),
        CorpusState(
            name="interface_flow",
            boundary=BoundaryKind.PERIODIC,
            rho_fn=interface(2.5, 1.0),
            u_fns=(lambda x: 0.05 * np.sin(x),)),
        CorpusState(
            name="interface_mild",
            boundary=BoundaryKind.PERIODIC,
            rho_fn=interface(2.0, 0.5),
            u_fns=(lambda x: 0.02 * np.cos(x),)),
        CorpusState(
            name="interface_steep",
            boundary=BoundaryKind.PERIODIC,
            rho_fn=interface(3.0, 2.0),
            u_fns=(lambda x: 0.03 * np.sin(x) + 0.01 * np.cos(2.0 * x),)),
        CorpusState(
            name="interface_shear",
            boundary=BoundaryKind.PERIODIC,
            rho_fn=interface(2.5, 0.8),
            u_fns=(lambda x: 0.05 * np.tanh(3.0 * np.cos(x)) / np.tanh(3.0),)),
        CorpusState(
            name="neumann_variable_mobility",
            boundary=BoundaryKind.BOUNDED_NEUMANN_1D,
            rho_fn=lambda x: tanh_profile(np.cos(np.pi * x), 1.5, 0.4, 3.0),
            u_fns=(lambda x: 0.05 * np.sin(np.pi * x) ** 2
                   + 0.02 * np.sin(2.0 * np.pi * x) ** 2,),
            mobility=MobilitySpec(MobilityKind.COSINE)),
    ]
    return states

