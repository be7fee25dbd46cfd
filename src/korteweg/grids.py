"""Structured uniform grids and discretization descriptors.

Grids are collocated and uniform.  Periodic grids place nodes at
``x_i = i*h`` so that the first node sits on the domain edge and the last
spacing wraps around; bounded (Neumann) grids are cell-centered,
``x_i = (i + 1/2)*h``, which makes even reflection about the walls the
natural ghost-value rule.  A grid is its cell counts, lengths and boundary
kind; its dimension is the number of axes it counts cells on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, _require_finite_fields

MIN_CELLS_PER_AXIS = 8


def _is_whole(k) -> bool:
    """Whether k is an integer or an integral finite real, and not a bool."""
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, numbers.Real):
        return False
    return isinstance(k, numbers.Integral) or float(k).is_integer()


class BoundaryKind(Enum):
    PERIODIC = "periodic"
    BOUNDED_NEUMANN_1D = "bounded_neumann_1d"


class Scheme(Enum):
    SPECTRAL = "spectral"
    FD2 = "fd2"


@dataclass(frozen=True)
class Grid:
    """Uniform structured grid in one or two dimensions.

    ``n`` counts cells per axis (equal to the number of nodes stored),
    ``length`` is the physical extent per axis, so the spacing is
    ``h = length / n`` on every axis, and ``dim`` is the number of axes.
    """

    n: tuple[int, ...]
    length: tuple[float, ...]
    boundary: BoundaryKind = BoundaryKind.PERIODIC

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dim must be 1 or 2, got {self.dim}")
        if not all(_is_whole(k) for k in self.n):
            raise ConfigError(f"Grid.n must hold whole cell counts, got {self.n!r}")
        object.__setattr__(self, "n", tuple(int(k) for k in self.n))
        object.__setattr__(self, "length", tuple(float(l) for l in self.length))
        _require_finite_fields(self, "length")
        if len(self.length) != self.dim:
            raise ConfigError("n and length must have one entry per axis")
        if any(k < MIN_CELLS_PER_AXIS for k in self.n):
            raise ConfigError(f"need at least {MIN_CELLS_PER_AXIS} cells per axis, got {self.n}")
        if any(l <= 0.0 for l in self.length):
            raise ConfigError(f"axis lengths must be positive, got {self.length}")
        if self.boundary is BoundaryKind.BOUNDED_NEUMANN_1D and self.dim != 1:
            raise ConfigError("bounded Neumann grids are one-dimensional only")

    @classmethod
    def periodic(cls, n, length=None) -> "Grid":
        n = (n,) if np.isscalar(n) else tuple(n)
        if length is None:
            length = (2.0 * np.pi,) * len(n)
        length = (length,) if np.isscalar(length) else tuple(length)
        return cls(n=n, length=length, boundary=BoundaryKind.PERIODIC)

    @classmethod
    def bounded_neumann_1d(cls, n: int, length: float = 1.0) -> "Grid":
        return cls(n=(n,), length=(float(length),), boundary=BoundaryKind.BOUNDED_NEUMANN_1D)

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(l / k for l, k in zip(self.length, self.n))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def is_periodic(self) -> bool:
        return self.boundary is BoundaryKind.PERIODIC

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        i = np.arange(self.n[axis], dtype=float)
        if self.is_periodic:
            return i * h
        return (i + 0.5) * h

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays, broadcast to the full grid shape."""
        return tuple(np.meshgrid(*map(self.axis_coords, range(self.dim)), indexing="ij"))

    def header(self) -> str:
        """Self-describing one-line header used by snapshot files."""
        n = ",".join(str(k) for k in self.n)
        length = ",".join(f"{l!r}" for l in self.length)
        return f"# grid dim={self.dim} n={n} length={length} boundary={self.boundary.value}"


@dataclass(frozen=True)
class Discretization:
    """Choice of discrete calculus: Fourier-spectral or centered differences.

    ``dealias`` (spectral only) enables a 2/3-rule filter on nonlinear
    advective fluxes; it has no effect on the differential operators themselves.
    """

    scheme: Scheme = Scheme.SPECTRAL
    dealias: bool = False

    def __post_init__(self):
        if self.dealias and self.scheme is not Scheme.SPECTRAL:
            raise ConfigError("dealiasing needs the spectral scheme")

    def require_compatible(self, grid: Grid) -> None:
        if self.scheme is Scheme.SPECTRAL and not grid.is_periodic:
            raise ConfigError("spectral differentiation requires a periodic grid")


SPECTRAL = Discretization(Scheme.SPECTRAL)
FD2 = Discretization(Scheme.FD2)
