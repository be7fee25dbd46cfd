"""Grid-indexed scalar, vector, and symmetric-tensor fields.

Fields are immutable value types: constructors copy their input, scan it
for non-finite values and mark the arrays read-only.  They are the API
edge: internal kernels and the time loop work on arrays (a scalar, or a
tuple of components in the storage order below).  Values are stored
axis-major (C order), axis 0 = x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import Grid

Components = tuple[np.ndarray, ...]   # a vector, or a tensor in storage order, as plain arrays


def _require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DomainError("field contains non-finite values")


def _frozen_array(values, grid: Grid) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.shape != grid.shape:
        raise DomainError(f"field shape {arr.shape} does not match grid {grid.shape}")
    _require_finite(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, self.grid))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(_frozen_array(c, self.grid) for c in self.components)
        if len(comps) != self.grid.dim:
            raise DomainError(f"expected {self.grid.dim} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, tuple(np.zeros(grid.shape) for _ in range(grid.dim)))


@dataclass(frozen=True)
class SymTensorField:
    """Symmetric rank-2 tensor; only the upper triangle is stored.

    Component order: 1-D ``(xx,)``; 2-D ``(xx, xy, yy)``.
    """

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(_frozen_array(c, self.grid) for c in self.components)
        expected = self.grid.dim * (self.grid.dim + 1) // 2
        if len(comps) != expected:
            raise DomainError(f"expected {expected} tensor components, got {len(comps)}")
        object.__setattr__(self, "components", comps)


def _plus_diag(t: Components, s) -> Components:
    """t + s I for stored components; the diagonal is the first and last entry."""
    return tuple(c + s if i in (0, len(t) - 1) else c for i, c in enumerate(t))


def _sup(arrays) -> float:
    """Max absolute value over a sequence of arrays."""
    return float(max(np.max(np.abs(c)) for c in arrays))


def write_scalar_csv(field: ScalarField, path, config_hash: str | None = None) -> None:
    """One CSV per field: grid header, then node coordinates + value rows."""
    grid = field.grid
    coords = grid.coords()
    with open(path, "w") as fh:
        fh.write(grid.header() + "\n")
        if config_hash is not None:
            fh.write(f"# config {config_hash}\n")
        cols = ["x", "y"][: grid.dim] + ["value"]
        fh.write(",".join(cols) + "\n")
        # one % format for the whole table: the bytes of np.savetxt(fmt="%.17g",
        # delimiter=","), without its Python loop over rows
        table = np.column_stack([c.ravel() for c in (*coords, field.values)])
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def read_scalar_csv(path) -> tuple[dict, np.ndarray]:
    """Read back a snapshot CSV; returns (header metadata, value column)."""
    meta = {}
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# grid"):
                for part in line[len("# grid"):].split():
                    key, _, val = part.partition("=")
                    meta[key] = val
            elif line.startswith("# config"):
                meta["config"] = line.split()[-1]
            elif line and not line.startswith("#") and not line[0].isalpha():
                values.append(float(line.split(",")[-1]))
    return meta, np.asarray(values)
