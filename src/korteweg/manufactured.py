"""Exact oracles: tensors, pressures and right-hand sides of a 1-D manufactured state.

rho and u are trigonometric polynomials, so the non-local inverse of the
conserved-phase model (constant mobility gamma0) is a division by gamma0 k^2 per
harmonic, and truncated Taylor series in x (Griewank & Walther 2008) carry every
derivative exactly; a partial in rho at fixed gradient is a complex step on a
series' value.  The laws are re-derived from the ``FluidParams`` fields alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constitutive import Convention, FluidParams
from .errors import ConfigError
from .models import ModelKind

_ORDER = 3      # highest Taylor coefficient: the momentum rate needs d3 rho/dx3
_STEP = 1e-30   # complex step of a partial; its truncation error is O(_STEP^2)


class Jet:
    """Truncated Taylor series in x at each point: ``c[j] = f^(j)(x) / j!``.

    A scalar operand is a constant.  A binary result keeps the lower order
    of its operands, and ``d()`` lowers the order by one.
    """

    def __init__(self, coeffs):
        self.c = tuple(coeffs)

    def _jet(self, other) -> "Jet":
        return other if isinstance(other, Jet) else Jet((other,) + (0.0,) * (len(self.c) - 1))

    def __add__(self, other):
        return Jet(a + b for a, b in zip(self.c, self._jet(other).c))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-a for a in self.c)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        f, g = self.c, self._jet(other).c
        return Jet(sum(f[j] * g[k - j] for j in range(k + 1))
                   for k in range(min(len(f), len(g))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        f, g, h = self.c, self._jet(other).c, []
        for k in range(min(len(f), len(g))):
            h.append((f[k] - sum(g[j] * h[k - j] for j in range(1, k + 1))) / g[0])
        return Jet(h)

    def __rtruediv__(self, other):
        return self._jet(other) / self

    def __pow__(self, n: int):
        return math.prod([self] * n)

    def d(self) -> "Jet":
        """The series of df/dx."""
        return Jet((k + 1) * a for k, a in enumerate(self.c[1:]))


def _partial(fn, rho: Jet) -> Jet:
    """Series of (d fn/d rho)(rho(x)): a complex step on rho's value."""
    return Jet(a.imag / _STEP for a in fn(rho + 1j * _STEP).c)


@dataclass(frozen=True)
class TrigPoly:
    """f(x) = mean + sum_k cos[k-1] cos(k x) + sin[k-1] sin(k x), k = 1, 2, ..."""

    mean: float = 0.0
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        waves = sum((a * np.cos(k * x) for k, a in enumerate(self.cos, 1)), np.zeros_like(x))
        return self.mean + sum((b * np.sin(k * x) for k, b in enumerate(self.sin, 1)), waves)

    def derivative(self) -> "TrigPoly":
        return TrigPoly(cos=tuple(k * b for k, b in enumerate(self.sin, 1)),
                        sin=tuple(-k * a for k, a in enumerate(self.cos, 1)))

    def inverse_laplacian(self, gamma0: float) -> "TrigPoly":
        """Zero-mean phi with -gamma0 phi'' = f - mean(f)."""
        return TrigPoly(cos=tuple(a / (gamma0 * k * k) for k, a in enumerate(self.cos, 1)),
                        sin=tuple(b / (gamma0 * k * k) for k, b in enumerate(self.sin, 1)))

    def jet(self, x) -> Jet:
        fs = itertools.accumulate(range(_ORDER), lambda f, _: f.derivative(), initial=self)
        return Jet(f(x) / math.factorial(j) for j, f in enumerate(fs))


@dataclass(frozen=True)
class ManufacturedState:
    """A periodic 1-D density/velocity pair on [0, 2 pi), each a trigonometric polynomial."""

    rho: TrigPoly
    u: TrigPoly = TrigPoly()


def _bulk_energy(rho, params: FluidParams):
    """R(rho) = theta * scale * c^2 (1 - c)^2, c(rho) under the params' convention."""
    tau = params.tau2 if params.convention is Convention.CONSISTENT else params.tau1
    c = (1.0 / rho - tau) / params.delta_tau
    return params.temperature * params.well.scale * c**2 * (c - 1.0) ** 2


def _korteweg(rho: Jet, params: FluidParams) -> Jet:
    """Capillary stress -kappa rho'^2 - rho^2 psi_rho + rho (kappa rho')'."""
    ds = params.delta_star
    kappa, grad = ds / rho**3, rho.d()
    g2 = grad * grad
    # partial of the Helmholtz energy in rho at fixed |grad rho|^2
    psi_rho = _partial(lambda r: _bulk_energy(r, params) + ds / (2.0 * r**4) * g2, rho)
    return -kappa * g2 - rho**2 * psi_rho + rho * (kappa * grad).d()


def _eliminated_rate(state: ManufacturedState, params: FluidParams, kind: ModelKind, gamma0):
    """Callable (x, rho) -> series of the rate stress left by eliminating the pressure.

    NSK1: delta_star / (sqrt(delta) rho) div u; NSK2, for a constant mobility gamma0:
    theta / delta_tau^2 Lambda_gamma0^-1(div u).  The pressure is its local part minus this.
    """
    if kind is ModelKind.NSK1:
        lam_star = params.delta_star / np.sqrt(params.delta)
        return lambda x, rho: lam_star / rho * state.u.jet(x).d()
    if gamma0 is None:
        raise ConfigError("the exact non-local oracle needs a constant mobility")
    inv = state.u.derivative().inverse_laplacian(gamma0)
    return lambda x, rho: params.temperature / params.delta_tau**2 * inv.jet(x)


def exact_korteweg_tensor(state: ManufacturedState, params: FluidParams):
    """Callables of the capillary stress components, upper triangle order (1-D: one)."""
    return [lambda x: _korteweg(state.rho.jet(x), params).c[0]]


def exact_pressure(state: ManufacturedState, params: FluidParams,
                   kind: ModelKind = ModelKind.NSK1, gamma0: float | None = None):
    """Callable of the eliminated pressure for the manufactured state."""
    ds, rate = params.delta_star, _eliminated_rate(state, params, kind, gamma0)

    def pressure(x):
        rho = state.rho.jet(x)
        local = rho**2 * _partial(lambda r: _bulk_energy(r, params), rho) \
            - (ds / rho * rho.d()).d() / rho
        return (local - rate(x, rho)).c[0]

    return pressure


def exact_rhs(state: ManufacturedState, params: FluidParams,
              kind: ModelKind = ModelKind.NSK1, gamma0: float | None = None):
    """Callables of the exact right-hand side (drho_dt, [dm_dt]) from the reduced stress."""
    mu, lam = params.shear_viscosity, params.bulk_viscosity
    rate = _eliminated_rate(state, params, kind, gamma0)

    def drho(x):
        return (-(state.rho.jet(x) * state.u.jet(x)).d()).c[0]

    def dm(x):
        rho, u = state.rho.jet(x), state.u.jet(x)
        stress = (2.0 * mu + lam) * u.d() + rate(x, rho) + _korteweg(rho, params)
        return (-(rho * u * u).d() + stress.d()).c[0]

    return drho, [dm]
