"""Scalar constitutive laws for the incompressible-phases mixture.

The mixture closure ties concentration to density: with specific volumes
``tau1 != tau2`` of the two phases, ``1/rho = c*tau1 + (1-c)*tau2``.
Everything downstream (bulk energy, capillarity, extended Helmholtz
energy, augmented bulk viscosity) is a function of density alone.

Two sign conventions for inverting the closure are selectable:

* ``CONSISTENT`` (default): ``c = (1/rho - tau2) / (tau1 - tau2)``, the
  actual inverse of the closure, so pure phases sit at c = 0 and c = 1.
* ``LITERAL``: ``c = (1/rho - tau1) / (tau1 - tau2)``, an off-by-one
  variant that is sometimes quoted; it differs from CONSISTENT by the
  constant -1, so every derivative-based identity below holds under
  either choice, but the closure ``G_p(p, c(rho)) = 1/rho`` does not.

Each density law is one public function that raises DomainError unless
rho > 0 and then evaluates on a ``_Density``, which holds rho, 1/rho and
c(rho) formed once.  The hot loop (the Korteweg and reduced stresses, the
step-size bound) runs on the density of a validated MixtureState, which
already lies above the density floor, so it skips the check: it forms the
``_Density`` with ``_density`` and calls the only two unchecked kernels,
``_capillarity`` and ``_sound_speed_sq``.  Everything else calls the public
laws.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, _require_finite_fields

log = logging.getLogger(__name__)


class Convention(Enum):
    CONSISTENT = "consistent"
    LITERAL = "literal"


@dataclass(frozen=True)
class DoubleWell:
    """Quartic double well W(c) = scale * c^2 (1-c)^2.

    Minima at the pure phases c = 0, 1; W >= 0; W'(0) = W'(1) = 0.
    ``scale = 0`` disables the well.  Swap in a different potential by
    subclassing and overriding the three methods.
    """

    scale: float = 1.0

    def __post_init__(self):
        _require_finite_fields(self, "scale")
        if self.scale < 0.0:
            raise ConfigError("double-well scale must be >= 0")

    def value(self, c):
        return self.scale * c * c * (1.0 - c) ** 2

    def derivative(self, c):
        return self.scale * 2.0 * c * (1.0 - c) * (1.0 - 2.0 * c)

    def second_derivative(self, c):
        return self.scale * (2.0 - 12.0 * c + 12.0 * c * c)


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the two-phase mixture.

    tau1, tau2       specific volumes of the pure phases (> 0, distinct)
    temperature      fixed temperature theta (> 0)
    delta            capillarity scale of the concentration gradient energy (> 0)
    shear_viscosity  mu (>= 0)
    bulk_viscosity   lambda; may be negative as long as
                     lambda + 2*mu/dim >= 0 for the run's dimension
    mobility         default scalar mobility gamma (> 0)
    """

    tau1: float = 1.0
    tau2: float = 0.5
    temperature: float = 1.0
    delta: float = 1e-2
    shear_viscosity: float = 1e-2
    bulk_viscosity: float = 0.0
    mobility: float = 1.0
    well: DoubleWell = field(default_factory=DoubleWell)
    convention: Convention = Convention.CONSISTENT

    def __post_init__(self):
        _require_finite_fields(self, "tau1", "tau2", "temperature", "delta",
                               "shear_viscosity", "bulk_viscosity", "mobility")
        if self.tau1 <= 0.0 or self.tau2 <= 0.0:
            raise ConfigError("specific volumes must be positive")
        if self.tau1 == self.tau2:
            raise ConfigError("specific volumes must differ (tau1 != tau2)")
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")
        if self.delta <= 0.0:
            raise ConfigError("delta must be positive")
        if self.shear_viscosity < 0.0:
            raise ConfigError("shear viscosity must be >= 0")
        if self.mobility <= 0.0:
            raise ConfigError("mobility must be positive")

    # Derived coefficients, each formed on first use and then read as a plain
    # attribute (the hot loop reads them per evaluation).

    @cached_property
    def delta_tau(self) -> float:
        return self.tau1 - self.tau2

    @cached_property
    def delta_star(self) -> float:
        """theta * delta / delta_tau^2 (> 0); sets the capillarity scale."""
        return self.temperature * self.delta / self.delta_tau**2

    @cached_property
    def _theta_dtau2(self) -> float:
        """theta / delta_tau^2: the sound-speed and NSK2 non-local scale."""
        return self.temperature / self.delta_tau**2

    @cached_property
    def _c_offset(self) -> float:
        """The specific volume at which the selected convention puts c = 0."""
        return self.tau2 if self.convention is Convention.CONSISTENT else self.tau1

    @cached_property
    def _augmented_scale(self) -> float:
        """delta_star / sqrt(delta): the augmented bulk viscosity is lambda + this / rho."""
        return self.delta_star / np.sqrt(self.delta)

    @cached_property
    def _two_mu(self) -> float:
        return 2.0 * self.shear_viscosity

    def validate_for_dim(self, dim: int) -> None:
        if self.bulk_viscosity + 2.0 * self.shear_viscosity / dim < 0.0:
            raise ConfigError(
                f"bulk viscosity {self.bulk_viscosity} violates "
                f"lambda + 2*mu/{dim} >= 0")

    def pure_phase_densities(self) -> tuple[float, float]:
        return 1.0 / self.tau1, 1.0 / self.tau2


class _Density(NamedTuple):
    """A positive density array with its reciprocal v = 1/rho and concentration c."""

    rho: np.ndarray
    v: np.ndarray
    c: np.ndarray


def _density(rho, params: FluidParams, v=None, c=None) -> _Density:
    """Kernel of :func:`concentration`: rho with 1/rho and c(rho), unchecked; 1/rho
    and c are written into the arrays ``v`` and ``c`` if given."""
    r = np.asarray(rho, dtype=float)
    v = np.divide(1.0, r, out=v)
    c = np.subtract(v, params._c_offset, out=c)
    c /= params.delta_tau
    return _Density(r, v, c)


def _require_positive_rho(rho, params: FluidParams) -> _Density:
    """The public laws' entry: DomainError unless rho > 0, else :func:`_density`."""
    if np.any(np.asarray(rho) <= 0.0):
        raise DomainError("density must be positive")
    return _density(rho, params)


def _concentration_drho(dn: _Density, params: FluidParams):
    return -(dn.v * dn.v) / params.delta_tau


def _sound_speed_sq(dn: _Density, params: FluidParams):
    """d(rho^2 R')/drho = 2 rho R' + rho^2 R'' in closed form, theta W''(c) v^2 / delta_tau^2.

    The two W'(c) terms cancel exactly, since c'' = -2 v c' for c' = -v^2 / delta_tau.
    """
    return params._theta_dtau2 * params.well.second_derivative(dn.c) * (dn.v * dn.v)


def _capillarity(dn: _Density, params: FluidParams, out=None):
    """delta_star v^3, written into the array ``out`` if given."""
    kap = np.multiply(params.delta_star, dn.v, out=out)
    kap *= dn.v
    kap *= dn.v
    return kap


def concentration(rho, params: FluidParams):
    """Concentration as a function of density under the selected convention."""
    return _require_positive_rho(rho, params).c


def phase_mass_density(rho, params: FluidParams):
    """rho * c(rho): mass of phase 1 per unit volume."""
    dn = _require_positive_rho(rho, params)
    return dn.rho * dn.c


def phase_mass_density_drho(rho, params: FluidParams):
    """Exact derivative of rho*c(rho); a constant for this linear closure."""
    dn = _require_positive_rho(rho, params)
    return np.full_like(dn.rho, -params._c_offset / params.delta_tau)


def bulk_energy(rho, params: FluidParams):
    """theta * W(c(rho)): the double-well energy expressed in density."""
    return params.temperature * params.well.value(_require_positive_rho(rho, params).c)


def bulk_energy_drho(rho, params: FluidParams):
    dn = _require_positive_rho(rho, params)
    return params.temperature * params.well.derivative(dn.c) * _concentration_drho(dn, params)


def bulk_energy_d2rho(rho, params: FluidParams):
    dn = _require_positive_rho(rho, params)
    dc = _concentration_drho(dn, params)
    d2c = -2.0 * dn.v * dc
    return params.temperature * (params.well.second_derivative(dn.c) * dc * dc
                                 + params.well.derivative(dn.c) * d2c)


def capillarity(rho, params: FluidParams):
    """Density-gradient energy coefficient delta_star / rho^3."""
    return _capillarity(_require_positive_rho(rho, params), params)


def helmholtz_energy(rho, grad_rho_sq, params: FluidParams):
    """Extended Helmholtz energy: bulk part plus (capillarity/(2 rho)) |grad rho|^2."""
    v = _require_positive_rho(rho, params).v
    v2 = v * v
    return bulk_energy(rho, params) + 0.5 * params.delta_star * grad_rho_sq * (v2 * v2)


def helmholtz_energy_drho(rho, grad_rho_sq, params: FluidParams):
    """Partial derivative in rho at fixed |grad rho|^2."""
    v = _require_positive_rho(rho, params).v
    v2 = v * v
    return bulk_energy_drho(rho, params) - 2.0 * params.delta_star * grad_rho_sq * (v2 * v2 * v)


def augmented_bulk_viscosity(rho, params: FluidParams):
    """lambda + delta_star / (sqrt(delta) rho): the local closure's extra bulk term."""
    return params.bulk_viscosity + params._augmented_scale * _require_positive_rho(rho, params).v


def admissible_density_window(params: FluidParams, margin: float = 0.5) -> tuple[float, float]:
    """Density range on which the concentration stays near [0, 1]."""
    lo, hi = sorted(params.pure_phase_densities())
    return lo * (1.0 - margin), hi * (1.0 + margin)


def warn_outside_window(rho, params: FluidParams, context: str = "") -> bool:
    lo, hi = admissible_density_window(params)
    rmin, rmax = float(np.min(rho)), float(np.max(rho))
    if rmin < lo or rmax > hi:
        log.warning("density range [%.6g, %.6g] leaves admissible window [%.6g, %.6g]%s",
                    rmin, rmax, lo, hi, f" ({context})" if context else "")
        return True
    return False
