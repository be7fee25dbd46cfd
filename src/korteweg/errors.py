"""Exception hierarchy shared by all modules."""

import numpy as np


class KortewegError(Exception):
    """Base class for all package errors."""


class ConfigError(KortewegError, ValueError):
    """Inconsistent configuration (grid/scheme mismatch, bad run file, ...)."""


def _require_finite_fields(obj, *names: str) -> None:
    """ConfigError naming the first of the fields ``names`` of ``obj`` that holds a
    NaN or an infinity; a field set to None is skipped."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ConfigError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


class DomainError(KortewegError, ValueError):
    """Input outside the mathematical domain of an operation (e.g. rho <= 0)."""


class CompatibilityError(KortewegError, ValueError):
    """Right-hand side violates a solvability constraint (nonzero mean)."""


class SolverError(KortewegError, RuntimeError):
    """Iterative solve failed to reach the requested tolerance."""


class StateError(KortewegError, RuntimeError):
    """Simulation state became inadmissible (density floor, stiffness abort,
    non-finite values); the time loop adds the failing step, its start t and dt."""

    def __init__(self, message, state=None, step=None, t=None, dt=None):
        super().__init__(message)
        self.state = state
        self.step = step
        self.t = t
        self.dt = dt
