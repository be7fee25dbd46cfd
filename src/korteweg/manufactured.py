"""Symbolic oracles: exact tensors, pressures, and right-hand sides.

Everything here differentiates *symbolically* (sympy) and is therefore
independent of the discrete operators it is used to check.  Lambdified
callables are returned for pointwise evaluation on grids.  The expressions
are lambdified as they are built, unsimplified: ``sp.simplify`` took ~95 %
of a convergence table and moved no oracle value by more than round-off.

The non-local term in the conserved-phase model admits a closed form only
for trigonometric-polynomial velocity divergence with constant mobility;
the inverse is then computed term by term on the harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .constitutive import Convention, FluidParams
from .errors import ConfigError
from .models import ModelKind


def _symbols(dim: int):
    return sp.symbols("x y")[:dim]


def constitutive_exprs(params: FluidParams, rho):
    """Symbolic c(rho), R(rho), kappa(rho) under the params' convention."""
    dtau = sp.Float(params.delta_tau)
    tau = params.tau2 if params.convention is Convention.CONSISTENT else params.tau1
    c = (1 / rho - sp.Float(tau)) / dtau
    w = sp.Float(params.well.scale) * c**2 * (1 - c) ** 2
    bulk = sp.Float(params.temperature) * w
    kappa = sp.Float(params.delta_star) / rho**3
    return c, bulk, kappa


@dataclass(frozen=True)
class SymbolicState:
    """Analytic density/velocity pair as sympy expressions of x (and y)."""

    dim: int
    rho: sp.Expr
    u: tuple[sp.Expr, ...]

    @classmethod
    def one_d(cls, rho_expr, u_expr) -> "SymbolicState":
        return cls(dim=1, rho=sp.sympify(rho_expr), u=(sp.sympify(u_expr),))

    @classmethod
    def two_d(cls, rho_expr, u_exprs) -> "SymbolicState":
        return cls(dim=2, rho=sp.sympify(rho_expr),
                   u=tuple(sp.sympify(e) for e in u_exprs))


def _lambdify(expr, xs):
    fn = sp.lambdify(xs, expr, modules=[np])

    def wrapped(*coords):
        out = np.asarray(fn(*coords), dtype=float)
        shape = np.broadcast(*coords).shape
        return np.broadcast_to(out, shape).copy() if out.shape != shape else out

    return wrapped


def _korteweg_exprs(state: SymbolicState, params: FluidParams, xs) -> dict:
    """Symbolic capillary stress entries keyed by (i, j), i <= j."""
    rho = state.rho
    _, _, kappa = constitutive_exprs(params, rho)
    grads = [sp.diff(rho, v) for v in xs]
    # partial of the Helmholtz energy in rho at fixed |grad rho|^2
    rho_s, g2 = sp.Symbol("rho_s", positive=True), sp.Symbol("g2")
    _, bulk_s, _ = constitutive_exprs(params, rho_s)
    psi_rho = sp.diff(bulk_s + sp.Float(params.delta_star) / (2 * rho_s**4) * g2, rho_s)
    psi_rho = psi_rho.subs({rho_s: rho, g2: sum(g**2 for g in grads)})
    diag = -(rho**2) * psi_rho + rho * sum(sp.diff(kappa * g, v)
                                           for g, v in zip(grads, xs))
    return {(i, j): -kappa * grads[i] * grads[j] + (diag if i == j else 0)
            for i in range(state.dim) for j in range(i, state.dim)}


def exact_korteweg_tensor(state: SymbolicState, params: FluidParams):
    """Lambdified components of the capillary stress, upper triangle order."""
    xs = _symbols(state.dim)
    return [_lambdify(c, xs) for c in _korteweg_exprs(state, params, xs).values()]


def exact_pressure(state: SymbolicState, params: FluidParams,
                   kind: ModelKind = ModelKind.NSK1,
                   gamma0: float | None = None, length: float | None = None):
    """Lambdified eliminated pressure for the analytic state."""
    xs = _symbols(state.dim)
    rho = state.rho
    rho_s = sp.Symbol("rho_s", positive=True)
    _, bulk_s, _ = constitutive_exprs(params, rho_s)
    bulk_prime = sp.diff(bulk_s, rho_s).subs(rho_s, rho)
    ds = sp.Float(params.delta_star)
    divu = sum(sp.diff(ui, v) for ui, v in zip(state.u, xs))
    local = rho**2 * bulk_prime - sp.expand(
        sum(sp.diff((ds / rho) * sp.diff(rho, v), v) for v in xs)) / rho
    if kind is ModelKind.NSK1:
        p = -(ds / (sp.sqrt(sp.Float(params.delta)) * rho)) * divu + local
    else:
        if gamma0 is None:
            raise ConfigError("exact non-local pressure needs a constant mobility")
        scale = sp.Float(params.temperature) / sp.Float(params.delta_tau) ** 2
        p = -scale * invert_harmonics(divu, gamma0, xs) + local
    return _lambdify(p, xs)


def invert_harmonics(expr, gamma0: float, xs) -> sp.Expr:
    """Closed-form zero-mean elliptic inverse of a trigonometric polynomial.

    The expression is rewritten as a sum of single harmonics
    sin/cos(a.x + b) (product-to-sum rules); each harmonic is an
    eigenfunction with eigenvalue gamma0 |a|^2.  Anything that cannot be
    reduced to harmonics is rejected.
    """
    from sympy.simplify.fu import TR7, TR8

    expr = sp.expand(TR8(TR7(sp.expand(expr))))
    terms = expr.as_ordered_terms() if isinstance(expr, sp.Add) else [expr]
    out = sp.S.Zero
    for term in terms:
        if term.is_zero:
            continue
        trig = list(term.atoms(sp.sin, sp.cos))
        if len(trig) != 1 or not term.has(trig[0]):
            raise ConfigError(f"cannot invert non-harmonic term {term}")
        if sp.degree(sp.Poly(term, trig[0])) != 1:
            raise ConfigError(f"cannot invert trig power in term {term}")
        arg = trig[0].args[0]
        ksq = sum(sp.diff(arg, v) ** 2 for v in xs)
        if ksq.free_symbols or ksq == 0:
            raise ConfigError(f"cannot invert term with non-constant wavenumber {term}")
        out += term / (sp.Float(gamma0) * ksq)
    return out


def exact_rhs(state: SymbolicState, params: FluidParams,
              kind: ModelKind = ModelKind.NSK1, gamma0: float | None = None):
    """Lambdified exact right-hand side (drho_dt, dm_dt components).

    Assembled from the reduced system's stress divergence; the
    conserved-phase variant supports constant mobility with harmonic
    velocity divergence.
    """
    xs = _symbols(state.dim)
    rho, u = state.rho, state.u
    dim = state.dim
    mu = sp.Float(params.shear_viscosity)
    divu = sum(sp.diff(ui, v) for ui, v in zip(u, xs))

    if kind is ModelKind.NSK1:
        lam_term = (sp.Float(params.bulk_viscosity) + sp.Float(params.delta_star)
                    / (sp.sqrt(sp.Float(params.delta)) * rho)) * divu
    else:
        if gamma0 is None:
            raise ConfigError("exact non-local rhs needs a constant mobility")
        lam_term = sp.Float(params.bulk_viscosity) * divu \
            + (sp.Float(params.temperature) / sp.Float(params.delta_tau) ** 2) \
            * invert_harmonics(divu, gamma0, xs)

    # viscous plus capillary stress
    korteweg = _korteweg_exprs(state, params, xs)
    stress = {}
    for i in range(dim):
        for j in range(dim):
            dij = (sp.diff(u[i], xs[j]) + sp.diff(u[j], xs[i])) / 2
            stress[(i, j)] = 2 * mu * dij + (lam_term if i == j else 0) \
                + korteweg[min(i, j), max(i, j)]

    drho = -sum(sp.diff(rho * ui, v) for ui, v in zip(u, xs))
    dms = []
    for i in range(dim):
        adv = sum(sp.diff(rho * u[i] * u[j], xs[j]) for j in range(dim))
        visc = sum(sp.diff(stress[(i, j)], xs[j]) for j in range(dim))
        dms.append(-adv + visc)
    return _lambdify(drho, xs), [_lambdify(e, xs) for e in dms]
