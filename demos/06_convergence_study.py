"""
Manufactured-solution order verification
========================================

An exact oracle (Taylor-jet arithmetic on a trigonometric-polynomial
state) gives the right-hand side of a chosen analytic state; the discrete
right-hand side is compared against it over a resolution sweep.  Centered differences show second order; Fourier
differentiation drops to the round-off floor almost immediately.
"""

import math

from korteweg import FluidParams, ModelKind
from korteweg.grids import FD2, SPECTRAL
from korteweg.verification import convergence_table

params = FluidParams()

for d, label in ((FD2, "centered differences"), (SPECTRAL, "Fourier")):
    rows = convergence_table(params, ModelKind.NSK1, d, (32, 64, 128, 256))
    print(f"\n{label}:")
    print(f"{'N':>6} {'density-rate err':>17} {'momentum-rate err':>18}")
    for r in rows:
        print(f"{r['n']:>6} {r['rho_rate_error']:>17.3e} {r['momentum_rate_error']:>18.3e}")
    order = rows[0]["momentum_rate_error_order"]
    print("momentum errors at the round-off floor: no order" if math.isnan(order)
          else f"fitted momentum order: {order:.2f}")

print("\nnon-local model (constant mobility), centered differences:")
rows = convergence_table(params, ModelKind.NSK2, FD2, (32, 64, 128))
for r in rows:
    print(f"{r['n']:>6} {r['momentum_rate_error']:>18.3e}")
print(f"fitted momentum order: {rows[0]['momentum_rate_error_order']:.2f}")
