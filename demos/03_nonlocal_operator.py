"""
The non-local operator in three settings
========================================

The conserved-phase reduction replaces a local bulk-viscosity term with
the inverse of -div(gamma grad .), normalized to zero mean.  Three
inverters cover the settings of interest: Fourier on periodic grids (when
the mobility varies, a direct solve by two spectral antiderivatives in 1-D
and Fourier-preconditioned conjugate gradients in 2-D), a direct
prefix-sum solve on bounded Neumann grids, and the kernel -|x|/2 on a
free-space window.
"""

import numpy as np

from korteweg import FD2, SPECTRAL, Grid, Mobility, ScalarField, apply_operator
from korteweg.elliptic import (invert_for_model, invert_freespace_1d, invert_neumann_1d,
                               invert_periodic)

# periodic + constant mobility: eigenfunction solves are exact
grid = Grid.periodic(64)
x = grid.coords()[0]
gamma = Mobility(1.0)
for k in (1, 2, 3):
    phi = invert_periodic(gamma, ScalarField(grid, np.cos(k * x)))
    err = np.max(np.abs(phi.values - np.cos(k * x) / k**2))
    print(f"periodic: cos({k}x) -> cos({k}x)/{k * k}, error {err:.2e}")

# bounded Neumann grid + variable mobility: direct solve, exact round trip
bgrid = Grid.bounded_neumann_1d(128, length=1.0)
bx = bgrid.coords()[0]
gvar = Mobility(2.0 + np.cos(np.pi * bx))
f = np.cos(np.pi * bx) + 0.3 * np.cos(2.0 * np.pi * bx)
ff = ScalarField(bgrid, f)
phi = invert_neumann_1d(gvar, ff)
back = apply_operator(gvar, phi, FD2)
print("\nbounded, variable mobility:")
print("  solution mean (normalized to zero):", float(phi.values.mean()))
print("  round-trip error:", np.max(np.abs(back.values - (f - f.mean()))))

# free space: convolution with -|x|/2 for compactly supported data;
# a periodic box only approximates it, with an image effect that decays
# like support/box
print("\nfree space vs periodic boxes of growing size, on the support:")
for length, n in ((40.0, 512), (80.0, 1024), (160.0, 2048)):
    wide = Grid.periodic(n, length)
    xw = wide.coords()[0] - 0.5 * length
    f_free = ScalarField(wide, -2.0 * xw * np.exp(-xw * xw))  # derivative of a bump
    phi_free = invert_freespace_1d(Mobility(1.0), f_free)
    phi_per = invert_for_model(Mobility(1.0), f_free, SPECTRAL)
    support = np.abs(xw) < 5.0
    diff = phi_free.values[support] - phi_per.values[support]
    diff -= diff.mean()
    print(f"  box {length:>5.0f}: disagreement {np.max(np.abs(diff)):.3e}")
