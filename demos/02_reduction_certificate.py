"""
The reduction certificate
=========================

The two-phase mixture models eliminate pressure and concentration through
the incompressible-phases closure, leaving density/momentum systems with
a Korteweg stress.  Nothing is lost: given only (rho, m) we rebuild the
eliminated fields and evaluate the *full* three-equation systems.  The
momentum-flux gap and the phase-equation residual then shrink at the
scheme's order -- that is the reduction, checked numerically.
"""

import numpy as np

from korteweg import (FD2, SPECTRAL, FluidParams, Mobility, ModelKind,
                      momentum_equivalence_gap, reconstruct_fields, residual_nsac,
                      residual_nsch)
from korteweg.initial import default_corpus

params = FluidParams()
state_family = default_corpus(params)[1]  # a moving diffuse interface
print("corpus state:", state_family.name)

state = state_family.state(128)
rec = reconstruct_fields(state, params, ModelKind.NSK1, d=SPECTRAL)
print("reconstructed concentration range:",
      f"[{rec.c.values.min():.4f}, {rec.c.values.max():.4f}]  (pure phases at 0 and 1)")
print("reconstructed pressure range:",
      f"[{rec.p.values.min():.4f}, {rec.p.values.max():.4f}]")

print("\nphase-transformation model, centered differences:")
print(f"{'N':>6} {'momentum-flux gap':>18} {'phase residual':>16}")
for n in (128, 256, 512):
    s = state_family.state(n)
    gap = momentum_equivalence_gap(s, params, ModelKind.NSK1, d=FD2)
    rep = residual_nsac(s, params, FD2)
    print(f"{n:>6} {gap:>18.3e} {rep.phase:>16.3e}")

print("\nsame state, Fourier differentiation (error falls off a cliff):")
for n in (64, 128):
    s = state_family.state(n)
    gap = momentum_equivalence_gap(s, params, ModelKind.NSK1, d=SPECTRAL)
    print(f"{n:>6} {gap:>18.3e}")

print("\nconserved-phase model (non-local stress), same certificate:")
gamma = Mobility(1.0)
for n in (128, 256, 512):
    s = state_family.state(n)
    gap = momentum_equivalence_gap(s, params, ModelKind.NSK2, gamma, FD2)
    rep = residual_nsch(s, params, gamma, FD2)
    print(f"{n:>6} {gap:>18.3e} {rep.phase:>16.3e}")
