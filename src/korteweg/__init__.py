"""Reduced Navier-Stokes-Korteweg models for incompressible two-phase mixtures.

A numpy library for simulating the two density/momentum systems obtained
by eliminating pressure and concentration from diffuse-interface mixture
models, reconstructing the eliminated fields, and certifying the
elimination identities numerically.
"""

from .constitutive import Convention, DoubleWell, FluidParams
from .elliptic import (Mobility, apply_operator, invert_freespace_1d,
                       invert_neumann_1d, invert_periodic)
from .errors import (CompatibilityError, ConfigError, DomainError, KortewegError,
                     SolverError, StateError)
from .fields import ScalarField, SymTensorField, VectorField, write_scalar_csv
from .grids import FD2, SPECTRAL, BoundaryKind, Discretization, Grid, Scheme
from .initial import CorpusState, ICFamily, InitialCondition, default_corpus
from .models import (MixtureState, ModelKind, ReconstructedFields, ResidualReport,
                     momentum_equivalence_gap, reconstruct_fields,
                     reconstruct_pressure_nsac, reconstruct_pressure_nsch,
                     residual_nsac, residual_nsch, rhs_nsk1, rhs_nsk2)
from .operators import div, div_tensor, grad, laplacian, mean
from .tensors import (augmented_cauchy_stress, cauchy_stress,
                      korteweg_identity_residual, korteweg_tensor,
                      nonlocal_cauchy_stress, phase_stress, strain)
from .timestepping import (IntegrationResult, StepControl, estimate_dt, integrate,
                           ssprk3_step)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind", "CompatibilityError", "ConfigError", "Convention",
    "CorpusState", "Discretization", "DomainError", "DoubleWell", "FD2",
    "FluidParams", "Grid", "ICFamily", "InitialCondition", "IntegrationResult",
    "KortewegError", "MixtureState", "Mobility", "ModelKind",
    "ReconstructedFields", "ResidualReport", "ScalarField", "Scheme",
    "SolverError", "SPECTRAL", "StateError", "StepControl", "SymTensorField",
    "VectorField", "apply_operator", "augmented_cauchy_stress", "cauchy_stress",
    "default_corpus", "div", "div_tensor", "estimate_dt", "grad", "integrate",
    "invert_freespace_1d", "invert_neumann_1d", "invert_periodic", "laplacian",
    "korteweg_identity_residual", "korteweg_tensor", "mean",
    "momentum_equivalence_gap", "nonlocal_cauchy_stress", "phase_stress",
    "reconstruct_fields", "reconstruct_pressure_nsac", "reconstruct_pressure_nsch",
    "residual_nsac", "residual_nsch", "rhs_nsk1", "rhs_nsk2", "ssprk3_step",
    "strain", "write_scalar_csv",
]
