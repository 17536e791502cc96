"""Spectral-Galerkin laboratory for stochastic parabolic evolution equations.

Simulates du + (A(t)u + F(t,u)) dt + sum_k B_k(t) u dw^k = 0 in a truncated
eigenbasis, checks that nonzero solutions never reach zero, tracks the
Rayleigh-type quotient of the corrected generator to its spectral limit,
and certifies the structural operator conditions numerically.
"""
# numpy >= 2 imports numpy.random on first use, and every run samples with it;
# loading it here keeps a run's first call free of library imports.  No code path
# calls np.unique, which would import numpy.ma.
import numpy.random  # noqa: F401

from .basis import DimensionMismatchError, SpectralBasis
from .brownian import BrownianPath, GridError, sample_brownian, uniform_grid
from .integrator import (
    SCHEMES,
    BlowUpError,
    EnsembleResult,
    SchemeError,
    integrate,
    integrate_ensemble,
    strong_convergence,
)
from .operators import (
    MatrixPath,
    OperatorFamily,
    OperatorSegments,
    assemble_tilde_A,
    spectrum,
    sym,
)
from .systems import SystemSpec, list_systems, make_system

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "BrownianPath",
    "DimensionMismatchError",
    "EnsembleResult",
    "GridError",
    "MatrixPath",
    "OperatorFamily",
    "OperatorSegments",
    "SCHEMES",
    "SchemeError",
    "SpectralBasis",
    "SystemSpec",
    "assemble_tilde_A",
    "integrate",
    "integrate_ensemble",
    "list_systems",
    "make_system",
    "sample_brownian",
    "spectrum",
    "strong_convergence",
    "sym",
    "uniform_grid",
]
