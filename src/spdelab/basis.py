"""Truncated eigenbasis of the norm-defining operator and the associated norms.

The discretization works in an orthonormal basis of eigenvectors of the
self-adjoint, strictly positive operator that defines the V-norm.  In that
basis the three norms of the Gelfand triple become weighted sequence norms:

    |u|^2        = sum_i u_i^2
    ||u||^2      = sum_i lam_i u_i^2
    |u|_{D}^2    = sum_i lam_i^2 u_i^2

with lam_i the (positive, nondecreasing) eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions do not match the basis."""


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated eigensystem fixing the H-, V- and D-norms.

    Attributes:
        dim: truncation size N.
        hat_eigenvalues: eigenvalues lam_1 <= ... <= lam_N, all positive.
    """

    dim: int
    hat_eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.hat_eigenvalues, dtype=float)
        object.__setattr__(self, "hat_eigenvalues", lam)
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if lam.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected {self.dim} eigenvalues, got shape {lam.shape}"
            )
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")

    # -- vector checks -------------------------------------------------

    def check_vector(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"vector of dimension {u.shape[-1]} does not match basis dim {self.dim}"
            )
        return u

    # -- norms ---------------------------------------------------------

    def norm_v(self, u: np.ndarray) -> np.ndarray:
        """V-norm ||u||, weighted by the eigenvalues."""
        u = self.check_vector(u)
        return np.sqrt(np.sum(self.hat_eigenvalues * u * u, axis=-1))

    def norm_d(self, u: np.ndarray) -> np.ndarray:
        """Norm of the operator domain, weighted by squared eigenvalues."""
        u = self.check_vector(u)
        return np.sqrt(np.sum(self.hat_eigenvalues**2 * u * u, axis=-1))

