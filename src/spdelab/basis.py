"""Truncated eigenbasis of the norm-defining operator and the associated norms.

The discretization works in an orthonormal basis of eigenvectors of the
self-adjoint, strictly positive operator that defines the V-norm.  In that
basis the three norms of the Gelfand triple become weighted sequence norms:

    |u|^2        = sum_i u_i^2
    ||u||^2      = sum_i lam_i u_i^2
    |u|_{D}^2    = sum_i lam_i^2 u_i^2

with lam_i the (positive, nondecreasing) eigenvalues.

A batch of states may hold its coordinates along its last axis (..., N), or
as N contiguous component planes (N, ...), which the diagnostics keep:
sum_planes adds the planes in the order numpy adds a contiguous last axis,
so both layouts give the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions do not match the basis."""


def _pairwise(x: np.ndarray) -> np.ndarray:
    n = len(x)
    if n < 8:
        out = x[0] + 0.0
        for plane in x[1:]:
            out += plane
        return out
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise(x[:half])
        out += _pairwise(x[half:])
        return out
    # each of the 8 running sums adds its terms in turn, as a reduction
    # over a leading axis does, from +0.0 as numpy's sum does
    acc = np.add.reduce(x[:n - n % 8].reshape((-1, 8) + x.shape[1:]), axis=0)
    pairs = acc[0::2] + acc[1::2]
    out = pairs[0] + pairs[1]
    out += pairs[2] + pairs[3]
    for plane in x[n - n % 8:]:
        out += plane
    return out


def sum_planes(x: np.ndarray) -> np.ndarray:
    """The sum over the leading axis of x (n, ...).

    The planes are added as numpy's pairwise sum adds a contiguous last axis
    of length n: in turn from +0.0 below 8 terms, else in 8 running sums
    combined as a tree, split in halves above 128.  So the sum of a
    component-plane array equals np.sum over the last axis of its
    transpose bit for bit, a sum of -0.0 terms +0.0, with numpy's inner
    loops over the planes.
    """
    if len(x) == 0:
        return np.zeros(x.shape[1:])
    return _pairwise(x)


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

    def check_vector(self, u: np.ndarray, axis: int = -1) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape[axis] != self.dim:
            raise DimensionMismatchError(
                f"vector of dimension {u.shape[axis]} does not match basis dim {self.dim}"
            )
        return u

    # -- norms ---------------------------------------------------------

    def _weighted_norm(self, weights: np.ndarray, u: np.ndarray, axis: int,
                       out: Optional[np.ndarray]) -> np.ndarray:
        """sqrt(sum_i w_i u_i^2), the coordinates of u along `axis`; the terms
        are written into `out`, shaped as u's planes, when it is given."""
        planes = np.moveaxis(self.check_vector(u, axis), axis, 0)
        terms = np.multiply(weights.reshape((-1,) + (1,) * (planes.ndim - 1)), planes, out=out)
        terms *= planes
        return np.sqrt(sum_planes(terms))

    def norm_v(self, u: np.ndarray, axis: int = -1,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """V-norm ||u||, weighted by the eigenvalues; the coordinates lie along
        `axis`, 0 for component planes, and `out` may hold the terms."""
        return self._weighted_norm(self.hat_eigenvalues, u, axis, out)

    def norm_d(self, u: np.ndarray, axis: int = -1,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Norm of the operator domain, weighted by squared eigenvalues; the
        coordinates lie along `axis`, 0 for component planes, and `out` may
        hold the terms."""
        return self._weighted_norm(self.hat_eigenvalues**2, u, axis, out)

