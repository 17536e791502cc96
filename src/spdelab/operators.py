"""Time-dependent operator families and the associated matrix algebra.

All operators live in the orthonormal eigenbasis of the norm-defining
operator, so the H-adjoint of a matrix is its transpose and quadratic-form
statements reduce to eigenvalue statements about symmetrized matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import DimensionMismatchError, SpectralBasis


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T)/2.  Single convention, used everywhere."""
    return 0.5 * (m + m.T)


class TimeRangeError(ValueError):
    """Requested time lies outside the declared grid."""


class MatrixPath:
    """A matrix-valued function of time on a declared grid.

    Either a constant matrix, or a stack of matrices over a uniform time
    grid with a declared interpolation rule ("constant" holds the value of
    the left grid point; "linear" interpolates entrywise).
    """

    def __init__(
        self,
        values: np.ndarray,
        time_grid: Optional[np.ndarray] = None,
        interpolation: str = "constant",
    ) -> None:
        values = np.asarray(values, dtype=float)
        if time_grid is None:
            if values.ndim != 2 or values.shape[0] != values.shape[1]:
                raise ValueError(f"constant matrix must be square, got {values.shape}")
            self.values = values
            self.time_grid = None
        else:
            time_grid = np.asarray(time_grid, dtype=float)
            if values.ndim != 3 or values.shape[1] != values.shape[2]:
                raise ValueError(
                    f"time-dependent values must be (n_times, N, N), got {values.shape}"
                )
            if time_grid.shape != (values.shape[0],):
                raise ValueError("time grid length does not match value stack")
            if np.any(np.diff(time_grid) <= 0):
                raise ValueError("time grid must be strictly increasing")
            self.values = values
            self.time_grid = time_grid
        if interpolation not in ("constant", "linear"):
            raise ValueError(f"unknown interpolation rule {interpolation!r}")
        self.interpolation = interpolation
        if not np.all(np.isfinite(self.values)):
            raise ValueError("operator entries must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def is_constant(self) -> bool:
        return self.time_grid is None

    def interval_index(self, t) -> np.ndarray:
        """Index of the grid node at or left of each time in t (scalar or array).

        Times within 1e-12 of the grid ends are clamped onto it; times
        farther out raise TimeRangeError.  Only for time-dependent paths.
        """
        grid = self.time_grid
        t = np.asarray(t, dtype=float)
        outside = (t < grid[0] - 1e-12) | (t > grid[-1] + 1e-12)
        if outside.any():
            bad = float(t[outside][0]) if t.ndim else float(t)
            raise TimeRangeError(
                f"t={bad} outside declared grid [{grid[0]}, {grid[-1]}]"
            )
        idx = grid.searchsorted(t.clip(grid[0], grid[-1]), side="right") - 1
        return np.minimum(idx, len(grid) - 1)

    def at(self, t: float) -> np.ndarray:
        """Matrix value at time t."""
        if self.time_grid is None:
            return self.values
        grid = self.time_grid
        idx = int(self.interval_index(t))
        if self.interpolation == "constant" or idx == len(grid) - 1:
            return self.values[idx]
        t = min(max(t, grid[0]), grid[-1])
        w = (t - grid[idx]) / (grid[idx + 1] - grid[idx])
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]

    @staticmethod
    def zero(dim: int) -> "MatrixPath":
        return MatrixPath(np.zeros((dim, dim)))


@dataclass(frozen=True)
class OperatorFamily:
    """Drift and noise operators of one system, with optional nonlinearity.

    The drift convention follows the evolution written with the operators on
    the left-hand side, so the generator of decay is +A: the integrator
    applies -A(t)u as drift and -B_k(t)u as diffusion.

    Attributes:
        A: drift operator path (entries in the eigenbasis).
        Bs: noise operator paths, one per Wiener component.
        A_tilde_prime: optional time derivative of the corrected generator;
            defaults to a finite difference when absent.
        F: optional nonlinearity hook (t, u) -> vector.
        n_witness: optional t -> bound on |F(t,u)| / ||u||.
    """

    A: MatrixPath
    Bs: tuple
    A_tilde_prime: Optional[MatrixPath] = None
    F: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    n_witness: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "Bs", tuple(self.Bs))
        for b in self.Bs:
            if b.dim != self.A.dim:
                raise DimensionMismatchError("noise operator dimension differs from drift")
        if self.A_tilde_prime is not None and self.A_tilde_prime.dim != self.A.dim:
            raise DimensionMismatchError("derivative operator dimension differs from drift")

    @property
    def dim(self) -> int:
        return self.A.dim

    @property
    def n_noise(self) -> int:
        return len(self.Bs)

    @property
    def is_constant(self) -> bool:
        return self.A.is_constant and all(b.is_constant for b in self.Bs)

    def tilde_prime_at(self, t: float, dt: float = 1e-6) -> np.ndarray:
        """Derivative of the corrected generator; centered difference fallback.

        For declared piecewise-constant families the derivative is zero by
        convention (jumps excluded).
        """
        if self.A_tilde_prime is not None:
            return self.A_tilde_prime.at(t)
        if self.is_constant:
            return np.zeros((self.dim, self.dim))
        if self.A.interpolation == "constant":
            return np.zeros((self.dim, self.dim))
        grid = self.A.time_grid if self.A.time_grid is not None else self.Bs[0].time_grid
        lo, hi = grid[0], grid[-1]
        t0 = min(max(t - dt, lo), hi)
        t1 = min(max(t + dt, lo), hi)
        if t1 <= t0:
            return np.zeros((self.dim, self.dim))
        return (assemble_tilde_A(self, t1).matrix - assemble_tilde_A(self, t0).matrix) / (t1 - t0)


@dataclass(frozen=True)
class TildeOperator:
    """Corrected generator A(t) - (1/2) sum_k B_k(t)^T B_k(t) at a fixed time."""

    matrix: np.ndarray
    sym_part: np.ndarray
    t: float


def assemble_tilde_A(ops: OperatorFamily, t: float) -> TildeOperator:
    """Corrected generator at time t (H-adjoint realized as transpose)."""
    a = ops.A.at(t)
    corr = np.zeros_like(a)
    for bp in ops.Bs:
        b = bp.at(t)
        corr += b.T @ b
    m = a - 0.5 * corr
    return TildeOperator(matrix=m, sym_part=sym(m), t=t)


#: grid times per segment when a linear path gives every time its own matrix
LINEAR_BLOCK = 128


@dataclass(frozen=True)
class OperatorSegment:
    """Corrected generator and noise matrices on the grid indices [start, stop).

    A matrix is (N, N) when it holds on the whole segment, or a stack
    (stop - start, N, N) with one matrix per grid time.
    """

    start: int
    stop: int
    tilde: np.ndarray
    tilde_sym: np.ndarray
    Bs: tuple


class OperatorSegments:
    """A family on one time grid, with Ã and each B_k built once per segment.

    A segment is a run of grid times on which every matrix of the family is
    fixed: one for a constant family, and one per distinct tuple of grid
    intervals when the time-dependent paths are piecewise constant.  A
    linear path changes at every time, so its family is cut into blocks of
    at most LINEAR_BLOCK times holding one matrix per time.
    """

    def __init__(self, ops: OperatorFamily, times: np.ndarray) -> None:
        self.times = np.asarray(times, dtype=float)
        self.n_noise = ops.n_noise
        n = len(self.times)
        moving = [p for p in (ops.A,) + ops.Bs if not p.is_constant]
        if any(p.interpolation == "linear" for p in moving):
            self.segments = tuple(
                self._stacked(ops, lo, min(lo + LINEAR_BLOCK, n))
                for lo in range(0, n, LINEAR_BLOCK)
            )
            return
        nodes = np.array([p.interval_index(self.times) for p in moving]).reshape(-1, n)
        cuts = np.flatnonzero(np.any(np.diff(nodes, axis=1) != 0, axis=0)) + 1
        edges = [0, *cuts.tolist(), n]
        self.segments = tuple(
            self._fixed(ops, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])
        )

    def _fixed(self, ops: OperatorFamily, lo: int, hi: int) -> OperatorSegment:
        t = float(self.times[lo])
        tilde = assemble_tilde_A(ops, t)
        return OperatorSegment(lo, hi, tilde.matrix, tilde.sym_part,
                               tuple(bp.at(t) for bp in ops.Bs))

    def _stacked(self, ops: OperatorFamily, lo: int, hi: int) -> OperatorSegment:
        ts = [float(t) for t in self.times[lo:hi]]
        tildes = [assemble_tilde_A(ops, t) for t in ts]
        return OperatorSegment(
            lo, hi,
            np.stack([x.matrix for x in tildes]),
            np.stack([x.sym_part for x in tildes]),
            tuple(np.stack([bp.at(t) for t in ts]) for bp in ops.Bs),
        )

    def _apply(self, states: np.ndarray, pick) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if states.ndim < 2 or states.shape[-2] != len(self.times):
            raise ValueError(
                f"states {states.shape} do not lie on a grid of {len(self.times)} times"
            )
        out = np.empty_like(states)
        for seg in self.segments:
            u = states[..., seg.start:seg.stop, :]
            m = pick(seg)
            if m.ndim == 2:
                out[..., seg.start:seg.stop, :] = u @ m.T
            else:
                out[..., seg.start:seg.stop, :] = np.einsum("tij,...tj->...ti", m, u)
        return out

    def tilde_applied(self, states: np.ndarray, symmetric: bool = False) -> np.ndarray:
        """Ã(t)u, or sym(Ã(t))u, at every grid time; states are (..., J+1, N)."""
        if symmetric:
            return self._apply(states, lambda seg: seg.tilde_sym)
        return self._apply(states, lambda seg: seg.tilde)

    def noise_applied(self, states: np.ndarray) -> list:
        """[B_k(t)u for each k] at every grid time; states are (..., J+1, N)."""
        return [self._apply(states, lambda seg, k=k: seg.Bs[k])
                for k in range(self.n_noise)]


def galerkin_compress(matrix: np.ndarray, m: int) -> np.ndarray:
    """Finite-section compression: keep the leading m x m block, zero the rest.

    The result is embedded back as an N x N matrix so it acts on the same
    space; applying it twice equals applying it once.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if m > n:
        raise ValueError(f"compression size {m} exceeds dimension {n}")
    if m <= 0:
        raise ValueError("compression size must be positive")
    out = np.zeros_like(matrix)
    out[:m, :m] = matrix[:m, :m]
    return out


def commutator_C(ops: OperatorFamily, t: float) -> np.ndarray:
    """sum_k B_k^T (tilde_A B_k - B_k tilde_A) at time t."""
    ta = assemble_tilde_A(ops, t).matrix
    out = np.zeros_like(ta)
    for bp in ops.Bs:
        b = bp.at(t)
        out += b.T @ (ta @ b - b @ ta)
    return out


def operator_norm_v_vprime(matrix: np.ndarray, basis: SpectralBasis) -> float:
    """Operator norm from V to V', via the eigenvalue weights.

    Equals the largest singular value of D^{-1/2} M D^{-1/2} with
    D = diag(lam_i).
    """
    matrix = np.asarray(matrix, dtype=float)
    w = 1.0 / np.sqrt(basis.hat_eigenvalues)
    scaled = w[:, None] * matrix * w[None, :]
    return float(np.linalg.norm(scaled, ord=2))


class EigenSolverError(RuntimeError):
    """The eigenvalue solver failed to converge."""


def spectrum(matrix: np.ndarray, symmetric: bool = False):
    """Eigenvalues (ascending by real part) and eigenvectors as columns.

    With symmetric=True the symmetric solver is used and the eigenvectors
    are orthonormal.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"square matrix required, got {matrix.shape}")
    try:
        if symmetric:
            vals, vecs = np.linalg.eigh(sym(matrix))
        else:
            vals, vecs = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigen solver did not converge: {exc}") from exc
    order = np.argsort(vals.real, kind="stable")
    return vals[order], vecs[:, order]


# -- matrix import / export -------------------------------------------


def export_family(ops: OperatorFamily, path_prefix: str) -> None:
    """Write a family as CSV matrices plus a small JSON header."""
    header = {
        "dim": ops.dim,
        "n": ops.n_noise,
        "time_grid": None if ops.A.time_grid is None else ops.A.time_grid.tolist(),
        "interpolation": ops.A.interpolation,
    }
    with open(path_prefix + ".json", "w") as fh:
        json.dump(header, fh, indent=2)

    def dump(name: str, mp: MatrixPath) -> None:
        stack = mp.values if mp.time_grid is not None else mp.values[None, :, :]
        flat = stack.reshape(stack.shape[0] * stack.shape[1], stack.shape[2])
        np.savetxt(path_prefix + f".{name}.csv", flat, delimiter=",")

    dump("A", ops.A)
    for k, b in enumerate(ops.Bs):
        dump(f"B{k}", b)


def import_family(path_prefix: str) -> OperatorFamily:
    """Read a family written by export_family."""
    with open(path_prefix + ".json") as fh:
        header = json.load(fh)
    dim = header["dim"]
    grid = header["time_grid"]
    interp = header.get("interpolation", "constant")

    def load(name: str) -> MatrixPath:
        flat = np.loadtxt(path_prefix + f".{name}.csv", delimiter=",", ndmin=2)
        if grid is None:
            return MatrixPath(flat.reshape(dim, dim))
        stack = flat.reshape(len(grid), dim, dim)
        return MatrixPath(stack, np.asarray(grid), interp)

    a = load("A")
    bs = tuple(load(f"B{k}") for k in range(header["n"]))
    return OperatorFamily(A=a, Bs=bs)
