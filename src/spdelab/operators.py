"""Time-dependent operator families and the associated matrix algebra.

All operators live in the orthonormal eigenbasis of the norm-defining
operator, so the H-adjoint of a matrix is its transpose and quadratic-form
statements reduce to eigenvalue statements about symmetrized matrices.
"""
from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .basis import DimensionMismatchError, SpectralBasis


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T)/2 of a matrix or of each matrix of a stack.

    Single convention, used everywhere.
    """
    return 0.5 * (m + m.mT)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending, as np.unique gives them
    for finite floats; np.unique imports numpy.ma on its first call."""
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _diagonal_matrices(d: np.ndarray) -> np.ndarray:
    """The matrix of a diagonal (N,), or of each diagonal of a stack (..., N),
    with +0.0 off the diagonal, as np.diag builds it."""
    out = np.zeros(d.shape + d.shape[-1:])
    np.einsum("...ii->...i", out)[...] = d
    return out


#: a noise commutator counts as zero below this times the squared norm of its operators
COMMUTATOR_TOL = 1e-12

#: half-width of the centred difference that tilde_prime_at takes
DERIVATIVE_STEP = 1e-6


class TimeRangeError(ValueError):
    """Requested time lies outside the declared grid."""


def interval_index(grid: np.ndarray, t) -> np.ndarray:
    """Index of the grid node at or left of each time in t (scalar or array).

    A time within 1e-12 below a node counts as at that node, so a grid time
    that rounding puts just below a node reads the interval the node opens.
    Times within 1e-12 of the grid ends are clamped onto it; times farther
    out raise TimeRangeError.
    """
    t = np.asarray(t, dtype=float)
    outside = (t < grid[0] - 1e-12) | (t > grid[-1] + 1e-12)
    if outside.any():
        bad = float(t[outside][0]) if t.ndim else float(t)
        raise TimeRangeError(
            f"t={bad} outside declared grid [{grid[0]}, {grid[-1]}]"
        )
    idx = grid.searchsorted(t + 1e-12, side="right") - 1
    return np.clip(idx, 0, len(grid) - 1)


class MatrixPath:
    """A matrix-valued function of time on a declared grid.

    Either a constant matrix, or a stack of matrices over a uniform time
    grid with a declared interpolation rule ("constant" holds the value of
    the left grid point; "linear" interpolates entrywise).

    A diagonal path is given by its diagonals alone, (N,) or (n_times, N),
    and holds them: `diagonal` says so, `values` and `at` give diagonals,
    and dense() is the one view that gives its matrices.
    """

    def __init__(
        self,
        values: np.ndarray,
        time_grid: Optional[np.ndarray] = None,
        interpolation: str = "constant",
    ) -> None:
        values = np.asarray(values, dtype=float)
        # the rank of one value: 1 for a diagonal, 2 for a matrix
        rank = values.ndim - (time_grid is not None)
        if rank not in (1, 2) or rank == 2 and values.shape[-1] != values.shape[-2]:
            raise ValueError(
                "values must be one square matrix or diagonal, or a stack of them "
                f"over the time grid, got {values.shape}"
            )
        if time_grid is None:
            self.time_grid = None
        else:
            time_grid = np.asarray(time_grid, dtype=float)
            if time_grid.shape != (values.shape[0],):
                raise ValueError("time grid length does not match value stack")
            if np.any(np.diff(time_grid) <= 0):
                raise ValueError("time grid must be strictly increasing")
            self.time_grid = time_grid
        if interpolation not in ("constant", "linear"):
            raise ValueError(f"unknown interpolation rule {interpolation!r}")
        self.interpolation = interpolation
        if not np.all(np.isfinite(values)):
            raise ValueError("operator entries must be finite")
        self.diagonal = rank == 1
        # C order: products with a Fortran-ordered copy round differently
        self.values = np.ascontiguousarray(values)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def is_constant(self) -> bool:
        return self.time_grid is None

    def dense(self) -> "MatrixPath":
        """This path with its values held as N x N matrices: itself unless it is
        diagonal, else a copy whose matrices have +0.0 off the diagonal."""
        if not self.diagonal:
            return self
        out = copy(self)
        out.values, out.diagonal = _diagonal_matrices(self.values), False
        return out

    def as_diagonal(self) -> Optional["MatrixPath"]:
        """This path held as its diagonals: itself if it is diagonal, a copy
        holding the diagonals if no matrix has an off-diagonal nonzero, else None."""
        if self.diagonal:
            return self
        d = np.diagonal(self.values, axis1=-2, axis2=-1)
        if np.count_nonzero(self.values) != np.count_nonzero(d):
            return None
        out = copy(self)
        out.values, out.diagonal = np.ascontiguousarray(d), True
        return out

    def at(self, t) -> np.ndarray:
        """Value at time t, or the stack (len(t), ...) at an array of times: a
        matrix, or of a diagonal path its diagonal.

        A scalar and an array time take one code path, so each value of a
        stack equals the scalar call bit for bit.
        """
        t = np.asarray(t, dtype=float)
        one = self.values.shape[-2 + self.diagonal:]  # the shape of one value
        if self.time_grid is None:
            out = np.empty(t.shape + one)
            out[...] = self.values
            return out
        grid = self.time_grid
        idx = interval_index(grid, t)
        if self.interpolation == "constant":
            return self.values[idx]
        # the last node has no right neighbour: weight 0 keeps its value exactly,
        # as it does at a time that counts as at a node it lies just below
        nxt = np.minimum(idx + 1, len(grid) - 1)
        span = grid[nxt] - grid[idx]
        w = np.divide(t.clip(grid[0], grid[-1]) - grid[idx], span,
                      out=np.zeros_like(span), where=span > 0).clip(0.0)
        w = w.reshape(w.shape + (1,) * len(one))
        return (1.0 - w) * self.values[idx] + w * self.values[nxt]


@dataclass(frozen=True)
class OperatorSegment:
    """Ito drift and noise matrices of a family, at one time or stacked over times.

    A matrix is (N, N) when it holds at one time or on a whole run of grid
    times, or a stack (n, N, N) with one matrix per time or per run; of a
    diagonal family each is its diagonal, (N,) or (n, N).  Ã and its
    symmetric part are built from the drift and the noise on first use, so
    stepping, which reads only those two, never builds them.
    """

    drift: np.ndarray
    Bs: tuple
    diagonal: bool = False

    @cached_property
    def tilde(self) -> np.ndarray:
        """Ito drift minus (1/2) sum_k B_k^T B_k (H-adjoint realized as transpose);
        of diagonals, the drift minus (1/2) sum_k b_k^2, elementwise."""
        corr = np.zeros(self.drift.shape)
        for b in self.Bs:
            corr += b * b if self.diagonal else b.mT @ b
        return self.drift - 0.5 * corr

    @cached_property
    def tilde_sym(self) -> np.ndarray:
        """sym(Ã); a diagonal is its own symmetric part."""
        return self.tilde if self.diagonal else sym(self.tilde)


@dataclass(frozen=True)
class OperatorFamily:
    """Drift and noise operators of one system, with optional nonlinearity.

    The drift convention follows the evolution written with the operators on
    the left-hand side, so the generator of decay is +A: the integrator
    applies -A(t)u as drift and -B_k(t)u as diffusion.

    Attributes:
        A: drift operator path (entries in the eigenbasis), in the form the
            equation is written in.
        Bs: noise operator paths, one per Wiener component.
        F: optional nonlinearity hook (t, u) -> array like u, on a batch of paths:
            each row of F(t, u) reads only that row of u, non-finite if it blew up.
        n_witness: optional bound on |F(t,u)| / ||u||, the same at all times.
        noise_form: "ito", or "stratonovich" when A is the drift of the
            Stratonovich equation; at() then adds the Ito correction.

    A family is diagonal when no matrix of A or of a B_k has an off-diagonal
    nonzero: it then holds every path as its diagonals (MatrixPath.as_diagonal),
    and otherwise every path as matrices (MatrixPath.dense).
    """

    A: MatrixPath
    Bs: tuple
    F: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    n_witness: Optional[float] = None
    noise_form: str = "ito"

    def __post_init__(self) -> None:
        object.__setattr__(self, "Bs", tuple(self.Bs))
        for b in self.Bs:
            if b.dim != self.A.dim:
                raise DimensionMismatchError("noise operator dimension differs from drift")
        if self.noise_form not in ("ito", "stratonovich"):
            raise ValueError(f"unknown noise form {self.noise_form!r}")
        held = [p.as_diagonal() for p in (self.A,) + self.Bs]
        if None in held:
            held = [p.dense() for p in (self.A,) + self.Bs]
        self._hold(held)

    def _hold(self, paths: list) -> None:
        object.__setattr__(self, "A", paths[0])
        object.__setattr__(self, "Bs", tuple(paths[1:]))

    @property
    def dim(self) -> int:
        return self.A.dim

    @property
    def n_noise(self) -> int:
        return len(self.Bs)

    @property
    def diagonal(self) -> bool:
        """Whether A and every B_k are held as diagonals (MatrixPath.diagonal).

        Then the family yields diagonals alone (interpolation, the
        Stratonovich correction, Ã and Milstein's B_k B_l keep a diagonal
        so), which the steps, OperatorSegments, the certificates and the
        report apply elementwise.
        """
        return all(p.diagonal for p in (self.A,) + self.Bs)

    def dense(self) -> "OperatorFamily":
        """The family with every path held as N x N matrices (MatrixPath.dense):
        the one view of a diagonal family that dense code takes."""
        out = replace(self)
        out._hold([p.dense() for p in (self.A,) + self.Bs])
        return out

    def _moving(self) -> list:
        return [p for p in (self.A,) + self.Bs if not p.is_constant]

    @property
    def nodes(self) -> Optional[np.ndarray]:
        """Union of the grids of the time-dependent paths, None if the family is constant.

        Only nodes on the span where every path is defined are kept, so the
        whole family can be evaluated at each of them.
        """
        grids = [p.time_grid for p in self._moving()]
        if not grids:
            return None
        nodes = sorted_distinct(np.concatenate(grids))
        lo, hi = max(g[0] for g in grids), min(g[-1] for g in grids)
        return nodes[(nodes >= lo) & (nodes <= hi)]

    @property
    def interpolation(self) -> str:
        """Rule between nodes: "linear" if any time-dependent path is linear.

        Otherwise "constant": the family is fixed between adjacent nodes.
        """
        if any(p.interpolation == "linear" for p in self._moving()):
            return "linear"
        return "constant"

    def runs(self, times) -> np.ndarray:
        """Edges of the runs of a time grid on which the family is one matrix.

        Run p holds the grid indices [edges[p], edges[p + 1]): a node interval
        (the whole grid without nodes), or one time if a path is linear.
        """
        n = len(times)
        if self.interpolation == "linear":
            return np.arange(n + 1)
        nodes = self.nodes
        idx = np.zeros(n) if nodes is None else interval_index(nodes, times)
        return np.concatenate([[0], np.flatnonzero(np.diff(idx)) + 1, [n]])

    @property
    def noise_commutes(self) -> bool:
        """Whether the noise operators commute pairwise over the whole horizon.

        Between adjacent nodes of the family each path is
        B_k = (1-s) L_k + s R_k for s in [0, 1), with R_k = L_k unless it is
        linearly interpolated, so each commutator is the quadratic
            [B_i, B_l] = (1-s)^2 [L_i, L_l] + s^2 [R_i, R_l]
                         + s(1-s) ([L_i, R_l] + [R_i, L_l]),
        which vanishes on the interval iff its three coefficients do.  Milstein
        needs this commutativity at every time (Kloeden & Platen, section 10.3).
        Diagonals commute: each entry of x y - y x is x_i y_i - y_i x_i, exactly 0.
        """
        if self.diagonal:
            return True
        bs = self.Bs
        nodes = self.nodes
        if nodes is None:
            nodes = np.zeros(1)
        left = [bp.at(nodes) for bp in bs]
        ends = np.append(nodes[1:], nodes[-1])
        right = [bp.at(ends) if bp.interpolation == "linear" else m
                 for bp, m in zip(bs, left)]
        # per interval: the largest Frobenius norm of its end matrices, at least 1
        scale = np.max([np.ones(len(nodes))]
                       + [np.linalg.norm(m, axis=(-2, -1)) for m in left + right], axis=0)

        def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return x @ y - y @ x

        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                coeffs = (
                    comm(left[i], left[j]),
                    comm(right[i], right[j]),
                    comm(left[i], right[j]) + comm(right[i], left[j]),
                )
                if any(np.any(np.linalg.norm(c, axis=(-2, -1)) > COMMUTATOR_TOL * scale**2)
                       for c in coeffs):
                    return False
        return True

    def at(self, t) -> OperatorSegment:
        """Ito drift and B_k at t, or stacked over an array of times.

        The drift is A(t) for an Ito family, and A(t) - (1/2) sum_k B_k(t)^2
        for a Stratonovich one (Kloeden & Platen, section 4.9).  Note the
        square B_k @ B_k here, as opposed to B_k^T @ B_k in the corrected
        generator; the two coincide only for symmetric noise operators.
        Every path is evaluated once, at t itself, so the drift is exact at
        every time.  Of a diagonal family every value is a diagonal.
        """
        noise = tuple(bp.at(t) for bp in self.Bs)
        drift = self.A.at(t)
        if self.noise_form == "stratonovich":
            corr = np.zeros(drift.shape)
            for b in noise:
                corr += b * b if self.diagonal else b @ b
            drift = drift - 0.5 * corr
        return OperatorSegment(drift, noise, self.diagonal)

    def tilde_prime_at(self, t) -> np.ndarray:
        """Derivative of the corrected generator at t, or stacked over an array of times.

        Zero by convention (jumps excluded) when every time-dependent path is
        piecewise constant; otherwise a centred difference of half-width
        DERIVATIVE_STEP clamped to the span of the nodes.  Of a diagonal
        family, a diagonal.
        """
        one = (self.dim,) * (2 - self.diagonal)
        zero = np.zeros(np.shape(t) + one)
        if self.interpolation == "constant":
            return zero
        nodes = self.nodes
        t0 = np.clip(t - DERIVATIVE_STEP, nodes[0], nodes[-1])
        t1 = np.clip(t + DERIVATIVE_STEP, nodes[0], nodes[-1])
        step = np.reshape(t1 - t0, np.shape(t) + (1,) * len(one))
        diff = assemble_tilde_A(self, t1) - assemble_tilde_A(self, t0)
        return np.divide(diff, step, out=zero, where=step > 0)


def assemble_tilde_A(ops: OperatorFamily, t) -> np.ndarray:
    """Corrected generator A(t) - (1/2) sum_k B_k(t)^T B_k(t) (H-adjoint realized as transpose).

    A(t) is the family's Ito drift (OperatorFamily.at).  One matrix at a
    time t, or a stack with one matrix per time at an array of times; of a
    diagonal family, diagonals.
    """
    return ops.at(t).tilde


#: grid times per segment when a linear path gives every time its own matrix
LINEAR_BLOCK = 128


class OperatorSegments:
    """A family on one time grid, with the Ito drift, each B_k and Ã built once per segment.

    A segment is one run of the grid (OperatorFamily.runs), or, when a linear
    path makes each time a run, a block of at most LINEAR_BLOCK times with one
    matrix per time.  The matrices come from stacked evaluations of the
    family, one for all segments or one per linear block; the steppers and
    the diagnostics read them from here.  Of a diagonal family
    (OperatorFamily.diagonal) every segment holds diagonals, and both apply
    them elementwise.
    """

    def __init__(self, ops: OperatorFamily, times: np.ndarray) -> None:
        self.times = np.asarray(times, dtype=float)
        self.n_noise = ops.n_noise
        self.diagonal = ops.diagonal
        edges = ops.runs(self.times)
        if ops.interpolation == "linear":
            # a run per time, evaluated block by block, so no temporary outgrows one block
            edges = np.append(edges[:-1:LINEAR_BLOCK], edges[-1])
            self.segments = tuple(ops.at(self.times[lo:hi])
                                  for lo, hi in zip(edges[:-1], edges[1:]))
        else:
            ev = ops.at(self.times[edges[:-1]])
            self.segments = tuple(
                OperatorSegment(ev.drift[p], tuple(b[p] for b in ev.Bs), self.diagonal)
                for p in range(len(edges) - 1))
        #: segment p holds the grid indices [edges[p], edges[p + 1])
        self.edges = edges.tolist()

    def _apply(self, states: np.ndarray, pick, out: Optional[np.ndarray]) -> np.ndarray:
        """Written into `out` if given, else into an array laid out in memory
        as `states` is (np.empty_like): states viewed from component planes
        give planes back."""
        states = np.asarray(states, dtype=float)
        if states.ndim < 2 or states.shape[-2] != len(self.times):
            raise ValueError(
                f"states {states.shape} do not lie on a grid of {len(self.times)} times"
            )
        if out is None:
            out = np.empty_like(states)
        for seg, lo, hi in zip(self.segments, self.edges, self.edges[1:]):
            u = states[..., lo:hi, :]
            m = pick(seg)
            if self.diagonal:
                part = out[..., lo:hi, :]
                np.multiply(u, m, out=part)
                part += 0.0  # a dense product sums to +0.0 where u_i d_i is -0.0
            elif m.ndim == 2:
                out[..., lo:hi, :] = u @ m.T
            else:
                out[..., lo:hi, :] = np.einsum("tij,...tj->...ti", m, u)
        return out

    def tilde_applied(self, states: np.ndarray, symmetric: bool = False,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Ã(t)u, or sym(Ã(t))u, at every grid time; states are (..., J+1, N),
        and so is `out`, which takes the result if given."""
        if symmetric:
            return self._apply(states, lambda seg: seg.tilde_sym, out)
        return self._apply(states, lambda seg: seg.tilde, out)

    def noise_applied(self, states: np.ndarray, out: Optional[list] = None) -> list:
        """[B_k(t)u for each k] at every grid time; states are (..., J+1, N),
        and so is each array of `out`, which take the results if given."""
        return [self._apply(states, lambda seg, k=k: seg.Bs[k], None if out is None else out[k])
                for k in range(self.n_noise)]

    def tilde_head(self, planes: np.ndarray, n: int) -> np.ndarray:
        """Ã(t)[:n, n:] u[n:] at every grid time, of states held as component
        planes (N, ..., J+1): the (n, ..., J+1) planes.  Only that block of
        each matrix is read; of a diagonal family, or at n = N, it is zero."""
        out = np.zeros((n,) + planes.shape[1:])
        if self.diagonal or n == len(planes):
            return out
        for seg, lo, hi in zip(self.segments, self.edges, self.edges[1:]):
            m = seg.tilde[..., :n, n:]
            u = planes[n:, ..., lo:hi]
            if m.ndim == 2:
                out[..., lo:hi] = (m @ u.reshape(len(u), -1)).reshape((n,) + u.shape[1:])
            else:
                out[..., lo:hi] = np.einsum("tij,j...t->i...t", m, u)
        return out


def commutator_C(ev: OperatorSegment) -> np.ndarray:
    """sum_k B_k^T (tilde_A B_k - B_k tilde_A) of an evaluation, one matrix or a stack;
    of diagonals, which commute, exactly 0."""
    ta = ev.tilde
    out = np.zeros_like(ta)
    if ev.diagonal:
        return out
    for b in ev.Bs:
        out += b.mT @ (ta @ b - b @ ta)
    return out


def operator_norm_v_vprime(matrix: np.ndarray, basis: SpectralBasis, diagonal: bool = False):
    """Operator norm from V to V', via the eigenvalue weights.

    Equals the largest singular value of D^{-1/2} M D^{-1/2} with
    D = diag(lam_i), and of a diagonal the largest |m_i| / lam_i.  A float
    for one matrix or diagonal, one norm per matrix or diagonal of a stack.
    """
    matrix = np.asarray(matrix, dtype=float)
    w = 1.0 / np.sqrt(basis.hat_eigenvalues)
    if diagonal:
        norms = np.abs(w * matrix * w).max(axis=-1)
    else:
        scaled = w[:, None] * matrix * w[None, :]
        norms = np.linalg.norm(scaled, ord=2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of sym(matrix), ascending; of a diagonal (N,), its
    entries sorted."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        return np.sort(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"square matrix or diagonal required, got {matrix.shape}")
    # eigh, whose eigenvalues can differ from eigvalsh's in the last bits
    return np.linalg.eigh(sym(matrix))[0]
