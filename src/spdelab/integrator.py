"""Time stepping for the Galerkin SDE with linear multiplicative noise.

The drift convention is fixed once: the evolution carries +A and +B on the
left-hand side, so every scheme applies -A(t)u as drift and -B_k(t)u dw^k
as diffusion.  The schemes step the Ito form: a Stratonovich family's
drift carries its Ito correction (OperatorFamily.at).  Each scheme's step
is a random linear map u -> sum_m c_m(dw) G_m u plus the F term (Kloeden &
Platen, sections 10.2-10.3 and 12.2): the one stepping loop stacks the G_m
once per segment of the family's OperatorSegments on its grid, and builds
the c_m for a block of steps at a time.  No step evaluates a matrix path.

A block of steps is taken in one of two ways.  A diagonal family
(OperatorFamily.diagonal) holds each G_m as its diagonal g_m; without an F
each step multiplies the state by sum_m c_m g_m, so the whole block is one
elementwise scan, O(N) per path and step, on contiguous step x path planes,
one per coordinate: the c_m are held as planes (M, S, P) and the multipliers
as (N, S, P), so numpy's inner loops run over the paths, not over the N
coordinates.  Any other family steps one step at a time: by elementwise
products if it is diagonal (with an F), by dense ones otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .brownian import coarsen_increments, sample_brownian_ensemble, uniform_grid
from .operators import OperatorSegments


class BlowUpError(RuntimeError):
    """A state became non-finite; the first bad time is reported."""

    def __init__(self, t: float):
        super().__init__(f"trajectory blew up at t={t}")
        self.t = t


class SchemeError(ValueError):
    """Scheme is unknown or incompatible with the system's noise."""


SCHEMES = ("euler-maruyama", "milstein", "drift-implicit")

#: steps per block, whose coefficient rows are built and whose states are checked
#: for blow-ups at once (in a buffer of this many steps if only the last are kept)
_STEP_BLOCK = 64


def _implicit_inverse(drift, dt, t, diagonal: bool):
    """inv(I + dt A) of a drift, or of each of a stack, read by the steps from
    times t; a singular one raises SchemeError at the first step reading it.
    A diagonal drift is held as its diagonal d, whose inverse is 1 / (1 + dt d)."""
    if diagonal:
        mat = 1.0 + dt * drift
        singular = (mat == 0.0).any(axis=-1)
        if singular.any():
            t = t[np.argmax(singular)]
            raise SchemeError(f"singular implicit solve at t={float(t)}: zero diagonal entry")
        return 1.0 / mat
    mat = np.eye(drift.shape[-1]) + dt * drift
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        # LU met an exact zero pivot, so that determinant is exactly 0
        t = t[np.argmax(np.linalg.det(mat) == 0.0)]
        raise SchemeError(f"singular implicit solve at t={float(t)}: {exc}") from exc


def _take(m, lo, hi, rank: int = 2):
    """Entries lo..hi-1 of a stack with one per grid time, or a segment's one entry,
    a matrix (rank 2) or a diagonal (rank 1)."""
    return m[lo:hi] if m.ndim > rank else m


def _stack(scheme: str, F, drift, bs, dt: float, diagonal: bool):
    """A scheme's G_m transposed side by side, so u @ G is [u G_0^T | u G_1^T | ...], and the
    matrix the step ends with, or None; drift is the Ito drift, or drift-implicit's inverse,
    which with an F ends the step, after the noise terms, as (u - dt F + them) @ inv^T.

    Of a diagonal family each matrix is its diagonal: G holds the G_m's as rows (M, N), so
    u[:, None] * G is [u G_0^T, u G_1^T, ...], and the matrix the step ends with is a diagonal."""
    mul, eye = (np.multiply, 1.0) if diagonal else (np.matmul, np.eye(drift.shape[-1]))
    if scheme == "drift-implicit" and F is not None:
        gs, post = [-b for b in bs], drift if diagonal else drift.mT
    elif scheme == "drift-implicit":
        gs, post = [drift] + [-mul(drift, b) for b in bs], None
    else:
        gs, post = [eye - dt * drift] + [-b for b in bs], None
        if scheme == "milstein":
            gs += [0.5 * mul(bk, bl) for bk in bs for bl in bs]
    # the zero-width piece keeps a noise-free stack defined
    if diagonal:
        return np.concatenate([np.zeros(drift.shape[:-1] + (0, drift.shape[-1]))]
                              + [g[..., None, :] for g in gs], -2), post
    return np.concatenate([np.zeros(drift.shape[:-1] + (0,))] + [g.mT for g in gs], -1), post


def _stacks(segs: OperatorSegments, scheme: str, F, dt: float):
    """(lo, hi, G, post) from _stack, with one entry per step, per run of steps
    lo..hi-1 that read one segment's noise and one segment's drift.

    Step j reads the noise at grid index j and the drift at j + lag, lag 1 for
    drift-implicit, whose inv(I + dt A) is built once per segment and dropped
    when the steps leave it: the step pairing the next segment's inverse with
    this one's noise is a run of its own."""
    lag = int(scheme == "drift-implicit")
    diagonal = segs.diagonal
    rank = 2 - diagonal

    def read(m, lo, hi):
        m = _take(m, lo, hi)
        return np.diagonal(m, axis1=-2, axis2=-1) if diagonal else m

    times, edges = segs.times, segs.edges
    cuts = sorted({min(max(e - d, 0), len(times) - 1) for e in edges for d in (0, lag)})
    held = None
    for lo, hi in zip(cuts, cuts[1:]):
        p, q = np.searchsorted(edges, [lo, lo + lag], side="right") - 1
        if q != held:
            held, first = q, max(edges[q], lag)
            drift = read(segs.segments[q].drift, first - edges[q], None)
            if lag:
                drift = _implicit_inverse(drift, dt, times[first - lag:edges[q + 1] - lag],
                                          diagonal)
        bs = [read(b, lo - edges[p], hi - edges[p]) for b in segs.segments[p].Bs]
        d = _take(drift, lo + lag - first, hi + lag - first, rank)
        mats = _stack(scheme, F, d, bs, dt, diagonal)
        # a segment's one entry serves each of its steps
        yield (lo, hi) + tuple(m if m is None or d.ndim > rank
                               else np.broadcast_to(m, (hi - lo,) + m.shape) for m in mats)


def _scan(c, g, u, out) -> None:
    """The states of a block of S steps of a diagonal family without F into out (S, P, N),
    from the coefficient rows c (M, S, P) and the G_m's diagonals g (S, M, N).

    Each coordinate's multipliers sum_m c_m g_m are formed as planes (N, S, P), summed
    elementwise in the order of m, so a path's entry depends on that path's row alone;
    one accumulate along the steps takes the products in the loop's order
    ((u m_0) m_1) ..., and one transposed copy stores them."""
    gt = g.transpose(1, 2, 0)[..., None]
    w = c[0] * gt[0]
    for m in range(1, len(c)):
        w += c[m] * gt[m]
    w[:, 0] *= u.T
    np.multiply.accumulate(w, axis=1, out=w)
    # a zero state times a negative multiplier is -0.0, where a dense product sums to +0.0
    w += 0.0
    out[...] = w.transpose(1, 2, 0)


def _coefficients(dw, dt: float, scheme: str):
    """Per step of a block of increments (P, S, n), each path's row c_m(dw) in the order
    of _stack's G_m, (1, dw_k, and for Milstein dw_k dw_l - delta_kl dt), as planes
    (M, S, P)."""
    n_paths, steps, n = dw.shape
    c = np.empty((1 + n + n * n * (scheme == "milstein"), steps, n_paths))
    c[0] = 1.0
    c[1:n + 1] = dw.transpose(2, 1, 0)
    if scheme == "milstein":
        area = c[n + 1:].reshape(n, n, steps, n_paths)
        np.multiply(c[1:n + 1, None], c[None, 1:n + 1], out=area)
        for k in range(n):
            area[k, k] -= dt
    return c


def _freeze(block, start, alive, blowups: dict, times) -> np.ndarray:
    """Freeze each path of a block of states (S, P, N) at its last finite state: a path frozen
    before the block at `start` (P, N), a live one from the step i where it turns
    non-finite, with blow-up time times[i].  Returns a copy of the block's last states."""
    if alive.all() and np.isfinite(block).all():
        return block[-1].copy()
    if not alive.all():
        block[:, ~alive] = start[~alive]
    bad = ~np.isfinite(block).all(axis=-1)
    for i, p in sorted((bad[:, p].argmax(), p) for p in np.flatnonzero(alive & bad.any(axis=0))):
        blowups[int(p)] = float(times[i])
        block[i:, p] = block[i - 1, p] if i else start[p]
        alive[p] = False
    return block[-1].copy()


@dataclass(frozen=True)
class EnsembleResult:
    """A batch of trajectories sharing a grid; path p used stream first_stream + p.

    A single path is an ensemble of one.  `segments` are the family's
    matrices on the grid that the steps read; the diagnostics read them too.
    """

    times: np.ndarray
    states: np.ndarray  # (P, J+1, N)
    increments: np.ndarray  # (P, J, n)
    blowups: dict  # path index -> blow-up time
    segments: OperatorSegments

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def paths(self, lo: int, hi: int) -> "EnsembleResult":
        """Paths lo..hi-1 as an ensemble of their own, sharing this one's arrays."""
        return replace(
            self, states=self.states[lo:hi], increments=self.increments[lo:hi],
            blowups={p - lo: t for p, t in self.blowups.items() if lo <= p < hi},
        )


def _check_scheme(system, scheme: str) -> None:
    if scheme not in SCHEMES:
        raise SchemeError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "milstein" and not system.ops.noise_commutes:
        raise SchemeError("milstein requires a pairwise commuting noise family")


def _run_steps(F, segs: OperatorSegments, u0, increments, scheme, final_only=False):
    """The one loop over time steps, for a batch of paths.

    u0 has shape (P, N) and increments (P, J, n); F is the family's
    nonlinearity or None.  The step from grid time t_j maps each path's u to
    sum_m c_m u @ G_m - dt F(t_j, u), the G_m from _stacks and the c_m from
    _coefficients, per block of _STEP_BLOCK steps, which a diagonal family
    without F takes as one scan (_scan).  A path whose state turns
    non-finite is frozen at its last finite state and its blow-up time is
    recorded; the other paths continue.  Checked once per block, this gives
    the states of a check after every step, as each path's row of a step
    depends on that row alone (F's contract).  Returns the states (P, J+1, N),
    or with final_only just the final states (P, N), and the blow-ups.
    """
    times = segs.times
    dt = float(times[1] - times[0])
    u = np.array(u0, dtype=float)
    n_paths, dim = u.shape
    if final_only:
        buffer = np.empty((min(_STEP_BLOCK, len(times) - 1), n_paths, dim))
    else:
        states = np.empty((n_paths, len(times), dim))
        states[:, 0, :] = u
    alive = np.ones(n_paths, dtype=bool)
    blowups: dict = {}
    diagonal = segs.diagonal
    mul = np.multiply if diagonal else np.matmul
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, stack, post in _stacks(segs, scheme, F, dt):
            for b in range(lo, hi, _STEP_BLOCK):
                e = min(b + _STEP_BLOCK, hi)
                c = _coefficients(increments[:, b:e], dt, scheme)
                block = buffer[:e - b] if final_only else states[:, b + 1:e + 1].swapaxes(0, 1)
                start = u
                if diagonal and F is None:
                    _scan(c, stack[b - lo:e - lo], u, block)
                else:
                    # drift-implicit with an F adds u outside the stack, so drops the 1
                    c = c.transpose(1, 2, 0)[:, :, None].copy()[..., int(post is not None):]
                    for i, j in enumerate(range(b, e)):
                        g = stack[j - lo]
                        terms = u[:, None, :] * g if diagonal else (u @ g).reshape(n_paths, -1, dim)
                        new = (c[i] @ terms)[:, 0]
                        if F is not None:
                            f = dt * F(float(times[j]), u)
                            new = new - f if post is None else mul(u - f + new, post[j - lo])
                        block[i] = u = new
                u = _freeze(block, start, alive, blowups, times[b + 1:e + 1])
    return (u if final_only else states), blowups


def _raise_on_blowup(blowups: dict) -> None:
    if blowups:
        raise BlowUpError(min(blowups.values()))


def integrate_ensemble(
    system, scheme: str, grid: np.ndarray, seed: int, n_paths: int, first_stream: int = 0,
) -> EnsembleResult:
    """Integrate n_paths paths from system.u0, path p driven by stream
    (seed, first_stream + p).

    A blown-up path is recorded with its blow-up time and frozen at its last
    finite state; the rest of the ensemble continues.
    """
    _check_scheme(system, scheme)
    grid = np.asarray(grid, dtype=float)
    inc = sample_brownian_ensemble(system.ops.n_noise, grid, seed, n_paths, first_stream)
    u0b = np.broadcast_to(system.u0, (n_paths, system.ops.dim))
    segs = OperatorSegments(system.ops, grid)
    states, blowups = _run_steps(system.ops.F, segs, u0b, inc, scheme)
    return EnsembleResult(grid, states, inc, blowups, segs)


def integrate(
    system, scheme: str, grid: np.ndarray, seed: int, stream_id: int = 0,
) -> EnsembleResult:
    """Integrate the path of stream (seed, stream_id) from system.u0 as an
    ensemble of one; raises BlowUpError."""
    ens = integrate_ensemble(system, scheme, grid, seed, 1, first_stream=stream_id)
    _raise_on_blowup(ens.blowups)
    return ens


def strong_convergence(
    system, scheme: str, T: float, dt: float, seed: int, n_paths: int, levels: int,
) -> dict:
    """Strong-error slope of a scheme against a shared-noise fine reference.

    Paths p = 0..n_paths-1 (stream (seed, p)), each from system.u0, are
    integrated on the grid of step dt / 2**levels and, with the same
    Brownian increments summed, on the grids of step dt * 2**-lev for
    lev = 0..levels-1.  Returns the scheme, those coarse steps, the mean
    over paths of |u_coarse(T) - u_fine(T)| per step, and the least-squares
    slope of log error against log step.  Raises BlowUpError if any path
    blows up.
    """
    if levels < 2:
        raise ValueError(f"levels must be at least 2 to fit a slope, got {levels}")
    _check_scheme(system, scheme)
    fine = uniform_grid(T, dt / 2**levels)
    inc = sample_brownian_ensemble(system.ops.n_noise, fine, seed, n_paths)
    u0b = np.broadcast_to(system.u0, (n_paths, system.ops.dim))
    factors = [1] + [2 ** (levels - lev) for lev in range(levels)]
    finals = []
    for factor in factors:  # the fine reference first, then each coarse level
        coarse = inc if factor == 1 else coarsen_increments(inc, factor)
        final, blowups = _run_steps(system.ops.F, OperatorSegments(system.ops, fine[::factor]),
                                    u0b, coarse, scheme, final_only=True)
        _raise_on_blowup(blowups)
        finals.append(final)
    dts = [float(fine[factor] - fine[0]) for factor in factors[1:]]
    mean_errors = [float(np.mean(np.linalg.norm(final - finals[0], axis=-1)))
                   for final in finals[1:]]
    slope = float(np.polyfit(np.log(dts), np.log(mean_errors), 1)[0])
    return {"scheme": scheme, "dts": dts, "mean_errors": mean_errors, "slope": slope}

