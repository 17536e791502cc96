"""Time stepping for the Galerkin SDE with linear multiplicative noise.

The drift convention is fixed once: the evolution carries +A and +B on the
left-hand side, so every scheme applies -A(t)u as drift and -B_k(t)u dw^k
as diffusion.  The schemes step the Ito form: a Stratonovich family's
drift carries its Ito correction (OperatorFamily.at).  The stepping
loop reads every matrix from the family's OperatorSegments on its grid,
built once and prepared once per segment; no stepper evaluates a matrix path.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .brownian import (
    coarsen_increments,
    sample_brownian,
    sample_brownian_ensemble,
    uniform_grid,
)
from .operators import OperatorFamily, OperatorSegments


class BlowUpError(RuntimeError):
    """A state became non-finite; the first bad time is reported."""

    def __init__(self, t: float):
        super().__init__(f"trajectory blew up at t={t}")
        self.t = t


class SchemeError(ValueError):
    """Scheme is unknown or incompatible with the system's noise."""


def _euler_maruyama(F, u, t, dt, dw, drift, noise):
    out = u @ drift.T
    if F is not None:
        out = out + F(t, u)
    out = u - dt * out
    for k, b in enumerate(noise):
        out = out - (u @ b.T) * dw[..., k : k + 1]
    return out


def _milstein(F, u, t, dt, dw, drift, noise):
    bs, products = noise
    out = _euler_maruyama(F, u, t, dt, dw, drift, bs)
    for k, row in enumerate(products):
        for l, bkl in enumerate(row):
            area = dw[..., k : k + 1] * dw[..., l : l + 1]
            if k == l:
                area = area - dt
            out = out + 0.5 * (u @ bkl.T) * area
    return out


def _drift_implicit(F, u, t, dt, dw, inverse, noise):
    rhs = u
    if F is not None:
        rhs = rhs - dt * F(t, u)
    for k, b in enumerate(noise):
        rhs = rhs - (u @ b.T) * dw[..., k : k + 1]
    return rhs @ inverse.T


def _as_is(m, dt, t):
    return m


def _noise_products(bs, dt, t):
    """The B_k and every product B_k B_l, for the Milstein correction."""
    return bs, tuple(tuple(bk @ bl for bl in bs) for bk in bs)


def _implicit_inverse(drift, dt, t):
    """inv(I + dt A) of a drift, or of each of a stack, read by the steps from
    times t; a singular one raises SchemeError at the first step reading it."""
    mat = np.eye(drift.shape[-1]) + dt * drift
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        # LU met an exact zero pivot, so that determinant is exactly 0
        t = t[np.argmax(np.linalg.det(mat) == 0.0)]
        raise SchemeError(f"singular implicit solve at t={float(t)}: {exc}") from exc


#: per scheme: the step kernel (F, u, t, dt, dw, drift, noise); the lag of its
#: drift, as a step from t reads the noise at t and the Ito drift at t + lag * dt;
#: and what it prepares (m, dt, t) once per segment from the drift and the noise
_KERNELS = {
    "euler-maruyama": (_euler_maruyama, 0, _as_is, _as_is),
    "milstein": (_milstein, 0, _as_is, _noise_products),
    "drift-implicit": (_drift_implicit, 1, _implicit_inverse, _as_is),
}

SCHEMES = tuple(_KERNELS)


def _one_step(scheme: str, ops: OperatorFamily, u, t: float, dt: float, dw):
    """One step of a scheme on the family evaluated directly at t (and t + dt)."""
    kernel, lag, prep_drift, prep_noise = _KERNELS[scheme]
    drift, noise = ops.at(t + lag * dt).drift, ops.at(t).Bs
    return kernel(ops.F, u, t, dt, dw, prep_drift(drift, dt, [t]), prep_noise(noise, dt, [t]))


def step_euler_maruyama(
    ops: OperatorFamily, u: np.ndarray, t: float, dt: float, dw: np.ndarray
) -> np.ndarray:
    """u - dt (A(t)u + F(t,u)) - sum_k B_k(t) u dw_k, with A the Ito drift."""
    return _one_step("euler-maruyama", ops, u, t, dt, dw)


def step_milstein_commutative(
    ops: OperatorFamily, u: np.ndarray, t: float, dt: float, dw: np.ndarray
) -> np.ndarray:
    """Euler-Maruyama plus the commutative-noise second-order correction.

    Adds (1/2) sum_{k,l} B_k B_l u (dw_k dw_l - delta_kl dt), which is the
    exact Milstein term when the noise family commutes.
    """
    return _one_step("milstein", ops, u, t, dt, dw)


def step_drift_implicit(
    ops: OperatorFamily, u: np.ndarray, t: float, dt: float, dw: np.ndarray
) -> np.ndarray:
    """Solve (I + dt A(t+dt)) u' = u - dt F(t,u) - sum_k B_k(t) u dw_k."""
    return _one_step("drift-implicit", ops, u, t, dt, dw)


#: one step of each scheme on a family evaluated at t and t + dt
_STEPPERS = {
    "euler-maruyama": step_euler_maruyama,
    "milstein": step_milstein_commutative,
    "drift-implicit": step_drift_implicit,
}


@dataclass(frozen=True)
class EnsembleResult:
    """A batch of trajectories sharing a grid; path p used stream p of the run.

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
    if scheme not in _KERNELS:
        raise SchemeError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "milstein" and not system.ops.noise_commutes:
        raise SchemeError("milstein requires a pairwise commuting noise family")


def _index(m, i):
    """Matrix i of a stack, or of each stack of a (nested) tuple."""
    return m[i] if isinstance(m, np.ndarray) else tuple(_index(x, i) for x in m)


def _per_step(segs: OperatorSegments, field: str, prepare, dt: float, lag: int):
    """Per step j, `field` of the segment holding grid index j + lag, made by
    prepare(m, dt, times of the steps reading m) when the steps enter the
    segment and dropped when they leave it."""
    for seg, lo, hi in zip(segs.segments, segs.edges, segs.edges[1:]):
        start = max(lo, lag)
        t = segs.times[start - lag:hi - lag]
        if seg.drift.ndim == 3:
            m = prepare(_index(getattr(seg, field), slice(start - lo, None)), dt, t)
            yield from (_index(m, i) for i in range(len(t)))
        elif len(t):
            yield from [prepare(getattr(seg, field), dt, t)] * len(t)


def _run_steps(F, segs: OperatorSegments, u0, increments, scheme, final_only=False):
    """The one loop over time steps, for a batch of paths.

    u0 has shape (P, N) and increments (P, J, n); F is the family's
    nonlinearity or None.  A path whose state turns non-finite is frozen at
    its last finite state and its blow-up time is recorded; the other paths
    continue.  Every step reads its matrices from the segments, on whose
    grid the paths run, prepared once per segment: step j the noise at grid
    index j and the drift at index j + lag.  Returns the states (P, J+1, N),
    or with final_only just the final states (P, N), and the blow-ups.
    """
    kernel, lag, prep_drift, prep_noise = _KERNELS[scheme]
    times = segs.times
    dt = float(times[1] - times[0])
    u = np.array(u0, dtype=float)
    states = None
    if not final_only:
        states = np.empty((u.shape[0], len(times), u.shape[1]))
        states[:, 0, :] = u
    alive = np.ones(u.shape[0], dtype=bool)
    blowups: dict = {}
    drifts = _per_step(segs, "drift", prep_drift, dt, lag)
    noises = _per_step(segs, "Bs", prep_noise, dt, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, drift, noise in zip(range(len(times) - 1), drifts, noises):
            new = kernel(F, u, float(times[j]), dt, increments[:, j, :], drift, noise)
            frozen = ~alive | ~np.all(np.isfinite(new), axis=-1)
            if np.any(frozen):
                for p in np.flatnonzero(frozen & alive):
                    blowups[int(p)] = float(times[j + 1])
                alive &= ~frozen
                new[frozen] = u[frozen]
            if states is not None:
                states[:, j + 1, :] = new
            u = new
    return (u if final_only else states), blowups


def _raise_on_blowup(blowups: dict) -> None:
    if blowups:
        raise BlowUpError(min(blowups.values()))


def _start(system, u0: Optional[np.ndarray]) -> np.ndarray:
    return system.u0 if u0 is None else np.asarray(u0, dtype=float)


def integrate(
    system, scheme: str, grid: np.ndarray, seed: int, stream_id: int = 0,
    u0: Optional[np.ndarray] = None,
) -> EnsembleResult:
    """Integrate the path of stream (seed, stream_id) as an ensemble of one;
    raises BlowUpError."""
    _check_scheme(system, scheme)
    grid = np.asarray(grid, dtype=float)
    inc = sample_brownian(system.ops.n_noise, grid, seed, stream_id).increments[None]
    segs = OperatorSegments(system.ops, grid)
    states, blowups = _run_steps(system.ops.F, segs, _start(system, u0)[None], inc, scheme)
    _raise_on_blowup(blowups)
    return EnsembleResult(grid, states, inc, blowups, segs)


def integrate_ensemble(
    system, scheme: str, grid: np.ndarray, seed: int, n_paths: int,
    u0: Optional[np.ndarray] = None,
) -> EnsembleResult:
    """Integrate n_paths paths, path p driven by stream (seed, p).

    A blown-up path is recorded with its blow-up time and frozen at its last
    finite state; the rest of the ensemble continues.
    """
    _check_scheme(system, scheme)
    grid = np.asarray(grid, dtype=float)
    inc = sample_brownian_ensemble(system.ops.n_noise, grid, seed, n_paths)
    u0b = np.broadcast_to(_start(system, u0), (n_paths, system.ops.dim))
    segs = OperatorSegments(system.ops, grid)
    states, blowups = _run_steps(system.ops.F, segs, u0b, inc, scheme)
    return EnsembleResult(grid, states, inc, blowups, segs)


def strong_convergence(
    system, scheme: str, T: float, dt: float, seed: int, n_paths: int,
    levels: int, u0: Optional[np.ndarray] = None,
) -> dict:
    """Strong-error slope of a scheme against a shared-noise fine reference.

    Paths p = 0..n_paths-1 (stream (seed, p)) are integrated on the grid of
    step dt / 2**levels and, with the same Brownian increments summed, on
    the grids of step dt * 2**-lev for lev = 0..levels-1.  Returns the
    scheme, those coarse steps, the mean over paths of |u_coarse(T) -
    u_fine(T)| per step, and the least-squares slope of log error against
    log step.  Raises BlowUpError if any path blows up.
    """
    if levels < 2:
        raise ValueError(f"levels must be at least 2 to fit a slope, got {levels}")
    _check_scheme(system, scheme)
    fine = uniform_grid(T, dt / 2**levels)
    inc = sample_brownian_ensemble(system.ops.n_noise, fine, seed, n_paths)
    u0b = np.broadcast_to(_start(system, u0), (n_paths, system.ops.dim))
    ref, blowups = _run_steps(system.ops.F, OperatorSegments(system.ops, fine), u0b,
                              inc, scheme, final_only=True)
    _raise_on_blowup(blowups)
    dts, mean_errors = [], []
    for lev in range(levels):
        factor = 2 ** (levels - lev)
        times = fine[::factor]
        final, blowups = _run_steps(
            system.ops.F, OperatorSegments(system.ops, times), u0b,
            coarsen_increments(inc, factor), scheme, final_only=True,
        )
        _raise_on_blowup(blowups)
        err = np.linalg.norm(final - ref, axis=-1)
        dts.append(float(times[1] - times[0]))
        mean_errors.append(float(np.mean(err)))
    slope = float(np.polyfit(np.log(dts), np.log(mean_errors), 1)[0])
    return {"scheme": scheme, "dts": dts, "mean_errors": mean_errors, "slope": slope}

