"""Time stepping for the Galerkin SDE with linear multiplicative noise.

The drift convention is fixed once: the evolution carries +A and +B on the
left-hand side, so every scheme applies -A(t)u as drift and -B_k(t)u dw^k
as diffusion.  Stratonovich-specified systems are converted to Ito form at
registration (see strat_to_ito), never inside a stepper.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .basis import SpectralBasis
from .brownian import BrownianPath, sample_brownian, sample_brownian_ensemble
from .operators import MatrixPath, OperatorFamily


class BlowUpError(RuntimeError):
    """A state became non-finite; the first bad time is reported."""

    def __init__(self, t: float):
        super().__init__(f"trajectory blew up at t={t}")
        self.t = t


class SchemeError(ValueError):
    """Scheme is unknown or incompatible with the system's noise."""


SCHEMES = ("euler-maruyama", "milstein", "drift-implicit")


def strat_to_ito(ops: OperatorFamily) -> OperatorFamily:
    """Convert a Stratonovich-specified family to the equivalent Ito family.

    Replaces A by A - (1/2) sum_k B_k^2 and leaves the B_k unchanged.  Note
    the square B_k @ B_k here, as opposed to B_k^T @ B_k in the corrected
    generator; the two coincide only for symmetric noise operators.
    """

    def correction_at(values: np.ndarray, bs, idx: Optional[int]) -> np.ndarray:
        corr = np.zeros_like(values)
        for bp in bs:
            b = bp.values if bp.time_grid is None else bp.values[idx]
            corr += b @ b
        return values - 0.5 * corr

    a = ops.A
    if a.time_grid is None and all(b.time_grid is None for b in ops.Bs):
        new_a = MatrixPath(correction_at(a.values, ops.Bs, None))
    else:
        # Align everything on the drift grid (constant B is broadcast).
        grid = a.time_grid
        if grid is None:
            grid = next(b.time_grid for b in ops.Bs if b.time_grid is not None)
            stack = np.repeat(a.values[None, :, :], len(grid), axis=0)
            interp = "constant"
        else:
            stack = a.values
            interp = a.interpolation
        new_stack = np.empty_like(stack)
        for i, t in enumerate(grid):
            corr = np.zeros((a.dim, a.dim))
            for bp in ops.Bs:
                b = bp.at(t)
                corr += b @ b
            new_stack[i] = stack[i] - 0.5 * corr
        new_a = MatrixPath(new_stack, grid, interp)
    return OperatorFamily(
        A=new_a, Bs=ops.Bs, A_tilde_prime=ops.A_tilde_prime,
        F=ops.F, n_witness=ops.n_witness,
    )


def _drift(ops: OperatorFamily, u: np.ndarray, t: float) -> np.ndarray:
    out = u @ ops.A.at(t).T
    if ops.F is not None:
        out = out + ops.F(t, u)
    return out


def step_euler_maruyama(
    ops: OperatorFamily, u: np.ndarray, t: float, dt: float, dw: np.ndarray
) -> np.ndarray:
    """u - dt (A(t)u + F(t,u)) - sum_k B_k(t) u dw_k."""
    out = u - dt * _drift(ops, u, t)
    for k, bp in enumerate(ops.Bs):
        out = out - (u @ bp.at(t).T) * dw[..., k : k + 1]
    return out


def step_milstein_commutative(
    ops: OperatorFamily, u: np.ndarray, t: float, dt: float, dw: np.ndarray
) -> np.ndarray:
    """Euler-Maruyama plus the commutative-noise second-order correction.

    Adds (1/2) sum_{k,l} B_k B_l u (dw_k dw_l - delta_kl dt), which is the
    exact Milstein term when the noise family commutes.
    """
    out = step_euler_maruyama(ops, u, t, dt, dw)
    mats = [bp.at(t) for bp in ops.Bs]
    for k, bk in enumerate(mats):
        for l, bl in enumerate(mats):
            area = dw[..., k : k + 1] * dw[..., l : l + 1]
            if k == l:
                area = area - dt
            out = out + 0.5 * (u @ (bk @ bl).T) * area
    return out


def step_drift_implicit(
    ops: OperatorFamily, u: np.ndarray, t: float, dt: float, dw: np.ndarray
) -> np.ndarray:
    """Solve (I + dt A(t+dt)) u' = u - dt F(t,u) - sum_k B_k(t) u dw_k."""
    rhs = u.copy()
    if ops.F is not None:
        rhs = rhs - dt * ops.F(t, u)
    for k, bp in enumerate(ops.Bs):
        rhs = rhs - (u @ bp.at(t).T) * dw[..., k : k + 1]
    mat = np.eye(ops.dim) + dt * ops.A.at(t + dt)
    try:
        sol = np.linalg.solve(mat, rhs[..., None] if rhs.ndim == 1 else rhs.T)
    except np.linalg.LinAlgError as exc:
        raise SchemeError(f"singular implicit solve at t={t}: {exc}") from exc
    return sol[..., 0] if rhs.ndim == 1 else sol.T


_STEPPERS = {
    "euler-maruyama": step_euler_maruyama,
    "milstein": step_milstein_commutative,
    "drift-implicit": step_drift_implicit,
}


@dataclass(frozen=True)
class Trajectory:
    """One sample path of Galerkin coefficients and its driver."""

    times: np.ndarray
    states: np.ndarray  # (J+1, N)
    path: BrownianPath
    scheme: str
    system: str
    dt: float

    @property
    def increments(self) -> np.ndarray:
        """Brownian increments of the driving path, shape (J, n)."""
        return self.path.increments


@dataclass(frozen=True)
class EnsembleResult:
    """Batched trajectories sharing a grid; path p used stream_id p."""

    times: np.ndarray
    states: np.ndarray  # (P, J+1, N)
    increments: np.ndarray  # (P, J, n)
    seed: int
    scheme: str
    system: str
    blowups: dict  # path index -> blow-up time

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

    def trajectory(self, p: int) -> Trajectory:
        bp = BrownianPath(
            times=self.times, increments=self.increments[p],
            seed=self.seed, stream_id=p,
        )
        return Trajectory(
            times=self.times, states=self.states[p], path=bp,
            scheme=self.scheme, system=self.system, dt=self.dt,
        )


def _check_scheme(system, scheme: str) -> None:
    if scheme not in _STEPPERS:
        raise SchemeError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "milstein" and not getattr(system, "commuting_noise", True):
        raise SchemeError("milstein requires a pairwise commuting noise family")


def _run_steps(ops, u0, times, increments, scheme):
    """Core loop shared by single-path and ensemble integration.

    increments has shape (..., J, n) and u0 shape (..., N); blow-ups raise.
    """
    stepper = _STEPPERS[scheme]
    dt = float(times[1] - times[0])
    states = np.empty(u0.shape[:-1] + (len(times), u0.shape[-1]))
    states[..., 0, :] = u0
    u = np.asarray(u0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(times) - 1):
            u = stepper(ops, u, float(times[j]), dt, increments[..., j, :])
            if not np.all(np.isfinite(u)):
                raise BlowUpError(float(times[j + 1]))
            states[..., j + 1, :] = u
    return states


def integrate(
    system, scheme: str, grid: np.ndarray, seed: int, stream_id: int = 0,
    u0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate one sample path; pure function of its arguments."""
    _check_scheme(system, scheme)
    grid = np.asarray(grid, dtype=float)
    path = sample_brownian(system.ops.n_noise, grid, seed, stream_id)
    start = system.u0 if u0 is None else np.asarray(u0, dtype=float)
    states = _run_steps(system.ops, start, grid, path.increments, scheme)
    return Trajectory(
        times=grid, states=states, path=path, scheme=scheme,
        system=system.name, dt=float(grid[1] - grid[0]),
    )


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
    start = system.u0 if u0 is None else np.asarray(u0, dtype=float)
    u0b = np.broadcast_to(start, (n_paths, system.ops.dim)).copy()
    stepper = _STEPPERS[scheme]
    dt = float(grid[1] - grid[0])
    states = np.empty((n_paths, len(grid), system.ops.dim))
    states[:, 0, :] = u0b
    u = u0b
    alive = np.ones(n_paths, dtype=bool)
    blowups: dict = {}
    for j in range(len(grid) - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            new = stepper(system.ops, u, float(grid[j]), dt, inc[:, j, :])
        bad = ~np.all(np.isfinite(new), axis=-1)
        fresh = bad & alive
        if np.any(fresh):
            for p in np.flatnonzero(fresh):
                blowups[int(p)] = float(grid[j + 1])
            alive &= ~bad
        new[bad] = u[bad]  # freeze dead paths at last finite state
        states[:, j + 1, :] = new
        u = new
    return EnsembleResult(
        times=grid, states=states, increments=inc, seed=seed,
        scheme=scheme, system=system.name, blowups=blowups,
    )


def measure_nonlinearity_witness(
    traj: Trajectory, ops: OperatorFamily, basis: SpectralBasis
):
    """Per-step ratio |F(t,u)| / ||u|| and the trapezoidal value of its square.

    Returns (table, integral) where table has shape (J+1,).  The integral of
    the squared witness being finite is the standing hypothesis on the
    nonlinearity's growth.
    """
    if ops.F is None:
        table = np.zeros(len(traj.times))
        return table, 0.0
    table = np.empty(len(traj.times))
    for j, t in enumerate(traj.times):
        u = traj.states[j]
        nv = basis.norm_v(u)
        if nv == 0.0:
            table[j] = 0.0
        else:
            table[j] = np.linalg.norm(ops.F(float(t), u)) / nv
    integral = float(np.trapezoid(table**2, traj.times))
    return table, integral
