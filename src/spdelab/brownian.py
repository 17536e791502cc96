"""Reproducible Brownian drivers on uniform grids.

Streams are counter-based (Philox) and keyed by (seed, stream_id), so any
path of an ensemble can be regenerated bit-identically without generating
the others.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Time grid is not uniform or degenerate."""


def uniform_grid(T: float, dt: float) -> np.ndarray:
    """Grid 0 = t_0 < ... < t_J = T with step dt; dt must divide T: T/dt lies
    within 1e-12 max(1, T/dt) of a whole number J >= 1."""
    if dt <= 0 or T <= 0:
        raise GridError(f"need T, dt > 0, got T={T}, dt={dt}")
    steps = T / dt
    j = int(round(steps))
    if j < 1 or abs(steps - j) > 1e-12 * max(1.0, steps):
        raise GridError(f"dt={dt} does not divide T={T}")
    return np.linspace(0.0, T, j + 1)


def _check_uniform(times: np.ndarray) -> float:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise GridError("grid needs at least two points")
    steps = np.diff(times)
    dt = steps[0]
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-12 * max(1.0, abs(times[-1]))):
        raise GridError("nonuniform time grid rejected")
    return float(dt)


@dataclass(frozen=True)
class BrownianPath:
    """Increments of an n-dimensional Wiener process on a uniform grid."""

    times: np.ndarray
    increments: np.ndarray  # shape (J, n)
    seed: int
    stream_id: int

    def coarsen(self, factor: int) -> "BrownianPath":
        """Sum consecutive increments; the same path on a coarser grid."""
        return BrownianPath(
            times=self.times[::factor],
            increments=coarsen_increments(self.increments, factor),
            seed=self.seed, stream_id=self.stream_id,
        )


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum runs of `factor` consecutive steps of (..., J, n) increments."""
    *lead, j, n = increments.shape
    if j % factor != 0:
        raise GridError(f"cannot coarsen {j} steps by factor {factor}")
    return increments.reshape(*lead, j // factor, factor, n).sum(axis=-2)


_MASK = 0xFFFFFFFFFFFFFFFF


def sample_brownian_ensemble(
    n: int, grid: np.ndarray, seed: int, n_paths: int, first_stream: int = 0
) -> np.ndarray:
    """Stacked increments (n_paths, J, n); path p uses stream first_stream + p.

    Stream (seed, s) is the draw of a Philox keyed by the two words seed and s, each
    masked to 64 bits.  One generator serves the ensemble: before each path it is re-keyed
    with its counter at 0 and its buffer empty, the state such a Philox starts from (a
    Generator keeps no draw of its own between calls, so that state is the whole stream's)."""
    grid = np.asarray(grid, dtype=float)
    dt = _check_uniform(grid)
    j = len(grid) - 1
    out = np.empty((n_paths, j, n))
    root = np.sqrt(dt)
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    key[0] = seed & _MASK
    for p in range(n_paths):
        key[1] = (first_stream + p) & _MASK
        bits.state = state
        out[p] = rng.standard_normal((j, n)) * root
    return out


def sample_brownian(n: int, grid: np.ndarray, seed: int, stream_id: int = 0) -> BrownianPath:
    """The path of stream (seed, stream_id): an ensemble of one."""
    grid = np.asarray(grid, dtype=float)
    inc = sample_brownian_ensemble(n, grid, seed, 1, first_stream=stream_id)[0]
    return BrownianPath(times=grid, increments=inc, seed=seed, stream_id=stream_id)
