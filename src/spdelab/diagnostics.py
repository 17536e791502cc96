"""Pathwise functionals of the quotient dynamics and their inequality checks.

Everything here is computed on the trajectory grid with left-point (Ito)
evaluation of stochastic integrals, consistent with the schemes.  Quadratic
forms use the symmetric part of the corrected generator; the raw matrix is
applied where an operator (not a form) acts on a vector.

The series built from the quadratic forms read one PathForms record of a
batch of paths (an EnsembleResult; a single path is a batch of one): the
record applies sym(Ã) and each B_k once, from the segments the steps
read, and keeps the forms the series share.  Outputs carry the batch's
leading path axis.  The backward probe and hitting times read a table of
H-norms (P, J+1), such as the one the runner's blocks collect.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .basis import SpectralBasis
from .integrator import EnsembleResult

#: at or below this H-norm a path has vanished: its residual is NaN, the backward probe
#: counts it, and a run with a zero eps or delta, whose ratios it would zero-divide, stops
NORM_FLOOR = 1e-150

#: the final share of the grid over which a path's quotient is judged settled
SETTLE_WINDOW = 0.2

#: the bound and envelope checks allow a discretization slack of TOL_COEFF * sqrt(dt)
TOL_COEFF = 1.0

#: below this |<sym(Ã)u, u>| an envelope step is excluded and counted
FORM_FLOOR = 1e-12


class PathForms:
    """The pathwise forms of a batch of paths, each computed once on first read.

    Holds the paths (P, J+1, N), whose segments apply the operators, and
    the regulariser delta of the exponential martingale M.  The forms are
    |u|^2, sym(Ã)u, <sym(Ã)u, u>, each B_k u, <B_k u, u>, <sym(Ã)u, B_k u>
    and M, all on the grid; the last axis of a per-noise form is the noise
    index.
    """

    def __init__(self, paths: EnsembleResult, delta: float) -> None:
        self.paths = paths
        self.delta = delta

    @cached_property
    def sq(self) -> np.ndarray:
        """|u|^2, (P, J+1)."""
        return np.sum(self.paths.states**2, axis=-1)

    @cached_property
    def tu(self) -> np.ndarray:
        """sym(Ã(t))u, (P, J+1, N)."""
        return self.paths.segments.tilde_applied(self.paths.states, symmetric=True)

    @cached_property
    def form(self) -> np.ndarray:
        """<sym(Ã)u, u>, (P, J+1)."""
        return np.sum(self.paths.states * self.tu, axis=-1)

    @cached_property
    def bus(self) -> list:
        """[B_k(t)u for each k], each (P, J+1, N)."""
        return self.paths.segments.noise_applied(self.paths.states)

    def _with_noise(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.paths.states.shape[:-1] + (len(self.bus),))
        for k, bu in enumerate(self.bus):
            out[..., k] = np.sum(v * bu, axis=-1)
        return out

    @cached_property
    def noise_forms(self) -> np.ndarray:
        """<B_k u, u>, (P, J+1, n)."""
        return self._with_noise(self.paths.states)

    @cached_property
    def cross(self) -> np.ndarray:
        """<sym(Ã)u, B_k u>, (P, J+1, n)."""
        return self._with_noise(self.tu)

    @cached_property
    def martingale(self) -> np.ndarray:
        """M at the record's delta, (P, J+1)."""
        return _martingale(self, self.delta)


# -- pointwise functionals --------------------------------------------


def eigen_residual(u: np.ndarray, tu: np.ndarray, lam) -> Union[float, np.ndarray]:
    """|tu - lam u| / |u| of one state (N,) or a batch (..., N), tu = sym(T)u.

    Zero exactly on an eigenpair; lam broadcasts over the leading axes of
    u.  The residual is undefined, and NaN, where |u| <= NORM_FLOOR.
    """
    u = np.asarray(u, dtype=float)
    nu = np.sqrt(np.sum(u * u, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.linalg.norm(tu - np.asarray(lam)[..., None] * u, axis=-1) / nu
    res = np.where(nu > NORM_FLOOR, res, np.nan)
    return float(res) if res.ndim == 0 else res


# -- series along a trajectory ----------------------------------------


def _cumulative(steps: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, starting from 0: (..., J) -> (..., J+1)."""
    out = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,))
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def rho_series(forms: PathForms, delta: float) -> np.ndarray:
    """Per-noise ratio <u, B_k u>/(|u|^2 + delta), shape (P, J+1, n)."""
    den = forms.sq + delta
    if delta == 0.0 and np.any(den <= NORM_FLOOR**2):
        raise ZeroDivisionError("rho with delta=0 on a vanishing path")
    return forms.noise_forms / den[..., None]


def _martingale(forms: PathForms, delta: float) -> np.ndarray:
    rho = rho_series(forms, delta)[..., :-1, :]  # (P, J, n)
    dw = forms.paths.increments  # (P, J, n)
    incr = -2.0 * np.sum(rho * dw, axis=-1) - 2.0 * np.sum(rho**2, axis=-1) * forms.paths.dt
    return np.exp(_cumulative(incr))


def exp_martingale(forms: PathForms, delta: Optional[float] = None) -> np.ndarray:
    """Exponential martingale of the weak-noise ratios, mean one at all times.

    Accumulated in log space with left-point increments:
    log M picks up -2 sum_k rho_k dw_k - 2 sum_k rho_k^2 dt per step.
    At the record's delta unless another is given.  Returns shape (P, J+1).
    """
    if delta is None or delta == forms.delta:
        return forms.martingale
    return _martingale(forms, delta)


def psi_series(forms: PathForms, eps: float) -> np.ndarray:
    """-(1/2) M(t) log(|u(t)|^2 + eps), M at the record's delta."""
    if eps <= 0.0:
        raise ValueError("psi series requires eps > 0")
    return -0.5 * forms.martingale * np.log(forms.sq + eps)


def quotient_series(forms: PathForms, eps: float) -> np.ndarray:
    """The plain quotient <sym(Ã)u, u>/(|u|^2 + eps) at every grid time."""
    return forms.form / (forms.sq + eps)


def quotient_full(forms: PathForms, eps: float) -> np.ndarray:
    """The quotient plus the squared weak-noise ratios sum_k rho_k(eps)^2 at every grid time."""
    return quotient_series(forms, eps) + np.sum(rho_series(forms, eps) ** 2, axis=-1)


def hitting_time(norms: np.ndarray, times: np.ndarray, r: float) -> list:
    """Per path of the H-norms (P, J+1) on `times`, the first grid time with
    |u(t)| <= r, or None if the level is never hit."""
    if r < 0:
        raise ValueError("hitting level must be nonnegative")
    hit = np.asarray(norms) <= r
    first = np.where(hit.any(axis=-1), times[np.argmax(hit, axis=-1)], None)
    return first.tolist()


# -- Gronwall bound process and comparison envelope -------------------


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of a pathwise inequality check with a dt-dependent tolerance."""

    n_checked: int
    n_violations: int
    n_excluded: int
    tol: float

    @property
    def violation_fraction(self) -> float:
        return self.n_violations / max(self.n_checked, 1)


def damping(times: np.ndarray, g: np.ndarray) -> np.ndarray:
    """G, the trapezoidal integral of the rate g = n^2 + K2 + K6 on a uniform
    grid, one value per grid time, from 0 to each grid time."""
    dt = float(times[1] - times[0])
    return _cumulative(0.5 * (g[1:] + g[:-1]) * dt)


def bound_process_X(forms: PathForms, eps: float, k1: np.ndarray, big_g: np.ndarray):
    """Explicit solution of the comparison SDE and the pointwise bound check.

    k1 holds K1 and big_g the damping G (see damping) at every grid time.
    Returns (X, verdict): X dominates M * quotient up to a discretization
    tolerance TOL_COEFF * sqrt(dt), M at the record's delta.
    """
    dw, dt = forms.paths.increments, forms.paths.dt
    m = forms.martingale
    lam = quotient_series(forms, eps)

    # left-point integrands of the driving terms
    den = forms.sq + eps
    drive = np.zeros(dw.shape[:-1])
    for k in range(dw.shape[-1]):
        ratio = 2.0 * forms.cross[..., k] / den
        drive += (m * ratio)[..., :-1] * dw[..., k]
    k1_term = _cumulative(np.exp(-big_g[:-1]) * k1[:-1] * m[..., :-1] * dt)
    stoch = _cumulative(np.exp(-big_g[:-1]) * drive)
    x = np.exp(big_g) * (m[..., :1] * lam[..., :1] + k1_term - stoch)

    tol = TOL_COEFF * np.sqrt(dt)
    lhs = m * lam
    viol = int(np.sum(lhs > x + tol))
    verdict = InequalityVerdict(
        n_checked=lhs.size, n_violations=viol, n_excluded=0, tol=tol
    )
    return x, verdict


def envelope_series(forms: PathForms, eps: float, big_g: np.ndarray) -> np.ndarray:
    """Damped quotient S(t) = exp(-G(t)) M(t) * quotient(t), M at the record's delta."""
    return np.exp(-big_g) * forms.martingale * quotient_series(forms, eps)


def comparison_envelope(forms: PathForms, tau_index: int, eps: float, big_g: np.ndarray):
    """Geometric comparison envelope for the damped quotient from time tau.

    Valid when the commutator certificate holds with a vanishing constant
    term.  Steps with |<tilde_A u, u>| below FORM_FLOOR are excluded from
    the verdict and counted; they, and the steps before tau, add nothing to
    the envelope's exponent.
    """
    dw, dt = forms.paths.increments, forms.paths.dt
    s = envelope_series(forms, eps, big_g)
    excluded = np.abs(forms.form) < FORM_FLOOR
    safe_form = np.where(excluded, 1.0, np.abs(forms.form))

    steps = np.zeros(dw.shape[:-1])
    for k in range(dw.shape[-1]):
        r = (forms.cross[..., k] / safe_form)[..., :-1]
        steps += -2.0 * r * dw[..., k] - 2.0 * r * r * dt
    steps[..., :tau_index] = 0.0
    steps[excluded[..., :-1]] = 0.0
    log_env = _cumulative(steps)

    env = np.full(s.shape, np.nan)
    env[..., tau_index:] = s[..., tau_index:tau_index + 1] * np.exp(log_env[..., tau_index:])

    tol = TOL_COEFF * np.sqrt(dt)
    window = excluded[..., tau_index:]
    usable = ~window
    viol = int(np.sum(s[..., tau_index:][usable] > env[..., tau_index:][usable] + tol))
    verdict = InequalityVerdict(
        n_checked=int(np.sum(usable)), n_violations=viol,
        n_excluded=int(np.sum(window)), tol=tol,
    )
    return env, verdict


# -- Galerkin gaps ----------------------------------------------------


def galerkin_gaps(forms: PathForms, basis: SpectralBasis, eps: float,
                  N_list: Sequence[int]):
    """Damped-path integrals measuring the finite-section error.

    Returns (K3, K4), dicts over N of one number per path, (P,); M is at
    the record's delta.
    """
    times, states = forms.paths.times, forms.paths.states
    m = forms.martingale
    den = forms.sq + eps
    segs = forms.paths.segments
    tu = segs.tilde_applied(states)

    lam = basis.hat_eigenvalues
    k3, k4 = {}, {}
    for n in N_list:
        if not (0 < n <= basis.dim):
            raise ValueError(f"section size {n} outside (0, {basis.dim}]")
        # with T_n the leading n x n block of T embedded back, (T_n - T) u is
        # -T u outside the leading n rows and -T[:n, n:] u[n:] inside them
        tail_u = states.copy()
        tail_u[..., :n] = 0.0
        head = segs.tilde_applied(tail_u)[..., :n]
        gap_sq = np.sum(head**2, axis=-1) + np.sum(tu[..., n:] ** 2, axis=-1)
        k3[n] = np.trapezoid(m * gap_sq / den, times, axis=-1)

        tail = np.zeros(den.shape)
        for bu in forms.bus:
            tail += np.sum(lam[n:] * bu[..., n:] ** 2, axis=-1)
        k4[n] = np.trapezoid(m * tail / den, times, axis=-1)
    return k3, k4


# -- spectral-limit reporting -----------------------------------------


@dataclass
class PathVerdict:
    settled: bool
    lambda_estimate: float
    matched_eigenvalue: Optional[float]
    gap: Optional[float]
    residual_final: Optional[float]
    window_std: float


@dataclass
class SpectralLimitReport:
    """Per-path eigenvalue matching of the long-time quotient."""

    eigenvalues: np.ndarray
    paths: list
    settle_tol: float

    @property
    def n_settled(self) -> int:
        return sum(p.settled for p in self.paths)

    def histogram(self) -> dict:
        counts: dict = {}
        for p in self.paths:
            if p.settled and p.matched_eigenvalue is not None:
                key = float(p.matched_eigenvalue)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "settle_tol": self.settle_tol,
            "n_paths": len(self.paths),
            "n_settled": self.n_settled,
            "histogram": {str(k): v for k, v in self.histogram().items()},
            "paths": [asdict(p) for p in self.paths],
        }


def spectral_limit_report(
    quotients: np.ndarray,
    final_states: np.ndarray,
    tilde_sym: np.ndarray,
    eigenvalues: np.ndarray,
) -> SpectralLimitReport:
    """Match the final-window quotient of each path to the spectrum.

    quotients has shape (P, J+1); a path settles when the standard deviation
    over its final SETTLE_WINDOW is below settle_tol, 10% of the smallest
    gap between distinct eigenvalues, or 0.1 for a single one.  Eigenvalues
    closer than 1e-9 max(1, max|lambda|) count as one: the solver splits a
    repeated eigenvalue by rounding.
    """
    quotients = np.atleast_2d(np.asarray(quotients, dtype=float))
    final_states = np.atleast_2d(np.asarray(final_states, dtype=float))
    eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
    gaps = np.diff(eigenvalues)
    gaps = gaps[gaps > 1e-9 * max(1.0, np.max(np.abs(eigenvalues), initial=0.0))]
    settle_tol = 0.1 * (float(np.min(gaps)) if gaps.size else 1.0)

    j1 = quotients.shape[1]
    w0 = max(0, int(np.floor((1.0 - SETTLE_WINDOW) * j1)))
    window = quotients[:, w0:]
    ests = np.mean(window, axis=-1)
    nearest = eigenvalues[np.argmin(np.abs(eigenvalues - ests[:, None]), axis=-1)]
    residuals = eigen_residual(final_states, final_states @ tilde_sym.T, nearest)
    paths = []
    for p in range(quotients.shape[0]):
        est = float(ests[p])
        std = float(np.std(window[p]))
        settled = std < settle_tol
        if settled:
            matched = float(nearest[p])
            gap = abs(est - matched)
            res = None if np.isnan(residuals[p]) else float(residuals[p])
        else:
            matched, gap, res = None, None, None
        paths.append(PathVerdict(settled, est, matched, gap, res, std))
    return SpectralLimitReport(eigenvalues=eigenvalues, paths=paths, settle_tol=settle_tol)


def backward_probe(norms: np.ndarray) -> dict:
    """Minimum H-norm per path of the H-norms (P, J+1): the
    backward-uniqueness dichotomy report.

    For a nonzero start every path should stay strictly away from zero; a
    zero start must stay identically zero.
    """
    min_norms = np.asarray(norms, dtype=float).min(axis=1)
    return {
        "margin": float(min_norms.min()),
        "all_positive": bool(np.all(min_norms > 0.0)),
        "n_underflow": int(np.sum(min_norms <= NORM_FLOOR)),
        "min_norm_per_path": min_norms.tolist(),
    }


# -- derivative kernels of the regularized quotient -------------------


def quotient_fn(C: np.ndarray, eps: float, x: np.ndarray) -> float:
    """<C x, x> / (|x|^2 + eps)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    C = np.asarray(C, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(x @ C @ x) / (float(x @ x) + eps)


def quotient_fn_d1(C: np.ndarray, eps: float, x: np.ndarray, h: np.ndarray) -> float:
    """First directional derivative of the regularized quotient (C symmetric)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    C = np.asarray(C, dtype=float)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    den = float(x @ x) + eps
    cx = C @ x
    return 2.0 * float(cx @ h) / den - 2.0 * float(cx @ x) * float(x @ h) / den**2


def quotient_fn_d2(
    C: np.ndarray, eps: float, x: np.ndarray, h1: np.ndarray, h2: np.ndarray
) -> float:
    """Second derivative of the regularized quotient (C symmetric)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    C = np.asarray(C, dtype=float)
    x = np.asarray(x, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    den = float(x @ x) + eps
    cx = C @ x
    cxx = float(cx @ x)
    return (
        2.0 * float((C @ h1) @ h2) / den
        - 4.0 * float(cx @ h1) * float(x @ h2) / den**2
        - 4.0 * float(cx @ h2) * float(x @ h1) / den**2
        - 2.0 * cxx * float(h2 @ h1) / den**2
        + 8.0 * cxx * float(x @ h1) * float(x @ h2) / den**3
    )
