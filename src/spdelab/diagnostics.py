"""Pathwise functionals of the quotient dynamics and their inequality checks.

Everything here is computed on the trajectory grid with left-point (Ito)
evaluation of stochastic integrals, consistent with the schemes.  Quadratic
forms use the symmetric part of the corrected generator; the raw matrix is
applied where an operator (not a form) acts on a vector.

The series built from the quadratic forms read one PathForms record of a
batch of paths (an EnsembleResult; a single path is a batch of one): the
record applies sym(Ã) and each B_k once, from the segments the steps
read, and keeps the forms and shared terms the series read.  The record
holds its vectors as contiguous component planes, the states as
(N, P, J+1), so every sum over the basis or noise index is a sum over a
leading axis (basis.sum_planes); a per-noise series has the noise index
first.  Outputs carry the batch's path axis.  The backward probe and
hitting times read a table of H-norms (P, J+1), such as the one the
runner's blocks collect.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .basis import SpectralBasis, sum_planes
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


def _dot(x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """<x, y> of component planes (N, ...), summed as np.sum over a last
    axis; the products are written into `out` when it is given."""
    return sum_planes(np.multiply(x, y, out=out))


def plane_store(paths: EnsembleResult, n_paths: int) -> np.ndarray:
    """An array that can hold the state-sized arrays of a PathForms record of
    up to n_paths of these paths: u, sym(Ã)u, the scratch and each B_k u."""
    n_times, dim = paths.states.shape[1:]
    return np.empty((3 + paths.segments.n_noise, dim, n_paths, n_times))


class PathForms:
    """The pathwise forms of a batch of paths, each computed once on first read.

    Holds the paths, whose segments apply the operators, and the
    regulariser delta of the exponential martingale M.  The vectors are
    component planes: the states u, sym(Ã)u and each B_k u are (N, P, J+1),
    the increments dw (n, P, J), and one scratch array like u holds the
    terms of each sum of products, so a record makes no state-sized
    temporaries beyond its planes.  The forms are |u|^2, <sym(Ã)u, u>,
    <B_k u, u> and <sym(Ã)u, B_k u> (n, P, J+1), and M, all on the grid; the
    terms the series share (|u|^2 + eps, the quotient and the weak-noise
    ratios at a regulariser) are kept per regulariser, read-only.

    `planes`, from plane_store, lends the record its state-sized
    arrays, so records made one after another on one such array allocate
    none of their own; each then holds its vectors until the next record
    on that array reads them.
    """

    def __init__(self, paths: EnsembleResult, delta: float,
                 planes: Optional[np.ndarray] = None) -> None:
        self.paths = paths
        self.delta = delta
        self._store = planes
        self._shared: dict = {}

    def _plane(self, slot: int) -> np.ndarray:
        """State-sized array `slot` of the record, (N, P, J+1)."""
        if self._store is None:
            states = self.paths.states
            return np.empty(states.shape[-1:] + states.shape[:-1])
        return self._store[slot, :, :self.paths.n_paths]

    def shared(self, key, make) -> np.ndarray:
        """make(), computed on the first read of `key` and kept read-only."""
        if key not in self._shared:
            value = make()
            value.flags.writeable = False
            self._shared[key] = value
        return self._shared[key]

    @cached_property
    def u(self) -> np.ndarray:
        """The states, (N, P, J+1)."""
        u = self._plane(0)
        np.copyto(u, np.moveaxis(self.paths.states, -1, 0))
        return u

    @cached_property
    def dw(self) -> np.ndarray:
        """The Brownian increments, (n, P, J)."""
        return np.ascontiguousarray(np.moveaxis(self.paths.increments, -1, 0))

    @cached_property
    def scratch(self) -> np.ndarray:
        """(N, P, J+1), overwritten by each sum of products that reads it."""
        return self._plane(2)

    @cached_property
    def operand(self) -> np.ndarray:
        """The (P, J+1, N) states the operators read; their results are
        written into (P, J+1, N) views of planes.  A diagonal family's
        elementwise products read a view of u's planes, so nothing is
        transposed.  A dense family's matrix products read the C-ordered
        states, as the steps do, since BLAS may round a product with a
        transposed operand differently; each result is transposed as it is
        written."""
        if self.paths.segments.diagonal:
            return np.moveaxis(self.u, 0, -1)
        return self.paths.states

    @cached_property
    def tu(self) -> np.ndarray:
        """sym(Ã(t))u, (N, P, J+1)."""
        tu = self._plane(1)
        self.paths.segments.tilde_applied(self.operand, symmetric=True,
                                          out=np.moveaxis(tu, 0, -1))
        return tu

    @cached_property
    def bus(self) -> list:
        """[B_k(t)u for each k], each (N, P, J+1)."""
        bus = [self._plane(3 + k) for k in range(self.paths.segments.n_noise)]
        self.paths.segments.noise_applied(self.operand,
                                          out=[np.moveaxis(bu, 0, -1) for bu in bus])
        return bus

    @cached_property
    def sq(self) -> np.ndarray:
        """|u|^2, (P, J+1)."""
        return _dot(self.u, self.u, self.scratch)

    @cached_property
    def form(self) -> np.ndarray:
        """<sym(Ã)u, u>, (P, J+1)."""
        return _dot(self.u, self.tu, self.scratch)

    def _with_noise(self, v: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.bus),) + v.shape[1:])
        for k, bu in enumerate(self.bus):
            out[k] = _dot(v, bu, self.scratch)
        return out

    @cached_property
    def noise_forms(self) -> np.ndarray:
        """<B_k u, u>, (n, P, J+1)."""
        return self._with_noise(self.u)

    @cached_property
    def cross(self) -> np.ndarray:
        """<sym(Ã)u, B_k u>, (n, P, J+1)."""
        return self._with_noise(self.tu)

    def den(self, eps: float) -> np.ndarray:
        """|u|^2 + eps, (P, J+1)."""
        return self.shared(("den", eps), lambda: self.sq + eps)

    @cached_property
    def martingale(self) -> np.ndarray:
        """M at the record's delta, (P, J+1)."""
        log_m = _log_martingale(self, self.delta)
        return np.exp(log_m, out=log_m)


# -- pointwise functionals --------------------------------------------


def eigen_residual(u: np.ndarray, tu: np.ndarray, lam, sq: Optional[np.ndarray] = None,
                   out: Optional[np.ndarray] = None) -> Union[float, np.ndarray]:
    """|tu - lam u| / |u| of one state (N,) or of component planes (N, ...),
    tu = sym(T)u.

    Zero exactly on an eigenpair; lam broadcasts over the axes after the
    first, sq, |u|^2, is summed from u unless given, and the differences
    are written into `out` when it is given.  The residual is undefined,
    and NaN, where |u| <= NORM_FLOOR.
    """
    u = np.asarray(u, dtype=float)
    nu = np.sqrt(_dot(u, u, out) if sq is None else sq)
    diff = np.multiply(np.asarray(lam), u, out=out)
    np.subtract(tu, diff, out=diff)
    diff *= diff
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.sqrt(sum_planes(diff)) / nu
    res = np.where(nu > NORM_FLOOR, res, np.nan)
    return float(res) if res.ndim == 0 else res


# -- series along a trajectory ----------------------------------------


def _cumulative(steps: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, starting from 0: (..., J) -> (..., J+1)."""
    out = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,))
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def rho_series(forms: PathForms, delta: float) -> np.ndarray:
    """Per-noise ratio <u, B_k u>/(|u|^2 + delta), shape (n, P, J+1)."""
    def ratios():
        den = forms.den(delta)
        if delta == 0.0 and np.any(den <= NORM_FLOOR**2):
            raise ZeroDivisionError("rho with delta=0 on a vanishing path")
        return forms.noise_forms / den

    return forms.shared(("rho", delta), ratios)


def _log_martingale(forms: PathForms, delta: float, final: bool = False) -> np.ndarray:
    """log M at delta on the grid (P, J+1), or with final its last value (P,)."""
    rho = rho_series(forms, delta)[..., :-1]  # (n, P, J)
    incr = sum_planes(rho * forms.dw)
    incr *= -2.0
    drift = sum_planes(rho * rho)
    drift *= 2.0
    drift *= forms.paths.dt
    incr -= drift
    if final:
        # the last running sum, added in the order _cumulative adds
        return np.cumsum(incr, axis=-1)[..., -1]
    return _cumulative(incr)


def exp_martingale(forms: PathForms, delta: Optional[float] = None,
                   final: bool = False) -> np.ndarray:
    """Exponential martingale of the weak-noise ratios, mean one at all times.

    Accumulated in log space with left-point increments:
    log M picks up -2 sum_k rho_k dw_k - 2 sum_k rho_k^2 dt per step.
    At the record's delta unless another is given.  Returns shape (P, J+1),
    or with final M at the last grid time alone, (P,).
    """
    if delta is None or delta == forms.delta:
        m = forms.martingale
        return m[..., -1].copy() if final else m
    log_m = _log_martingale(forms, delta, final)
    return np.exp(log_m, out=log_m)


def psi_series(forms: PathForms, eps: float) -> np.ndarray:
    """-(1/2) M(t) log(|u(t)|^2 + eps), M at the record's delta."""
    if eps <= 0.0:
        raise ValueError("psi series requires eps > 0")
    out = np.log(forms.den(eps))
    out *= -0.5 * forms.martingale
    return out


def quotient_series(forms: PathForms, eps: float) -> np.ndarray:
    """The plain quotient <sym(Ã)u, u>/(|u|^2 + eps) at every grid time."""
    return forms.shared(("quotient", eps), lambda: forms.form / forms.den(eps))


def quotient_full(forms: PathForms, eps: float) -> np.ndarray:
    """The quotient plus the squared weak-noise ratios sum_k rho_k(eps)^2 at every grid time."""
    out = sum_planes(rho_series(forms, eps) ** 2)
    out += quotient_series(forms, eps)
    return out


def hitting_time(norms: np.ndarray, times: np.ndarray, r: float) -> list:
    """Per path of the H-norms (P, J+1) on `times`, the first grid time with
    |u(t)| <= r, or None if the level is never hit."""
    if r < 0:
        raise ValueError("hitting level must be nonnegative")
    hit = np.asarray(norms) <= r
    first = np.where(hit.any(axis=-1), times[np.argmax(hit, axis=-1)], None)
    return first.tolist()


# -- Gronwall bound process and comparison envelope -------------------


def damping(times: np.ndarray, g: np.ndarray) -> np.ndarray:
    """G, the trapezoidal integral of the rate g = n^2 + K2 + K6 on a uniform
    grid, one value per grid time, from 0 to each grid time."""
    dt = float(times[1] - times[0])
    return _cumulative(0.5 * (g[1:] + g[:-1]) * dt)


def bound_process_X(forms: PathForms, eps: float, k1: np.ndarray, big_g: np.ndarray):
    """Explicit solution of the comparison SDE and the pointwise bound check.

    k1 holds K1 and big_g the damping G (see damping) at every grid time.
    Returns (X, verdict): X dominates M * quotient up to a discretization
    tolerance TOL_COEFF * sqrt(dt), M at the record's delta; the verdict is
    the dict of n_checked, n_violations, n_excluded and tol, as a report
    would hold it.
    """
    dw, dt = forms.dw, forms.paths.dt
    m = forms.martingale
    lam = quotient_series(forms, eps)

    # left-point integrands of the driving terms
    den = forms.den(eps)
    drive = np.zeros(dw.shape[1:])
    for k in range(len(dw)):
        ratio = 2.0 * forms.cross[k] / den
        drive += (m * ratio)[..., :-1] * dw[k]
    k1_term = _cumulative(np.exp(-big_g[:-1]) * k1[:-1] * m[..., :-1] * dt)
    stoch = _cumulative(np.exp(-big_g[:-1]) * drive)
    x = np.exp(big_g) * (m[..., :1] * lam[..., :1] + k1_term - stoch)

    tol = TOL_COEFF * np.sqrt(dt)
    lhs = m * lam
    verdict = {"n_checked": lhs.size, "n_violations": int(np.sum(lhs > x + tol)),
               "n_excluded": 0, "tol": float(tol)}
    return x, verdict


def envelope_series(forms: PathForms, eps: float, big_g: np.ndarray) -> np.ndarray:
    """Damped quotient S(t) = exp(-G(t)) M(t) * quotient(t), M at the record's delta."""
    return np.exp(-big_g) * forms.martingale * quotient_series(forms, eps)


def comparison_envelope(forms: PathForms, tau_index: int, eps: float, big_g: np.ndarray):
    """Geometric comparison envelope for the damped quotient from time tau.

    Valid when the commutator certificate holds with a vanishing constant
    term.  Steps with |<tilde_A u, u>| below FORM_FLOOR are excluded from
    the verdict and counted; they, and the steps before tau, add nothing to
    the envelope's exponent.  Returns (envelope, verdict), the verdict a
    dict as bound_process_X's.
    """
    dw, dt = forms.dw, forms.paths.dt
    s = envelope_series(forms, eps, big_g)
    excluded = np.abs(forms.form) < FORM_FLOOR
    safe_form = np.where(excluded, 1.0, np.abs(forms.form))

    steps = np.zeros(dw.shape[1:])
    for k in range(len(dw)):
        r = (forms.cross[k] / safe_form)[..., :-1]
        steps += -2.0 * r * dw[k] - 2.0 * r * r * dt
    steps[..., :tau_index] = 0.0
    steps[excluded[..., :-1]] = 0.0
    log_env = _cumulative(steps)

    env = np.full(s.shape, np.nan)
    env[..., tau_index:] = s[..., tau_index:tau_index + 1] * np.exp(log_env[..., tau_index:])

    tol = TOL_COEFF * np.sqrt(dt)
    window = excluded[..., tau_index:]
    usable = ~window
    viol = int(np.sum(s[..., tau_index:][usable] > env[..., tau_index:][usable] + tol))
    verdict = {"n_checked": int(np.sum(usable)), "n_violations": viol,
               "n_excluded": int(np.sum(window)), "tol": float(tol)}
    return env, verdict


# -- Galerkin gaps ----------------------------------------------------


def galerkin_gaps(forms: PathForms, basis: SpectralBasis, eps: float,
                  N_list: Sequence[int]):
    """Damped-path integrals measuring the finite-section error.

    Returns (K3, K4), dicts over N of one number per path, (P,); M is at
    the record's delta.
    """
    times = forms.paths.times
    m = forms.martingale
    den = forms.den(eps)
    segs = forms.paths.segments
    for n in N_list:
        if not (0 < n <= basis.dim):
            raise ValueError(f"section size {n} outside (0, {basis.dim}]")

    # with T_n the leading n x n block of T embedded back, (T_n - T) u is
    # -T u outside the leading n rows and -T[:n, n:] u[n:] inside them;
    # (T u)^2 is squared in the record's scratch
    tu_sq = forms.scratch
    segs.tilde_applied(forms.operand, out=np.moveaxis(tu_sq, 0, -1))
    tu_sq *= tu_sq
    gap_sq = {}
    for n in N_list:
        head = segs.tilde_head(forms.u, n)
        head *= head
        gap_sq[n] = sum_planes(head)
        gap_sq[n] += sum_planes(tu_sq[n:])
    # the weighted tails sum_{i >= n} lam_i (B_k u)_i^2, added over k in turn
    tail = {n: np.zeros(den.shape) for n in N_list}
    for bu in forms.bus:
        weighted = np.multiply(bu, bu, out=forms.scratch)
        weighted *= basis.hat_eigenvalues[:, None, None]
        for n in N_list:
            tail[n] += sum_planes(weighted[n:])
    k3 = {n: np.trapezoid(m * gap_sq[n] / den, times, axis=-1) for n in N_list}
    k4 = {n: np.trapezoid(m * tail[n] / den, times, axis=-1) for n in N_list}
    return k3, k4


# -- spectral-limit reporting -----------------------------------------


def spectral_limit_report(
    quotients: np.ndarray,
    final_states: np.ndarray,
    tilde_sym: np.ndarray,
    eigenvalues: np.ndarray,
) -> dict:
    """Match the final-window quotient of each path to the spectrum: the
    spectral-limit section of a report.

    tilde_sym is sym(Ã) as a matrix, or as a diagonal (N,), which is
    applied elementwise.  quotients has shape (P, J+1); a path settles when
    the standard deviation over its final SETTLE_WINDOW is below settle_tol,
    10% of the smallest gap between distinct eigenvalues, or 0.1 for a
    single one.  Eigenvalues
    closer than 1e-9 max(1, max|lambda|) count as one: the solver splits a
    repeated eigenvalue by rounding.  Each path's entry holds its estimate,
    the window's standard deviation and, once settled, the nearest
    eigenvalue, the gap to it and the final state's eigen-residual; the
    histogram counts the settled paths per matched eigenvalue.
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
    applied = final_states * tilde_sym if tilde_sym.ndim == 1 else final_states @ tilde_sym.T
    residuals = eigen_residual(final_states.T, applied.T, nearest)
    stds = np.std(window, axis=-1)
    paths, histogram = [], {}
    for est, std, matched, res in zip(ests.tolist(), stds.tolist(), nearest.tolist(),
                                      residuals.tolist()):
        settled = std < settle_tol
        if settled:
            key = str(matched)
            histogram[key] = histogram.get(key, 0) + 1
        paths.append({
            "settled": settled,
            "lambda_estimate": est,
            "matched_eigenvalue": matched if settled else None,
            "gap": abs(est - matched) if settled else None,
            "residual_final": res if settled and not np.isnan(res) else None,
            "window_std": std,
        })
    return {
        "eigenvalues": eigenvalues.tolist(),
        "settle_tol": settle_tol,
        "n_paths": len(paths),
        "n_settled": sum(p["settled"] for p in paths),
        "histogram": histogram,
        "paths": paths,
    }


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
