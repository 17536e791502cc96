"""Numerical certificates for the structural conditions on an operator family.

Each checker turns one continuum hypothesis into a finite-dimensional
eigenvalue statement (certified), or into a sampled estimate when the
inequality is not a quadratic form (empirical), and returns one CertRecord:
its status and, in `constants`, every value it found.  All quadratic-form
inequalities use the single symmetrization convention sym(M) = (M + M^T)/2.

The checkers read the family evaluated once per run of their time grid
(OperatorFamily.runs), at the run's first time, so each table holds one
entry per run.  Only the K6 table takes the family itself: Ã' is a
difference taken at times off the grid.  check_all computes it once, hands
it to ac1 and keeps it in the AssumptionReport beside the records.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import SpectralBasis
from .operators import (
    OperatorFamily,
    OperatorSegment,
    commutator_C,
    operator_norm_v_vprime,
    sorted_distinct,
    sym,
)

#: a certificate matrix passes when its smallest eigenvalue clears this
CERT_EIG_TOL = -1e-9

#: weight of ||u||^2 that ac2's coercivity bound must leave over
ALPHA = 1.0
#: the nonnegative K2 values ac4 searches, smallest first
K2_CANDIDATES = (0.0, 0.5, 1.0, 2.0)
#: random vectors ac5 samples for the whole stack
AC5_SAMPLES = 2000
#: random vectors ac7 samples at each time where sym(Ã) is not definite
AC7_SAMPLES = 10_000
#: first word of the Philox keys of ac5's and ac7's samples
SAMPLE_SEED = 0

CERTIFIED = "certified"
EMPIRICAL = "empirical"
FAILED = "failed"


def _min_eig(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix of a stack."""
    return np.linalg.eigvalsh(m)[..., 0]


def _top_eig(m: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix of a stack."""
    return np.linalg.eigvalsh(m)[..., -1]


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack."""
    return np.linalg.norm(m, ord=2, axis=(-2, -1))


def _sym_norms(m: np.ndarray) -> np.ndarray:
    """Spectral norm of each symmetric matrix of a stack: its largest |eigenvalue|."""
    w = np.linalg.eigvalsh(m)
    return np.maximum(-w[..., 0], w[..., -1])


@dataclass
class CertRecord:
    """One assumption's constants, status, and tightness slack."""

    status: str
    constants: dict
    slack: Optional[float] = None
    notes: str = ""

    def to_dict(self) -> dict:
        out = {"status": self.status, "slack": self.slack, "notes": self.notes}
        for key, val in self.constants.items():
            if isinstance(val, np.ndarray):
                out[key] = val.tolist()
            else:
                out[key] = val
        return out


# -- AC0 / AC1: boundedness and differentiability ---------------------


def check_boundedness(ev: OperatorSegment, basis: SpectralBasis) -> CertRecord:
    """Sup over the stack of |A(t)|_{L(V,V')} and of each |B_k(t)|_{L(V,H)}."""
    w = 1.0 / np.sqrt(basis.hat_eigenvalues)
    bound_a = float(operator_norm_v_vprime(ev.drift, basis).max(initial=0.0))
    # L(V, H) norm: largest singular value of B D^{-1/2}
    bound_b = [float(_spectral_norms(b * w[None, :]).max(initial=0.0)) for b in ev.Bs]
    finite = np.isfinite(bound_a) and all(np.isfinite(b) for b in bound_b)
    return CertRecord(
        status=CERTIFIED if finite else FAILED,
        constants={"bound_A": bound_a, "bound_B": bound_b},
    )


def check_differentiability(k6: np.ndarray, t_grid) -> CertRecord:
    """Integrability of the corrected generator's time derivative.

    The certificate is the trapezoidal integral of the K6 table (k6_table)
    over the grid being finite; time-independent families pass with
    integral zero.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    integral = float(np.trapezoid(k6, t_grid)) if len(t_grid) > 1 else 0.0
    return CertRecord(
        status=CERTIFIED if np.isfinite(integral) else FAILED,
        constants={"k6_integral": integral},
    )


# -- AC2: coercivity --------------------------------------------------


def check_coercivity(ev: OperatorSegment, basis: SpectralBasis) -> CertRecord:
    """Smallest lambda with 2<A u,u> + lambda|u|^2 >= ALPHA||u||^2 + sum|B_k u|^2.

    lambda is the max over the stack of the top eigenvalue of
    ALPHA*diag(lam) + sum B_k^T B_k - sym(2A(t)); the certificate matrix
    sym(2A) + lambda I - ALPHA*diag(lam) - sum B_k^T B_k is re-checked to be
    positive semidefinite at every time of the stack.
    """
    d = np.diag(basis.hat_eigenvalues)
    a = ev.drift
    btb = np.zeros_like(a)
    for b in ev.Bs:
        btb += b.mT @ b
    # B^T B need not come out of BLAS bitwise symmetric, so both matrices are symmetrized
    lam = float(_top_eig(sym(ALPHA * d + btb - 2.0 * sym(a))).max(initial=-np.inf))
    worst = float(_min_eig(sym(2.0 * sym(a) + lam * np.eye(basis.dim) - ALPHA * d - btb))
                  .min(initial=np.inf))
    status = CERTIFIED if worst >= CERT_EIG_TOL else FAILED
    return CertRecord(
        status=status, constants={"alpha": ALPHA, "lambda": lam}, slack=float(worst),
    )


# -- AC3: weak noise bound --------------------------------------------


def check_weak_noise_bound(ev: OperatorSegment) -> CertRecord:
    """phi(t) = sum_k spectral norm of sym(B_k(t)); bounds sum|<u, B_k u>|/|u|^2."""
    phi = np.zeros(len(ev.drift))
    for b in ev.Bs:
        phi += _sym_norms(sym(b))
    return CertRecord(
        status=CERTIFIED, constants={"phi": phi}, slack=float(phi.max(initial=0.0)),
    )


# -- AC4: commutator bound --------------------------------------------


def check_commutator_bound(ev: OperatorSegment, basis: SpectralBasis, t_grid) -> CertRecord:
    """Commutator form bounded by K1(t) id + K2 sym(tilde_A(t)).

    For each K2 of K2_CANDIDATES the pointwise-optimal K1(t) is the top
    eigenvalue of sym(C(t)) - K2 sym(tilde_A(t)), with C the noise-weighted
    commutator.  Returns the candidate minimizing the integral of max(K1, 0)
    and reports whether K1 = 0 is achievable.  The record's K1 is the one
    table of it: entries within the rounding floor read 0, and the run's
    comparison process takes it as it is.  Both the full-space and the
    leading-half-section restriction of K1 are tabulated, since the two
    finite-dimensional readings of the continuum inequality differ.  t_grid
    holds the times ev was evaluated at, for the trapezoidal cost.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    half = max(1, basis.dim // 2)
    ta = ev.tilde_sym
    c = sym(commutator_C(ev))

    # rounding floor: commutator entries carry errors of order eps * |tA| |B|^2
    b_norm = sum(_spectral_norms(b) ** 2 for b in ev.Bs)
    scale = float(np.max(_sym_norms(ta) * b_norm, initial=0.0))
    tol = max(1e-9, 1e-12 * scale)

    best = None
    for k2 in K2_CANDIDATES:
        m = c - k2 * ta
        k1 = _top_eig(m)
        k1_half = _top_eig(m[..., :half, :half])
        cost = (
            float(np.trapezoid(np.maximum(k1, 0.0), t_grid))
            if len(t_grid) > 1
            else float(np.maximum(k1, 0.0).max())
        )
        # prefer smaller K2 on near-ties so rounding never inflates it
        if best is None or cost < best[0] - tol:
            best = (cost, float(k2), k1, k1_half)
        if best[0] <= tol:
            break  # every cost is >= 0, so no later candidate beats it by more than tol
    cost, k2, k1, k1_half = best

    k1_zero_ok = bool(np.all(k1 <= tol))
    return CertRecord(
        status=CERTIFIED,
        constants={
            "K1": np.where(k1 <= tol, 0.0, np.maximum(k1, 0.0)), "K2": k2,
            "K1_restricted": np.maximum(k1_half, 0.0),
            "K1_zero_achievable": k1_zero_ok,
        },
        slack=float(np.max(np.abs(k1))),
        notes="K1 tabulated on the full space and on the leading half-section",
    )


# -- AC5: strong noise bound ------------------------------------------


def check_strong_noise_bound(ev: OperatorSegment, basis: SpectralBasis) -> CertRecord:
    """Empirical minimal (L1, L2) with sum_k |B_k x| <= L1 |A x| + L2 |x|.

    Not a quadratic form, so the certificate is sampled: AC5_SAMPLES random
    domain-normalized vectors plus every basis vector, over the stack.
    For each candidate L2 on a grid the minimal L1 is read off the sampled
    ratios; the pair minimizing L1 + L2 is returned, flagged empirical.
    """
    rng = np.random.Generator(np.random.Philox(key=[SAMPLE_SEED, 0x5CE]))
    n = basis.dim
    xs = rng.standard_normal((AC5_SAMPLES, n)) / basis.hat_eigenvalues[None, :]
    xs = np.vstack([xs, np.eye(n)])
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)

    hx = np.linalg.norm(xs, axis=1)
    # (times, samples) tables, maximised over the times
    ax = np.linalg.norm(xs @ ev.drift.mT, axis=-1).max(axis=0, initial=0.0)
    num = np.zeros((len(ev.drift), len(xs)))
    for b in ev.Bs:
        num += np.linalg.norm(xs @ b.mT, axis=-1)
    num = num.max(axis=0, initial=0.0)

    l2_grid = np.linspace(0.0, float(num.max(initial=0.0)), 41)
    best = None
    for l2 in l2_grid:
        resid = num - l2 * hx
        mask = resid > 0
        if not np.any(mask):
            l1 = 0.0
        else:
            with np.errstate(divide="ignore"):
                ratios = resid[mask] / ax[mask]
            ratios = ratios[np.isfinite(ratios)]
            if len(ratios) < np.sum(mask):
                continue  # some residual has no |Ax| to lean on
            l1 = float(ratios.max(initial=0.0))
        score = l1 + l2
        if best is None or score < best[0] - 1e-15:
            best = (score, l1, float(l2))
    if best is None:
        return CertRecord(status=FAILED,
                          constants={"L1": None, "L2": None, "empirical": True})
    _, l1, l2 = best
    return CertRecord(status=EMPIRICAL, constants={"L1": l1, "L2": l2, "empirical": True})


# -- AC6: weak drift bound --------------------------------------------


def check_weak_A_bound(ev: OperatorSegment, basis: SpectralBasis) -> CertRecord:
    """Minimal (beta, gamma) with |<A x, x>| <= beta ||x||^2 + gamma |x|^2.

    Grid search over beta; for each beta, gamma is the smallest shift making
    both beta*diag(lam) + gamma I - sym(A) and ... + sym(A) positive
    semidefinite over the stack.  The pair minimizing
    gamma + lam_1 * beta is returned, smallest beta breaking ties.
    """
    d = np.diag(basis.hat_eigenvalues)
    lam1 = float(basis.hat_eigenvalues[0])
    s = sym(ev.drift)
    scale = float(operator_norm_v_vprime(s, basis).max())
    beta_grid = sorted_distinct(np.concatenate([
        np.linspace(0.0, max(scale, 1.0) * 1.5, 61), [1.0]
    ]))

    best = None
    for beta in beta_grid:
        gamma = max(0.0, float(_top_eig(s - beta * d).max()),
                    float(_top_eig(-s - beta * d).max()))
        score = gamma + lam1 * beta
        if best is None or score < best[0] - 1e-12 or (
            abs(score - best[0]) <= 1e-12 and beta < best[1]
        ):
            best = (score, float(beta), gamma)
    _, beta, gamma = best

    shifted = beta * d + gamma * np.eye(basis.dim)
    worst = float(min(_min_eig(shifted - s).min(), _min_eig(shifted + s).min()))
    status = CERTIFIED if worst >= CERT_EIG_TOL else FAILED
    return CertRecord(
        status=status, constants={"beta": beta, "gamma": gamma}, slack=float(worst),
    )


# -- AC7: first-order noise bound -------------------------------------


def check_first_order_bound(ev: OperatorSegment, basis: SpectralBasis, t_grid) -> CertRecord:
    """Per-noise C1(t) with |<tilde_A x, B_k x>| <= C1_k(t) |<tilde_A x, x>|.

    When sym(tilde_A(t)) is positive definite the exact constant is the
    spectral norm of sym(S^{1/2} B_k S^{-1/2}) with S the symmetric part.
    Otherwise the constant is estimated from AC7_SAMPLES sampled ratios and
    the record is flagged empirical.  Where no sample has <S x, x> != 0,
    C1 = 0 if no <S x, B_k x> != 0 either; else the record fails, naming
    that time of t_grid.
    """
    bs = ev.Bs
    tables = np.zeros((len(bs), len(ev.drift)))
    rng = np.random.Generator(np.random.Philox(key=[SAMPLE_SEED, 0xAC7]))
    sym_tilde = ev.tilde_sym
    w, v = np.linalg.eigh(sym_tilde)
    definite = w[:, 0] > 1e-12
    # S^{1/2} = V diag(sqrt w) V^T and its inverse at every definite time at once
    vd = v[definite]
    root_w = np.sqrt(w[definite])[:, None, :]
    root = (vd * root_w) @ vd.mT
    root_inv = (vd / root_w) @ vd.mT
    for k, b in enumerate(bs):
        tables[k, definite] = _sym_norms(sym(root @ b[definite] @ root_inv))
    # sampled in time order, so each time keeps its draws from the stream
    for j in np.flatnonzero(~definite):
        s = sym_tilde[j]
        xs = rng.standard_normal((AC7_SAMPLES, basis.dim))
        # s is exactly symmetric, so <s x, x> is the row sum of (x s^T) * x
        sx = xs @ s.T
        form = np.sum(sx * xs, axis=1)
        ok = np.abs(form) > 1e-12
        for k, b in enumerate(bs):
            bx = xs @ b[j].T
            mixed = np.abs(np.sum(sx * bx, axis=1))
            fallback = 0.0 if ok.any() or not mixed.any() else np.inf
            tables[k, j] = float(np.max(mixed[ok] / np.abs(form[ok]), initial=fallback))
    certified = bool(definite.all())
    unbounded = np.asarray(t_grid, dtype=float)[np.isinf(tables).any(axis=0)].tolist()
    return CertRecord(
        status=FAILED if unbounded else CERTIFIED if certified else EMPIRICAL,
        constants={"C1k": tables, "certified": certified},
        notes=f"no C1 bounds the sampled forms at t = {unbounded}" if unbounded else "",
    )


# -- K6 table ---------------------------------------------------------


def k6_table(ops: OperatorFamily, basis: SpectralBasis, t_grid) -> np.ndarray:
    """|tilde_A'(t)|_{L(V,V')} per grid time (zero for families constant between nodes)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if ops.interpolation == "constant":
        return np.zeros(len(t_grid))
    return operator_norm_v_vprime(ops.tilde_prime_at(t_grid), basis)


# -- full report ------------------------------------------------------


@dataclass
class AssumptionReport:
    """All certificates for one family, with the first time of each run they
    read and the K6 table there."""

    records: dict  # "ac0".."ac7" -> CertRecord
    t_grid: np.ndarray
    k6: np.ndarray

    def to_dict(self) -> dict:
        out = {name: rec.to_dict() for name, rec in self.records.items()}
        out["k6"] = self.k6.tolist()
        out["t_grid"] = self.t_grid.tolist()
        return out


def check_all(ops: OperatorFamily, basis: SpectralBasis, t_grid) -> AssumptionReport:
    """Run every checker on one family and collect the records.

    The family is evaluated once, at the first time of each run of t_grid
    (OperatorFamily.runs), and every checker reads that one stack; the
    report's t_grid is those first times, one table entry per run.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    firsts = t_grid[ops.runs(t_grid)[:-1]]
    ev = ops.at(firsts)
    k6 = k6_table(ops, basis, firsts)
    records = {
        "ac0": check_boundedness(ev, basis),
        "ac1": check_differentiability(k6, firsts),
        "ac2": check_coercivity(ev, basis),
        "ac3": check_weak_noise_bound(ev),
        "ac4": check_commutator_bound(ev, basis, firsts),
        "ac5": check_strong_noise_bound(ev, basis),
        "ac6": check_weak_A_bound(ev, basis),
        "ac7": check_first_order_bound(ev, basis, firsts),
    }
    return AssumptionReport(records=records, t_grid=firsts, k6=k6)

