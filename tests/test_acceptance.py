"""End-to-end acceptance criteria with closed-form oracles.

Each test prints one PASS/FAIL line with the measured quantity so the whole
gate can be read off a single run of this module.
"""
from dataclasses import replace

import numpy as np
import pytest

from spdelab import diagnostics as diag
from spdelab.assumptions import (
    CERT_EIG_TOL,
    CERTIFIED,
    check_all,
    check_commutator_bound,
    check_weak_noise_bound,
)
from spdelab.brownian import sample_brownian_ensemble, uniform_grid
from spdelab.integrator import _run_steps, integrate, integrate_ensemble
from spdelab.operators import OperatorSegments, assemble_tilde_A, spectrum, sym
from spdelab.systems import (
    NSEGeometry,
    make_diagonal,
    make_nse_2d,
    make_torus_heat_gradient_noise,
    make_torus_heat_scalar_noise,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _ensemble_quotients(sys, scheme, grid, seed, n_paths, u0, chunk=25):
    """Quotient series (P, J+1) and final states, integrating in chunks."""
    tilde_sym = sym(assemble_tilde_A(sys.ops.dense(), 0.0))
    segs = OperatorSegments(sys.ops, grid)
    quots = []
    finals = []
    for start in range(0, n_paths, chunk):
        # stream ids must stay globally aligned with the path index
        k = min(chunk, n_paths - start)
        inc = sample_brownian_ensemble(
            sys.ops.n_noise, grid, seed, k, first_stream=start
        )
        u = np.broadcast_to(u0, (k, sys.basis.dim))
        states, _ = _run_steps(sys.ops.F, segs, u, inc, scheme)
        den = np.sum(states**2, axis=-1)
        quots.append(np.sum((states @ tilde_sym.T) * states, axis=-1) / (den + 1e-300))
        # a copy, so the chunk's states are freed
        finals.append(states[:, -1].copy())
    return np.vstack(quots), np.vstack(finals)


# -- 1. spectral-limit oracle on the diagonal system ------------------


@pytest.mark.parametrize("u0,target", [((1.0, 1.0, 1.0), 1.0),
                                       ((0.0, 1.0, 1.0), 4.0)])
def test_acceptance_1_spectral_limit_oracle(u0, target):
    sys = make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])
    grid = uniform_grid(20.0, 1e-3)
    quots, finals = _ensemble_quotients(
        sys, "milstein", grid, seed=101, n_paths=200, u0=np.asarray(u0), chunk=50
    )
    tilde_sym = sym(assemble_tilde_A(sys.ops.dense(), 0.0))
    rep = diag.spectral_limit_report(
        quots, finals, tilde_sym, np.array([1.0, 4.0, 9.0])
    )
    gaps = [p["gap"] for p in rep["paths"] if p["settled"]]
    matched = all(
        p["matched_eigenvalue"] == target and p["gap"] < 1e-2
        for p in rep["paths"] if p["settled"]
    )
    ok = rep["n_settled"] == 200 and matched
    _verdict(
        "1-spectral-limit-oracle",
        ok,
        f"u0={u0}: {rep['n_settled']}/200 settled, target {target}, "
        f"max gap {max(gaps, default=float('nan')):.2e}",
    )


# -- 2. eigenvalue membership on the torus ----------------------------


def test_acceptance_2_eigenvalue_membership():
    sys = make_torus_heat_scalar_noise(dim=64, c_coeffs=(0.5,))
    grid = uniform_grid(10.0, 2e-3)
    quots, finals = _ensemble_quotients(
        sys, "drift-implicit", grid, seed=202, n_paths=100, u0=sys.u0, chunk=25
    )
    tilde_sym = sym(assemble_tilde_A(sys.ops, 0.0))
    eigs = spectrum(tilde_sym)
    rep = diag.spectral_limit_report(quots, finals, tilde_sym, eigs)
    settled = [p for p in rep["paths"] if p["settled"]]
    good = [
        p for p in settled
        if p["gap"] is not None and p["gap"] < 5e-2 and p["residual_final"] < 0.1
    ]
    frac = len(good) / max(len(settled), 1)
    ok = len(settled) > 0 and frac >= 0.95
    _verdict(
        "2-eigenvalue-membership",
        ok,
        f"{len(settled)}/100 settled, {100 * frac:.1f}% within 5e-2 "
        f"with residual < 0.1",
    )


# -- 3. backward-uniqueness dichotomy ---------------------------------


def test_acceptance_3_backward_dichotomy():
    sys = make_torus_heat_gradient_noise(dim=32, sigma_fields=(0.5,))
    grid = uniform_grid(1.0, 1e-3)
    margin = np.inf
    underflow = 0
    for chunk in range(4):
        ens = integrate_ensemble(sys, "drift-implicit", grid, seed=303 + chunk,
                                 n_paths=250)
        probe = diag.backward_probe(np.linalg.norm(ens.states, axis=-1))
        margin = min(margin, probe["margin"])
        underflow += probe["n_underflow"]
    zero = integrate(replace(sys, u0=np.zeros(sys.basis.dim)), "drift-implicit", grid,
                     seed=303)
    zero_stays = bool(np.all(zero.states == 0.0))
    ok = margin > 0.0 and underflow == 0 and zero_stays
    _verdict(
        "3-backward-dichotomy",
        ok,
        f"min path norm {margin:.3e}, underflows {underflow}, "
        f"zero start stays zero: {zero_stays}",
    )


# -- 4. martingale normalization --------------------------------------


def test_acceptance_4_martingale_mean_one():
    sys = make_torus_heat_scalar_noise(dim=8, c_coeffs=(0.5,))
    delta = 1e-6
    grid = uniform_grid(1.0, 1e-3)
    n_paths = 10_000
    chunk = 250
    dt = float(grid[1] - grid[0])
    b = sys.ops.Bs[0].at(0.0)
    segs = OperatorSegments(sys.ops, grid)
    logm = []
    for start in range(0, n_paths, chunk):
        inc = sample_brownian_ensemble(1, grid, 404, chunk, first_stream=start)
        u0 = np.broadcast_to(sys.u0, (chunk, 8))
        u = _run_steps(sys.ops.F, segs, u0, inc, "euler-maruyama")[0][:, :-1]
        # the left-point log M, added in step order as a loop adds it (np.sum pairs terms)
        den = np.sum(u**2, axis=-1) + delta
        rho = np.sum(u * (u @ b.T), axis=-1) / den
        logm.append(np.cumsum(-2.0 * rho * inc[..., 0] - 2.0 * rho**2 * dt, axis=1)[:, -1])
    logm = np.concatenate(logm)
    m = np.exp(logm)
    mean = m.mean()
    se = m.std() / np.sqrt(n_paths)
    ok = abs(mean - 1.0) <= 3.0 * se
    _verdict(
        "4-martingale-mean-one",
        ok,
        f"mean {mean:.5f}, stderr {se:.5f}, |mean-1|/se = "
        f"{abs(mean - 1.0) / se:.2f}",
    )


# -- 5. Gronwall bound process ----------------------------------------


def _gronwall_rate(dt: float) -> float:
    sys = make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])
    grid = uniform_grid(1.0, dt)
    checked = violations = 0
    for p in range(5):
        traj = integrate(sys, "euler-maruyama", grid, seed=505, stream_id=p)
        _, verdict = diag.bound_process_X(diag.PathForms(traj, 1e-8), 1e-8,
                                          np.zeros(len(grid)), np.zeros(len(grid)))
        checked += verdict["n_checked"]
        violations += verdict["n_violations"]
    return violations / checked


def test_acceptance_5_gronwall_bound():
    rate = _gronwall_rate(1e-4)
    rate_half = _gronwall_rate(5e-5)
    ok = rate <= 0.01 and rate_half <= rate
    _verdict(
        "5-gronwall-bound",
        ok,
        f"violation rate {100 * rate:.3f}% at dt=1e-4, "
        f"{100 * rate_half:.3f}% at dt=5e-5",
    )


# -- 6. comparison envelope -------------------------------------------


def _envelope_rate(dt: float) -> float:
    sys = make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])
    record = check_commutator_bound(sys.ops.at(np.array([0.0])), sys.basis, np.array([0.0]))
    assert record.constants["K1_zero_achievable"]  # precondition of the bound
    grid = uniform_grid(1.0, dt)
    checked = violations = 0
    for p in range(5):
        traj = integrate(sys, "euler-maruyama", grid, seed=606, stream_id=p)
        _, verdict = diag.comparison_envelope(diag.PathForms(traj, 1e-8), 0, 1e-8,
                                              np.zeros(len(grid)))
        checked += verdict["n_checked"]
        violations += verdict["n_violations"]
    return violations / checked


def test_acceptance_6_comparison_envelope():
    rate = _envelope_rate(1e-4)
    rate_half = _envelope_rate(5e-5)
    ok = rate < 0.01 and rate_half <= rate
    _verdict(
        "6-comparison-envelope",
        ok,
        f"violation rate {100 * rate:.3f}% at dt=1e-4, "
        f"{100 * rate_half:.3f}% at dt=5e-5",
    )


# -- 7. derivative kernels vs. finite differences ---------------------


def test_acceptance_7_derivative_kernels():
    rng = np.random.Generator(np.random.Philox(key=[707, 0]))
    worst1 = worst2 = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        c = rng.standard_normal((n, n))
        c = 0.5 * (c + c.T)
        eps = 10.0 ** rng.uniform(-3, 0)
        x = rng.standard_normal(n)
        h1 = rng.standard_normal(n)
        h2 = rng.standard_normal(n)
        step = 1e-5
        fd1 = (diag.quotient_fn(c, eps, x + step * h1)
               - diag.quotient_fn(c, eps, x - step * h1)) / (2 * step)
        d1 = diag.quotient_fn_d1(c, eps, x, h1)
        worst1 = max(worst1, abs(fd1 - d1) / max(1.0, abs(d1)))
        fd2 = (diag.quotient_fn_d1(c, eps, x + step * h2, h1)
               - diag.quotient_fn_d1(c, eps, x - step * h2, h1)) / (2 * step)
        d2 = diag.quotient_fn_d2(c, eps, x, h1, h2)
        worst2 = max(worst2, abs(fd2 - d2) / max(1.0, abs(d2)))
    ok = worst1 < 1e-6 and worst2 < 1e-5
    _verdict(
        "7-derivative-kernels",
        ok,
        f"max rel err d1 {worst1:.2e} (tol 1e-6), d2 {worst2:.2e} (tol 1e-5)",
    )


# -- 8. strong convergence orders -------------------------------------


def _strong_slope(scheme) -> float:
    """Slope of the strong error on geometric Brownian motion."""
    sys = make_diagonal([1.0], [[0.5]])
    t_end = 1.0
    dt_fine = 1.25e-3
    grid = uniform_grid(t_end, dt_fine)
    n_paths = 1000
    inc = sample_brownian_ensemble(1, grid, 808, n_paths)  # (P, J, 1)
    w_end = inc.sum(axis=1)[:, 0]
    exact = sys.u0[0] * np.exp(-sys.oracle.decay_rates[0] * t_end - 0.5 * w_end)

    errs, dts = [], []
    for level in range(4):
        factor = 2 ** (3 - level)
        dt = dt_fine * factor
        j = inc.shape[1] // factor
        coarse = inc.reshape(n_paths, j, factor, 1).sum(axis=2)
        u0 = np.full((n_paths, 1), sys.u0[0])
        u, _ = _run_steps(sys.ops.F, OperatorSegments(sys.ops, grid[::factor]), u0, coarse,
                          scheme, final_only=True)
        errs.append(float(np.mean(np.abs(u[:, 0] - exact))))
        dts.append(dt)
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def test_acceptance_8_strong_orders():
    em = _strong_slope("euler-maruyama")
    mil = _strong_slope("milstein")
    ok = 0.4 <= em <= 0.6 and 0.9 <= mil <= 1.1
    _verdict(
        "8-strong-orders",
        ok,
        f"euler-maruyama slope {em:.3f} (in [0.4,0.6]), "
        f"milstein slope {mil:.3f} (in [0.9,1.1])",
    )


# -- 9. Galerkin-gap decay --------------------------------------------


def test_acceptance_9_galerkin_gap_decay():
    u0 = np.array([1.0 / (1 + i) for i in range(64)])
    grid = uniform_grid(1.0, 1e-3)
    sections = (8, 16, 32, 64)
    ok_all = True
    details = []
    for sys in (replace(make_torus_heat_scalar_noise(dim=64, c_coeffs=(0.5,)), u0=u0),
                replace(make_torus_heat_gradient_noise(dim=64, sigma_fields=(0.5,)),
                        u0=u0)):
        traj = integrate(sys, "drift-implicit", grid, seed=909)
        k3, k4 = diag.galerkin_gaps(diag.PathForms(traj, 1e-8), sys.basis,
                                    1e-8, sections)
        k3 = {n: k[0] for n, k in k3.items()}
        k4 = {n: k[0] for n, k in k4.items()}
        mono = all(k3[a] >= k3[b] - 1e-15 and k4[a] >= k4[b] - 1e-15
                   for a, b in zip(sections, sections[1:]))
        decade = k3[64] <= k3[8] / 10 and k4[64] <= k4[8] / 10
        ok_all = ok_all and mono and decade
        details.append(
            f"{sys.name}: K3 {k3[8]:.2e}->{k3[64]:.2e}, "
            f"K4 {k4[8]:.2e}->{k4[64]:.2e}"
        )
    _verdict("9-galerkin-gap-decay", ok_all, "; ".join(details))


# -- 10. assumption certificates --------------------------------------


def test_acceptance_10_assumption_certificates():
    t_grid = np.array([0.0])
    grad = make_torus_heat_gradient_noise(dim=32, sigma_fields=(0.5,))
    phi = check_weak_noise_bound(grad.ops.at(t_grid)).constants["phi"]
    rec4 = check_commutator_bound(grad.ops.at(t_grid), grad.basis, t_grid)
    k2, k1 = rec4.constants["K2"], rec4.constants["K1"]
    grad_ok = (np.max(phi) < 1e-9 and k2 == 0.0 and np.allclose(k1, 0.0)
               and rec4.constants["K1_zero_achievable"])

    recheck_ok = True
    statuses = []
    for sys in (grad,
                make_torus_heat_scalar_noise(dim=32, c_coeffs=(0.5,)),
                make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])):
        report = check_all(sys.ops, sys.basis, t_grid)
        for name in ("ac0", "ac1", "ac2", "ac3", "ac4", "ac6"):
            rec = report.records[name]
            statuses.append(f"{sys.name}.{name}={rec.status}")
            if rec.status != CERTIFIED:
                recheck_ok = False
            if rec.slack is not None and rec.status == CERTIFIED:
                recheck_ok = recheck_ok and rec.slack >= CERT_EIG_TOL
    ok = grad_ok and recheck_ok
    _verdict(
        "10-assumption-certificates",
        ok,
        f"gradient noise phi_max {np.max(phi):.1e}, K1=K2=0: {grad_ok}; "
        f"all core certificates certified with slack >= -1e-9: {recheck_ok}",
    )


# -- 11. deterministic heat-flow regression ---------------------------


def test_acceptance_11_deterministic_heat_quotient():
    sys = make_torus_heat_scalar_noise(dim=64, c_coeffs=())
    grid = uniform_grid(10.0, 1e-3)
    traj = integrate(sys, "drift-implicit", grid, seed=0)
    q = diag.quotient_series(diag.PathForms(traj, 0.0), 0.0)[0]
    # without noise the family is the diagonal Laplacian, held as its diagonal
    eigs = spectrum(sys.ops.at(0.0).tilde_sym)
    target = float(eigs.min())
    monotone = bool(np.all(np.diff(q) <= 1e-12))
    final_gap = abs(q[-1] - target)
    ok = monotone and final_gap < 1e-6
    _verdict(
        "11-deterministic-heat",
        ok,
        f"quotient nonincreasing: {monotone}, final gap to min spectrum "
        f"{final_gap:.2e} (tol 1e-6)",
    )


# -- 12. spectral limit of the stochastic Navier-Stokes equations ------


def _nse_start(geom, shells):
    """1 on both amplitudes of every wavevector with |m|^2 in `shells`."""
    return np.repeat(np.isin(geom.k2, shells), 2).astype(float)


@pytest.mark.parametrize("shells, modes", [((1,), 4), ((1, 2), 4), ((2, 4), 4), ((1, 2), 8)],
                         ids=["exact", "shells-1-2", "even-parity", "shells-1-2-modes-8"])
def test_acceptance_12_nse_spectral_limit(shells, modes):
    """nse-2d with its defaults (nu = 1, b = 0.3, so sym(Ã) = |m|^2 - 0.09),
    at 4 modes per dimension (N = 80) and, on shells 1 and 2, at 8 (N = 288).

    A start on the |m|^2 = 1 shell alone is a steady Euler mode, F(u0) = 0 to
    rounding, so every quotient is nu - b^2 = 0.91 at every time.  A start on
    shells 1 and 2 is moved by the advection and settles on 0.91.  A start on
    shells 2 and 4 has m1 + m2 even in every mode, and the advection never
    reaches an odd one: it settles on 2 nu - b^2 = 1.91, the limit the
    nonlinearity selects.  The quotient is taken at eps = 0, because the
    paths' |u|^2 falls below any eps that would be small next to it."""
    geom = NSEGeometry(modes)
    u0 = _nse_start(geom, shells)
    sys = replace(make_nse_2d(modes), u0=u0)
    ens = integrate_ensemble(sys, "drift-implicit", uniform_grid(8.0, 2e-3), seed=1212,
                             n_paths=8)
    forms = diag.PathForms(ens, 0.0)
    quots = diag.quotient_series(forms, 0.0)
    tilde_sym = ens.segments.segments[0].tilde_sym  # the diagonal, applied elementwise
    rep = diag.spectral_limit_report(quots, ens.states[:, -1], tilde_sym,
                                     spectrum(tilde_sym))
    margin = diag.backward_probe(np.sqrt(forms.sq))["margin"]
    target = min(shells) - 0.3**2
    force = float(np.linalg.norm(sys.ops.F(0.0, u0)))
    settled = [p for p in rep["paths"] if p["settled"]]
    matched = [p for p in settled
               if abs(p["matched_eigenvalue"] - target) < 1e-12 and p["residual_final"] < 1e-2]
    frac = len(matched) / max(len(settled), 1)
    moved = force < 1e-12 if shells == (1,) else force > 0.1
    ok = len(settled) > 0 and frac >= 0.95 and margin > 0.0 and moved
    detail = (f"|F(u0)| {force:.1e}, {len(settled)}/8 settled, {100 * frac:.0f}% on {target:.2f} with "
              f"residual < 1e-2, backward margin {margin:.2e}")
    if shells == (1,):
        deviation = float(np.max(np.abs(quots - target)))
        ok = ok and deviation < 1e-12
        detail += f", max |quotient - {target:.2f}| {deviation:.1e} (tol 1e-12)"
    if shells == (2, 4):
        odd = np.repeat(np.sum(geom.wavevectors, axis=1) % 2 == 1, 2)
        leak = float(np.max(np.abs(ens.states[..., odd])))
        ok = ok and leak < 1e-15
        detail += f", odd-parity coordinates <= {leak:.1e} (tol 1e-15)"
    _verdict(f"12-nse-spectral-limit-{'-'.join(map(str, shells))}-modes-{modes}", ok, detail)
