"""Pathwise functionals: quotients, martingale, bounds, gaps, kernels."""
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdelab import diagnostics as diag
from spdelab import runner
from spdelab.assumptions import check_commutator_bound, k6_table
from spdelab.basis import SpectralBasis
from spdelab.brownian import uniform_grid
from spdelab.integrator import EnsembleResult, integrate, integrate_ensemble
from spdelab.operators import (
    MatrixPath,
    OperatorFamily,
    OperatorSegments,
    assemble_tilde_A,
    sym,
)
from spdelab.systems import SystemSpec, make_diagonal, make_system


def diag_system(eigs=(1.0, 4.0, 9.0), noise=((0.3, 0.2, 0.1),)):
    return make_diagonal(eigs, noise)


# -- pointwise functionals --------------------------------------------


def _quotient(u, tilde, eps):
    """The quotient of the state u under the constant, noise-free family Ã = tilde:
    quotient_series of a one-path ensemble resting at u on a two-point grid."""
    u = np.asarray(u, dtype=float)
    times = np.array([0.0, 1.0])
    ops = OperatorFamily(A=MatrixPath(np.asarray(tilde, dtype=float)), Bs=())
    ens = EnsembleResult(times=times, states=np.stack([u, u])[None],
                         increments=np.zeros((1, 1, 0)), blowups={},
                         segments=OperatorSegments(ops, times))
    q = diag.quotient_series(diag.PathForms(ens, eps), eps)
    assert q.shape == (1, 2) and q[0, 0] == q[0, 1]
    return q[0, 0]


def test_quotient_on_eigenvector():
    m = np.diag([2.0, 5.0])
    assert _quotient(np.array([1.0, 0.0]), m, 0.0) == pytest.approx(2.0)
    assert _quotient(np.array([0.0, 3.0]), m, 0.0) == pytest.approx(5.0)


def test_quotient_uses_symmetric_part():
    m = np.array([[1.0, 10.0], [-10.0, 1.0]])  # skew part is invisible
    u = np.array([1.0, 1.0])
    assert _quotient(u, m, 0.0) == pytest.approx(1.0)


@given(st.floats(0.1, 10.0))
def test_quotient_scale_invariant_at_eps_zero(scale):
    m = np.diag([1.0, 3.0])
    u = np.array([1.0, 2.0])
    assert _quotient(scale * u, m, 0.0) == pytest.approx(
        _quotient(u, m, 0.0), rel=1e-12
    )


def test_quotient_eps_shrinks_magnitude():
    m = np.diag([2.0, 2.0])
    u = np.array([1.0, 0.0])
    assert _quotient(u, m, 1.0) == pytest.approx(1.0)  # 2 / (1 + 1)


def test_quotient_full_adds_squared_noise_term():
    """Along the first mode the quotient is 1 and the noise ratio 0.3 at every time."""
    sys = replace(make_diagonal((1.0, 4.0, 9.0), ((0.3, 0.2, 0.1),)),
                  u0=np.array([1.0, 0.0, 0.0]))
    grid = uniform_grid(0.5, 0.01)
    ens = integrate_ensemble(sys, "drift-implicit", grid, seed=3, n_paths=2)
    for paths in (ens, ens.paths(1, 2)):
        full = diag.quotient_full(diag.PathForms(paths, 0.0), 0.0)
        assert full.shape == paths.states.shape[:-1]
        np.testing.assert_allclose(full, 1.0 + 0.3**2, rtol=1e-12)


def test_eigen_residual_zero_on_eigenpair():
    m = np.diag([1.0, 4.0])
    for u, res in ((np.array([0.0, 2.0]), 0.0), (np.array([1.0, 0.0]), 3.0)):
        assert diag.eigen_residual(u, sym(m) @ u, 4.0) == pytest.approx(res)


# -- martingale and psi -----------------------------------------------


def test_martingale_starts_at_one_and_stays_positive():
    sys = diag_system()
    traj = integrate(sys, "euler-maruyama", uniform_grid(1.0, 1e-3), seed=0)
    m = diag.exp_martingale(diag.PathForms(traj, 1e-6))
    assert m[0, 0] == 1.0
    assert np.all(m > 0)


def test_martingale_mean_near_one_small_ensemble():
    sys = diag_system(eigs=(1.0,), noise=((0.4,),))
    grid = uniform_grid(1.0, 1e-3)
    ens = integrate_ensemble(sys, "euler-maruyama", grid, seed=3, n_paths=400)
    m = diag.exp_martingale(diag.PathForms(ens, 1e-6))
    mean = m[:, -1].mean()
    se = m[:, -1].std() / np.sqrt(400)
    assert abs(mean - 1.0) <= 4 * se


def test_martingale_batch_matches_per_path():
    sys = diag_system()
    grid = uniform_grid(0.5, 1e-3)
    ens = integrate_ensemble(sys, "euler-maruyama", grid, seed=5, n_paths=3)
    batch = diag.exp_martingale(diag.PathForms(ens, 1e-6))
    # a record at another regulariser gives the same martingale at 1e-6
    assert np.array_equal(diag.exp_martingale(diag.PathForms(ens, 1e-3), 1e-6), batch)
    for p in range(3):
        single = diag.exp_martingale(diag.PathForms(ens.paths(p, p + 1), 1e-6))
        assert np.allclose(batch[p], single[0], rtol=1e-12)


def test_martingale_constant_for_noise_free_path():
    sys = diag_system(noise=((0.0, 0.0, 0.0),))
    traj = integrate(sys, "euler-maruyama", uniform_grid(0.5, 1e-2), seed=0)
    assert np.allclose(diag.exp_martingale(diag.PathForms(traj, 1e-6)), 1.0)


def test_psi_closed_form():
    sys = diag_system()
    traj = integrate(sys, "euler-maruyama", uniform_grid(0.1, 1e-2), seed=1)
    eps = 1e-4
    forms = diag.PathForms(traj, eps)
    m = diag.exp_martingale(forms)
    psi = diag.psi_series(forms, eps)
    expect = -0.5 * m * np.log(np.sum(traj.states**2, axis=-1) + eps)
    assert np.allclose(psi, expect)


# -- Gronwall bound and envelope --------------------------------------


def test_bound_process_deterministic_flow():
    """Without noise the bound reduces to the initial quotient: X constant
    and the decreasing quotient stays below it."""
    sys = diag_system(noise=((0.0, 0.0, 0.0),))
    traj = integrate(sys, "drift-implicit", uniform_grid(2.0, 1e-3), seed=0)
    forms = diag.PathForms(traj, 1e-8)
    zero = np.zeros(len(traj.times))
    x, verdict = diag.bound_process_X(forms, 1e-8, zero, zero)
    lam = diag.quotient_series(forms, 1e-8)
    assert np.allclose(x, x[0, 0])
    assert verdict["n_violations"] == 0
    assert np.all(np.diff(lam) <= 1e-12)


def test_bound_process_with_noise_mostly_holds():
    sys = diag_system()
    traj = integrate(sys, "euler-maruyama", uniform_grid(1.0, 1e-4), seed=7)
    zero = np.zeros(len(traj.times))
    _, verdict = diag.bound_process_X(diag.PathForms(traj, 1e-8), 1e-8, zero, zero)
    assert verdict["n_violations"] / verdict["n_checked"] <= 0.01


def test_envelope_on_diagonal_oracle():
    sys = diag_system()
    traj = integrate(sys, "euler-maruyama", uniform_grid(1.0, 1e-4), seed=11)
    env, verdict = diag.comparison_envelope(diag.PathForms(traj, 1e-8), 0, 1e-8,
                                            np.zeros(len(traj.times)))
    assert verdict["n_excluded"] == 0
    assert verdict["n_violations"] / verdict["n_checked"] < 0.01
    assert np.all(np.isfinite(env))


def test_bound_verdicts_are_the_plain_data_a_report_holds():
    """Each bound check returns its verdict as four counts and a tolerance
    that json writes as they are."""
    traj = integrate(diag_system(), "euler-maruyama", uniform_grid(0.5, 1e-3), seed=3)
    forms = diag.PathForms(traj, 1e-8)
    zero = np.zeros(len(traj.times))
    for _, verdict in (diag.bound_process_X(forms, 1e-8, zero, zero),
                       diag.comparison_envelope(forms, 0, 1e-8, zero)):
        assert [type(verdict[k]) for k in sorted(verdict)] == [int, int, int, float]
        assert sorted(verdict) == ["n_checked", "n_excluded", "n_violations", "tol"]
        assert json.loads(json.dumps(verdict)) == verdict
        assert verdict["tol"] == diag.TOL_COEFF * np.sqrt(1e-3)


def test_hitting_time():
    sys = diag_system(noise=((0.0, 0.0, 0.0),))
    traj = integrate(sys, "drift-implicit", uniform_grid(3.0, 1e-3), seed=0)
    norms = np.linalg.norm(traj.states[0], axis=1)
    r = norms[len(norms) // 2]
    [tau] = diag.hitting_time(norms[None], traj.times, r)
    assert tau is not None
    assert tau == pytest.approx(traj.times[len(norms) // 2], abs=2e-3)
    assert diag.hitting_time(norms[None], traj.times, 0.0) == [None]  # never reaches zero


def test_hitting_time_of_a_batch_matches_per_path_calls():
    sys = diag_system(eigs=(1.0, 4.0), noise=((0.8, 0.5),))
    ens = integrate_ensemble(sys, "euler-maruyama", uniform_grid(2.0, 1e-2), 3, 6)
    norms = np.linalg.norm(ens.states, axis=-1)
    # levels hit by every path, by some paths only, and by none
    for r in (float(np.max(norms[:, -1])), float(np.median(norms[:, -1])), 0.0):
        per_path = [diag.hitting_time(norms[p:p + 1], ens.times, r)[0] for p in range(6)]
        assert diag.hitting_time(norms, ens.times, r) == per_path
    assert None in [diag.hitting_time(norms[p:p + 1], ens.times,
                                      float(np.median(norms[:, -1])))[0]
                    for p in range(6)]


# -- Galerkin gaps ----------------------------------------------------


def test_galerkin_gaps_vanish_at_full_section():
    sys = replace(make_system("torus-heat-scalar", dim=16),
                  u0=np.array([1.0 / (1 + i) for i in range(16)]))
    traj = integrate(sys, "drift-implicit", uniform_grid(0.5, 1e-3), seed=0)
    k3, k4 = diag.galerkin_gaps(diag.PathForms(traj, 1e-8), sys.basis, 1e-8, (4, 8, 16))
    assert k3[16] == pytest.approx(0.0, abs=1e-20)
    assert k4[16] == pytest.approx(0.0, abs=1e-20)
    assert k3[4] >= k3[8] >= k3[16]
    assert k4[4] >= k4[8] >= k4[16]


def _gaps_by_full_application(forms, basis, eps, N_list):
    """K3 and K4 as they were first computed, on the (P, J+1, N) states: the
    head term applies all of Ã to a copy of the states whose leading n
    coordinates are zeroed, and keeps its leading n rows."""
    times, states, segs = forms.paths.times, forms.paths.states, forms.paths.segments
    m, den = forms.martingale, forms.sq + eps
    tu = segs.tilde_applied(states)
    bus = segs.noise_applied(states)
    lam = basis.hat_eigenvalues
    k3, k4 = {}, {}
    for n in N_list:
        tail_u = states.copy()
        tail_u[..., :n] = 0.0
        head = segs.tilde_applied(tail_u)[..., :n]
        gap_sq = np.sum(head**2, axis=-1) + np.sum(tu[..., n:] ** 2, axis=-1)
        k3[n] = np.trapezoid(m * gap_sq / den, times, axis=-1)
        tail = sum(np.sum(lam[n:] * bu[..., n:] ** 2, axis=-1) for bu in bus)
        k4[n] = np.trapezoid(m * tail / den, times, axis=-1)
    return k3, k4


def _coupled_on_11_nodes():
    """coupled-torus (N = 18) with noise tables that change at 11 nodes of [0, 1]."""
    nodes = np.arange(11) / 10
    tables = np.zeros((11, 2, 2, 2))
    for j, t in enumerate(nodes):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] += 0.2 * t
    return make_system("coupled-torus", modes=9, h_tables=tables, h_time_grid=nodes)


_GAP_SYSTEMS = {
    "coupled-11-nodes": _coupled_on_11_nodes,
    # a noise field that varies on the circle couples the modes
    "torus-heat-scalar": lambda: make_system(
        "torus-heat-scalar", dim=13, c_coeffs=(lambda x: 0.5 + 0.2 * np.cos(x),)),
    # a matrix per time, and an Ã that is not symmetric
    "linear": lambda: _linear_family(1.0),
}


@pytest.mark.parametrize("name", sorted(_GAP_SYSTEMS))
def test_galerkin_gaps_read_only_the_head_block(name):
    """The head term reads only Ã[:n, n:] of each matrix; K3 and K4 agree
    with the full application of Ã at rtol 1e-12, on a family whose head
    blocks are not zero."""
    system = _GAP_SYSTEMS[name]()
    dim = system.basis.dim
    system = replace(system, u0=np.linspace(1.0, 0.2, dim))
    ens = integrate_ensemble(system, "euler-maruyama", uniform_grid(1.0, 1e-2), 4, 3)
    forms = diag.PathForms(ens, 1e-8)
    sizes = sorted({1, 2, dim // 2, dim - 1, dim})
    k3, k4 = diag.galerkin_gaps(forms, system.basis, 1e-8, sizes)
    ref3, ref4 = _gaps_by_full_application(forms, system.basis, 1e-8, sizes)
    for n in sizes:
        np.testing.assert_allclose(k3[n], ref3[n], rtol=1e-12, atol=0, err_msg=f"K3 {n}")
        np.testing.assert_allclose(k4[n], ref4[n], rtol=1e-12, atol=0, err_msg=f"K4 {n}")
    assert any(np.any(ens.segments.tilde_head(forms.u, n)) for n in sizes)


def test_a_diagonal_familys_head_term_is_exactly_zero():
    sys = diag_system()
    ens = integrate_ensemble(sys, "euler-maruyama", uniform_grid(0.5, 1e-2), 2, 3)
    forms = diag.PathForms(ens, 1e-8)
    for n in (1, 2, 3):
        head = ens.segments.tilde_head(forms.u, n)
        assert head.shape == (n, 3, len(ens.times))
        assert not np.any(head) and not np.signbit(head).any()


# -- the record's component planes ------------------------------------


def test_the_record_holds_contiguous_component_planes():
    """u, sym(Ã)u and each B_k u are (N, P, J+1), the increments (n, P, J),
    each C-contiguous and equal to the transposed (P, J+1, N) arrays; the
    shared terms are read-only."""
    sys = diag_system(noise=((0.3, 0.2, 0.1), (0.1, 0.2, 0.3)))
    ens = integrate_ensemble(sys, "euler-maruyama", uniform_grid(0.2, 1e-2), 1, 4)
    forms = diag.PathForms(ens, 1e-6)
    segs = ens.segments
    pairs = [(forms.u, ens.states), (forms.tu, segs.tilde_applied(ens.states, True)),
             (forms.dw, ens.increments)]
    pairs += list(zip(forms.bus, segs.noise_applied(ens.states)))
    for planes, layout in pairs:
        assert planes.flags.c_contiguous
        assert np.array_equal(planes, np.moveaxis(layout, -1, 0))
    q = diag.quotient_series(forms, 1e-8)
    assert q is diag.quotient_series(forms, 1e-8) and not q.flags.writeable
    with pytest.raises(ValueError):
        q[0, 0] = 1.0


def test_the_final_martingale_is_the_last_of_the_series():
    """exp_martingale with final gives M at the last grid time, bit for bit
    the last column of the whole series, at the record's delta and another."""
    sys = diag_system(noise=((0.3, 0.2, 0.1), (0.1, 0.2, 0.3)))
    ens = integrate_ensemble(sys, "euler-maruyama", uniform_grid(0.5, 1e-3), 6, 5)
    for delta in (1e-6, 1e-3):
        forms = diag.PathForms(ens, 1e-6)
        final = diag.exp_martingale(forms, delta, final=True)
        whole = diag.exp_martingale(diag.PathForms(ens, 1e-6), delta)
        assert final.shape == (5,)
        assert np.array_equal(final.view(np.int64), whole[:, -1].view(np.int64))


# -- spectral-limit report and backward probe -------------------------


def test_the_settling_window_std_is_each_paths_own():
    """One np.std over the window of every path gives each path's
    window_std bit for bit as np.std of that path's window alone."""
    rng = np.random.default_rng(12)
    quots = (rng.standard_normal((9, 251)) * np.logspace(-12, 2, 9)[:, None]
             + rng.uniform(-5, 5, (9, 1)))
    finals = rng.standard_normal((9, 3))
    tilde = np.diag([1.0, 4.0, 9.0])
    rep = diag.spectral_limit_report(quots, finals, tilde, np.array([1.0, 4.0, 9.0]))
    w0 = int(np.floor((1.0 - diag.SETTLE_WINDOW) * quots.shape[1]))
    for p, path in enumerate(rep["paths"]):
        assert path["window_std"] == float(np.std(quots[p, w0:]))


def test_spectral_limit_report_settled_paths():
    quots = np.array([
        np.concatenate([np.linspace(5.0, 1.0, 80), np.full(20, 1.001)]),
        np.linspace(9.0, 0.0, 100),  # still moving in the window
    ])
    finals = np.array([[1.0, 0.0], [1.0, 1.0]])
    tilde = np.diag([1.0, 4.0])
    rep = diag.spectral_limit_report(quots, finals, tilde, np.array([1.0, 4.0]))
    assert rep["paths"][0]["settled"]
    assert rep["paths"][0]["matched_eigenvalue"] == 1.0
    assert rep["paths"][0]["gap"] < 1e-2
    assert not rep["paths"][1]["settled"]
    assert rep["histogram"] == {"1.0": 1}


def test_settle_tolerance_counts_a_split_eigenvalue_once():
    """eigh splits a repeated eigenvalue by rounding; the default tolerance is
    a tenth of the gap between distinct eigenvalues, not of that split."""
    eigs = np.array([0.0, 1.0, 1.0 + 4e-16, 4.0])
    quots = 1.0 + 1e-6 * np.sin(np.arange(100.0))[None]
    rep = diag.spectral_limit_report(quots, np.ones((1, 4)), np.eye(4), eigs)
    assert rep["settle_tol"] == pytest.approx(0.1, rel=1e-12)
    assert rep["n_settled"] == 1
    assert diag.spectral_limit_report(quots, np.ones((1, 4)), np.eye(4),
                                      np.full(3, 2.0))["settle_tol"] == 0.1


def test_backward_probe_positive_and_zero_start():
    sys = diag_system()
    grid = uniform_grid(1.0, 1e-3)
    ens = integrate_ensemble(sys, "euler-maruyama", grid, seed=2, n_paths=4)
    probe = diag.backward_probe(np.linalg.norm(ens.states, axis=-1))
    assert probe["all_positive"]
    assert probe["n_underflow"] == 0

    zero = integrate(replace(sys, u0=np.zeros(3)), "euler-maruyama", grid, seed=2)
    assert np.all(zero.states == 0.0)


# -- derivative kernels -----------------------------------------------


def _random_symmetric(rng, n):
    c = rng.standard_normal((n, n))
    return 0.5 * (c + c.T)


def test_kernel_values_at_origin():
    c = np.diag([2.0, 4.0])
    eps = 0.5
    x0 = np.zeros(2)
    h1 = np.array([1.0, 0.0])
    h2 = np.array([1.0, 0.0])
    assert diag.quotient_fn(c, eps, x0) == 0.0
    assert diag.quotient_fn_d1(c, eps, x0, h1) == 0.0
    assert diag.quotient_fn_d2(c, eps, x0, h1, h2) == pytest.approx(2 * 2.0 / eps)


def test_kernel_first_derivative_finite_difference():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        c = _random_symmetric(rng, n)
        eps = 10.0 ** rng.uniform(-3, 0)
        x = rng.standard_normal(n)
        h = rng.standard_normal(n)
        step = 1e-5
        fd = (diag.quotient_fn(c, eps, x + step * h)
              - diag.quotient_fn(c, eps, x - step * h)) / (2 * step)
        d1 = diag.quotient_fn_d1(c, eps, x, h)
        assert abs(fd - d1) <= 1e-6 * max(1.0, abs(d1))


def test_kernel_second_derivative_symmetric_in_directions():
    rng = np.random.default_rng(1)
    c = _random_symmetric(rng, 4)
    x = rng.standard_normal(4)
    h1 = rng.standard_normal(4)
    h2 = rng.standard_normal(4)
    assert diag.quotient_fn_d2(c, 0.1, x, h1, h2) == pytest.approx(
        diag.quotient_fn_d2(c, 0.1, x, h2, h1), rel=1e-12
    )


def test_kernel_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        diag.quotient_fn(np.eye(2), 0.0, np.ones(2))


# -- batched diagnostics pass against the per-step loop ---------------


def _loop_table(system, traj, eps, delta, k1, k2, k6, n_tab):
    """Reference for the runner's DIAG_COLUMNS table of one path.

    One state at a time, with Ã(t) and every B_k(t) assembled at its own
    grid time, and every running integral accumulated step by step.
    """
    ops, basis = system.ops.dense(), system.basis
    times, states, dw, dt = traj.times, traj.states[0], traj.increments[0], traj.dt
    reg = eps if eps > 0 else delta
    n_t = len(times)
    lam, qfull, res = np.empty(n_t), np.empty(n_t), np.empty(n_t)
    rho = np.empty((n_t, ops.n_noise))
    ratio = np.empty((n_t, ops.n_noise))
    for j, t in enumerate(times):
        u = states[j]
        tilde = assemble_tilde_A(ops, float(t))
        bus = [bp.at(float(t)) @ u for bp in ops.Bs]
        tu = sym(tilde) @ u
        lam[j] = float(u @ tu) / (float(u @ u) + eps)
        qfull[j] = lam[j] + sum((float(u @ bu) / (float(u @ u) + eps)) ** 2 for bu in bus)
        rho[j] = [float(u @ bu) / (float(u @ u) + reg) for bu in bus]
        ratio[j] = [2.0 * float(tu @ bu) / (float(u @ u) + eps) for bu in bus]
        res[j] = (diag.eigen_residual(u, tu, lam[j])
                  if np.linalg.norm(u) > diag.NORM_FLOOR else np.nan)

    g = n_tab**2 + k2 + k6
    logm, big_g, k1_term, stoch = (np.zeros(n_t) for _ in range(4))
    for j in range(n_t - 1):
        logm[j + 1] = logm[j] - 2.0 * float(rho[j] @ dw[j]) - 2.0 * float(rho[j] @ rho[j]) * dt
    m = np.exp(logm)
    for j in range(n_t - 1):
        big_g[j + 1] = big_g[j] + 0.5 * (g[j + 1] + g[j]) * dt
        k1_term[j + 1] = k1_term[j] + np.exp(-big_g[j]) * k1[j] * m[j] * dt
        stoch[j + 1] = stoch[j] + np.exp(-big_g[j]) * m[j] * float(ratio[j] @ dw[j])
    x = np.exp(big_g) * (m[0] * lam[0] + k1_term - stoch)
    s = np.exp(-big_g) * m * lam
    psi = -0.5 * m * np.log(np.sum(states**2, axis=1) + max(eps, 1e-300))
    return np.column_stack([
        times, np.linalg.norm(states, axis=-1), basis.norm_v(states), basis.norm_d(states),
        lam, qfull, m, psi, res, s, x,
    ])


def _loop_envelope(traj, ops, tau_index, s, form_floor=1e-12, tol_coeff=1.0):
    """Reference comparison envelope of one path, given its damped quotient s."""
    ops = ops.dense()
    times, states, dw, dt = traj.times, traj.states[0], traj.increments[0], traj.dt
    log_env = np.zeros(len(times))
    excluded = np.zeros(len(times), dtype=bool)
    acc = 0.0
    for j in range(len(times)):
        u = states[j]
        tu = sym(assemble_tilde_A(ops, float(times[j]))) @ u
        form = float(u @ tu)
        excluded[j] = abs(form) < form_floor
        if j < tau_index or j == len(times) - 1:
            continue
        if not excluded[j]:
            for k, bp in enumerate(ops.Bs):
                r = float(tu @ (bp.at(float(times[j])) @ u)) / abs(form)
                acc += -2.0 * r * dw[j, k] - 2.0 * r * r * dt
        log_env[j + 1] = acc
    env = np.full(len(times), np.nan)
    env[tau_index:] = s[tau_index] * np.exp(log_env[tau_index:])
    usable = ~excluded[tau_index:]
    tol = tol_coeff * np.sqrt(dt)
    viol = int(np.sum(s[tau_index:][usable] > env[tau_index:][usable] + tol))
    return env, (int(usable.sum()), viol, int((~usable).sum()))


def _piecewise_coupled(T):
    """coupled-torus, N=8, two noises whose tables jump at 6 nodes over [0, T]."""
    nodes = np.linspace(0.0, T, 6)
    tables = np.zeros((len(nodes), 2, 2, 2))
    for j, t in enumerate(nodes / T):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] += 0.2 * t
    return make_system("coupled-torus", n_components=2, modes=4,
                       h_tables=tables, h_time_grid=nodes)


def _linear_family(T):
    """A and one B interpolated linearly between 4 nodes over [0, T], N=4."""
    rng = np.random.default_rng(4)
    nodes = np.linspace(0.0, T, 4)
    a = np.stack([np.diag([1.0, 2.0, 4.0, 8.0]) * (1.0 + 0.5 * i)
                  + 0.1 * rng.standard_normal((4, 4)) for i in range(4)])
    b = np.stack([0.3 * np.eye(4) + 0.1 * rng.standard_normal((4, 4)) for _ in range(4)])
    ops = OperatorFamily(A=MatrixPath(a, nodes, "linear"),
                         Bs=(MatrixPath(b, nodes, "linear"),))
    basis = SpectralBasis(dim=4, hat_eigenvalues=np.array([1.0, 2.0, 4.0, 8.0]))
    return SystemSpec(name="linear", basis=basis, ops=ops, u0=np.ones(4))


def _assert_columns_match(actual, desired):
    """rtol 1e-10 per entry, with NaNs in the same places.

    A quadratic form that cancels to near zero keeps rounding on the scale
    of the terms it cancelled, so each column also allows an absolute
    1e-13 of its largest magnitude.
    """
    for c, name in enumerate(runner.DIAG_COLUMNS):
        col = desired[:, c]
        scale = np.max(np.abs(col[np.isfinite(col)]), initial=0.0)
        np.testing.assert_allclose(actual[:, c], col, rtol=1e-10, atol=1e-13 * scale,
                                   err_msg=name)


# T=0.3 at dt=2e-3 gives 151 grid times: two linear blocks of LINEAR_BLOCK
_FAMILIES = {
    "diagonal": lambda T: make_system("diagonal"),
    "coupled-piecewise": _piecewise_coupled,
    "linear": _linear_family,
}


#: absolute slack of the envelope exponent log(env/env[tau]): the ratio
#: env/env[tau] near 1 carries an ulp of 1, which the log turns into an
#: absolute error of that size however small the exponent itself is
_LOG_RATIO_ATOL = 4 * np.finfo(float).eps


def _check_batched_against_loop(family, per_block, n_paths, seed, eps, zero_start,
                                form_floor):
    T = 0.3
    system = _FAMILIES[family](T)
    grid = uniform_grid(T, 2e-3)
    if zero_start:
        system = replace(system, u0=np.zeros(system.basis.dim))
    ens = integrate_ensemble(system, "euler-maruyama", grid, seed, n_paths)
    k1, big_g = runner._constants_for(system, grid)
    # the reference accumulates G itself from n^2 + K2 + K6, with ac4's K2 of the runs
    edges = system.ops.runs(grid)
    firsts = grid[edges[:-1]]
    k2 = check_commutator_bound(system.ops.at(firsts), system.basis, firsts).constants["K2"]
    consts = (k1, k2, k6_table(system.ops, system.basis, grid),
              np.full(len(grid), system.ops.n_witness or 0.0))
    if family == "linear":
        assert len(ens.segments.segments) == 2
    elif family == "coupled-piecewise":
        assert len(ens.segments.segments) == 6  # one per node; the last holds t=T alone

    starts, tables, _ = zip(*runner._diagnostic_blocks(
        system, ens, eps, 1e-6, k1, big_g, per_block
    ))
    assert list(starts) == list(range(0, n_paths, per_block))
    batched = np.concatenate(tables)
    tau = len(grid) // 3
    with mock.patch.object(diag, "FORM_FLOOR", form_floor):
        env, verdict = diag.comparison_envelope(
            diag.PathForms(ens, eps if eps > 0 else 1e-6), tau, eps, big_g)

    counts = np.zeros(3, dtype=int)
    for p in range(n_paths):
        traj = ens.paths(p, p + 1)
        ref = _loop_table(system, traj, eps, 1e-6, *consts)
        _assert_columns_match(batched[p], ref)
        ref_env, ref_counts = _loop_envelope(traj, system.ops, tau, ref[:, 9], form_floor)
        np.testing.assert_allclose(env[p, tau], ref_env[tau], rtol=1e-10)
        # the envelope's exponent sums r_k = <Ãu,B_k u>/|<Ãu,u>|, whose rounding
        # grows as the form nears zero, so compare it relative to its own size,
        # down to the rounding of the ratio env/env[tau] itself
        with np.errstate(divide="ignore", invalid="ignore"):
            np.testing.assert_allclose(np.log(env[p] / env[p, tau]),
                                       np.log(ref_env / ref_env[tau]), rtol=1e-10,
                                       atol=_LOG_RATIO_ATOL)
        counts += ref_counts
    assert (verdict["n_checked"], verdict["n_violations"], verdict["n_excluded"]) == tuple(counts)


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    per_block=st.integers(2, 3),
    full_blocks=st.integers(1, 2),
    data=st.data(),
    seed=st.integers(0, 2**16),
    eps=st.sampled_from([0.0, 1e-8, 1e-3]),
    form_floor=st.sampled_from([1e-12, 0.5]),
)
def test_batched_diagnostics_match_per_step_loop(family, per_block, full_blocks, data,
                                                 seed, eps, form_floor):
    """Runner's batched table and comparison_envelope agree with the loop.

    At eps = 0 the runner reads M at delta; a zero start is drawn only for
    eps > 0, since a run rejects a zero start with a zero eps.
    """
    n_paths = full_blocks * per_block + data.draw(st.integers(1, per_block - 1))
    zero_start = data.draw(st.booleans()) if eps > 0 else False
    assert n_paths % per_block != 0
    _check_batched_against_loop(family, per_block, n_paths, seed, eps, zero_start,
                                form_floor)


def test_batched_diagnostics_log_envelope_near_one():
    """An envelope exponent of 1.65e-6 that rounds one ulp of its ratio away.

    Found by hypothesis: one value of the exponent log(env/env[tau]) differed
    by 2.2e-16 from the loop's, beyond rtol 1e-10 of its own size.
    """
    _check_batched_against_loop("coupled-piecewise", per_block=3, n_paths=7, seed=2483,
                                eps=1e-8, zero_start=False, form_floor=1e-12)
