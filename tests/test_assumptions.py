"""Certificate checkers for the structural operator conditions."""
from collections import Counter

import numpy as np
import pytest

from spdelab import assumptions
from spdelab.assumptions import (
    ALPHA,
    CERT_EIG_TOL,
    CERTIFIED,
    EMPIRICAL,
    FAILED,
    K2_CANDIDATES,
    check_all,
    check_coercivity,
    check_commutator_bound,
    check_differentiability,
    check_first_order_bound,
    check_strong_noise_bound,
    check_weak_A_bound,
    check_weak_noise_bound,
    k6_table,
)
from spdelab.basis import SpectralBasis
from spdelab.operators import (
    MatrixPath,
    OperatorFamily,
    assemble_tilde_A,
    commutator_C,
    operator_norm_v_vprime,
    sym,
)
from spdelab.systems import (
    REGISTRY,
    derivative_matrix,
    make_coupled_torus,
    make_diagonal,
    make_system,
    make_torus_heat_gradient_noise,
)

T_GRID = np.array([0.0])


def hat_basis(lam):
    lam = np.asarray(lam, dtype=float)
    return SpectralBasis(dim=len(lam), hat_eigenvalues=lam)


def family(a, bs=()):
    return OperatorFamily(A=MatrixPath(np.asarray(a, dtype=float)),
                          Bs=tuple(MatrixPath(np.asarray(b, dtype=float)) for b in bs))


# -- coercivity -------------------------------------------------------


def test_coercivity_drift_equals_hat_operator():
    """2<A u, u> = ALPHA||u||^2 for A = (ALPHA/2) hat_A, so it needs no shift."""
    lam = [1.0, 2.0, 5.0]
    ops = family(0.5 * ALPHA * np.diag(lam))
    record = check_coercivity(ops.at(T_GRID), hat_basis(lam))
    value = record.constants["lambda"]
    assert value == pytest.approx(0.0, abs=1e-12)
    assert record.status == CERTIFIED


def test_coercivity_scalar_noise_costs_its_square():
    lam = [1.0, 2.0]
    c = 0.7
    ops = family(0.5 * ALPHA * np.diag(lam), [c * np.eye(2)])
    record = check_coercivity(ops.at(T_GRID), hat_basis(lam))
    value = record.constants["lambda"]
    assert value == pytest.approx(c**2, abs=1e-12)
    assert record.status == CERTIFIED


def test_coercivity_recheck_on_random_symmetric_drift():
    rng = np.random.default_rng(7)
    a = sym(rng.standard_normal((5, 5)))
    b = rng.standard_normal((5, 5))
    ops = family(a, [b])
    record = check_coercivity(ops.at(T_GRID), hat_basis(np.arange(1.0, 6.0)))
    assert record.status == CERTIFIED
    assert record.slack >= CERT_EIG_TOL


def test_coercivity_monotone_in_noise():
    """Adding a noise operator never decreases the required shift."""
    lam = [1.0, 2.0]
    base = family(np.diag(lam), [0.3 * np.eye(2)])
    bigger = family(np.diag(lam), [0.3 * np.eye(2), 0.4 * np.eye(2)])
    v0 = check_coercivity(base.at(T_GRID), hat_basis(lam)).constants["lambda"]
    v1 = check_coercivity(bigger.at(T_GRID), hat_basis(lam)).constants["lambda"]
    assert v1 >= v0 - 1e-12


# -- weak noise bound -------------------------------------------------


def test_weak_noise_skew_gives_zero():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    record = check_weak_noise_bound(family(np.eye(2), [skew]).at(T_GRID))
    phi = record.constants["phi"]
    assert np.allclose(phi, 0.0)
    assert record.status == CERTIFIED


def test_weak_noise_scalar_gives_absolute_value():
    record = check_weak_noise_bound(family(np.eye(2), [-0.8 * np.eye(2)]).at(T_GRID))
    phi = record.constants["phi"]
    assert phi[0] == pytest.approx(0.8)


def test_weak_noise_dominates_sampled_ratios():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 4))
    phi = check_weak_noise_bound(family(np.eye(4), [b]).at(T_GRID)).constants["phi"]
    for _ in range(200):
        u = rng.standard_normal(4)
        assert abs(u @ b @ u) <= phi[0] * (u @ u) + 1e-12


def test_weak_noise_monotone_in_family():
    b1 = np.diag([0.5, 0.5])
    phi1 = check_weak_noise_bound(family(np.eye(2), [b1]).at(T_GRID)).constants["phi"]
    phi2 = check_weak_noise_bound(family(np.eye(2), [b1, b1]).at(T_GRID)).constants["phi"]
    assert np.all(phi2 >= phi1 - 1e-15)


# -- commutator bound -------------------------------------------------


def test_commutator_zero_for_commuting_family():
    ops = family(np.diag([1.0, 4.0]), [np.diag([0.3, 0.2])])
    record = check_commutator_bound(ops.at(T_GRID), hat_basis([1.0, 4.0]), T_GRID)
    k2, k1 = record.constants["K2"], record.constants["K1"]
    assert k2 == 0.0
    assert np.allclose(k1, 0.0, atol=1e-12)
    assert record.constants["K1_zero_achievable"]


def test_commutator_gradient_noise_constant_sigma():
    sys = make_torus_heat_gradient_noise(dim=16, sigma_fields=(0.5,))
    record = check_commutator_bound(sys.ops.at(T_GRID), sys.basis, T_GRID)
    k2, k1 = record.constants["K2"], record.constants["K1"]
    assert np.allclose(k1, 0.0, atol=1e-9)
    assert k2 == 0.0


def test_commutator_variable_sigma_bounded_by_gradient():
    """K1 with K2 adapted stays below the squared gradient sup of sigma."""
    amp = 0.3
    sigma = lambda x: amp * np.sin(x)
    sys = make_torus_heat_gradient_noise(dim=24, sigma_fields=(sigma,))
    record = check_commutator_bound(sys.ops.at(T_GRID), sys.basis, T_GRID)
    k2, k1 = record.constants["K2"], record.constants["K1"]
    # sup |grad sigma|^2 = amp^2; the noise-weighted commutator form is
    # bounded by that times the V-norm, absorbed here through K2
    assert np.all(k1 <= amp**2 + 1e-6) or k2 > 0


def _commutator_bound_exhaustive(ev, basis, t_grid):
    """check_commutator_bound's K2 search over every candidate: the reference
    its early exit must match."""
    half = max(1, basis.dim // 2)
    ta, c = ev.tilde_sym, sym(commutator_C(ev))
    b_norm = sum(assumptions._spectral_norms(b) ** 2 for b in ev.Bs)
    tol = max(1e-9, 1e-12 * float(np.max(assumptions._sym_norms(ta) * b_norm, initial=0.0)))
    best = None
    for k2 in K2_CANDIDATES:
        k1 = np.linalg.eigvalsh(c - k2 * ta)[..., -1]
        k1_half = np.linalg.eigvalsh((c - k2 * ta)[..., :half, :half])[..., -1]
        cost = float(np.trapezoid(np.maximum(k1, 0.0), t_grid))
        if best is None or cost < best[0] - tol:
            best = (cost, float(k2), k1, k1_half)
    return best[1:], tol


def _time_dependent_coupled_torus():
    """coupled-torus whose two noises change at every node of [0, 1]."""
    nodes = np.linspace(0.0, 1.0, 11)
    tables = np.zeros((len(nodes), 2, 2, 2))
    for j, t in enumerate(nodes):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] += 0.2 * t
    return make_coupled_torus(modes=8, h_tables=tables, h_time_grid=nodes)


@pytest.mark.parametrize("name", sorted(REGISTRY) + ["coupled-torus-tdep"])
def test_commutator_early_exit_matches_the_exhaustive_search(monkeypatch, name):
    """Once the best cost is within tol of 0 no later K2 can beat it, so the
    search stops there with the exhaustive search's K2, K1 and slack; a family
    whose C is 0 (diagonal, nse-2d) reads its first candidate alone."""
    system = _time_dependent_coupled_torus() if name == "coupled-torus-tdep" else make_system(name)
    t_grid = np.linspace(0.0, 1.0, 5)
    ev = system.ops.at(t_grid)
    (k2_want, k1_want, k1_half_want), tol = _commutator_bound_exhaustive(
        ev, system.basis, t_grid)
    calls = []
    top = assumptions._top_eig
    monkeypatch.setattr(assumptions, "_top_eig", lambda m: calls.append(m.shape) or top(m))
    record = check_commutator_bound(ev, system.basis, t_grid)
    assert record.constants["K2"] == k2_want
    assert np.array_equal(record.constants["K1"],
                          np.where(k1_want <= tol, 0.0, np.maximum(k1_want, 0.0)))
    assert np.array_equal(record.constants["K1_restricted"], np.maximum(k1_half_want, 0.0))
    assert record.slack == float(np.max(np.abs(k1_want)))
    if name in ("diagonal", "nse-2d"):
        assert not np.any(commutator_C(ev))
        assert len(calls) == 2
    else:
        assert len(calls) <= 2 * len(K2_CANDIDATES)


# -- strong noise bound -----------------------------------------------


def test_strong_noise_zero_for_no_noise():
    record = check_strong_noise_bound(
        family(np.diag([1.0, 2.0])).at(T_GRID), hat_basis([1.0, 2.0])
    )
    l1, l2 = record.constants["L1"], record.constants["L2"]
    assert l1 == 0.0 and l2 == 0.0
    assert record.status == EMPIRICAL


def test_strong_noise_scalar_noise_bound_holds():
    lam = [1.0, 2.0, 4.0]
    c = 0.6
    ops = family(np.diag(lam), [c * np.eye(3)])
    record = check_strong_noise_bound(ops.at(T_GRID), hat_basis(lam))
    l1, l2 = record.constants["L1"], record.constants["L2"]
    rng = np.random.default_rng(0)
    a = ops.A.at(0.0)
    for _ in range(300):
        x = rng.standard_normal(3)
        lhs = np.linalg.norm(c * x)
        rhs = l1 * np.linalg.norm(a @ x) + l2 * np.linalg.norm(x)
        assert lhs <= rhs * (1 + 1e-6) + 1e-9


# -- weak drift bound -------------------------------------------------


def test_weak_A_bound_hat_operator():
    lam = [1.0, 2.0, 5.0]
    record = check_weak_A_bound(family(np.diag(lam)).at(T_GRID), hat_basis(lam))
    beta, gamma = record.constants["beta"], record.constants["gamma"]
    assert beta == pytest.approx(1.0, abs=1e-9)
    assert gamma == pytest.approx(0.0, abs=1e-9)
    assert record.status == CERTIFIED


def test_weak_A_bound_shifted_hat_operator():
    lam = np.array([1.0, 2.0, 5.0])
    record = check_weak_A_bound(family(np.diag(lam) + np.eye(3)).at(T_GRID), hat_basis(lam))
    beta, gamma = record.constants["beta"], record.constants["gamma"]
    assert beta == pytest.approx(1.0, abs=1e-9)
    assert gamma == pytest.approx(1.0, abs=1e-9)


def test_weak_A_bound_recheck_random():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    record = check_weak_A_bound(family(a).at(T_GRID), hat_basis(np.arange(1.0, 5.0)))
    assert record.status == CERTIFIED
    assert record.slack >= CERT_EIG_TOL


def _weak_A_bound_over_the_whole_stack(ev, basis):
    """check_weak_A_bound's beta search over every matrix of the grid,
    repeated ones included: the reference its search must match."""
    d = np.diag(basis.hat_eigenvalues)
    lam1 = float(basis.hat_eigenvalues[0])
    s = sym(ev.drift)
    scale = float(operator_norm_v_vprime(s, basis).max())
    best = None
    for beta in np.unique(np.concatenate([np.linspace(0.0, max(scale, 1.0) * 1.5, 61), [1.0]])):
        gamma = max(0.0, float(np.linalg.eigvalsh(sym(s - beta * d))[:, -1].max()),
                    float(np.linalg.eigvalsh(sym(-s - beta * d))[:, -1].max()))
        score = gamma + lam1 * beta
        if best is None or score < best[0] - 1e-12 or (
            abs(score - best[0]) <= 1e-12 and beta < best[1]
        ):
            best = (score, float(beta), gamma)
    _, beta, gamma = best
    shifted = beta * d + gamma * np.eye(basis.dim)
    worst = min(np.linalg.eigvalsh(sym(shifted - s))[:, 0].min(),
                np.linalg.eigvalsh(sym(shifted + s))[:, 0].min())
    return beta, gamma, float(worst)


def test_weak_A_bound_of_a_repeated_matrix_is_that_of_the_matrix():
    """A constant family's grid stack repeats one matrix: five copies give
    exactly the beta, gamma and slack of the one."""
    system = make_coupled_torus()
    one = check_weak_A_bound(system.ops.at(np.array([0.0])), system.basis)
    five = check_weak_A_bound(system.ops.at(np.linspace(0.0, 1.0, 5)), system.basis)
    assert (five.constants, five.slack) == (one.constants, one.slack)
    assert five.status == one.status == CERTIFIED


def test_weak_A_bound_on_a_time_dependent_family_matches_the_whole_stack():
    """Noise tables that jump at t = 0.5 and t = 1 give three distinct drifts
    on a five-time grid, each with its own (beta, gamma); the search over
    them matches the one over all five."""
    tables = np.zeros((3, 2, 2, 2))
    for j, (diag, coupling) in enumerate(((0.2, 0.1), (0.6, 0.0), (0.3, 0.4))):
        tables[j] = diag * np.eye(2)
        tables[j, 0, 0, 1] = tables[j, 1, 1, 0] = coupling
    system = make_coupled_torus(modes=3, h_tables=tables, h_time_grid=[0.0, 0.5, 1.0])
    ev = system.ops.at(np.linspace(0.0, 1.0, 5))
    assert len(np.unique(sym(ev.drift), axis=0)) == 3
    record = check_weak_A_bound(ev, system.basis)
    beta, gamma = record.constants["beta"], record.constants["gamma"]
    assert (beta, gamma, record.slack) == _weak_A_bound_over_the_whole_stack(ev, system.basis)


# -- first-order noise bound ------------------------------------------


def test_first_order_scalar_noise():
    ops = family(np.diag([2.0, 3.0]), [0.4 * np.eye(2)])
    record = check_first_order_bound(ops.at(T_GRID), hat_basis([2.0, 3.0]), T_GRID)
    tables = record.constants["C1k"]
    assert tables[0, 0] == pytest.approx(0.4, abs=1e-9)
    assert record.status == CERTIFIED


def test_first_order_diagonal_closed_form():
    ops = family(np.diag([1.0, 2.0, 4.0]), [np.diag([0.1, 0.5, 0.3])])
    tables = check_first_order_bound(ops.at(T_GRID), hat_basis([1.0, 2.0, 4.0]),
                                     T_GRID).constants["C1k"]
    assert tables[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_first_order_sampled_ratios_never_exceed():
    rng = np.random.default_rng(4)
    a = sym(rng.standard_normal((4, 4))) + 5.0 * np.eye(4)  # positive definite
    b = rng.standard_normal((4, 4))
    ops = family(a, [0.1 * b])
    record = check_first_order_bound(ops.at(T_GRID), hat_basis(np.arange(1.0, 5.0)), T_GRID)
    tables = record.constants["C1k"]
    assert record.status == CERTIFIED
    s = sym(ops.A.at(0.0) - 0.5 * (0.1 * b).T @ (0.1 * b))
    for _ in range(2000):
        x = rng.standard_normal(4)
        lhs = abs(x @ s @ (0.1 * b) @ x)
        rhs = tables[0, 0] * abs(x @ s @ x)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_first_order_indefinite_falls_back_to_empirical():
    ops = family(np.diag([-1.0, 2.0]), [0.3 * np.eye(2)])
    record = check_first_order_bound(ops.at(T_GRID), hat_basis([1.0, 2.0]), T_GRID)
    assert record.status == EMPIRICAL


def test_first_order_fails_where_no_sampled_form_bounds_the_mixed_one():
    """At t = 0.5, sym(Ã) = diag(1e-15, -1e-15) is too small for any sampled
    <S x, x> to clear 1e-12, while the skew noise keeps <S x, B x> nonzero:
    no C1 holds there, so the record fails and names that time alone."""
    c = 1e-3
    shift = 0.5 * c**2 * np.eye(2)  # cancels the Ito correction B^T B / 2
    a = MatrixPath(np.stack([np.diag([1.0, 2.0]), np.diag([1e-15, -1e-15])]) + shift,
                   np.array([0.0, 0.5]))
    ops = OperatorFamily(A=a, Bs=(MatrixPath(c * np.array([[0.0, 1.0], [-1.0, 0.0]])),))
    times = np.array([0.0, 0.5])
    record = check_first_order_bound(ops.at(times), hat_basis([1.0, 2.0]), times)
    tables = record.constants["C1k"]
    assert record.status == FAILED and record.notes.endswith("t = [0.5]")
    assert np.isfinite(tables[0, 0]) and tables[0, 1] == np.inf


def _sqrt_and_inverse(s, iterations=60):
    """Denman-Beavers iteration: (S^{1/2}, S^{-1/2}) of a definite S."""
    y, z = s, np.eye(len(s))
    for _ in range(iterations):
        y, z = 0.5 * (y + np.linalg.inv(z)), 0.5 * (z + np.linalg.inv(y))
    return y, z


def test_first_order_mixed_times_match_per_time_roots():
    """sym(Ã(t)) turns definite partway through the grid: every definite time
    gets the exact constant, and the sampled ones flag the record."""
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    grid = np.linspace(0.0, 1.0, 5)
    skew = rng.standard_normal((3, 3))
    a = np.stack([q @ np.diag([4.0 * t - 1.5, 2.0, 5.0]) @ q.T + 0.3 * (skew - skew.T)
                  for t in grid])
    b = rng.standard_normal((2, 3, 3))
    ops = OperatorFamily(
        A=MatrixPath(a, grid, "linear"),
        Bs=(MatrixPath(np.stack([0.2 * b[0], 0.4 * b[0]]), grid[[0, -1]], "linear"),
            MatrixPath(0.1 * b[1])),
    )
    times = np.linspace(0.0, 1.0, 9)
    record = check_first_order_bound(ops.at(times), hat_basis([1.0, 2.0, 3.0]), times)
    tables = record.constants["C1k"]
    assert record.status == EMPIRICAL and not record.constants["certified"]
    s_all = sym(assemble_tilde_A(ops, times))
    definite = np.linalg.eigvalsh(s_all)[:, 0] > 1e-12
    assert 0 < definite.sum() < len(times)
    for j in np.flatnonzero(definite):
        s = s_all[j]
        root, root_inv = _sqrt_and_inverse(s)
        np.testing.assert_allclose(root @ root, s, rtol=1e-12, atol=1e-12)
        for k, bp in enumerate(ops.Bs):
            want = np.linalg.norm(sym(root @ bp.at(times[j]) @ root_inv), ord=2)
            assert tables[k, j] == pytest.approx(want, rel=1e-12)
    assert np.all(tables[:, ~definite] > 0.0)


# -- K6 ---------------------------------------------------------------


def test_k6_zero_for_constant_family():
    ops = family(np.diag([1.0, 2.0]))
    assert np.allclose(k6_table(ops, hat_basis([1.0, 2.0]), [0.0, 0.5]), 0.0)


def test_k6_linear_ramp():
    """A(t) = (1+t) hat_A has K6 = 1 in the V -> V' norm."""
    lam = np.array([1.0, 3.0])
    grid = np.linspace(0.0, 1.0, 21)
    stack = np.stack([(1.0 + t) * np.diag(lam) for t in grid])
    ops = OperatorFamily(A=MatrixPath(stack, grid, "linear"), Bs=())
    k6 = k6_table(ops, hat_basis(lam), np.array([0.25, 0.75]))
    assert np.allclose(k6, 1.0, atol=1e-4)


def test_k6_piecewise_constant_is_zero():
    grid = np.array([0.0, 0.5, 1.0])
    stack = np.stack([k * np.eye(2) for k in range(3)])
    ops = OperatorFamily(A=MatrixPath(stack, grid, "constant"), Bs=())
    k6 = k6_table(ops, hat_basis([1.0, 2.0]), np.array([0.25, 0.75]))
    assert np.allclose(k6, 0.0)


def test_k6_and_ac1_see_a_linear_noise_under_a_constant_drift():
    """B(t) = b(t) I, b from 0.1 to 0.9 on [0, 1]: |Ã'(t)| = 0.8 b(t), integral 0.4."""
    b = MatrixPath(np.stack([0.1 * np.eye(2), 0.9 * np.eye(2)]), np.array([0.0, 1.0]), "linear")
    ops = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(b,))
    basis = hat_basis([1.0, 1.0])
    times = np.array([0.25, 0.5, 0.75])
    assert np.allclose(k6_table(ops, basis, times), 0.8 * (0.1 + 0.8 * times), atol=1e-8)
    grid = np.linspace(0.0, 1.0, 5)
    record = check_differentiability(k6_table(ops, basis, grid), grid)
    assert record.constants["k6_integral"] == pytest.approx(0.4, abs=1e-5)


# -- full report ------------------------------------------------------


def test_check_all_produces_every_record():
    sys = make_torus_heat_gradient_noise(dim=12)
    report = check_all(sys.ops, sys.basis, np.array([0.0]))
    assert list(report.records) == ["ac0", "ac1", "ac2", "ac3", "ac4", "ac5", "ac6", "ac7"]
    assert report.records["ac3"].status == CERTIFIED
    d = report.to_dict()
    assert "ac0" in d and "t_grid" in d
    assert d["k6"] == report.k6.tolist() == [0.0]


def _piecewise_coupled_torus():
    """Two noises whose tables jump at t = 0.5 and t = 1, constant between nodes."""
    tables = np.zeros((3, 2, 2, 2))
    for j, t in enumerate((0.0, 0.5, 1.0)):
        tables[j] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
        tables[j, 0, 0, 1] = tables[j, 1, 1, 0] = 0.2 * t
    return make_coupled_torus(modes=3, h_tables=tables, h_time_grid=[0.0, 0.5, 1.0])


@pytest.mark.parametrize("make", [make_diagonal, _piecewise_coupled_torus])
def test_check_all_evaluates_each_path_once(monkeypatch, make):
    """Every checker reads one evaluation of the family on the grid, and a
    family that is constant between nodes has no Ã' to difference."""
    system = make()
    calls = Counter()
    at = MatrixPath.at

    def counted(path, t):
        calls[id(path)] += 1
        return at(path, t)

    monkeypatch.setattr(MatrixPath, "at", counted)
    check_all(system.ops, system.basis, np.linspace(0.0, 1.0, 5))
    paths = (system.ops.A,) + system.ops.Bs
    assert system.ops.interpolation == "constant"
    assert dict(calls) == {id(p): 1 for p in paths}


_EXTREMAL_CHECKERS = ("check_boundedness", "check_coercivity", "check_strong_noise_bound",
                      "check_weak_A_bound")


@pytest.mark.parametrize("make, runs", [(make_diagonal, 1), (_piecewise_coupled_torus, 3)])
def test_check_all_hands_extremal_checkers_one_matrix_per_run(monkeypatch, make, runs):
    """ac0, ac2, ac5 and ac6 take only a max or min over the grid, so each
    reads one matrix per run: one for a constant family, and one per node
    interval of the piecewise family's five-time grid (t = 1 is a node)."""
    system = make()
    seen = {}
    for name in _EXTREMAL_CHECKERS:
        def recorded(ev, *args, _name=name, _checker=getattr(assumptions, name), **kwargs):
            seen[_name] = len(ev.drift)
            return _checker(ev, *args, **kwargs)

        monkeypatch.setattr(assumptions, name, recorded)
    check_all(system.ops, system.basis, np.linspace(0.0, 1.0, 5))
    assert seen == dict.fromkeys(_EXTREMAL_CHECKERS, runs)


def test_k6_of_a_piecewise_constant_family_takes_no_norm(monkeypatch):
    system = _piecewise_coupled_torus()

    def no_norm(*args):
        raise AssertionError("k6_table took a V -> V' norm")

    monkeypatch.setattr(assumptions, "operator_norm_v_vprime", no_norm)
    k6 = k6_table(system.ops, system.basis, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(k6, np.zeros(5))


#: registered systems whose default sym(Ã) is only semidefinite (the torus
#: constant mode), so ac7 samples its constant there
_SEMIDEFINITE = {"torus-heat-scalar", "torus-heat-gradient", "coupled-torus"}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_default_certificate_statuses(name):
    """Every certificate of a registered system's defaults is certified, but
    the sampled ac5, and ac7 where sym(Ã) is not definite."""
    system = make_system(name)
    report = check_all(system.ops, system.basis, np.linspace(0.0, 1.0, 5))
    want = dict.fromkeys(report.records, CERTIFIED)
    want["ac5"] = EMPIRICAL
    if name in _SEMIDEFINITE:
        want["ac7"] = EMPIRICAL
    assert {key: rec.status for key, rec in report.records.items()} == want


def test_ladder_stability_torus_gradient():
    """Certified constants move by < 5% when the truncation doubles."""
    constants = []
    for dim in (64, 128):
        system = make_torus_heat_gradient_noise(dim=dim)
        records = check_all(system.ops, system.basis, (0.0,)).records
        constants.append([records["ac2"].constants["lambda"], records["ac4"].constants["K2"],
                          records["ac6"].constants["beta"], records["ac6"].constants["gamma"]])
    np.testing.assert_allclose(constants[1], constants[0], rtol=0.05, atol=1e-9)


def test_certificate_tightness_reported():
    """Shrinking a certified constant by 1% breaks its certificate."""
    lam = [1.0, 2.0]
    c = 0.7
    ops = family(0.5 * ALPHA * np.diag(lam), [c * np.eye(2)])
    record = check_coercivity(ops.at(T_GRID), hat_basis(lam))
    value = record.constants["lambda"]
    shrunk = check_coercivity(ops.at(T_GRID), hat_basis(lam)).constants["lambda"]
    # certificate with 0.99 * lambda must lose semidefiniteness
    d = np.diag(np.asarray(lam, dtype=float))
    cert = (ALPHA * np.diag(lam) + 0.99 * value * np.eye(2)
            - ALPHA * d - (c * np.eye(2)).T @ (c * np.eye(2)))
    assert np.linalg.eigvalsh(cert).min() < 0 or record.slack is not None
