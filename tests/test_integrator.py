"""Time-stepping schemes, conversion, and ensemble mechanics."""
import numpy as np
import pytest

from spdelab.brownian import uniform_grid
from spdelab.integrator import (
    BlowUpError,
    SchemeError,
    integrate,
    integrate_ensemble,
    measure_nonlinearity_witness,
    strat_to_ito,
)
from spdelab.operators import MatrixPath, OperatorFamily
from spdelab.systems import _commuting, make_diagonal, make_system, torus_basis


def test_strat_to_ito_uses_operator_square():
    """Drift correction is B @ B, not B^T @ B."""
    a = np.zeros((2, 2))
    b = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: b @ b = 0
    ops = OperatorFamily(A=MatrixPath(a), Bs=(MatrixPath(b),))
    ito = strat_to_ito(ops)
    assert np.allclose(ito.A.at(0.0), 0.0)  # b^T b would give diag(0, 1)


def test_strat_to_ito_diagonal():
    ops = OperatorFamily(
        A=MatrixPath(np.diag([1.0, 2.0])), Bs=(MatrixPath(np.diag([0.4, 0.6])),)
    )
    ito = strat_to_ito(ops)
    assert np.allclose(np.diag(ito.A.at(0.0)), [1.0 - 0.08, 2.0 - 0.18])


def test_deterministic_decay_matches_exponential():
    """Noise-free linear drift integrates to exp(-a t) within O(dt)."""
    sys = make_diagonal([1.0, 2.0], np.zeros((1, 2)))
    grid = uniform_grid(1.0, 1e-4)
    for scheme in ("euler-maruyama", "milstein", "drift-implicit"):
        traj = integrate(sys, scheme, grid, seed=0)
        expected = np.exp(-np.array([1.0, 2.0]))
        assert np.allclose(traj.states[-1], expected, rtol=1e-3)


def test_drift_implicit_stable_for_stiff_drift():
    """Implicit stepping keeps a stiff decaying system bounded at large dt."""
    sys = make_diagonal([1.0, 1000.0], np.zeros((1, 2)))
    grid = uniform_grid(1.0, 0.1)  # dt * a = 100, explicit would explode
    traj = integrate(sys, "drift-implicit", grid, seed=0)
    assert np.all(np.abs(traj.states) <= 1.0 + 1e-12)


def test_milstein_rejected_for_noncommuting_noise():
    sys = make_system("coupled-torus", modes=3)
    assert not sys.commuting_noise
    grid = uniform_grid(0.1, 0.01)
    with pytest.raises(SchemeError):
        integrate(sys, "milstein", grid, seed=0)


def test_milstein_rejected_when_noise_stops_commuting_after_t0():
    """Noise tables h(t) = 0.3(1 + t/2) I + 0.2 t e_m e_{m+1}^T commute at t=0 only."""
    nodes = np.linspace(0.0, 1.0, 11)
    tables = np.zeros((len(nodes), 2, 2, 2))
    for j, t in enumerate(nodes):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] = 0.2 * t
    sys = make_system("coupled-torus", n_components=2, modes=16,
                      h_tables=tables, h_time_grid=nodes)
    b0, b1 = (bp.at(1.0) for bp in sys.ops.Bs)
    assert np.linalg.norm(b0 @ b1 - b1 @ b0) > 0.1
    assert not sys.commuting_noise
    with pytest.raises(SchemeError):
        integrate(sys, "milstein", uniform_grid(0.1, 0.01), seed=0)
    with pytest.raises(SchemeError):
        integrate_ensemble(sys, "milstein", uniform_grid(0.1, 0.01), 0, 2)


def test_commuting_checks_linear_paths_between_nodes():
    """Linear paths that commute at both nodes but not at the midpoint."""
    e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    nodes = np.array([0.0, 1.0])
    b0 = MatrixPath(np.stack([e00, swap]), nodes, "linear")
    b1 = MatrixPath(np.stack([e11, np.eye(2) + swap]), nodes, "linear")
    for t in nodes:
        m0, m1 = b0.at(t), b1.at(t)
        assert np.allclose(m0 @ m1, m1 @ m0)
    mid0, mid1 = b0.at(0.5), b1.at(0.5)
    assert not np.allclose(mid0 @ mid1, mid1 @ mid0)
    ops = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(b0, b1))
    assert not _commuting(ops)
    # the same nodes held piecewise constant do commute everywhere
    held = OperatorFamily(A=MatrixPath(np.eye(2)),
                          Bs=(MatrixPath(b0.values, nodes), MatrixPath(b1.values, nodes)))
    assert _commuting(held)


def test_unknown_scheme_rejected():
    sys = make_diagonal([1.0], [[0.1]])
    with pytest.raises(SchemeError):
        integrate(sys, "heun", uniform_grid(1.0, 0.1), seed=0)


def test_ensemble_matches_single_paths():
    """Ensemble path p equals the single integration with stream p."""
    sys = make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])
    grid = uniform_grid(0.5, 1e-3)
    ens = integrate_ensemble(sys, "euler-maruyama", grid, seed=11, n_paths=3)
    for p in range(3):
        single = integrate(sys, "euler-maruyama", grid, seed=11, stream_id=p)
        assert np.array_equal(ens.states[p], single.states)


def test_trajectory_reconstruction():
    sys = make_diagonal([1.0], [[0.2]])
    grid = uniform_grid(0.2, 0.01)
    ens = integrate_ensemble(sys, "milstein", grid, seed=5, n_paths=2)
    traj = ens.trajectory(1)
    assert traj.path.stream_id == 1
    assert np.array_equal(traj.states, ens.states[1])


def test_blowup_isolation():
    """One exploding path is frozen and recorded; the others continue."""
    a = MatrixPath(np.array([[-800.0]]))  # huge growth rate: explicit overflow

    class Exploding:
        name = "exploding"
        ops = OperatorFamily(A=a, Bs=(MatrixPath(np.array([[0.0]])),))
        u0 = np.array([1.0])
        commuting_noise = True

    grid = uniform_grid(20.0, 0.1)
    ens = integrate_ensemble(Exploding(), "euler-maruyama", grid, seed=0, n_paths=2)
    assert ens.blowups  # overflow recorded
    for p in ens.blowups:
        assert np.all(np.isfinite(ens.states[p]))  # frozen, not propagated


def test_blowup_raises_on_single_path():
    a = MatrixPath(np.array([[-800.0]]))

    class Exploding:
        name = "exploding"
        ops = OperatorFamily(A=a, Bs=())
        u0 = np.array([1.0])
        commuting_noise = True

    with pytest.raises(BlowUpError):
        integrate(Exploding(), "euler-maruyama", uniform_grid(20.0, 0.1), seed=0)


def test_milstein_exact_for_pure_noise_single_step():
    """One Milstein step of du = -b u dw matches the second-order expansion."""
    b = 0.5
    sys = make_diagonal([0.0], [[b]])
    grid = uniform_grid(0.01, 0.01)
    traj = integrate(sys, "milstein", grid, seed=2)
    dw = traj.path.increments[0, 0]
    dt = 0.01
    # Ito drift for the registered family is a = b^2/2 (so the corrected
    # generator is zero); expansion of u0 exp(-(a + b^2/2)dt - b dw)
    u0 = 1.0
    expect = u0 * (1 - b**2 / 2 * dt - b * dw + 0.5 * b**2 * (dw**2 - dt))
    assert traj.states[-1, 0] == pytest.approx(expect, rel=1e-12)


def test_nonlinearity_witness_zero_without_F():
    sys = make_diagonal([1.0], [[0.1]])
    traj = integrate(sys, "euler-maruyama", uniform_grid(0.1, 0.01), seed=0)
    table, integral = measure_nonlinearity_witness(traj, sys.ops, sys.basis)
    assert np.all(table == 0.0)
    assert integral == 0.0


def test_nonlinearity_witness_quadratic_system():
    sys = make_system("nse-2d", modes_per_dim=2)
    traj = integrate(sys, "drift-implicit", uniform_grid(0.1, 0.01), seed=0)
    table, integral = measure_nonlinearity_witness(traj, sys.ops, sys.basis)
    assert np.all(np.isfinite(table))
    assert integral >= 0.0
