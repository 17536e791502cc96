"""Time-stepping schemes, conversion, and ensemble mechanics."""
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spdelab.brownian import (
    coarsen_increments,
    sample_brownian,
    sample_brownian_ensemble,
    uniform_grid,
)
import spdelab.integrator as integrator
from spdelab.integrator import (
    BlowUpError,
    SchemeError,
    _run_steps,
    integrate,
    integrate_ensemble,
    strong_convergence,
)
from spdelab.operators import LINEAR_BLOCK, MatrixPath, OperatorFamily, OperatorSegments
from spdelab.systems import (
    SystemSpec,
    make_diagonal,
    make_system,
    make_torus_heat_gradient_noise,
    torus_basis,
)


def test_stratonovich_drift_uses_operator_square():
    """Drift correction is B @ B, not B^T @ B."""
    a = np.zeros((2, 2))
    b = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: b @ b = 0
    ops = OperatorFamily(A=MatrixPath(a), Bs=(MatrixPath(b),), noise_form="stratonovich")
    assert np.allclose(ops.at(0.0).drift, 0.0)  # b^T b would give diag(0, 1)


def test_stratonovich_drift_diagonal():
    ops = OperatorFamily(
        A=MatrixPath(np.diag([1.0, 2.0])), Bs=(MatrixPath(np.diag([0.4, 0.6])),),
        noise_form="stratonovich",
    )
    # the family is diagonal, so its drift is held as the diagonal
    assert np.allclose(ops.at(0.0).drift, [1.0 - 0.08, 2.0 - 0.18])
    ito = OperatorFamily(A=ops.A, Bs=ops.Bs)
    assert np.array_equal(ito.at(0.0).drift, [1.0, 2.0])


def test_stratonovich_drift_keeps_the_jumps_of_every_noise():
    """B_0 jumps at t=0.5 and B_1 at t=0.25; the drift must follow both."""
    b0 = MatrixPath(np.stack([0.1 * np.eye(2), 0.5 * np.eye(2)]), np.array([0.0, 0.5]))
    b1 = MatrixPath(np.stack([0.2 * np.eye(2), 0.8 * np.eye(2), 0.8 * np.eye(2)]),
                    np.array([0.0, 0.25, 0.5]))
    a = np.diag([1.0, 2.0])
    ops = OperatorFamily(A=MatrixPath(a), Bs=(b0, b1), noise_form="stratonovich")
    assert np.array_equal(ops.nodes, [0.0, 0.25, 0.5])
    assert ops.interpolation == "constant"
    times = np.array([0.0, 0.1, 0.25, 0.3, 0.49, 0.5])
    for t, stacked in zip(times, ops.at(times).drift):
        want = a - 0.5 * (b0.at(t) @ b0.at(t) + b1.at(t) @ b1.at(t))
        # the family is diagonal: its drift is the diagonal of the matrix want
        np.testing.assert_allclose(ops.at(t).drift, np.diagonal(want), rtol=1e-15)
        assert np.array_equal(stacked, ops.at(t).drift)
    np.testing.assert_allclose(ops.at(0.3).drift, [0.675, 1.675], rtol=1e-15)


def _linear_drift_jumping_noise():
    """A linear from I to 2I on [0, 1]; B = 0, then I from t=0.5 (grid [0, 0.5])."""
    a = MatrixPath(np.stack([np.eye(2), 2.0 * np.eye(2)]), np.array([0.0, 1.0]), "linear")
    b = MatrixPath(np.stack([np.zeros((2, 2)), np.eye(2)]), np.array([0.0, 0.5]))
    return OperatorFamily(A=a, Bs=(b,), noise_form="stratonovich")


def test_stratonovich_drift_exact_between_nodes():
    """The Ito drift of a linear A under a jumping B is exact at every time,
    not interpolated between the family's nodes."""
    ops = _linear_drift_jumping_noise()  # diagonal: its drift is held as the diagonal
    np.testing.assert_allclose(ops.at(0.25).drift, 1.25 * np.ones(2), rtol=1e-15)
    times = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
    want = [(1.0 + t - 0.5 * (t >= 0.5)) * np.ones(2) for t in times]
    np.testing.assert_allclose(ops.at(times).drift, want, rtol=1e-15)


@pytest.mark.parametrize("scheme", ["euler-maruyama", "drift-implicit"])
def test_run_steps_uses_the_exact_drift(scheme):
    """Zero increments: the steps follow A(t) - B(t)^2 / 2 evaluated directly."""
    ops = _linear_drift_jumping_noise()
    grid = uniform_grid(0.5, 0.01)
    u0 = np.random.default_rng(1).standard_normal((3, 2))
    states, _ = _run_steps(ops.F, OperatorSegments(ops, grid), u0,
                           np.zeros((3, len(grid) - 1, 1)), scheme)
    # the reference reads the diagonal family's matrices
    dense = ops.dense()
    a, b = dense.A, dense.Bs[0]
    dt = float(grid[1] - grid[0])
    u = u0
    for j in range(len(grid) - 1):
        if scheme == "euler-maruyama":
            t = grid[j]
            u = u - dt * u @ (a.at(t) - 0.5 * b.at(t) @ b.at(t)).T
        else:
            t = grid[j + 1]
            u = np.linalg.solve(np.eye(2) + dt * (a.at(t) - 0.5 * b.at(t) @ b.at(t)), u.T).T
        np.testing.assert_allclose(states[:, j + 1], u, rtol=1e-12)


def test_run_steps_evaluates_no_matrix_path_per_step(monkeypatch):
    calls = []
    at = MatrixPath.at
    monkeypatch.setattr(MatrixPath, "at", lambda self, t: calls.append(t) or at(self, t))
    system = _coupled_piecewise()
    counts = []
    for scheme in ("euler-maruyama", "drift-implicit"):
        for T in (0.05, 0.2):
            grid = uniform_grid(T, 5e-3)
            calls.clear()
            inc = np.zeros((2, len(grid) - 1, system.ops.n_noise))
            _run_steps(system.ops.F, OperatorSegments(system.ops, grid),
                       np.ones((2, system.ops.dim)), inc, scheme)
            counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] == counts[3] > 0


def test_deterministic_decay_matches_exponential():
    """Noise-free linear drift integrates to exp(-a t) within O(dt)."""
    sys = make_diagonal([1.0, 2.0], np.zeros((1, 2)))
    grid = uniform_grid(1.0, 1e-4)
    for scheme in ("euler-maruyama", "milstein", "drift-implicit"):
        traj = integrate(sys, scheme, grid, seed=0)
        expected = np.exp(-np.array([1.0, 2.0]))
        assert np.allclose(traj.states[0, -1], expected, rtol=1e-3)


def test_drift_implicit_stable_for_stiff_drift():
    """Implicit stepping keeps a stiff decaying system bounded at large dt."""
    sys = make_diagonal([1.0, 1000.0], np.zeros((1, 2)))
    grid = uniform_grid(1.0, 0.1)  # dt * a = 100, explicit would explode
    traj = integrate(sys, "drift-implicit", grid, seed=0)
    assert np.all(np.abs(traj.states) <= 1.0 + 1e-12)


def test_milstein_rejected_for_noncommuting_noise():
    sys = make_system("coupled-torus", modes=3)
    assert not sys.ops.noise_commutes
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
    assert not sys.ops.noise_commutes
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
    assert not ops.noise_commutes
    # the same nodes held piecewise constant do commute everywhere
    held = OperatorFamily(A=MatrixPath(np.eye(2)),
                          Bs=(MatrixPath(b0.values, nodes), MatrixPath(b1.values, nodes)))
    assert held.noise_commutes


def test_milstein_rejected_for_noncommuting_noise_whatever_the_system_type():
    """B_0 = E_12 and B_1 = E_21 do not commute; the guard reads that off the family."""
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    family = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(MatrixPath(e12), MatrixPath(e12.T)))
    assert not np.allclose(e12 @ e12.T, e12.T @ e12)

    class DuckTyped:
        name = "duck"
        ops = family
        u0 = np.ones(2)

    spec = SystemSpec(name="spec", basis=torus_basis(2), ops=family, u0=np.ones(2))
    grid = uniform_grid(0.1, 0.01)
    for system in (spec, DuckTyped()):
        with pytest.raises(SchemeError):
            integrate_ensemble(system, "milstein", grid, 0, 2)


def test_unknown_scheme_rejected():
    sys = make_diagonal([1.0], [[0.1]])
    with pytest.raises(SchemeError):
        integrate(sys, "heun", uniform_grid(1.0, 0.1), seed=0)


def test_ensemble_matches_single_paths():
    """Ensemble path p equals the single integration with stream p, an ensemble
    of one that is integrate_ensemble's first_stream=p bit for bit, and is
    driven by stream p.  On coupled-torus they agree to rounding
    alone, a component passing near zero down to a few ulps of the path's largest
    |state|: BLAS may hand a one-row product to a matrix-vector kernel, which sums
    in another order."""
    grid = uniform_grid(0.5, 1e-3)
    for name in ("diagonal", "coupled-torus"):
        sys = make_system(name)
        ens = integrate_ensemble(sys, "euler-maruyama", grid, seed=11, n_paths=3)
        for p in range(3):
            single = integrate(sys, "euler-maruyama", grid, seed=11, stream_id=p)
            assert single.n_paths == 1
            alone = integrate_ensemble(sys, "euler-maruyama", grid, seed=11, n_paths=1,
                                       first_stream=p)
            assert single.states.tobytes() == alone.states.tobytes()
            assert single.increments.tobytes() == alone.increments.tobytes()
            if name == "diagonal":
                assert np.array_equal(ens.states[p], single.states[0])
            else:
                np.testing.assert_allclose(
                    ens.states[p], single.states[0], rtol=1e-13,
                    atol=16 * np.finfo(float).eps * np.abs(ens.states[p]).max())
            assert np.array_equal(ens.increments[p], single.increments[0])
            stream = sample_brownian(sys.ops.n_noise, grid, seed=11, stream_id=p)
            assert np.array_equal(ens.increments[p], stream.increments)


@pytest.mark.parametrize("scheme", integrator.SCHEMES)
@pytest.mark.parametrize("name", ["torus-heat-scalar", "nse-2d"])
def test_chunks_of_paths_match_one_batch(name, scheme):
    """_run_steps over chunks of >= 2 paths, each driven by the streams of its
    paths, gives the states of one whole batch bit for bit, on a dense N=64 noise
    and on a family with an F; the acceptance criteria step in such chunks.  So
    does integrate_ensemble over a chunk's paths, from first_stream=lo on."""
    system = make_system(name)
    ops = system.ops
    grid = uniform_grid(0.1, 1e-3)
    segs = OperatorSegments(ops, grid)
    u0 = np.random.default_rng(5).standard_normal((7, ops.dim))
    whole, _ = _run_steps(ops.F, segs, u0, sample_brownian_ensemble(ops.n_noise, grid, 5, 7),
                          scheme)
    ens = integrate_ensemble(system, scheme, grid, 5, 7)
    for lo, hi in ((0, 2), (2, 5), (5, 7)):
        inc = sample_brownian_ensemble(ops.n_noise, grid, 5, hi - lo, first_stream=lo)
        chunk, _ = _run_steps(ops.F, segs, u0[lo:hi], inc, scheme)
        assert chunk.tobytes() == whole[lo:hi].tobytes(), (lo, hi)
        part = integrate_ensemble(system, scheme, grid, 5, hi - lo, first_stream=lo)
        assert part.states.tobytes() == ens.states[lo:hi].tobytes(), (lo, hi)
        assert part.increments.tobytes() == ens.increments[lo:hi].tobytes(), (lo, hi)


def test_blowup_isolation():
    """One exploding path is frozen and recorded; the others continue."""
    a = MatrixPath(np.array([[-800.0]]))  # huge growth rate: explicit overflow

    class Exploding:
        name = "exploding"
        ops = OperatorFamily(A=a, Bs=(MatrixPath(np.array([[0.0]])),))
        u0 = np.array([1.0])

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

    with pytest.raises(BlowUpError):
        integrate(Exploding(), "euler-maruyama", uniform_grid(20.0, 0.1), seed=0)


def test_milstein_exact_for_pure_noise_single_step():
    """One Milstein step of du = -b u dw matches the second-order expansion."""
    b = 0.5
    sys = make_diagonal([0.0], [[b]])
    grid = uniform_grid(0.01, 0.01)
    traj = integrate(sys, "milstein", grid, seed=2)
    dw = traj.increments[0, 0, 0]
    dt = 0.01
    # Ito drift for the registered family is a = b^2/2 (so the corrected
    # generator is zero); expansion of u0 exp(-(a + b^2/2)dt - b dw)
    u0 = 1.0
    expect = u0 * (1 - b**2 / 2 * dt - b * dw + 0.5 * b**2 * (dw**2 - dt))
    assert traj.states[0, -1, 0] == pytest.approx(expect, rel=1e-12)


# -- the batched stepping core against per-path loops ------------------


def _loop_steps(ops, u0, times, increments, scheme):
    """One path, one step at a time, with the family evaluated at t (and, for
    drift-implicit, at the next grid time) and each scheme's own formula:
    states (J+1, N) of a 1-D state."""
    ops = ops.dense()
    dt = float(times[1] - times[0])
    states = [np.asarray(u0, dtype=float)]
    for j, dw in enumerate(increments):
        u, t = states[-1], float(times[j])
        bs = ops.at(t).Bs
        if scheme == "drift-implicit":
            out = u if ops.F is None else u - dt * ops.F(t, u)
        else:
            drift = u @ ops.at(t).drift.T
            out = u - dt * (drift if ops.F is None else drift + ops.F(t, u))
        for k, b in enumerate(bs):
            out = out - (u @ b.T) * dw[k]
        if scheme == "milstein":
            for k, bk in enumerate(bs):
                for l, bl in enumerate(bs):
                    area = dw[k] * dw[l]
                    if k == l:
                        area = area - dt
                    out = out + 0.5 * (u @ (bk @ bl).T) * area
        if scheme == "drift-implicit":
            out = out @ np.linalg.inv(np.eye(len(u)) + dt * ops.at(times[j + 1]).drift).T
        states.append(out)
    return np.array(states)


def _coupled_piecewise():
    """coupled-torus, N=8, two noises whose tables jump at 6 nodes over [0, 0.2]."""
    nodes = np.linspace(0.0, 0.2, 6)
    tables = np.zeros((len(nodes), 2, 2, 2))
    for j, t in enumerate(nodes / 0.2):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] += 0.2 * t
    return make_system("coupled-torus", n_components=2, modes=4,
                       h_tables=tables, h_time_grid=nodes)


def _linear_jump_system():
    """A linear from diag(1, 2) to diag(2, 4) on [0, 1]; diagonal B_0 jumps at
    t=0.1025, off the test grid, and B_1 is linear and off-diagonal."""
    nodes = np.array([0.0, 1.0])
    a = MatrixPath(np.stack([np.diag([1.0, 2.0]), np.diag([2.0, 4.0])]), nodes, "linear")
    b0 = MatrixPath(np.stack([np.diag([0.3, 0.2]), np.diag([0.5, 0.1]), np.diag([0.5, 0.1])]),
                    np.array([0.0, 0.1025, 1.0]))
    b1 = MatrixPath(np.stack([[[0.1, 0.2], [0.0, 0.1]], [[0.3, 0.0], [0.4, 0.2]]]), nodes,
                    "linear")
    ops = OperatorFamily(A=a, Bs=(b0, b1), noise_form="stratonovich")
    return SystemSpec(name="linear-jump", basis=torus_basis(2), ops=ops, u0=np.ones(2))


def _diagonal_piecewise(jumps=(0.0525, 0.1325)):
    """Diagonal A and two diagonal noises on [0, 1] whose values jump at `jumps`,
    by default off the test grid."""
    nodes = np.array([0.0, *jumps, 1.0])
    a = MatrixPath(np.array([[1.0, 4.0], [2.0, 3.0], [0.5, 5.0], [0.5, 5.0]]), nodes)
    b0 = MatrixPath(np.array([[0.3, 0.2], [0.5, -0.1], [0.2, 0.4], [0.2, 0.4]]), nodes)
    b1 = MatrixPath(np.array([-0.2, 0.3]))
    ops = OperatorFamily(A=a, Bs=(b0, b1), noise_form="stratonovich")
    return SystemSpec(name="diagonal-piecewise", basis=torus_basis(2), ops=ops, u0=np.ones(2))


def _diagonal_linear():
    """Diagonal A and B, linear on [0, 1]; B's first entry crosses zero."""
    nodes = np.array([0.0, 1.0])
    a = MatrixPath(np.array([[1.0, 2.0, 3.0], [2.0, 0.5, 6.0]]), nodes, "linear")
    b = MatrixPath(np.array([[0.4, 0.2, 0.1], [-0.4, 0.3, 0.2]]), nodes, "linear")
    ops = OperatorFamily(A=a, Bs=(b,), noise_form="stratonovich")
    return SystemSpec(name="diagonal-linear", basis=torus_basis(3), ops=ops, u0=np.ones(3))


_STEP_SYSTEMS = {
    "diagonal": lambda: make_system("diagonal"),
    # two commuting noises, so Milstein's dw_k dw_l terms with k != l are met
    "diagonal-two-noises": lambda: make_diagonal([1.0, 4.0, 9.0],
                                                 [[0.3, 0.2, 0.1], [-0.2, 0.1, 0.25]]),
    "diagonal-piecewise": _diagonal_piecewise,
    # jumps on the test grid: a step that ends on a node reads the new segment
    "diagonal-on-grid": lambda: _diagonal_piecewise((0.05, 0.13)),
    "diagonal-linear": _diagonal_linear,
    "coupled-piecewise": lambda: _coupled_piecewise(),
    "linear-jump": _linear_jump_system,
}
_DIAGONAL_FAMILIES = ("diagonal", "diagonal-two-noises", "diagonal-piecewise",
                      "diagonal-on-grid", "diagonal-linear")
_STEP_CASES = [(f, s) for f in _DIAGONAL_FAMILIES if f != "diagonal-two-noises"
               for s in integrator.SCHEMES]
_STEP_CASES += [(f, s) for f in ("coupled-piecewise", "linear-jump")
                for s in ("euler-maruyama", "drift-implicit")]
_STEP_CASES += [("diagonal-two-noises", "milstein")]


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(_STEP_CASES), n_paths=st.integers(1, 7),
       seed=st.integers(0, 2**16), random_start=st.booleans())
@example(case=("linear-jump", "drift-implicit"), n_paths=2, seed=117, random_start=True)
@example(case=("diagonal-two-noises", "milstein"), n_paths=3, seed=5, random_start=True)
@example(case=("diagonal-piecewise", "milstein"), n_paths=2, seed=8, random_start=True)
@example(case=("diagonal-linear", "drift-implicit"), n_paths=3, seed=9, random_start=False)
@example(case=("diagonal-on-grid", "drift-implicit"), n_paths=2, seed=10, random_start=False)
@example(case=("diagonal-on-grid", "milstein"), n_paths=2, seed=11, random_start=True)
@example(case=("diagonal-on-grid", "euler-maruyama"), n_paths=2, seed=12, random_start=True)
def test_batched_steps_match_per_path_loop(case, n_paths, seed, random_start):
    """_run_steps on a (P, N) batch equals P single-path loops.

    The batched and the 1-D solve may round the last bit apart, so a
    component passing near zero is compared down to a few ulps of the
    path's largest |state|.
    """
    family, scheme = case
    system = _STEP_SYSTEMS[family]()
    grid = uniform_grid(0.2, 5e-3)
    inc = sample_brownian_ensemble(system.ops.n_noise, grid, seed, n_paths)
    rng = np.random.default_rng(seed)
    u0 = (rng.standard_normal((n_paths, system.ops.dim)) if random_start
          else np.broadcast_to(system.u0, (n_paths, system.ops.dim)))
    states, blowups = _run_steps(system.ops.F, OperatorSegments(system.ops, grid), u0,
                                 inc, scheme)
    assert states.shape == (n_paths, len(grid), system.ops.dim)
    assert blowups == {}
    for p in range(n_paths):
        ref = _loop_steps(system.ops, u0[p], grid, inc[p], scheme)
        np.testing.assert_allclose(states[p], ref, rtol=1e-12,
                                   atol=16 * np.finfo(float).eps * np.abs(ref).max())


# -- a diagonal family steps by its diagonals: a scan without F, elementwise with F


def _exploding_diagonal():
    """Ito du = 5000 u dt - 100 u dw in mode 0, a decaying mode 1: an explicit step
    multiplies mode 0 by 21 to 81, so a path overflows after ~180 steps, at a time
    that depends on its noise, unless it starts at 0 or near enough to it."""
    ops = OperatorFamily(A=MatrixPath(np.array([-5000.0, 1.0])),
                         Bs=(MatrixPath(np.array([100.0, 0.5])),))
    return SystemSpec(name="exploding", basis=torus_basis(2), ops=ops, u0=np.ones(2))


def _frozen_loop(ops, u0, times, increments, scheme):
    """_loop_steps frozen at the last finite state, with the blow-up time or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        states = _loop_steps(ops, u0, times, increments, scheme)
    bad = ~np.isfinite(states).all(axis=-1)
    if not bad.any():
        return states, None
    i = int(bad.argmax())
    states[i:] = states[i - 1]
    return states, float(times[i])


@pytest.mark.parametrize("scheme", ["euler-maruyama", "milstein"])
def test_diagonal_scan_freezes_blown_up_paths_as_the_loop(scheme):
    """The scan blows up the paths the per-step loop does, at the same times,
    and freezes them at the same last finite states; the others run through.

    A step of 1 multiplies mode 0 by 1 + 1e30 - dw, more than any term the loop
    forms on the way (1e30 u), so both overflow at the same step: a path
    starting at u blows up once 1e30^k u passes the largest double."""
    ops = OperatorFamily(A=MatrixPath(np.array([-1e30, 0.5])),
                         Bs=(MatrixPath(np.array([1.0, 0.2])),))
    grid = uniform_grid(30.0, 1.0)
    u0 = np.array([[1.0, 1.0], [1e-100, 1.0], [0.0, 2.0], [-1e-250, -1.0], [1.0, 1.0]])
    inc = sample_brownian_ensemble(1, grid, 4, len(u0))
    segs = OperatorSegments(ops, grid)
    assert segs.diagonal
    states, blowups = _run_steps(None, segs, u0, inc, scheme)
    want = {}
    for p in range(len(u0)):
        ref, t = _frozen_loop(ops, u0[p], grid, inc[p], scheme)
        if t is not None:
            want[p] = t
        np.testing.assert_allclose(states[p], ref, rtol=1e-12)
    assert blowups == want == {0: 11.0, 1: 14.0, 3: 19.0, 4: 11.0}
    assert not np.signbit(states[2, :, 0]).any()


@pytest.mark.parametrize("scheme", integrator.SCHEMES)
@pytest.mark.parametrize("family", _DIAGONAL_FAMILIES + ("exploding",))
def test_diagonal_scan_is_the_same_for_any_chunk_and_step_block(monkeypatch, family, scheme):
    """The scan takes each path's row alone, so chunks of paths, one path
    included, give one batch's states and blow-ups bit for bit; and it
    multiplies in the order of the steps, so every _STEP_BLOCK does too."""
    system = _exploding_diagonal() if family == "exploding" else _STEP_SYSTEMS[family]()
    ops = system.ops
    grid = uniform_grid(2.0 if family == "exploding" else 0.2, 5e-3)
    segs = OperatorSegments(ops, grid)
    u0 = np.random.default_rng(6).standard_normal((7, ops.dim))
    inc = sample_brownian_ensemble(ops.n_noise, grid, 6, 7)
    whole, blowups = _run_steps(None, segs, u0, inc, scheme)
    assert bool(blowups) == (family == "exploding" and scheme != "drift-implicit")
    for lo, hi in ((0, 1), (1, 4), (4, 7)):
        chunk, chunk_blowups = _run_steps(None, segs, u0[lo:hi], inc[lo:hi], scheme)
        assert chunk.tobytes() == whole[lo:hi].tobytes(), (lo, hi)
        assert chunk_blowups == {p - lo: t for p, t in blowups.items() if lo <= p < hi}
    for block in (1, 3, 50):
        monkeypatch.setattr(integrator, "_STEP_BLOCK", block)
        states, got = _run_steps(None, segs, u0, inc, scheme)
        final, got_final = _run_steps(None, segs, u0, inc, scheme, final_only=True)
        assert states.tobytes() == whole.tobytes(), block
        assert final.tobytes() == whole[:, -1].tobytes(), block
        assert list(got.items()) == list(got_final.items()) == list(blowups.items()), block


def _reference_scan(c, g, u, out) -> None:
    """The (S, P, N) layout's scan that the (N, S, P) planes of _scan replace, kept as it
    was."""
    c = c[:, :, 0, :, None]
    g = g[:, None]
    np.multiply(c[:, :, 0], g[:, :, 0], out=out)
    for m in range(1, c.shape[2]):
        out += c[:, :, m] * g[:, :, m]
    out[0] *= u
    np.multiply.accumulate(out, axis=0, out=out)
    out += 0.0


def _reference_coefficients(dw, dt: float, scheme: str):
    """The (S, P, 1, M) rows that the (M, S, P) planes of _coefficients replace, kept as
    they were."""
    dw = dw.swapaxes(0, 1)[..., None, :]
    rows = [np.ones(dw.shape[:-1] + (1,)), dw]
    if scheme == "milstein":
        n = dw.shape[-1]
        area = dw[..., :, None] * dw[..., None, :] - dt * np.eye(n)
        rows.append(area.reshape(dw.shape[:-1] + (n * n,)))
    return np.concatenate(rows, axis=-1)


def _reference_scan_steps(segs, u0, increments, scheme):
    """_run_steps of a diagonal family without F, block by block through the reference
    kernels: the states (P, J+1, N) and the blow-ups."""
    times = segs.times
    dt = float(times[1] - times[0])
    u = np.array(u0, dtype=float)
    states = np.empty((len(u), len(times), u.shape[1]))
    states[:, 0] = u
    alive = np.ones(len(u), dtype=bool)
    blowups = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, stack, _ in integrator._stacks(segs, scheme, None, dt):
            for b in range(lo, hi, integrator._STEP_BLOCK):
                e = min(b + integrator._STEP_BLOCK, hi)
                block = states[:, b + 1:e + 1].swapaxes(0, 1)
                start = u
                _reference_scan(_reference_coefficients(increments[:, b:e], dt, scheme),
                                stack[b - lo:e - lo], u, block)
                u = integrator._freeze(block, start, alive, blowups, times[b + 1:e + 1])
    return states, blowups


@pytest.mark.parametrize("n_paths", [1, 7])
@pytest.mark.parametrize("scheme", integrator.SCHEMES)
@pytest.mark.parametrize("family", _DIAGONAL_FAMILIES + ("exploding",))
def test_diagonal_scan_matches_the_reference_kernels(family, scheme, n_paths):
    """The scan on (S, P) planes gives the states, final states and blow-ups of the
    reference kernels bit for bit; the last of 7 paths starts at 0, whose states stay +0.0."""
    system = _exploding_diagonal() if family == "exploding" else _STEP_SYSTEMS[family]()
    ops = system.ops
    grid = uniform_grid(2.0 if family == "exploding" else 0.2, 5e-3)
    segs = OperatorSegments(ops, grid)
    u0 = np.random.default_rng(8).standard_normal((n_paths, ops.dim))
    u0[6:] = 0.0  # the seventh path, if any
    inc = sample_brownian_ensemble(ops.n_noise, grid, 8, n_paths)
    want, want_blowups = _reference_scan_steps(segs, u0, inc, scheme)
    states, blowups = _run_steps(None, segs, u0, inc, scheme)
    final, final_blowups = _run_steps(None, segs, u0, inc, scheme, final_only=True)
    assert states.tobytes() == want.tobytes()
    assert final.tobytes() == want[:, -1].tobytes()
    assert list(blowups.items()) == list(final_blowups.items()) == list(want_blowups.items())
    assert bool(want_blowups) == (family == "exploding" and scheme != "drift-implicit")
    assert not np.signbit(states[6:]).any()


@pytest.mark.parametrize("scheme", integrator.SCHEMES)
@pytest.mark.parametrize("modes_per_dim", [2, 4])
def test_diagonal_steps_with_F_match_the_dense_steps(scheme, modes_per_dim):
    """With an F, a diagonal family steps one step at a time by elementwise
    products; on nse-2d they give the dense products' states bit for bit."""
    ops = make_system("nse-2d", modes_per_dim=modes_per_dim).ops
    grid = uniform_grid(0.05, 1e-3)
    u0 = np.random.default_rng(7).standard_normal((3, ops.dim))
    inc = sample_brownian_ensemble(ops.n_noise, grid, 7, 3)
    segs = OperatorSegments(ops, grid)
    assert segs.diagonal and ops.F is not None
    got, _ = _run_steps(ops.F, segs, u0, inc, scheme)
    want, _ = _run_steps(ops.F, OperatorSegments(ops.dense(), grid), u0, inc, scheme)
    assert got.tobytes() == want.tobytes()


# -- the drift-implicit step reads inv(I + dt A) prepared once per segment


def _variable_gradient_noise():
    """torus-heat-gradient with sigma(x) = 0.5 + 0.2 cos x: its Ito drift is not diagonal."""
    return make_torus_heat_gradient_noise(dim=7, sigma_fields=(lambda x: 0.5 + 0.2 * np.cos(x),))


_IMPLICIT_SYSTEMS = {
    "torus-heat-gradient": _variable_gradient_noise,
    "coupled-piecewise": _coupled_piecewise,
    "linear-jump": _linear_jump_system,
}


@pytest.mark.parametrize("family", list(_IMPLICIT_SYSTEMS))
def test_stored_inverse_matches_the_solve_it_replaces(family):
    """Each drift-implicit step equals solve(I + dt A(t + dt), u - sum_k B_k(t) u dw_k),
    with A and B_k evaluated directly, on drifts that are not diagonal."""
    ops = _IMPLICIT_SYSTEMS[family]().ops
    assert ops.F is None
    grid = uniform_grid(0.2, 5e-3)
    dt = float(grid[1] - grid[0])
    inc = sample_brownian_ensemble(ops.n_noise, grid, 3, 4)
    u0 = np.random.default_rng(3).standard_normal((4, ops.dim))
    states, _ = _run_steps(None, OperatorSegments(ops, grid), u0, inc, "drift-implicit")
    drifts = ops.at(grid).drift
    assert np.abs(drifts - drifts * np.eye(ops.dim)).max() > 1e-3
    for j in range(len(grid) - 1):
        u = states[:, j]
        rhs = u - sum((u @ b.T) * inc[:, j, k:k + 1] for k, b in enumerate(ops.at(grid[j]).Bs))
        mat = np.eye(ops.dim) + dt * ops.at(grid[j + 1]).drift
        want = np.linalg.solve(mat, rhs.T).T
        np.testing.assert_allclose(states[:, j + 1], want, rtol=1e-12,
                                   atol=16 * np.finfo(float).eps * np.abs(want).max())


@pytest.mark.parametrize("family, T", [
    ("diagonal", 0.2), ("coupled-piecewise", 0.2), ("linear-jump", 0.5),
    ("diagonal-linear", 0.5),
])
def test_implicit_inverse_is_built_once_per_segment(monkeypatch, family, T):
    """One batched preparation of inv(I + dt A) per segment, whatever the number
    of steps: one for a constant family, one per node of the 6-node family (the
    last holds t=T alone), one per LINEAR_BLOCK grid times of a linear family.
    A dense drift's preparation is one np.linalg.inv; a diagonal one takes none."""
    prepared, inverted = [], []
    prepare, inv = integrator._implicit_inverse, np.linalg.inv
    monkeypatch.setattr(integrator, "_implicit_inverse",
                        lambda drift, *args: prepared.append(drift.shape) or prepare(drift, *args))
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    system = _STEP_SYSTEMS[family]()
    for dt in (5e-3, 1e-3):
        grid = uniform_grid(T, dt)
        segs = OperatorSegments(system.ops, grid)
        prepared.clear()
        inverted.clear()
        _run_steps(None, segs, np.ones((2, system.ops.dim)),
                   np.zeros((2, len(grid) - 1, system.ops.n_noise)), "drift-implicit")
        want = {"diagonal": 1, "coupled-piecewise": 6}.get(family, -(-len(grid) // LINEAR_BLOCK))
        assert len(prepared) == len(segs.segments) == want
        assert len(inverted) == (0 if segs.diagonal else want)


def test_linear_family_holds_one_prepared_block_at_a_time(monkeypatch):
    """The inverses of a linear block are dropped once the steps leave it."""
    refs = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: (lambda out: refs.append(weakref.ref(out)) or out)(inv(a)))
    live = []

    def count_live(t, u):
        live.append(sum(r() is not None for r in refs))
        return np.zeros_like(u)

    ops = _linear_jump_system().ops
    ops = OperatorFamily(A=ops.A, Bs=ops.Bs, F=count_live, noise_form=ops.noise_form)
    grid = uniform_grid(0.5, 1e-3)
    _run_steps(ops.F, OperatorSegments(ops, grid), np.ones((2, 2)),
               np.zeros((2, len(grid) - 1, 2)), "drift-implicit")
    assert len(refs) == 4 and len(live) == len(grid) - 1
    assert max(live) == 1


def _singular_piecewise():
    """A = I, then -8 I on [0.5, 0.75), then I: with dt = 0.125, I + dt A is 0 there."""
    a = MatrixPath(np.array([[1.0, 1.0], [-8.0, -8.0], [1.0, 1.0], [1.0, 1.0]]),
                   np.array([0.0, 0.5, 0.75, 1.0]))
    return OperatorFamily(A=a, Bs=(MatrixPath(np.full(2, 0.1)),))


def _singular_linear():
    """A from 0 to -16 I on [0, 1]: with dt = 0.125, I + dt A(t) is 0 at t = 0.5 alone."""
    a = MatrixPath(np.array([[0.0, 0.0], [-16.0, -16.0]]), np.array([0.0, 1.0]), "linear")
    return OperatorFamily(A=a, Bs=(MatrixPath(np.full(2, 0.1)),))


@pytest.mark.parametrize("family", [
    _singular_piecewise, _singular_linear,
    pytest.param(lambda: _singular_piecewise().dense(), id="dense-piecewise"),
    pytest.param(lambda: _singular_linear().dense(), id="dense-linear"),
])
def test_singular_implicit_step_names_the_first_step_that_reads_it(family):
    """I + dt A(0.5) is singular; the step from t=0.375 is the first to read it,
    whether the family steps by its diagonals or densely."""
    ops = family()
    system = SystemSpec(name="singular", basis=torus_basis(2), ops=ops, u0=np.ones(2))
    grid = uniform_grid(1.0, 0.125)
    with pytest.raises(SchemeError, match=r"singular implicit solve at t=0\.375:"):
        integrate_ensemble(system, "drift-implicit", grid, seed=0, n_paths=2)
    inc = np.zeros((2, len(grid) - 1, ops.n_noise))
    with pytest.raises(SchemeError, match=r"at t=0\.375:"):
        _run_steps(None, OperatorSegments(ops, grid), np.ones((2, 2)), inc, "drift-implicit")


def test_singular_drift_at_time_zero_is_never_read():
    """A from -8 I to 0: I + dt A(0) is singular, but no drift-implicit step reads A(0)."""
    a = MatrixPath(np.stack([-8.0 * np.eye(2), np.zeros((2, 2))]), np.array([0.0, 1.0]), "linear")
    ops = OperatorFamily(A=a, Bs=(MatrixPath(0.1 * np.eye(2)),))
    grid = uniform_grid(1.0, 0.125)
    states, blowups = _run_steps(None, OperatorSegments(ops, grid), np.ones((2, 2)),
                                 np.zeros((2, len(grid) - 1, 1)), "drift-implicit")
    assert blowups == {} and np.all(np.isfinite(states))


def _loop_convergence(system, scheme, T, dt, seed, n_paths, levels):
    """The strong-error study path by path, as the CLI ran it before batching."""
    fine = uniform_grid(T, dt / 2**levels)
    errors = [[] for _ in range(levels)]
    dts = []
    for p in range(n_paths):
        ref = integrate(system, scheme, fine, seed, p)
        for lev in range(levels):
            factor = 2 ** (levels - lev)
            times = fine[::factor]
            states = _loop_steps(system.ops, system.u0, times,
                                 coarsen_increments(ref.increments[0], factor), scheme)
            errors[lev].append(np.linalg.norm(states[-1] - ref.states[0, -1]))
            if p == 0:
                dts.append(float(times[1] - times[0]))
    mean_errors = [float(np.mean(e)) for e in errors]
    slope = float(np.polyfit(np.log(dts), np.log(mean_errors), 1)[0])
    return {"scheme": scheme, "dts": dts, "mean_errors": mean_errors, "slope": slope}


@pytest.mark.parametrize("scheme", ["milstein", "euler-maruyama"])
def test_strong_convergence_matches_per_path_loop(scheme):
    system = make_system("diagonal")
    got = strong_convergence(system, scheme, 0.5, 0.05, seed=17, n_paths=5, levels=3)
    want = _loop_convergence(system, scheme, 0.5, 0.05, seed=17, n_paths=5, levels=3)
    assert list(got) == ["scheme", "dts", "mean_errors", "slope"]
    assert got["scheme"] == scheme
    assert got["dts"] == want["dts"]
    np.testing.assert_allclose(got["mean_errors"], want["mean_errors"], rtol=1e-12)
    np.testing.assert_allclose(got["slope"], want["slope"], rtol=1e-12)


def test_strong_convergence_rejects_fewer_than_two_levels():
    for levels in (-1, 0, 1):
        with pytest.raises(ValueError, match="levels"):
            strong_convergence(make_system("diagonal"), "milstein", 1.0, 0.1, 0, 2, levels)


class _Spiking:
    """du = -(1/2) u dw, with an infinite drift on states above 1.2 for t in (0.45, 0.55).

    Paths whose state is above 1.2 inside that window blow up; after it,
    stepping from their last finite state would be finite again.
    """

    name = "spiking"
    u0 = np.array([1.0])

    @staticmethod
    def _spike(t, u):
        if 0.45 < t < 0.55:
            return np.where(u > 1.2, np.inf, 0.0)
        return np.zeros_like(u)

    ops = OperatorFamily(A=MatrixPath(np.zeros((1, 1))),
                         Bs=(MatrixPath(np.array([[0.5]])),), F=_spike)


def test_blown_up_path_stays_frozen():
    grid = uniform_grid(1.0, 0.025)
    ens = integrate_ensemble(_Spiking(), "euler-maruyama", grid, seed=3, n_paths=6)
    assert ens.blowups == {1: 0.5}
    k = int(np.searchsorted(grid, 0.5))
    assert np.all(ens.states[1, k:] == ens.states[1, k - 1])
    assert not np.array_equal(ens.states[0, k:], ens.states[0, k - 1:-1])
    with pytest.raises(BlowUpError) as err:
        integrate(_Spiking(), "euler-maruyama", grid, seed=3, stream_id=1)
    assert err.value.t == 0.5


@pytest.mark.parametrize("final_only", [False, True])
def test_outputs_do_not_depend_on_the_step_block(monkeypatch, final_only):
    """Checking for blow-ups once per block of steps freezes the same paths at
    the same states, bit for bit, as checking after every step (block 1)."""
    grid = uniform_grid(1.0, 0.025)
    segs = OperatorSegments(_Spiking.ops, grid)
    incs = [sample_brownian_ensemble(1, grid, seed, n_paths=6) for seed in (1, 3)]
    runs = {}
    for block in (1, 3, integrator._STEP_BLOCK):
        monkeypatch.setattr(integrator, "_STEP_BLOCK", block)
        runs[block] = [_run_steps(_Spiking.ops.F, segs, np.ones((6, 1)), inc,
                                  "euler-maruyama", final_only) for inc in incs]
    per_step = runs.pop(1)
    assert [blowups for _, blowups in per_step] == [{5: 0.5}, {1: 0.5}]
    for block, got in runs.items():
        for (states, blowups), (want, want_blowups) in zip(got, per_step):
            assert list(blowups.items()) == list(want_blowups.items()), block
            assert states.tobytes() == want.tobytes(), block


@pytest.mark.parametrize("seed, path, blowup_by_factor", [
    (1, 5, {1: 0.5, 2: 0.55, 4: 0.6000000000000001}),  # on the fine grid first
    (1786, 3, {2: 0.55}),  # only on the level dt = 0.05
])
def test_strong_convergence_raises_when_one_path_blows_up(seed, path, blowup_by_factor):
    """Of 6 paths only `path` blows up, on the grids of these coarsening factors."""
    fine = uniform_grid(1.0, 0.025)
    inc = sample_brownian_ensemble(1, fine, seed, n_paths=6)
    for factor in (1, 2, 4):
        segs = OperatorSegments(_Spiking.ops, fine[::factor])
        _, blowups = _run_steps(_Spiking.ops.F, segs, np.ones((6, 1)),
                                coarsen_increments(inc, factor), "euler-maruyama")
        t = blowup_by_factor.get(factor)
        assert blowups == ({} if t is None else {path: t}), factor
    with pytest.raises(BlowUpError) as err:
        strong_convergence(_Spiking(), "euler-maruyama", 1.0, 0.1, seed, n_paths=6,
                           levels=2)
    assert err.value.t == min(blowup_by_factor.values())
    # the paths before it run through
    strong_convergence(_Spiking(), "euler-maruyama", 1.0, 0.1, seed, n_paths=path,
                       levels=2)
