"""Operator families, the corrected generator, and matrix utilities."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdelab.basis import SpectralBasis
from spdelab.brownian import uniform_grid
from spdelab.operators import (
    MatrixPath,
    OperatorFamily,
    OperatorSegments,
    TimeRangeError,
    assemble_tilde_A,
    commutator_C,
    operator_norm_v_vprime,
    spectrum,
    sym,
)


def test_sym_is_projection():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    s = sym(m)
    assert np.allclose(s, s.T)
    assert np.allclose(sym(s), s)


def test_matrix_path_constant():
    mp = MatrixPath(np.eye(3))
    assert mp.is_constant
    assert np.allclose(mp.at(0.0), np.eye(3))
    assert np.allclose(mp.at(17.0), np.eye(3))


def test_matrix_path_piecewise_constant():
    grid = np.array([0.0, 1.0, 2.0])
    stack = np.stack([k * np.eye(2) for k in range(3)])
    mp = MatrixPath(stack, grid, "constant")
    assert np.allclose(mp.at(0.5), 0.0)
    assert np.allclose(mp.at(1.5), np.eye(2))
    assert np.allclose(mp.at(2.0), 2 * np.eye(2))
    with pytest.raises(TimeRangeError):
        mp.at(3.0)


def test_matrix_path_linear_interpolation():
    grid = np.array([0.0, 2.0])
    stack = np.stack([np.zeros((2, 2)), 2 * np.eye(2)])
    mp = MatrixPath(stack, grid, "linear")
    assert np.allclose(mp.at(1.0), np.eye(2))


def test_assemble_tilde_A_hand_computed():
    """Corrected generator subtracts half the Gram of each noise operator."""
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = OperatorFamily(A=MatrixPath(a), Bs=(MatrixPath(b),))
    tilde = assemble_tilde_A(ops, 0.0)
    expected = a - 0.5 * b.T @ b  # b^T b = diag(0, 1)
    assert np.allclose(tilde, expected)
    assert np.allclose(sym(tilde), sym(expected))


def test_tilde_prime_constant_family_is_zero():
    ops = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=())
    assert np.allclose(ops.tilde_prime_at(0.3), 0.0)


def test_tilde_prime_linear_family():
    """A(t) = (1+t) I has derivative I."""
    grid = np.linspace(0.0, 1.0, 11)
    stack = np.stack([(1.0 + t) * np.eye(2) for t in grid])
    ops = OperatorFamily(A=MatrixPath(stack, grid, "linear"), Bs=())
    assert np.allclose(ops.tilde_prime_at(0.5), np.eye(2), atol=1e-6)


@pytest.mark.parametrize("constant_first", [False, True])
def test_tilde_prime_of_a_linear_noise_under_a_constant_drift(constant_first):
    """B(t) = b(t) I with b from 0.1 to 0.9 on [0, 1]: Ã' = -b b' I = -0.8 b(t) I.

    Neither the constant drift nor a constant noise listed first may hide it.
    """
    linear = MatrixPath(np.stack([0.1 * np.eye(2), 0.9 * np.eye(2)]),
                        np.array([0.0, 1.0]), "linear")
    bs = (MatrixPath(0.2 * np.eye(2)), linear) if constant_first else (linear,)
    ops = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=bs)
    assert ops.interpolation == "linear"
    assert np.allclose(ops.tilde_prime_at(0.5), -0.4 * np.eye(2), atol=1e-8)
    # at the ends the difference is one-sided, inside the span of the nodes
    times = np.array([0.0, 0.25, 1.0])
    stack = ops.tilde_prime_at(times)
    assert stack.shape == (3, 2, 2)
    expected = -0.8 * (0.1 + 0.8 * times)
    assert np.allclose(stack, expected[:, None, None] * np.eye(2), atol=1e-5)


def test_tilde_prime_clamps_to_the_span_every_path_covers():
    """A linear drift on [0, 2] beside a linear noise on [0, 1]."""
    a = MatrixPath(np.stack([np.eye(2), 3.0 * np.eye(2)]), np.array([0.0, 2.0]), "linear")
    b = MatrixPath(np.stack([np.zeros((2, 2)), np.eye(2)]), np.array([0.0, 1.0]), "linear")
    ops = OperatorFamily(A=a, Bs=(b,))
    assert np.array_equal(ops.nodes, [0.0, 1.0])
    # d/dt (1 + t - t^2 / 2) = 1 - t, one-sided at t = 1
    assert np.allclose(ops.tilde_prime_at(1.0), 0.0, atol=1e-5)
    assert np.allclose(ops.tilde_prime_at(0.5), 0.5 * np.eye(2), atol=1e-8)


def test_piecewise_constant_family_has_zero_tilde_prime():
    grid = np.array([0.0, 0.5, 1.0])
    b = MatrixPath(np.stack([k * np.eye(2) for k in range(3)]), grid)
    ops = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(b,))
    assert ops.interpolation == "constant"
    assert np.array_equal(ops.tilde_prime_at(np.array([0.25, 0.75])), np.zeros((2, 2, 2)))


def test_runs_follow_the_node_intervals():
    """A constant family is one run, a linear one a run per time, and a
    piecewise-constant one a run per node interval, as its segments are;
    the last node holds t = 1 alone."""
    times = np.linspace(0.0, 1.0, 9)
    const = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(MatrixPath(np.eye(2)),))
    assert const.runs(times).tolist() == [0, 9]
    ramp = MatrixPath(np.stack([np.eye(2), 2.0 * np.eye(2)]), np.array([0.0, 1.0]), "linear")
    assert OperatorFamily(A=ramp, Bs=()).runs(times).tolist() == list(range(10))
    b = MatrixPath(np.stack([k * np.eye(2) for k in range(3)]), np.array([0.0, 0.5, 1.0]))
    piecewise = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(b,))
    runs = piecewise.runs(times)
    assert runs.tolist() == [0, 4, 8, 9]
    assert runs.tolist() == OperatorSegments(piecewise, times).edges


def test_a_grid_time_rounded_just_below_a_node_reads_that_node():
    """0.3 and 0.6 of a uniform grid of [0, 1] lie an ulp or two below the
    nodes 0.3 and 0.6 of linspace(0, 1, 11).  They read the interval their
    node opens: a family whose tables jump at the 11 nodes has its runs
    start at every 10th grid index, at dt = 1e-2 and 1e-3 alike, and a
    linear path takes its node value there exactly."""
    nodes = np.linspace(0.0, 1.0, 11)
    stack = np.stack([k * np.eye(2) for k in range(11)])
    family = OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(MatrixPath(stack, nodes),))
    for dt, every in ((1e-2, 10), (1e-3, 100)):
        times = uniform_grid(1.0, dt)
        assert times[3 * every] < nodes[3] and times[6 * every] < nodes[6]
        runs = family.runs(times)
        assert runs.tolist() == list(range(0, len(times), every)) + [len(times)]
        assert runs.tolist() == OperatorSegments(family, times).edges
    ramp = MatrixPath(stack, nodes, "linear")
    times = uniform_grid(1.0, 1e-2)
    for j in (30, 60):
        assert np.array_equal(ramp.at(times[j]), stack[j // 10])
        assert np.array_equal(ramp.at(times[j:j + 1])[0], stack[j // 10])


_PATH_KINDS = ("constant", "piecewise", "linear")


def _random_path(kind, n, rng):
    if kind == "constant":
        return MatrixPath(rng.standard_normal((n, n)))
    # each path on its own grid: its own ends and interior nodes
    ends = [rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)]
    grid = np.unique(np.concatenate([ends, rng.uniform(*ends, size=rng.integers(0, 5))]))
    values = rng.standard_normal((len(grid), n, n))
    return MatrixPath(values, grid, "constant" if kind == "piecewise" else kind)


def _same_bits(stack, per_time):
    want = np.stack(per_time)
    assert stack.shape == want.shape
    assert np.array_equal(stack.view(np.uint64), want.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.sampled_from(_PATH_KINDS), min_size=1, max_size=4),
       st.sampled_from(("ito", "stratonovich")), st.integers(0, 2**32 - 1))
def test_stacked_evaluation_matches_scalar_calls_bit_for_bit(n, kinds, noise_form, seed):
    """ops.at, Ã, the commutator and Ã' on a time array equal the per-time calls."""
    rng = np.random.default_rng(seed)
    paths = [_random_path(kind, n, rng) for kind in kinds]
    ops = OperatorFamily(A=paths[0], Bs=tuple(paths[1:]), noise_form=noise_form)
    nodes = ops.nodes
    lo, hi = (0.0, 1.0) if nodes is None else (nodes[0], nodes[-1])
    times = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=6),
                            [] if nodes is None else nodes])
    for path in paths:
        _same_bits(path.at(times), [path.at(float(t)) for t in times])
    ev = ops.at(times)
    per_time = [ops.at(float(t)) for t in times]
    _same_bits(ev.drift, [e.drift for e in per_time])
    for k in range(ops.n_noise):
        _same_bits(ev.Bs[k], [e.Bs[k] for e in per_time])
    _same_bits(ev.tilde, [e.tilde for e in per_time])
    _same_bits(assemble_tilde_A(ops, times), [e.tilde for e in per_time])
    _same_bits(ev.tilde_sym, [sym(e.tilde) for e in per_time])
    _same_bits(commutator_C(ev), [commutator_C(e) for e in per_time])
    _same_bits(ops.tilde_prime_at(times), [ops.tilde_prime_at(float(t)) for t in times])
    basis = SpectralBasis(dim=n, hat_eigenvalues=np.arange(1.0, n + 1.0))
    norms = operator_norm_v_vprime(ev.tilde, basis)
    _same_bits(norms, [operator_norm_v_vprime(e.tilde, basis) for e in per_time])


def test_commutator_zero_for_commuting_family():
    ops = OperatorFamily(
        A=MatrixPath(np.diag([1.0, 2.0])), Bs=(MatrixPath(0.5 * np.eye(2)),)
    )
    assert np.allclose(commutator_C(ops.at(0.0)), 0.0)


def test_commutator_hand_computed():
    a = np.diag([1.0, 3.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    ops = OperatorFamily(A=MatrixPath(a), Bs=(MatrixPath(b),))
    ta = assemble_tilde_A(ops, 0.0)
    expected = b.T @ (ta @ b - b @ ta)
    assert np.allclose(commutator_C(ops.at(0.0)), expected)


def test_operator_norm_v_vprime_diagonal():
    """For diagonal M the V->V' norm is max |m_i| / lam_i."""
    basis = SpectralBasis(dim=3, hat_eigenvalues=np.array([1.0, 4.0, 9.0]))
    m = np.diag([2.0, 4.0, 18.0])
    assert operator_norm_v_vprime(m, basis) == pytest.approx(2.0)


def test_spectrum_sorted_and_orthonormal():
    rng = np.random.default_rng(3)
    m = sym(rng.standard_normal((6, 6)))
    vals, vecs = spectrum(m)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)
    assert np.allclose(m @ vecs, vecs @ np.diag(vals), atol=1e-10)


@given(st.floats(0.1, 3.0))
def test_tilde_quadratic_in_noise_scale(scale):
    """Scaling every B_k by s moves the correction quadratically."""
    a = np.diag([1.0, 2.0])
    b = np.array([[0.3, 0.1], [0.0, 0.2]])
    base = OperatorFamily(A=MatrixPath(a), Bs=(MatrixPath(b),))
    scaled = OperatorFamily(A=MatrixPath(a), Bs=(MatrixPath(scale * b),))
    t0 = assemble_tilde_A(base, 0.0)
    t1 = assemble_tilde_A(scaled, 0.0)
    assert np.allclose(t1 - a, scale**2 * (t0 - a), rtol=1e-10, atol=1e-12)


def _linear_diagonal_family():
    """A and B diagonal and linear on [0, 1], B's second entry crossing zero."""
    nodes = np.array([0.0, 1.0])
    a = MatrixPath(np.stack([np.diag([1.0, 0.0, 2.0]), np.diag([3.0, 0.0, -1.0])]), nodes,
                   "linear")
    b = MatrixPath(np.stack([np.diag([0.5, -0.2, 0.0]), np.diag([0.1, 0.4, 0.0])]), nodes,
                   "linear")
    return OperatorFamily(A=a, Bs=(b,), noise_form="stratonovich")


def test_diagonal_rule():
    """A family is diagonal when no node of A or of a B_k has an off-diagonal nonzero."""
    from spdelab.systems import make_system

    assert make_system("diagonal").ops.diagonal
    assert make_system("nse-2d").ops.diagonal
    assert _linear_diagonal_family().diagonal
    for name in ("torus-heat-scalar", "torus-heat-gradient", "coupled-torus"):
        assert not make_system(name).ops.diagonal, name
    # one off-diagonal entry at one node of one noise is enough
    values = np.stack([np.eye(2), np.eye(2)])
    values[1, 0, 1] = 1e-300
    moving = MatrixPath(values, np.array([0.0, 1.0]))
    assert not OperatorFamily(A=MatrixPath(np.eye(2)), Bs=(moving,)).diagonal
    assert OperatorFamily(A=MatrixPath(np.eye(2)), Bs=()).diagonal


@pytest.mark.parametrize("family", ["diagonal-zero", "nse-2d", "linear"])
def test_diagonal_segments_apply_as_the_dense_products(family):
    """Ã(t)u, sym(Ã(t))u and B_k(t)u of a diagonal family, applied elementwise,
    equal the dense products bit for bit, signed zeros included: on a
    generator that is 0 (tilde_eigs [0, 0, 0]), on nse-2d and on a linear
    family, from states with zeros and negative entries."""
    from spdelab.systems import make_system

    if family == "diagonal-zero":
        ops = make_system("diagonal", tilde_eigs=[0, 0, 0],
                          noise_coeffs=[[0.3, -0.2, 0.0], [0.0, 0.1, -0.4]]).ops
    elif family == "nse-2d":
        ops = make_system("nse-2d").ops
    else:
        ops = _linear_diagonal_family()
    times = np.linspace(0.0, 1.0, 11)
    structured = OperatorSegments(ops, times)
    dense = OperatorSegments(ops, times)
    dense.diagonal = False
    assert structured.diagonal
    rng = np.random.default_rng(2)
    states = rng.standard_normal((3, len(times), ops.dim))
    states[0, :, 1] = 0.0
    states[1, 2:5] = 0.0
    for symmetric in (False, True):
        got = structured.tilde_applied(states, symmetric)
        assert got.tobytes() == dense.tilde_applied(states, symmetric).tobytes()
    for got, want in zip(structured.noise_applied(states), dense.noise_applied(states)):
        assert got.tobytes() == want.tobytes()
    if family == "diagonal-zero":
        assert not np.signbit(structured.tilde_applied(states)).any()
