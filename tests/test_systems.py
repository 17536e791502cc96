"""Registered operator families and their continuum reductions."""
import tracemalloc

import numpy as np
import pytest

from spdelab.brownian import sample_brownian, uniform_grid
from spdelab.integrator import integrate
from spdelab.operators import assemble_tilde_A, sym
from spdelab.systems import (
    WITNESS_BLOCK_BYTES,
    WITNESS_SAMPLES,
    WITNESS_SEED,
    NSEGeometry,
    derivative_matrix,
    laplacian_matrix,
    list_systems,
    make_coupled_torus,
    make_diagonal,
    make_system,
    make_torus_heat_gradient_noise,
    make_torus_heat_scalar_noise,
    multiplication_matrix,
    torus_basis,
    torus_frequencies,
)

# -- diagonal oracle --------------------------------------------------


def test_diagonal_corrected_generator_is_exact():
    sys = make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])
    tilde = assemble_tilde_A(sys.ops, 0.0)
    assert sys.ops.diagonal and np.allclose(tilde, [1.0, 4.0, 9.0], atol=1e-14)


def test_diagonal_oracle_matches_integrator():
    """Numerical paths converge to the closed-form solution as dt shrinks."""
    sys = make_diagonal([1.0, 2.0], [[0.4, 0.3]])
    errs = []
    for dt in (1e-2, 1e-3, 1e-4):
        grid = uniform_grid(1.0, dt)
        traj = integrate(sys, "milstein", grid, seed=13)
        w = np.cumsum(np.insert(traj.increments[0], 0, 0.0, axis=0), axis=0)
        exact = sys.oracle.exact_states(sys.u0, grid, w)
        errs.append(np.abs(traj.states[0, -1] - exact[-1]).max())
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < 1e-4


def test_diagonal_quotient_limit():
    sys = make_diagonal([1.0, 4.0, 9.0], [[0.3, 0.2, 0.1]])
    assert sys.oracle.quotient_limit(np.array([1.0, 1.0, 1.0])) == 1.0
    assert sys.oracle.quotient_limit(np.array([0.0, 1.0, 1.0])) == 4.0
    with pytest.raises(ValueError):
        sys.oracle.quotient_limit(np.zeros(3))


def test_diagonal_pure_heat_modes():
    sys = make_diagonal([1.0, 4.0, 9.0], np.zeros((1, 3)))
    assert np.allclose(sys.ops.at(0.0).drift, [1.0, 4.0, 9.0])


# -- torus machinery --------------------------------------------------


def test_torus_frequencies_and_basis():
    assert np.array_equal(torus_frequencies(5), [0, 1, 1, 2, 2])
    b = torus_basis(5)
    assert np.array_equal(b.hat_eigenvalues, [1, 2, 2, 5, 5])


def test_derivative_matrix_is_skew_and_correct():
    d = derivative_matrix(5)
    assert np.allclose(d, -d.T)
    # d/dx cos(2x) = -2 sin(2x): column of cos2 (index 3) hits sin2 (index 4)
    assert d[4, 3] == -2.0
    assert d[3, 4] == 2.0


def test_multiplication_matrix_constant_is_identity_multiple():
    m = multiplication_matrix(lambda x: np.full_like(x, 1.7), 6)
    assert np.allclose(m, 1.7 * np.eye(6), atol=1e-12)


def test_multiplication_matrix_cosine_shifts_modes():
    """Multiplying by cos(x) couples neighbouring frequencies only."""
    m = multiplication_matrix(np.cos, 7)
    assert np.allclose(m, m.T, atol=1e-12)
    # constant * cos x = cos x: entry (cos1, const) = 1/sqrt(2)
    assert m[1, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert m[5, 0] == pytest.approx(0.0, abs=1e-12)  # no coupling to cos3


def test_laplacian_matrix_diagonal():
    assert np.allclose(laplacian_matrix(5), np.diag([0.0, 1, 1, 4, 4]))


# -- torus heat with scalar noise -------------------------------------


def test_scalar_noise_corrected_generator():
    """Constant multiplication noise shifts the whole spectrum by -c^2."""
    c = 0.5
    sys = make_torus_heat_scalar_noise(dim=8, c_coeffs=(c,))
    tilde = assemble_tilde_A(sys.ops, 0.0)
    expect = laplacian_matrix(8) - c**2 * np.eye(8)
    assert np.allclose(tilde, expect, atol=1e-12)
    assert sys.ops.noise_commutes


def test_scalar_noise_first_order_terms_enter_hook():
    sys = make_torus_heat_scalar_noise(dim=8, c_coeffs=(0.3,), b_field=0.2,
                                       c_field=0.1)
    assert sys.ops.F is not None
    u = np.zeros(8)
    u[0] = 1.0  # constant in space: b du/dx = 0, c u = 0.1 u
    f = sys.ops.F(0.0, u)
    assert np.allclose(f, -0.1 * u, atol=1e-12)
    assert sys.ops.n_witness > 0


# -- torus heat with gradient noise -----------------------------------


def test_gradient_noise_constant_sigma_skew():
    sys = make_torus_heat_gradient_noise(dim=8, sigma_fields=(0.5,))
    b = sys.ops.Bs[0].at(0.0)
    assert np.allclose(b, -b.T, atol=1e-12)


def test_gradient_noise_corrected_generator_is_laplacian():
    """The two half-corrections cancel for skew noise."""
    sys = make_torus_heat_gradient_noise(dim=10, sigma_fields=(0.7,))
    tilde = assemble_tilde_A(sys.ops, 0.0)
    assert np.allclose(tilde, laplacian_matrix(10), atol=1e-12)


def test_gradient_noise_ito_drift_amplified():
    """Ito conversion adds sigma^2/2 times the Laplacian to the drift."""
    s = 0.6
    sys = make_torus_heat_gradient_noise(dim=8, sigma_fields=(s,))
    a = sys.ops.at(0.0).drift
    # the highest cos mode loses its sin partner under truncation, so the
    # amplification is exact on interior frequencies only
    interior = slice(0, 7)
    expect = (1.0 + s**2 / 2.0) * laplacian_matrix(8)
    assert np.allclose(a[interior, interior], expect[interior, interior], atol=1e-12)


# -- coupled system ---------------------------------------------------


def test_coupled_torus_blocks_decouple():
    """Spatially constant noise tables act per frequency block."""
    sys = make_coupled_torus(n_components=2, modes=5)
    b = sys.ops.Bs[0].at(0.0)
    basis_lam = sys.basis.hat_eigenvalues
    # entries may only couple equal frequencies (equal basis weights)
    for i in range(len(b)):
        for j in range(len(b)):
            if abs(b[i, j]) > 1e-12:
                assert basis_lam[i] == basis_lam[j]


def test_coupled_torus_single_component_reduces_to_scalar_noise():
    """n=1 with constant h is multiplication noise on each mode."""
    h = np.zeros((1, 1, 1, 1))
    h[0, 0, 0, 0] = 0.5
    sys = make_coupled_torus(n_components=1, modes=6, h_tables=h)
    assert sys.ops.diagonal  # so every operator is held as its diagonal
    b = sys.ops.Bs[0].at(0.0)
    assert np.allclose(b, 0.5 * np.ones(6), atol=1e-12)
    scalar = make_torus_heat_scalar_noise(dim=6, c_coeffs=(0.5,))
    assert np.allclose(sys.ops.dense().at(0.0).drift, scalar.ops.at(0.0).drift, atol=1e-12)


def test_coupled_torus_rejects_bad_tables():
    with pytest.raises(ValueError):
        make_coupled_torus(n_components=2, modes=3,
                           h_tables=np.full((1, 2, 2, 2), np.nan))
    # two rows of tables need the times they hold at
    with pytest.raises(ValueError, match="h_time_grid"):
        make_coupled_torus(n_components=2, modes=3, h_tables=np.ones((2, 2, 2, 2)))
    # a grid without tables would silently leave the default noise in place
    with pytest.raises(ValueError, match="h_time_grid"):
        make_coupled_torus(n_components=2, modes=3, h_time_grid=[0.0, 0.5, 1.0])


def _eleven_node_tables():
    """h[j,m] = 0.3(1 + 0.5 t_j) I + 0.2 t_j e_m e_{m+1}^T on t_j = j/10."""
    times = np.arange(11) / 10
    tables = np.zeros((11, 2, 2, 2))
    for j, t in enumerate(times):
        for m in range(2):
            tables[j, m] = 0.3 * (1.0 + 0.5 * t) * np.eye(2)
            tables[j, m, m, (m + 1) % 2] += 0.2 * t
    return tables, times


@pytest.mark.parametrize("params", [
    {},
    {"modes": 16, "h_tables": _eleven_node_tables()[0], "h_time_grid": _eleven_node_tables()[1]},
    {"modes": 7, "c_matrix": [[0.5, 0.2], [0.1, 0.4]]},
], ids=["default", "eleven-nodes", "coupling"])
def test_coupled_torus_permutes_as_the_permutation_matrix_did(params):
    """A, each B_k and the coupling hook's matrix are P m P^T for P = I[order],
    bit for bit (int64 views), and C-contiguous like the product, as BLAS
    rounds the later sums by layout."""
    n, modes = 2, params.get("modes", 9)
    order = np.argsort(np.kron(np.ones(n), torus_frequencies(modes) ** 2 + 1.0), kind="stable")
    perm = np.eye(n * modes)[order]
    tables = params.get("h_tables")
    if tables is None:
        tables = np.zeros((1, n, n, n))
        for m in range(n):
            tables[0, m] = 0.3 * np.eye(n)
            tables[0, m, m, (m + 1) % n] = 0.2
    spec = make_coupled_torus(**params)

    def same(got, raw):
        assert got.flags.c_contiguous
        assert np.array_equal((perm @ raw @ perm.T).view(np.int64), got.view(np.int64))

    same(spec.ops.A.values, np.kron(np.eye(n), laplacian_matrix(modes)))
    for m, b in enumerate(spec.ops.Bs):
        for j, got in enumerate(b.values if b.values.ndim == 3 else [b.values]):
            same(got, np.kron(tables[j, m], np.eye(modes)))
    if "c_matrix" in params:
        u = np.random.default_rng(0).standard_normal((3, n * modes))
        coupling = perm @ np.kron(params["c_matrix"], np.eye(modes)) @ perm.T
        assert np.array_equal(spec.ops.F(0.0, u).view(np.int64),
                              (-(u @ coupling.T)).view(np.int64))


# -- 2-D incompressible flow ------------------------------------------


def test_nse_basis_sorted_and_divergence_free():
    geom = NSEGeometry(3)
    assert np.all(np.diff(geom.eigenvalues()) >= 0)
    # each basis field is divergence-free by construction: m . m_perp = 0
    for m in geom.wavevectors:
        perp = np.array([-m[1], m[0]])
        assert m @ perp == 0


def test_nse_single_shear_mode_has_zero_advection():
    sys = make_system("nse-2d", modes_per_dim=3)
    geom = NSEGeometry(3)
    u = np.zeros(sys.basis.dim)
    u[4] = 1.3  # one amplitude: parallel flow, (u . grad) u = 0
    assert np.allclose(geom.advection(u), 0.0, atol=1e-12)


def test_nse_energy_identity():
    sys = make_system("nse-2d", modes_per_dim=3)
    geom = NSEGeometry(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(sys.basis.dim)
        assert abs(geom.advection(u) @ u) < 1e-10 * max(1.0, u @ u) ** 1.5


# the per-wavevector transforms the batched NSEGeometry replaced, kept as
# the reference for its kernels


def _loop_to_fourier(geom, u):
    g = geom.grid
    out = np.zeros((2, g, g), dtype=complex)
    norm = 1.0 / np.sqrt(2.0 * np.pi**2)
    for i, (m1, m2) in enumerate(geom.wavevectors):
        a, b = u[2 * i], u[2 * i + 1]
        perp = np.array([-m2, m1]) / np.sqrt(geom.k2[i])
        coef = norm * (a - 1j * b) / 2.0
        out[:, m1 % g, m2 % g] += perp * coef
        out[:, (-m1) % g, (-m2) % g] += perp * np.conj(coef)
    return out


def _loop_from_fourier(geom, w_hat):
    g = geom.grid
    out = np.empty(geom.dim)
    norm = np.sqrt(2.0 * np.pi**2)
    for i, (m1, m2) in enumerate(geom.wavevectors):
        perp = np.array([-m2, m1]) / np.sqrt(geom.k2[i])
        s = perp @ w_hat[:, m1 % g, m2 % g]
        out[2 * i] = 2.0 * s.real * norm
        out[2 * i + 1] = -2.0 * s.imag * norm
    return out


def _loop_bilinear(geom, x, v):
    g = geom.grid
    x_hat = _loop_to_fourier(geom, x)
    v_hat = _loop_to_fourier(geom, v)
    freqs = np.fft.fftfreq(g, d=1.0 / g)
    ik1 = 1j * freqs[:, None]
    ik2 = 1j * freqs[None, :]
    x_phys = np.fft.ifft2(x_hat, axes=(1, 2)).real * g * g
    dvx = np.fft.ifft2(v_hat * ik1, axes=(1, 2)).real * g * g
    dvy = np.fft.ifft2(v_hat * ik2, axes=(1, 2)).real * g * g
    adv = x_phys[0] * dvx + x_phys[1] * dvy
    w_hat = np.fft.fft2(adv, axes=(1, 2)) / (g * g)
    return _loop_from_fourier(geom, w_hat)


def _assert_rows_close(actual, desired):
    """rtol 1e-12 per row, relative to the row's largest entry."""
    assert actual.shape == desired.shape
    flat_a = actual.reshape(-1, actual.shape[-1])
    flat_d = desired.reshape(-1, desired.shape[-1])
    for a, d in zip(flat_a, flat_d):
        np.testing.assert_allclose(a, d, rtol=1e-12, atol=1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("mpd", [1, 2, 3, 4, 5])
def test_nse_transforms_match_per_wavevector_loop(mpd):
    """synthesis against the loop's coefficients through ifft2, field by field."""
    geom = NSEGeometry(mpd)
    g = geom.grid
    rng = np.random.default_rng(mpd)
    u = rng.standard_normal((3, 2, geom.dim))
    idx = list(np.ndindex(u.shape[:-1]))
    fields = geom.synthesis(u)
    assert fields.shape == (3, 2, 2, g, g)
    ref = np.array([np.fft.ifft2(_loop_to_fourier(geom, u[i]), axes=(1, 2)).real * g * g
                    for i in idx])
    _assert_rows_close(fields.reshape(3, 2, 2, -1), ref.reshape(3, 2, 2, -1))


@pytest.mark.parametrize("mpd", [1, 2, 3, 4, 5, 16, 32])
def test_nse_bilinear_matches_per_wavevector_loop(mpd):
    """bilinear and advection on (P, N) and (P, Q, N) batches, row by row,
    up to the largest size the constructor allows."""
    geom = NSEGeometry(mpd)
    rng = np.random.default_rng(10 + mpd)
    for shape in ((4,), (3, 2)):
        x = rng.standard_normal(shape + (geom.dim,))
        v = rng.standard_normal(shape + (geom.dim,))
        idx = list(np.ndindex(shape))
        ref_b = np.array([_loop_bilinear(geom, x[i], v[i]) for i in idx])
        ref_a = np.array([_loop_bilinear(geom, x[i], x[i]) for i in idx])
        _assert_rows_close(geom.bilinear_pair(x, v)[..., 0, :], ref_b.reshape(x.shape))
        _assert_rows_close(geom.advection(x), ref_a.reshape(x.shape))
    # a single state is a batch with no leading axes
    _assert_rows_close(geom.advection(x[0, 0]), ref_a[0])


def _batches(geom, seed):
    """Independent x and v on a (P, N) and a (P, Q, N) batch."""
    rng = np.random.default_rng(seed)
    for shape in ((4,), (3, 2)):
        yield rng.standard_normal(shape + (geom.dim,)), rng.standard_normal(shape + (geom.dim,))


@pytest.mark.parametrize("mpd", [2, 4, 16])
def test_nse_advection_is_bilinear_on_the_diagonal(mpd):
    """advection's complex square and bilinear's three fields give one form, row by row."""
    geom = NSEGeometry(mpd)
    for x, _ in _batches(geom, 20 + mpd):
        _assert_rows_close(geom.advection(x), geom.bilinear_pair(x, x)[..., 0, :])


@pytest.mark.parametrize("mpd", [2, 4, 16])
def test_nse_bilinear_pair_polarizes_advection(mpd):
    """B(x, v) + B(v, x) = A(x + v) - A(x) - A(v), row by row: bilinear_pair's
    products z_x z_v and conj(z_x) z_v against advection's one square z^2."""
    geom = NSEGeometry(mpd)
    for x, v in _batches(geom, 50 + mpd):
        pair = geom.bilinear_pair(x, v)
        _assert_rows_close(pair[..., 0, :] + pair[..., 1, :],
                           geom.advection(x + v) - geom.advection(x) - geom.advection(v))


@pytest.mark.parametrize("mpd", [2, 4, 16])
def test_nse_bilinear_is_skew_in_its_second_argument(mpd):
    """<B(x, v), v> = 0 for independent x and v: div x = 0 and the product is exact."""
    geom = NSEGeometry(mpd)
    for x, v in _batches(geom, 30 + mpd):
        form = np.sum(geom.bilinear_pair(x, v)[..., 0, :] * v, axis=-1)
        scale = np.sqrt(np.sum(x * x, axis=-1)) * np.sum(v * v, axis=-1)
        assert np.all(np.abs(form) < 1e-12 * scale)


@pytest.mark.parametrize("mpd", [2, 4, 16])
def test_nse_bilinear_pair_is_both_orders(mpd):
    """The witness's one set of products gives B(x, v) and B(v, x): swapping
    the arguments swaps the two orders."""
    geom = NSEGeometry(mpd)
    for x, v in _batches(geom, 40 + mpd):
        pair, swapped = geom.bilinear_pair(x, v), geom.bilinear_pair(v, x)
        assert pair.shape == x.shape[:-1] + (2, geom.dim)
        _assert_rows_close(pair[..., 0, :], swapped[..., 1, :])
        _assert_rows_close(pair[..., 1, :], swapped[..., 0, :])


def test_nse_energy_identity_on_batch():
    geom = NSEGeometry(4)
    u = np.random.default_rng(3).standard_normal((6, 5, geom.dim))
    energy = np.sum(geom.advection(u) * u, axis=-1)
    sq = np.sum(u * u, axis=-1)
    assert np.all(np.abs(energy) < 1e-10 * np.maximum(1.0, sq) ** 1.5)


def test_nse_f_hook_is_batched_advection():
    sys = make_system("nse-2d", modes_per_dim=2)
    u = np.random.default_rng(5).standard_normal((3, sys.basis.dim))
    np.testing.assert_array_equal(sys.ops.F(0.0, u), NSEGeometry(2).advection(u))


@pytest.mark.parametrize("mpd, viscosity", [(2, 1.0), (4, 0.5), (8, 1.0)])
def test_nse_witness_constant_matches_loop(mpd, viscosity):
    """k_est from one batched draw equals the per-sample loop's value, also at
    modes_per_dim 8, which the block budget splits into the most blocks of the three."""
    sys = make_system("nse-2d", modes_per_dim=mpd, viscosity=viscosity)
    geom = NSEGeometry(mpd)
    lam = geom.eigenvalues()
    rng = np.random.Generator(np.random.Philox(key=[WITNESS_SEED, 0x25E]))
    k_loop = 0.0
    for _ in range(WITNESS_SAMPLES):
        x = rng.standard_normal(geom.dim)
        v = rng.standard_normal(geom.dim)
        num = (np.linalg.norm(_loop_bilinear(geom, x, v))
               + np.linalg.norm(_loop_bilinear(geom, v, x)))
        den = np.sqrt(np.sum(lam * x * x)) * np.linalg.norm(viscosity * lam * v)
        if den > 0:
            k_loop = max(k_loop, num / den)
    assert k_loop > 0
    assert sys.ops.n_witness == pytest.approx(k_loop, rel=1e-12)


@pytest.mark.parametrize("mpd", [2, 4, 8])
def test_nse_witness_blocks_stay_within_their_budget(mpd, monkeypatch):
    """tracemalloc's peak during each witness block of make_nse_2d (one
    bilinear_pair call on a block of sample pairs) is at most WITNESS_BLOCK_BYTES."""
    peaks, rows = [], []
    bilinear_pair = NSEGeometry.bilinear_pair

    def traced(self, x, v):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = bilinear_pair(self, x, v)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        rows.append(len(x))
        return out

    monkeypatch.setattr(NSEGeometry, "bilinear_pair", traced)
    make_system("nse-2d", modes_per_dim=mpd)
    assert sum(rows) == 200 and len(rows) > 1 and max(rows) > 1
    assert max(peaks) <= WITNESS_BLOCK_BYTES


def test_nse_corrected_generator_shifts_by_noise_square():
    nu, b = 1.0, 0.3
    sys = make_system("nse-2d", modes_per_dim=2, viscosity=nu, b_coeffs=(b,))
    tilde = assemble_tilde_A(sys.ops, 0.0)
    expect = nu * sys.basis.hat_eigenvalues - b**2
    assert sys.ops.diagonal and np.allclose(tilde, expect, atol=1e-12)


def test_nse_resolution_bound():
    assert NSEGeometry(32).dim == 4224
    for mpd in (0, 33):
        with pytest.raises(ValueError):
            make_system("nse-2d", modes_per_dim=mpd)


# -- registry ---------------------------------------------------------


def test_registry_lists_all_systems():
    names = [n for n, _ in list_systems()]
    assert names == sorted(names)
    for expected in ("diagonal", "torus-heat-scalar", "torus-heat-gradient",
                     "coupled-torus", "nse-2d"):
        assert expected in names


def test_make_system_unknown_name():
    with pytest.raises(KeyError):
        make_system("not-a-system")


def test_stratonovich_conversion_matches_hand_converted_ito():
    """Integrating the converted family equals stepping the hand-built
    Ito system with the same increments."""
    c = 0.5
    sys = make_torus_heat_scalar_noise(dim=6, c_coeffs=(c,))
    a_ito = sys.ops.at(0.0).drift
    expect = laplacian_matrix(6) - 0.5 * c**2 * np.eye(6)
    assert np.allclose(a_ito, expect, atol=1e-12)
