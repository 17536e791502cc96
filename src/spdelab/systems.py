"""Ready-made operator families with documented continuum reductions.

Every factory returns a SystemSpec whose operators act in the orthonormal
eigenbasis of the norm-defining operator of its Gelfand triple.  Every
shipped family is written in Stratonovich form: ops.A is the Stratonovich
drift, ops.noise_form says so, and ops.at(t).drift is the Ito drift
A(t) - (1/2) sum_k B_k(t)^2 at any time.

Shipped systems:
    diagonal            closed-form oracle backbone (decoupled geometric modes)
    torus-heat-scalar   1-D periodic heat flow with multiplication noise
    torus-heat-gradient 1-D periodic heat flow with gradient (transport) noise
    coupled-torus       vector-valued periodic system with matrix noise
    nse-2d              2-D incompressible flow with scalar multiplicative noise
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import SpectralBasis
from .operators import MatrixPath, OperatorFamily

#: the largest wavenumber of a field whose multiplication matrix is exact
FIELD_BANDWIDTH = 8


@dataclass(frozen=True)
class SystemSpec:
    """One named system: basis, operators, start and metadata.

    u0 is the one start every integration of the system reads; a factory
    sets its default, and a run with another start integrates
    dataclasses.replace(system, u0=...).
    """

    name: str
    basis: SpectralBasis
    ops: OperatorFamily
    u0: np.ndarray
    oracle: Optional[object] = None

    def __post_init__(self) -> None:
        if self.u0.shape != (self.basis.dim,):
            raise ValueError("initial state does not match basis dimension")


def _start(dim: int, active: int) -> np.ndarray:
    """The default start: 1 on the first `active` basis indices and 0 after."""
    start = np.zeros(dim)
    start[:min(active, dim)] = 1.0
    return start


# -- diagonal oracle system -------------------------------------------


@dataclass(frozen=True)
class DiagonalOracle:
    """Closed-form solution of the decoupled system.

    Mode i solves a scalar geometric SDE; with corrected rate a_i and noise
    row b_{k,i} the exact path is
        u_i(t) = u_i(0) exp(-(a_i + sum_k b_{k,i}^2) t - sum_k b_{k,i} w^k(t)).
    The pathwise decay exponent of |u_i|^2 is 2(a_i + sum_k b_{k,i}^2), so
    the quotient settles on a_j for the slowest active mode j.
    """

    tilde_eigs: np.ndarray  # (N,)
    noise_coeffs: np.ndarray  # (n, N)

    @property
    def decay_rates(self) -> np.ndarray:
        return self.tilde_eigs + np.sum(self.noise_coeffs**2, axis=0)

    def exact_states(self, u0: np.ndarray, times: np.ndarray, w_cum: np.ndarray) -> np.ndarray:
        """States on the grid given cumulative noise w_cum of shape (J+1, n)."""
        t = np.asarray(times, dtype=float)[:, None]
        phase = -self.decay_rates[None, :] * t - w_cum @ self.noise_coeffs
        return u0[None, :] * np.exp(phase)

    def quotient_limit(self, u0: np.ndarray) -> float:
        active = np.flatnonzero(np.asarray(u0) != 0.0)
        if active.size == 0:
            raise ValueError("quotient limit undefined for the zero state")
        j = active[np.argmin(self.decay_rates[active])]
        return float(self.tilde_eigs[j])


def make_diagonal(
    tilde_eigs: Sequence[float] = (1.0, 4.0, 9.0),
    noise_coeffs: Sequence[Sequence[float]] = ((0.3, 0.2, 0.1),),
) -> SystemSpec:
    """Decoupled modes with prescribed corrected spectrum and diagonal noise.

    The drift is chosen so that the corrected generator is exactly
    diag(tilde_eigs): with B_k = diag(b_k) the registered Stratonovich drift
    is diag(tilde_eigs + sum_k b_k^2), which the Ito and the noise
    corrections reduce back to diag(tilde_eigs).

    Certificates on the defaults: ac0-ac4, ac6, ac7 certified; ac5 empirical
    (sampled), and ac7 too when tilde_eigs are not all positive.
    """
    eigs = np.asarray(tilde_eigs, dtype=float)
    if np.any(np.diff(eigs) < 0):
        raise ValueError("tilde_eigs must be ascending")
    b = np.atleast_2d(np.asarray(noise_coeffs, dtype=float))
    if b.shape[1] != len(eigs):
        raise ValueError("noise coefficient rows must match the mode count")
    # every operator is held as its diagonal
    bs = tuple(MatrixPath(row) for row in b)
    ops = OperatorFamily(A=MatrixPath(eigs + np.sum(b**2, axis=0)), Bs=bs,
                         noise_form="stratonovich")
    basis = SpectralBasis(
        dim=len(eigs),
        hat_eigenvalues=np.maximum.accumulate(np.maximum(np.abs(eigs), 1.0)),
    )
    return SystemSpec(
        name="diagonal", basis=basis, ops=ops, u0=_start(len(eigs), len(eigs)),
        oracle=DiagonalOracle(tilde_eigs=eigs, noise_coeffs=b),
    )


# -- 1-D torus machinery ----------------------------------------------


def torus_basis(dim: int) -> SpectralBasis:
    """Real trigonometric basis on the circle, ordered by frequency.

    Index 0 is the constant mode; indices 2m-1, 2m are cos(mx), sin(mx).
    The norm-defining operator is the shifted Laplacian -d^2/dx^2 + 1, so
    every eigenvalue (m^2 + 1) is strictly positive including the constant
    mode.
    """
    freqs = torus_frequencies(dim)
    return SpectralBasis(dim=dim, hat_eigenvalues=freqs**2 + 1.0)


def torus_frequencies(dim: int) -> np.ndarray:
    """Frequency of each basis index: 0, 1, 1, 2, 2, ..."""
    return np.array([(i + 1) // 2 for i in range(dim)], dtype=float)


def _torus_eval(dim: int, x: np.ndarray) -> np.ndarray:
    """Basis functions evaluated on x, shape (dim, len(x)); orthonormal on [0, 2pi)."""
    out = np.empty((dim, len(x)))
    out[0] = 1.0 / np.sqrt(2.0 * np.pi)
    for i in range(1, dim):
        m = (i + 1) // 2
        if i % 2 == 1:
            out[i] = np.cos(m * x) / np.sqrt(np.pi)
        else:
            out[i] = np.sin(m * x) / np.sqrt(np.pi)
    return out


def multiplication_matrix(f: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Galerkin matrix of pointwise multiplication by a trig polynomial f.

    Exact (to rounding) when f has bandwidth at most FIELD_BANDWIDTH, since
    the trapezoidal rule on the circle integrates trig polynomials exactly.
    """
    max_m = (dim + 1) // 2
    npts = 2 * (2 * max_m + FIELD_BANDWIDTH) + 1
    x = np.linspace(0.0, 2.0 * np.pi, npts, endpoint=False)
    e = _torus_eval(dim, x)
    w = 2.0 * np.pi / npts
    return (e * f(x)[None, :]) @ e.T * w


def derivative_matrix(dim: int) -> np.ndarray:
    """Galerkin matrix of d/dx on the trigonometric basis (skew-symmetric)."""
    out = np.zeros((dim, dim))
    for i in range(1, dim):
        m = (i + 1) // 2
        if i % 2 == 1 and i + 1 < dim:  # cos -> -m sin
            out[i + 1, i] = -m
            out[i, i + 1] = m  # sin -> m cos
    return out


def laplacian_matrix(dim: int) -> np.ndarray:
    """Galerkin matrix of -d^2/dx^2 (diagonal, frequency squared)."""
    return np.diag(torus_frequencies(dim) ** 2)


def _field(value) -> Callable[[np.ndarray], np.ndarray]:
    """A field on the circle: a callable as given, a number as that constant field."""
    if not np.isscalar(value):
        return value
    return lambda x: np.full_like(x, float(value))


def make_torus_heat_scalar_noise(
    dim: int = 64,
    c_coeffs: Sequence = (0.5,),
    b_field: Optional[Callable] = None,
    c_field: Optional[Callable] = None,
) -> SystemSpec:
    """Periodic heat flow with multiplication (scalar) Stratonovich noise.

    The drift's principal part is minus the Laplacian; optional first-order
    and zeroth-order terms enter through the nonlinearity hook as a linear
    map.  Each noise operator multiplies by a scalar field c_l, given either
    as a constant or as a callable on the circle.

    Certificates on the defaults (constant c_l): all of ac0-ac4, ac6
    certified with phi = sum |c_l| and a commuting noise family; ac5, ac7
    empirical (the drift is only semidefinite through the constant mode).
    """
    basis = torus_basis(dim)  # first, so a non-positive dim raises here
    a_strat = MatrixPath(laplacian_matrix(dim))
    bs = [MatrixPath(multiplication_matrix(_field(c), dim)) for c in c_coeffs]
    f_hook = None
    n_witness = None
    if b_field is not None or c_field is not None:
        lower = np.zeros((dim, dim))
        if b_field is not None:
            lower += multiplication_matrix(_field(b_field), dim) @ derivative_matrix(dim)
        if c_field is not None:
            lower += multiplication_matrix(_field(c_field), dim)
        w = 1.0 / np.sqrt(basis.hat_eigenvalues)
        n_witness = float(np.linalg.norm(lower * w[None, :], ord=2))

        def f_hook(t, u, _m=lower):
            return -(u @ _m.T)

    ops = OperatorFamily(A=a_strat, Bs=tuple(bs), F=f_hook, n_witness=n_witness,
                         noise_form="stratonovich")
    return SystemSpec(name="torus-heat-scalar", basis=basis, ops=ops, u0=_start(dim, 3))


def make_torus_heat_gradient_noise(
    dim: int = 64,
    sigma_fields: Sequence = (0.5,),
) -> SystemSpec:
    """Periodic heat flow with gradient (transport) Stratonovich noise.

    Noise operators are (multiplication by sigma_k) composed with d/dx; for
    constant sigma they are skew-symmetric Fourier multipliers, so the weak
    noise form vanishes identically and the corrected generator equals minus
    the Laplacian: the two one-half corrections cancel for skew operators.

    Certificates on the defaults (constant sigma): ac3 with phi = 0, ac4
    with K1 = K2 = 0, ac0-ac2, ac6 certified; ac5, ac7 empirical.
    """
    basis = torus_basis(dim)  # first, so a non-positive dim raises here
    a_strat = MatrixPath(laplacian_matrix(dim))
    d = derivative_matrix(dim)
    bs = [MatrixPath(multiplication_matrix(_field(s), dim) @ d) for s in sigma_fields]
    ops = OperatorFamily(A=a_strat, Bs=tuple(bs), noise_form="stratonovich")
    return SystemSpec(name="torus-heat-gradient", basis=basis, ops=ops, u0=_start(dim, 3))


# -- vector-valued torus system with matrix noise ---------------------


def make_coupled_torus(
    n_components: int = 2,
    modes: int = 9,
    h_tables: Optional[np.ndarray] = None,
    h_time_grid: Optional[np.ndarray] = None,
    c_matrix: Optional[np.ndarray] = None,
) -> SystemSpec:
    """Vector of periodic diffusions coupled through matrix-valued noise.

    Component k feels noise sum_{m,l} h^{ml}_k(t) u^l dw^m with spatially
    constant coefficient tables h of shape (n_times, n_noise, n, n); each
    noise operator is then a Kronecker product H_m(t) (x) identity, so the
    Fourier modes decouple into n x n blocks.  The squared tables must be
    integrable on the declared grid, checked numerically.  An optional
    constant coupling matrix c enters through the nonlinearity hook.

    Certificates on the defaults: ac0-ac4, ac6 certified; ac5, ac7
    empirical (drift only semidefinite through the constant mode).
    """
    n = int(n_components)
    dim = n * modes
    lap = laplacian_matrix(modes)
    lam = np.kron(np.ones(n), torus_frequencies(modes) ** 2 + 1.0)
    # the whole family is permuted so the basis eigenvalues are nondecreasing
    order = np.argsort(lam, kind="stable")
    a_strat = MatrixPath(_permuted(np.kron(np.eye(n), lap), order))

    if h_tables is None:
        if h_time_grid is not None:
            raise ValueError("h_time_grid is given without the h_tables it would time")
        base = np.zeros((1, n, n, n))
        for m in range(n):
            base[0, m] = 0.3 * np.eye(n)
            if n > 1:
                base[0, m, m, (m + 1) % n] = 0.2
        h_tables = base
    h_tables = np.asarray(h_tables, dtype=float)
    if h_tables.ndim != 4 or h_tables.shape[2] != n or h_tables.shape[3] != n:
        raise ValueError("h tables must have shape (n_times, n_noise, n, n)")
    if h_time_grid is None and h_tables.shape[0] > 1:
        raise ValueError(
            f"h tables have {h_tables.shape[0]} rows, one per time, but no h_time_grid is given"
        )
    if not np.all(np.isfinite(h_tables)):
        raise ValueError("h tables fail the square-integrability check")
    if h_time_grid is not None:
        grid = np.asarray(h_time_grid, dtype=float)
        sq = np.sum(h_tables**2, axis=(1, 2, 3))
        if not np.isfinite(np.trapezoid(sq, grid)):
            raise ValueError("h tables fail the square-integrability check")

    bs = []
    for m in range(h_tables.shape[1]):
        stacks = _permuted(np.stack([np.kron(h_tables[j, m], np.eye(modes))
                                     for j in range(h_tables.shape[0])]), order)
        if h_time_grid is None:
            bs.append(MatrixPath(stacks[0]))
        else:
            bs.append(MatrixPath(stacks, np.asarray(h_time_grid, dtype=float)))

    f_hook = None
    n_witness = None
    if c_matrix is not None:
        c_matrix = np.asarray(c_matrix, dtype=float)
        if c_matrix.shape != (n, n):
            raise ValueError("coupling matrix must be n x n")
        coupling = np.kron(c_matrix, np.eye(modes))
        n_witness = float(np.linalg.norm(coupling, ord=2))

        def f_hook(t, u, _m=_permuted(coupling, order)):
            return -(u @ _m.T)

    ops = OperatorFamily(
        A=a_strat, Bs=tuple(bs),
        F=f_hook, n_witness=n_witness, noise_form="stratonovich",
    )
    basis = SpectralBasis(dim=dim, hat_eigenvalues=lam[order])
    return SystemSpec(name="coupled-torus", basis=basis, ops=ops, u0=_start(dim, 2 * n))


def _permuted(m: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rows and columns of m (..., n, n) in `order`: P m P^T for P = I[order].
    take, unlike fancy indexing, keeps the result C-contiguous, as the product
    was, so BLAS reads it in the same order."""
    return m.take(order, axis=-2).take(order, axis=-1)


# -- 2-D incompressible flow ------------------------------------------


class NSEGeometry:
    """Divergence-free trigonometric basis on the 2-D torus.

    One cosine and one sine amplitude per wavevector in the closed upper
    half-plane (excluding zero), each carrying the unit vector orthogonal
    to the wavevector; modes are sorted by |m|^2 so the basis eigenvalues
    are nondecreasing.  Every transform takes a batch of states: leading
    axes are carried through, the last axis is the basis index.  A field is
    2 Re(Ex @ C @ Ey), Ex = e^{i m1 x} (0 <= m1 <= M), Ey = e^{i m2 y} (|m2| <= M).
    A velocity u is synthesized as one complex field z = u_x + i u_y, its two
    components interleaved, so each stage is one real matrix product.

    The advection form is computed in divergence form,
    P[(x . grad) v] = P[div(x (x) v)], whose component i is sum_j d_j(x_j v_i):
    the products x_j v_i are analysed as scalar fields, and d_j and the Leray
    projection P are one coefficient per product and basis index.  This is
    exact to rounding, not a new approximation, because
      - every basis field x is divergence-free, so (x . grad) v_i equals
        d_j(x_j v_i) - v_i div x = d_j(x_j v_i);
      - a product of two resolved modes aliases on the G x G grid onto no
        resolved mode, so the grid sums are the exact Galerkin integrals;
      - d_j commutes with the projection onto resolved Fourier modes.
    The coefficient of x_j v_i is -m_j perp_i, and m_y perp_y = -m_x perp_x,
    so the products enter only as Re a = x_x v_x - x_y v_y, Im a and Im b, for
    a = z_x z_v and b = conj(z_x) z_v: with x = v = u, b is real, and
    P[(u . grad) u] reads the two real fields of the one complex square z^2.
    So `advection` takes one synthesis of z and two analyses, and
    `bilinear_pair` two syntheses and three analyses.
    """

    def __init__(self, modes_per_dim: int):
        if not (1 <= modes_per_dim <= 32):
            raise ValueError("modes_per_dim must lie in [1, 32]")
        self.mpd = mm = modes_per_dim
        ms = []
        for m1 in range(-mm, mm + 1):
            for m2 in range(-mm, mm + 1):
                if (m1, m2) == (0, 0):
                    continue
                if m1 > 0 or (m1 == 0 and m2 > 0):
                    ms.append((m1, m2))
        ms.sort(key=lambda m: (m[0] ** 2 + m[1] ** 2, m))
        self.wavevectors = np.array(ms, dtype=int)  # (K, 2)
        self.k2 = np.sum(self.wavevectors**2, axis=1).astype(float)
        self.n_wave = len(ms)
        self.dim = 2 * self.n_wave  # cos and sin amplitude per wavevector
        # a product of two resolved modes aliases on G points onto no resolved mode
        self.grid = g = max(8, 4 * mm)
        m1, m2 = self.wavevectors.T
        norm = np.sqrt(self.k2)
        # amplitudes (a, b) of m are the real and minus the imaginary part of
        # its coefficient, at these places of the (M+1) x 2(2M+1) real grid
        flat = m1 * (4 * mm + 2) + m2 + mm
        at = np.stack([flat, flat + 2 * mm + 1], axis=-1).ravel()
        # each place of the grid gathers its amplitude times m_perp as the complex
        # m_perp_x + i m_perp_y, the sine amplitudes negated, so the grid is C for
        # u_x + i u_y at once; a place no mode holds reads 0 x u[0]
        self._gather = np.zeros((mm + 1) * (4 * mm + 2), dtype=np.intp)
        self._gather[at] = np.arange(self.dim)
        self._perp = np.zeros(self._gather.shape, dtype=complex)
        self._perp[at] = np.repeat((m1 * 1j - m2) / norm, 2) * np.tile([1.0, -1.0], self.n_wave)
        # d/dx_j multiplies the coefficient of m by i m_j, so the analysis of
        # d_j f at the real place of m is -m_j times f's at the imaginary one,
        # and at the imaginary place m_j times f's at the real one: it reads
        # the swapped places, and with the Leray weight of component i and the
        # cell area the product x_j v_i enters amplitude n times
        # -m_j perp_i |cell|, for the cosine and the sine amplitude alike.  In
        # Re a, Im a and Im b that is alpha, gamma and +-delta below: alpha is
        # the weight of x_x v_x, and of x_y v_y negated; gamma and delta are the
        # half sum and half difference of those of x_x v_y and x_y v_x
        self._at_swapped = at.reshape(-1, 2)[:, ::-1].ravel()
        area = (2.0 * np.pi / g) ** 2
        leray = area * np.stack([m1 * m2 / norm, (m2 * m2 - m1 * m1) / (2 * norm), -norm / 2])
        self._leray = np.repeat(leray, 2, axis=-1)  # (3, N): alpha, gamma, delta
        # alpha Re c + gamma Im c, as the real part of c (alpha - i gamma)
        self._leray_z = self._leray[0] - 1j * self._leray[1]
        x = 2.0 * np.pi * np.arange(g) / g
        # real forms of C -> C @ Ey and of D -> 2 Re(Ex @ D), with the basis norm
        ey = np.exp(1j * np.outer(np.arange(-mm, mm + 1), x))
        ey = np.block([[ey.real, ey.imag], [-ey.imag, ey.real]])
        self._ex = np.exp(-1j * np.outer(x, np.arange(mm + 1))).view(float) / (np.pi * 2**0.5)
        # C -> C @ Ey on complex entries, their real and imaginary parts
        # interleaved, and its transpose on real and on complex fields
        self._synthesize = np.kron(ey, np.eye(2))
        self._analyse = (ey.T, np.kron(ey.T, np.eye(2)))

    def eigenvalues(self) -> np.ndarray:
        return np.repeat(self.k2, 2)

    def _velocity(self, u) -> np.ndarray:
        """Complex velocity fields z = u_x + i u_y (..., G, G) of amplitudes (..., N)."""
        u = np.asarray(u, dtype=float)
        c = u.take(self._gather, axis=-1) * self._perp
        d = c.view(float).reshape(-1, self._synthesize.shape[0]) @ self._synthesize
        return (self._ex @ d.reshape(u.shape[:-1] + (self._ex.shape[1], -1))).view(complex)

    def _analysis(self, f: np.ndarray) -> np.ndarray:
        """Coefficients (..., N) of d_j f at each amplitude before its Leray
        weight, for real or complex fields f (..., G, G): their coefficient
        grids, the transpose of the synthesis, read at the swapped places.  A
        complex field's real and imaginary parts are analysed apart, as the
        real and imaginary parts of its coefficients."""
        k = f.itemsize // 8  # fields per grid point: float64 1, complex128 2
        d = (self._ex.T @ f.view(float)).reshape(-1, 2 * k * self.grid) @ self._analyse[k - 1]
        return d.view(f.dtype).reshape(f.shape[:-2] + (-1,)).take(self._at_swapped, axis=-1)

    def synthesis(self, u: np.ndarray) -> np.ndarray:
        """Amplitudes (..., N) -> velocity fields (..., 2, G, G) on the G x G grid:
        a view of the real and imaginary parts of z."""
        z = self._velocity(u)
        return np.moveaxis(z.view(float).reshape(z.shape + (2,)), -1, -3)

    def bilinear_pair(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Projected (x . grad) v and (v . grad) x of batches (..., N) of one
        shape, stacked as (..., 2, N): alpha Re a + gamma Im a +- delta Im b,
        from the three analyses of a = z_x z_v and of Im b, b = conj(z_x) z_v."""
        alpha, gamma, delta = self._leray
        re_a, im_a, im_b = self._analysis(self._pair_fields(x, v))
        common = re_a * alpha + im_a * gamma
        im_b *= delta
        return np.stack([common + im_b, common - im_b], axis=-2)

    def _pair_fields(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Re a, Im a and Im b (3, ..., G, G) of batches x and v, in a call of
        their own so that z and a are freed before the analyses.  z_x and z_v
        are whole planes of one synthesis, so the complex products read
        contiguous operands: a ufunc would copy strided ones through its
        buffer, which counts against the witness's block budget."""
        zx, zv = self._velocity(np.stack([x, v]))
        f = np.empty((3,) + zx.shape)
        a = zx * zv
        f[0], f[1] = a.real, a.imag
        np.multiply(np.conj(zx, out=a), zv, out=a)
        f[2] = a.imag
        return f

    def advection(self, u: np.ndarray) -> np.ndarray:
        """Leray-projected (u . grad) u of a batch (..., N) of states: alpha Re z^2
        + gamma Im z^2, from the two analyses of the complex square of z."""
        z = self._velocity(u)
        z *= z
        c = self._analysis(z)
        c *= self._leray_z
        return c.real


#: transform scratch one block of witness samples may take.  A sample is one row of
#: bilinear_pair, which holds z_x and z_v (four float G x G arrays), a = z_x z_v (two),
#: Re a, Im a and Im b (three) and the smaller coefficient grids of its two syntheses
#: and three analyses: about 12 float G x G arrays for one sample on the smallest
#: grid (G = 8), falling to 9 as the block and the grid grow.  Blocks this small
#: reuse memory the allocator already holds: the temporaries of 2 MiB blocks are
#: returned to the system and faulted in afresh block after block (about 770
#: minor page faults in make_nse_2d(4), against about 65)
WITNESS_BLOCK_BYTES = 512 * 2**10

#: the sampled pairs (x, v) behind nse-2d's witness, and the seed they are drawn from
WITNESS_SAMPLES = 200
WITNESS_SEED = 0


def make_nse_2d(
    modes_per_dim: int = 4,
    viscosity: float = 1.0,
    b_coeffs: Sequence[float] = (0.3,),
) -> SystemSpec:
    """2-D incompressible flow with quadratic advection and scalar noise.

    The linear drift is the (diagonal) viscous part; the advection term is
    the projected quadratic form, computed on a grid fine enough that the
    truncated product is the exact Galerkin one, which makes the energy
    identity <F(u), u> = 0 hold to rounding.  Noise operators are scalar
    multiples of the identity, so the noise family commutes and the
    commutator certificate holds with both constants zero.

    Certificates on the defaults: ac0-ac4, ac6 certified, and ac7, since
    sym(tilde_A) = viscosity |m|^2 - b^2 >= 0.91 is definite; ac5 empirical.
    """
    geom = NSEGeometry(modes_per_dim)
    lam = geom.eigenvalues()
    # the drift and the noise are held as their diagonals
    a_strat = MatrixPath(float(viscosity) * lam)
    bs = tuple(MatrixPath(np.full(geom.dim, float(b))) for b in b_coeffs)

    def f_hook(t, u, _g=geom):
        return _g.advection(u)

    # sample the quadratic-growth constant of the advection form; sample s
    # is the pair (x, v) = xv[s], in blocks, and both orders (x . grad) v and
    # (v . grad) x come from one set of its three fields Re a, Im a and Im b
    rng = np.random.Generator(np.random.Philox(key=[WITNESS_SEED, 0x25E]))
    xv = rng.standard_normal((WITNESS_SAMPLES, 2, geom.dim))
    x, v = xv[:, 0], xv[:, 1]
    per_block = max(1, WITNESS_BLOCK_BYTES // (12 * 8 * geom.grid**2))
    num = np.empty(WITNESS_SAMPLES)
    for lo in range(0, WITNESS_SAMPLES, per_block):
        block = slice(lo, lo + per_block)
        num[block] = np.sum(
            np.linalg.norm(geom.bilinear_pair(x[block], v[block]), axis=-1), axis=-1)
    den = np.sqrt(np.sum(lam * x * x, axis=-1)) * np.linalg.norm(viscosity * lam * v, axis=-1)
    k_est = float(np.max(num[den > 0] / den[den > 0], initial=0.0))

    ops = OperatorFamily(A=a_strat, Bs=bs, F=f_hook, n_witness=k_est,
                         noise_form="stratonovich")
    basis = SpectralBasis(dim=geom.dim, hat_eigenvalues=lam)
    return SystemSpec(name="nse-2d", basis=basis, ops=ops, u0=_start(geom.dim, 4))


# -- registry ---------------------------------------------------------

REGISTRY = {
    "diagonal": make_diagonal,
    "torus-heat-scalar": make_torus_heat_scalar_noise,
    "torus-heat-gradient": make_torus_heat_gradient_noise,
    "coupled-torus": make_coupled_torus,
    "nse-2d": make_nse_2d,
}


def make_system(name: str, **params) -> SystemSpec:
    """Build a registered system by name with keyword parameters."""
    if name not in REGISTRY:
        raise KeyError(
            f"unknown system {name!r}; available: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[name](**params)


def list_systems() -> list:
    """Names and one-line descriptions of every registered system."""
    out = []
    for name, factory in sorted(REGISTRY.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        out.append((name, doc))
    return out
