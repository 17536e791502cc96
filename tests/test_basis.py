"""Weighted sequence norms of the truncated eigenbasis."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdelab.basis import DimensionMismatchError, SpectralBasis


def make_basis(n=4):
    return SpectralBasis(dim=n, hat_eigenvalues=np.arange(1.0, n + 1.0))


def test_norms_closed_form():
    b = make_basis(3)
    u = np.array([1.0, 2.0, 2.0])
    assert b.norm_v(u) == pytest.approx(np.sqrt(1 + 8 + 12))
    assert b.norm_d(u) == pytest.approx(np.sqrt(1 + 16 + 36))


def test_norms_broadcast_over_leading_axes():
    b = make_basis(4)
    u = np.ones((5, 7, 4))
    assert b.norm_v(u).shape == (5, 7)
    assert np.allclose(b.norm_v(u), np.sqrt(10.0))


def test_validation_rejects_bad_eigenvalues():
    with pytest.raises(ValueError):
        SpectralBasis(dim=2, hat_eigenvalues=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        SpectralBasis(dim=2, hat_eigenvalues=np.array([2.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        SpectralBasis(dim=3, hat_eigenvalues=np.array([1.0, 2.0]))


def test_dimension_mismatch_on_vectors():
    b = make_basis(3)
    with pytest.raises(DimensionMismatchError):
        b.norm_v(np.ones(4))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_norm_ordering(coeffs):
    """|u| <= ||u|| <= |u|_D when all eigenvalues are at least one."""
    u = np.array(coeffs)
    lam = np.arange(1.0, len(u) + 1.0)
    b = SpectralBasis(dim=len(u), hat_eigenvalues=lam)
    assert np.linalg.norm(u) <= b.norm_v(u) + 1e-9
    assert b.norm_v(u) <= b.norm_d(u) + 1e-9


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6),
       st.floats(0.1, 10))
def test_norm_homogeneity(coeffs, scale):
    u = np.array(coeffs)
    b = SpectralBasis(dim=len(u), hat_eigenvalues=np.ones(len(u)))
    assert b.norm_v(scale * u) == pytest.approx(scale * b.norm_v(u), rel=1e-12)
