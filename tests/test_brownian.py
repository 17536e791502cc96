"""Reproducible Brownian drivers and grid handling."""
import numpy as np
import pytest

from spdelab.brownian import (
    BrownianPath,
    GridError,
    coarsen_increments,
    sample_brownian,
    sample_brownian_ensemble,
    uniform_grid,
)


def test_uniform_grid_divides():
    g = uniform_grid(1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_grid_rejects_nondivisor():
    with pytest.raises(GridError):
        uniform_grid(1.0, 0.3)
    with pytest.raises(GridError):
        uniform_grid(-1.0, 0.1)


def test_same_key_is_bit_identical():
    g = uniform_grid(1.0, 0.01)
    a = sample_brownian(2, g, seed=42, stream_id=7)
    b = sample_brownian(2, g, seed=42, stream_id=7)
    assert np.array_equal(a.increments, b.increments)


def test_different_streams_differ():
    g = uniform_grid(1.0, 0.01)
    a = sample_brownian(1, g, seed=42, stream_id=0)
    b = sample_brownian(1, g, seed=42, stream_id=1)
    assert not np.allclose(a.increments, b.increments)


def test_increment_variance():
    g = uniform_grid(1.0, 0.001)
    p = sample_brownian(3, g, seed=0)
    assert p.increments.shape == (1000, 3)
    assert np.var(p.increments) == pytest.approx(0.001, rel=0.1)


def test_coarsen_preserves_endpoint():
    g = uniform_grid(1.0, 0.01)
    p = sample_brownian(1, g, seed=3)
    c = p.coarsen(4)
    assert c.increments.shape == (25, 1)
    assert np.allclose(c.increments.sum(axis=0), p.increments.sum(axis=0))
    assert np.allclose(c.times, p.times[::4])
    with pytest.raises(GridError):
        p.coarsen(3)


def test_ensemble_matches_single_streams():
    """Path p of an ensemble is the stream-p single path, bit for bit."""
    g = uniform_grid(0.5, 0.01)
    ens = sample_brownian_ensemble(2, g, seed=9, n_paths=4)
    for p in range(4):
        single = sample_brownian(2, g, seed=9, stream_id=p)
        assert np.array_equal(ens[p], single.increments)


def test_coarsened_ensemble_matches_coarsened_paths():
    """One reshape-sum over a (P, J, n) batch gives each path's coarsening."""
    g = uniform_grid(0.5, 0.01)
    ens = sample_brownian_ensemble(2, g, seed=9, n_paths=3)
    batch = coarsen_increments(ens, 5)
    assert batch.shape == (3, 10, 2)
    for p in range(3):
        single = sample_brownian(2, g, seed=9, stream_id=p).coarsen(5)
        assert np.array_equal(batch[p], single.increments)
    with pytest.raises(GridError):
        coarsen_increments(ens, 3)


def test_nonuniform_grid_rejected():
    with pytest.raises(GridError):
        sample_brownian(1, np.array([0.0, 0.1, 0.3]), seed=0)


_MASK = 2**64 - 1


@pytest.mark.parametrize("seed", [-3, 2**64 + 5])
@pytest.mark.parametrize("first_stream", [0, 2**64 - 2])
def test_ensemble_paths_are_their_philox_streams(seed, first_stream):
    """Path p is the draw of a fresh Philox keyed (seed, first_stream + p), each masked to
    64 bits, byte for byte; the streams from 2**64 - 2 wrap to 0.  The reference key is a
    uint64 array: a list of Python ints, one above 2**63 - 1, reaches Philox through
    float64 and loses its low bits."""
    g = uniform_grid(0.5, 0.01)
    ens = sample_brownian_ensemble(2, g, seed, 5, first_stream=first_stream)
    for p in range(5):
        key = np.array([seed & _MASK, (first_stream + p) & _MASK], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal((50, 2))
        assert ens[p].tobytes() == (want * np.sqrt(g[1] - g[0])).tobytes(), p
