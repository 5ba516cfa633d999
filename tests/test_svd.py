import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reconstruct
from tenscache.svd import dominant_sigma, truncated_svd

RNG = np.random.default_rng(7)


def oracle_singular_values(m):
    """Independent route: eigen-decomposition of the Gram matrix m.T @ m."""
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    eigvals = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(eigvals, 0.0, None))


class TestTruncatedSvd:
    def test_diagonal(self):
        trip = truncated_svd(np.diag([5.0, 3.0, 1.0]), 2)
        np.testing.assert_allclose(trip.sigma, [5.0, 3.0])

    def test_rank_one(self):
        u = RNG.normal(size=6)
        v = RNG.normal(size=4)
        m = np.outer(u, v)
        trip = truncated_svd(m, 1)
        assert abs(trip.sigma[0] - np.linalg.norm(u) * np.linalg.norm(v)) <= 1e-8
        assert np.linalg.norm(m - reconstruct(trip)) <= 1e-8

    def test_full_rank_reconstruction_matches_oracle(self):
        m = RNG.normal(size=(20, 30))
        trip = truncated_svd(m, 20)
        assert np.linalg.norm(m - reconstruct(trip)) / np.linalg.norm(m) <= 1e-8
        np.testing.assert_allclose(trip.sigma, oracle_singular_values(m), atol=1e-8)

    def test_orthonormal_columns(self):
        m = RNG.normal(size=(15, 12))
        trip = truncated_svd(m, 5)
        np.testing.assert_allclose(trip.u.T @ trip.u, np.eye(5), atol=1e-8)
        np.testing.assert_allclose(trip.v.T @ trip.v, np.eye(5), atol=1e-8)

    def test_sigma_nonincreasing_nonnegative(self):
        m = RNG.normal(size=(10, 10))
        trip = truncated_svd(m, 10)
        assert (np.diff(trip.sigma) <= 1e-15).all()
        assert (trip.sigma >= 0).all()

    def test_best_rank_r_approximation(self):
        m = RNG.normal(size=(12, 9))
        r = 3
        trip = truncated_svd(m, r)
        sig = oracle_singular_values(m)
        best = np.sqrt((sig[r:] ** 2).sum())
        assert abs(np.linalg.norm(m - reconstruct(trip)) - best) <= 1e-8

    def test_deterministic_bitwise(self):
        m = RNG.normal(size=(25, 18))
        a = truncated_svd(m, 6)
        b = truncated_svd(m, 6)
        assert (a.sigma == b.sigma).all()
        assert (a.u == b.u).all() and (a.v == b.v).all()

    def test_sign_convention(self):
        m = RNG.normal(size=(9, 9))
        trip = truncated_svd(m, 4)
        for j in range(4):
            i = np.argmax(np.abs(trip.u[:, j]))
            assert trip.u[i, j] > 0

    def test_rank_out_of_range(self):
        m = RNG.normal(size=(4, 6))
        with pytest.raises(ValueError):
            truncated_svd(m, 5)
        with pytest.raises(ValueError):
            truncated_svd(m, 0)

    def test_non_finite_rejected(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            truncated_svd(m, 1)


class TestDominantSigma:
    def test_zero_matrix(self):
        assert dominant_sigma(np.zeros((4, 7))) == 0.0

    def test_diagonal(self):
        assert abs(dominant_sigma(np.diag([5.0, 3.0, 1.0])) - 5.0) <= 1e-12

    def test_matches_truncated_svd(self):
        m = RNG.normal(size=(14, 23))
        top = truncated_svd(m, 1).sigma[0]
        assert abs(dominant_sigma(m) - top) <= 1e-12 * top

    def test_transposes_bitwise_equal(self):
        m = RNG.normal(size=(9, 31))
        assert dominant_sigma(m) == dominant_sigma(m.T)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dominant_sigma(np.array([[np.inf, 0.0]]))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=0, max_value=10**6),
)
def test_sigma_matches_oracle_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    r = min(rows, cols)
    trip = truncated_svd(m, r)
    sig = oracle_singular_values(m)[:r]
    assert np.abs(trip.sigma - sig).max() <= 1e-6 * max(trip.sigma[0], 1e-12)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("kind", ["tall", "wide", "one-row", "rank-deficient"])
def test_dominant_sigma_matches_oracle_property(kind, scale, a, b, seed):
    """The Gram route agrees with the SVD's top singular value at every scale."""
    rng = np.random.default_rng(seed)
    small, large = sorted((a, b))
    if kind == "tall":
        m = rng.normal(size=(large + 1, small))
    elif kind == "wide":
        m = rng.normal(size=(small, large + 1))
    elif kind == "one-row":
        m = rng.normal(size=(1, large))
    else:
        rank = max(1, small // 3)
        m = rng.normal(size=(a + 1, rank)) @ rng.normal(size=(rank, b + 1))
    m = m * scale
    top = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(dominant_sigma(m) - top) <= 1e-12 * top
