import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reconstruct
from tenscache.completion import _STEP_SCALE, GradientStep, gradient_step
from tenscache.svd import Gram, dominant_sigma, truncated_svd

RNG = np.random.default_rng(7)


def oracle_singular_values(m):
    """Independent route: eigen-decomposition of the Gram matrix m.T @ m."""
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    eigvals = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(eigvals, 0.0, None))


class TestTruncatedSvd:
    def test_diagonal(self):
        trip = truncated_svd(Gram(np.diag([5.0, 3.0, 1.0])), 2)
        np.testing.assert_allclose(trip.sigma, [5.0, 3.0])

    def test_rank_one(self):
        u = RNG.normal(size=6)
        v = RNG.normal(size=4)
        m = np.outer(u, v)
        trip = truncated_svd(Gram(m), 1)
        assert abs(trip.sigma[0] - np.linalg.norm(u) * np.linalg.norm(v)) <= 1e-8
        assert np.linalg.norm(m - reconstruct(trip)) <= 1e-8

    def test_full_rank_reconstruction_matches_oracle(self):
        m = RNG.normal(size=(20, 30))
        trip = truncated_svd(Gram(m), 20)
        assert np.linalg.norm(m - reconstruct(trip)) / np.linalg.norm(m) <= 1e-8
        np.testing.assert_allclose(trip.sigma, oracle_singular_values(m), atol=1e-8)

    def test_orthonormal_columns(self):
        m = RNG.normal(size=(15, 12))
        trip = truncated_svd(Gram(m), 5)
        np.testing.assert_allclose(trip.u.T @ trip.u, np.eye(5), atol=1e-8)
        np.testing.assert_allclose(trip.v.T @ trip.v, np.eye(5), atol=1e-8)

    def test_sigma_nonincreasing_nonnegative(self):
        m = RNG.normal(size=(10, 10))
        trip = truncated_svd(Gram(m), 10)
        assert (np.diff(trip.sigma) <= 1e-15).all()
        assert (trip.sigma >= 0).all()

    def test_best_rank_r_approximation(self):
        m = RNG.normal(size=(12, 9))
        r = 3
        trip = truncated_svd(Gram(m), r)
        sig = oracle_singular_values(m)
        best = np.sqrt((sig[r:] ** 2).sum())
        assert abs(np.linalg.norm(m - reconstruct(trip)) - best) <= 1e-8

    def test_deterministic_bitwise(self):
        m = RNG.normal(size=(25, 18))
        a = truncated_svd(Gram(m), 6)
        b = truncated_svd(Gram(m), 6)
        assert (a.sigma == b.sigma).all()
        assert (a.u == b.u).all() and (a.v == b.v).all()

    def test_sign_convention(self):
        m = RNG.normal(size=(9, 9))
        trip = truncated_svd(Gram(m), 4)
        for j in range(4):
            i = np.argmax(np.abs(trip.u[:, j]))
            assert trip.u[i, j] > 0
        # rows 0 and 1 are negatives, so the left singular vector holds +x
        # and -x as its largest entries, in one order for m and the other for
        # -m (same Gram, negated product): the first of the two decides
        tied = np.array([[3.0, 1.0], [-3.0, -1.0], [0.5, -0.2], [0.1, 0.3]])
        for m in (tied, -tied):
            col = truncated_svd(Gram(m), 1).u[:, 0]
            assert col[0] == -col[1] == np.abs(col).max() > 0

    def test_rank_out_of_range(self):
        m = RNG.normal(size=(4, 6))
        with pytest.raises(ValueError):
            truncated_svd(Gram(m), 5)
        with pytest.raises(ValueError):
            truncated_svd(Gram(m), 0)

    def test_non_finite_rejected(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            truncated_svd(Gram(m), 1)

    @pytest.mark.parametrize("shape", [(7, 40), (40, 7), (1, 12), (12, 1), (9, 9)])
    def test_wide_and_tall_match_lapack(self, shape):
        m = RNG.normal(size=shape)
        r = min(shape)
        trip = truncated_svd(Gram(m), r)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(r)])
        assert trip.u.shape == (shape[0], r) and trip.v.shape == (shape[1], r)
        np.testing.assert_allclose(trip.sigma, s, rtol=1e-10)
        np.testing.assert_allclose(trip.u, u * signs, atol=1e-8)
        np.testing.assert_allclose(trip.v, vt.T * signs, atol=1e-8)

    @pytest.mark.parametrize("shape", [(5, 8), (8, 5)])
    def test_zero_matrix(self, shape):
        trip = truncated_svd(Gram(np.zeros(shape)), 3)
        assert (trip.sigma == 0.0).all()
        assert np.isfinite(trip.u).all() and np.isfinite(trip.v).all()
        assert (reconstruct(trip) == 0.0).all()
        with pytest.raises(ValueError, match="numerically zero"):
            gradient_step(trip, 1, 3)

    @pytest.mark.parametrize("shape", [(30, 200), (200, 30), (3, 5000)])
    def test_rank_deficient_trailing_triplets_dropped(self, shape):
        """Beyond the rank, the Gram route returns rounding noise, not zeros;
        ``gradient_step`` keeps only the resolved triplets."""
        rng = np.random.default_rng(11)
        rank = 2
        m = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        r = min(shape)
        trip = truncated_svd(Gram(m), r)
        ref = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(trip.sigma[:rank], ref[:rank], rtol=1e-10)
        assert trip.sigma[rank:].max() < 1e-7 * trip.sigma[0]
        step = gradient_step(trip, 1, r)
        assert step.rank == rank
        np.testing.assert_allclose(step.weights, _STEP_SCALE * ref[:rank] / ref[:rank].sum(),
                                   rtol=1e-10)


class TestDominantSigma:
    def test_zero_matrix(self):
        assert dominant_sigma(Gram(np.zeros((4, 7)))) == 0.0

    def test_diagonal(self):
        assert abs(dominant_sigma(Gram(np.diag([5.0, 3.0, 1.0]))) - 5.0) <= 1e-12

    def test_matches_truncated_svd(self):
        m = RNG.normal(size=(14, 23))
        top = truncated_svd(Gram(m), 1).sigma[0]
        assert abs(dominant_sigma(Gram(m)) - top) <= 1e-12 * top

    def test_transposes_bitwise_equal(self):
        m = RNG.normal(size=(9, 31))
        assert dominant_sigma(Gram(m)) == dominant_sigma(Gram(m.T))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dominant_sigma(Gram(np.array([[np.inf, 0.0]])))


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
    trip = truncated_svd(Gram(m), r)
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
    assert abs(dominant_sigma(Gram(m)) - top) <= 1e-12 * top


@pytest.mark.parametrize("shape", [(128, 600), (600, 128), (3, 5000)])
@pytest.mark.parametrize("r", [1, 2])
def test_prefix_bitwise_on_unfolding_shapes(shape, r):
    """The prefix property at unfolding-like shapes, where one matrix product
    over all ``r`` columns would round differently for each ``r``."""
    m = np.random.default_rng(5).normal(size=shape)
    small, large = truncated_svd(Gram(m), r), truncated_svd(Gram(m), min(shape))
    assert (small.sigma == large.sigma[:r]).all()
    assert (small.u == large.u[:, :r]).all() and (small.v == large.v[:, :r]).all()


def spread_spectrum_matrix(rows, cols, decades, zeros, scale, seed):
    """A ``rows x cols`` matrix with singular values log-spaced over
    ``decades`` decades from ``scale`` down, the last ``zeros`` of them zero."""
    rng = np.random.default_rng(seed)
    n = min(rows, cols)
    sigma = np.logspace(0.0, -decades, n) * scale
    sigma[n - min(zeros, n - 1):] = 0.0
    u = np.linalg.qr(rng.normal(size=(rows, n)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, n)))[0]
    return (u * sigma) @ v.T


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.0, max_value=6.0),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([1e-150, 1.0, 1e150]),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_gram_route_matches_lapack_property(rows, cols, decades, zeros, scale, seed, data):
    """On a spread spectrum (down to 1e-6 of the top, plus exact zeros) every
    singular value above 1e-2 of the top agrees with LAPACK to 1e-10
    relative, and the top-r approximation's error equals the best rank-r
    error to 1e-10 of the top singular value."""
    m = spread_spectrum_matrix(rows, cols, decades, zeros, scale, seed)
    r = data.draw(st.integers(min_value=1, max_value=min(rows, cols)))
    trip = truncated_svd(Gram(m), r)
    ref = np.linalg.svd(m, compute_uv=False)
    resolved = ref[:r] >= 1e-2 * ref[0]
    assert (np.abs(trip.sigma - ref[:r])[resolved] <= 1e-10 * ref[:r][resolved]).all()
    best = np.sqrt((ref[r:] ** 2).sum())
    assert abs(np.linalg.norm(m - reconstruct(trip)) - best) <= 1e-10 * ref[0]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_prefix_bitwise_property(rows, cols, seed, data):
    """``truncated_svd(Gram(m), r)`` is bitwise the first ``r`` columns of
    ``truncated_svd(Gram(m), R)`` for ``r <= R``: a sweep slices one SVD."""
    m = np.random.default_rng(seed).normal(size=(rows, cols))
    big = data.draw(st.integers(min_value=1, max_value=min(rows, cols)))
    r = data.draw(st.integers(min_value=1, max_value=big))
    small, large = truncated_svd(Gram(m), r), truncated_svd(Gram(m), big)
    assert (small.sigma == large.sigma[:r]).all()
    assert (small.u == large.u[:, :r]).all() and (small.v == large.v[:, :r]).all()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10**6),
)
@example(2, 2, 0)
def test_memory_layout_bitwise_property(rows, cols, seed):
    """A C-laid-out matrix and its F-laid-out copy give bitwise-equal
    triplets and dominant sigma: ``Gram`` holds its matrix in F order."""
    c = np.random.default_rng(seed).normal(size=(rows, cols))
    f = np.asfortranarray(c)
    r = min(rows, cols)
    a, b = truncated_svd(Gram(c), r), truncated_svd(Gram(f), r)
    assert a.sigma.tobytes() == b.sigma.tobytes()
    assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
    assert dominant_sigma(Gram(c)) == dominant_sigma(Gram(f))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.sampled_from([1e-300, 1e-5, 1.0, 1e200]),
    st.integers(min_value=0, max_value=10**6),
)
def test_prescaled_gram_bitwise_property(rows, cols, scale, seed):
    """``Gram(a, exp)``, with ``a`` the matrix already scaled by its own
    :meth:`Gram.exponent`, in either layout, is bitwise ``Gram`` of the matrix:
    the route a caller takes that scales once for several matrices."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * scale * (rng.random((rows, cols)) < 0.7)
    want, exp = Gram(m), Gram.exponent(m)
    for a in (np.ldexp(m, -exp), np.ldexp(m, -exp, order="F")):
        got = Gram(a, exp)
        assert got.exp == want.exp and got.a.flags.f_contiguous
        assert got.a.tobytes("F") == want.a.tobytes("F")
        assert got.g.tobytes() == want.g.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=13, max_value=400),
    st.booleans(),
    st.sampled_from(["multi", "rank1"]),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_f_ordered_factor_products_bitwise_property(small, large, wide, rule, seed, data):
    """A step built from ``truncated_svd``'s factors, whose long side is held
    in F order, forms bitwise the product that C-ordered copies of the same
    factors form, fresh or into a buffer: BLAS rounds a product the same
    whatever its operands' layouts, which keeps every step byte-identical."""
    m = np.random.default_rng(seed).normal(size=(small, large) if wide else (large, small))
    r = data.draw(st.integers(min_value=2, max_value=small))
    trip = truncated_svd(Gram(m), r)
    assert (trip.v if wide else trip.u).flags.f_contiguous
    step = gradient_step(trip, 1, r, rule)
    copy = GradientStep(step.mode, np.ascontiguousarray(step.u), step.weights,
                        np.ascontiguousarray(step.v))
    want = copy.matrix()
    assert step.matrix().tobytes() == want.tobytes()
    assert step.matrix(np.full(m.shape, np.nan)).tobytes() == want.tobytes()


@pytest.mark.parametrize("wide", [True, False])
def test_allocates_only_its_factors(wide):
    """Beyond its factors, ``truncated_svd`` of a base-station-window-sized
    matrix allocates only the small side's arrays: the other-side products
    are written straight into the factor, and no array is spent on fixing
    the signs."""
    m = np.random.default_rng(3).normal(size=(3, 163_840))
    gram = Gram(m if wide else m.T)
    tracemalloc.start()
    try:
        trip = truncated_svd(gram, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - (trip.v if wide else trip.u).nbytes < 16 * 2**10
