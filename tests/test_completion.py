import dataclasses
import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscache.completion as completion_mod
from helpers import dense_step, gather, step_scale_invariance
from tenscache.completion import (
    FwConfig,
    FwState,
    GradientStep,
    GradientUnfoldings,
    apply_update,
    complete,
    complete_sweep,
    gradient_step,
    line_search,
    select_mode,
    update_rank_budget,
)
from tenscache.ingest import synth_low_rank
from tenscache.svd import Gram, SvdTriplet, dominant_sigma, truncated_svd
from tenscache.tensors import SparseTensor, UnfoldSpec, fold, unfold

RNG = np.random.default_rng(11)


def two_cell_tensor():
    return SparseTensor((2, 2, 1), [[0, 0, 0], [1, 1, 0]], [3.0, 4.0])


def observed(grad):
    """``grad`` observed where it is nonzero, so the residual is its values."""
    idx = np.argwhere(grad)
    return SparseTensor(grad.shape, idx, grad[tuple(idx.T)])


def select(grad, cfg, active):
    """``select_mode``'s pick for the dense gradient ``grad``."""
    t = observed(grad)
    return select_mode(GradientUnfoldings(t, cfg.shift), t.values, cfg, active)[0]


def unfolded(grad, k):
    return unfold(grad, UnfoldSpec(k, 1))


def step_of(m, k, r, update_rule="multi"):
    """``gradient_step`` from the SVD of unfolding ``m``, truncated to what the
    step reads."""
    trip = truncated_svd(Gram(m), 1 if update_rule == "rank1" else r)
    return gradient_step(trip, k, r, update_rule)


def search(x, t, s):
    """``line_search`` for the dense iterate ``x`` and step ``s``."""
    return line_search(gather(t, x) - t.values, gather(t, s))


def pruning_bound(m):
    """The bound ``select_mode`` prunes by: the smaller of the Frobenius bound
    ``sigma_1(m) <= ||G||_F**(1/2)`` and the squared-Gram bound ``sigma_1(m)
    <= ||G @ G||_F**(1/4)``, each widened by the pruning margin."""
    gram = Gram(m)
    root = min(np.sqrt(np.linalg.norm(gram.g)), np.linalg.norm(gram.g @ gram.g) ** 0.25)
    return np.ldexp(root * (1.0 + completion_mod._PRUNE_MARGIN), gram.exp)


def exhaustive_select(grad, shift, active):
    """Mode selection with an eigensolve of every candidate, in mode order:
    the argmax of the dominant sigma, ties to the smallest mode. A transposed
    twin (``N == 2 * shift``) takes its partner's sigma, since the two are
    equal in exact arithmetic. Returns the pick, its Gram and every sigma."""
    sigmas, grams = {}, {}
    for k in sorted(active):
        if grad.ndim == 2 * shift and k - shift in sigmas:
            sigmas[k] = sigmas[k - shift]
            continue
        grams[k] = Gram(unfold(grad, UnfoldSpec(k, shift)))
        sigmas[k] = float(np.ldexp(np.sqrt(np.linalg.eigvalsh(grams[k].g)[-1]), grams[k].exp))
    best = max(sorted(active), key=sigmas.__getitem__)  # the first of equal maxima
    return best, grams[best], sigmas


class TestSelectMode:
    def test_sigma_max_finds_planted_mode(self):
        # rank-1 along the mode-2 unfolding with sigma exactly 10; the premise
        # (all other modes strictly below 10) is checked with an independent
        # SVD oracle
        shape = (4, 5, 3, 2)
        spec = UnfoldSpec(2, 1)
        rows, cols = spec.matrix_dims(shape)
        u = RNG.normal(size=rows)
        v = RNG.normal(size=cols)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        grad = fold(10.0 * np.outer(u, v), spec, shape)
        for k in (1, 3, 4):
            top = np.linalg.svd(unfold(grad, UnfoldSpec(k, 1)), compute_uv=False)[0]
            assert top < 10.0 - 1e-6
        cfg = FwConfig()
        assert select(grad, cfg, {1, 2, 3, 4}) == 2

    def test_singleton_active_set(self):
        grad = RNG.normal(size=(3, 4, 5, 2))
        assert select(grad, FwConfig(), {4}) == 4

    def test_empty_active_set_rejected(self):
        cfg = FwConfig()
        with pytest.raises(ValueError):
            select(RNG.normal(size=(2, 2, 2)), cfg, set())

    @pytest.mark.parametrize("seed", range(5))
    def test_shift2_transposed_pairs_tie_toward_smaller_mode(self, monkeypatch, seed):
        # at shift 2 on an order-4 tensor the mode-k and mode-(k+2) unfoldings
        # are transposes of each other (here 60x27 / 27x60 for modes 1 / 3 and
        # 108x15 / 15x108 for modes 2 / 4), so their sigmas tie exactly, the
        # smaller mode index wins, and the larger one is not evaluated again.
        # The 15-side pair goes first (cheapest first); a 27-side mode after
        # it is eigensolved unless its pruning bound rules it out. The
        # Frobenius bound never does here; the squared-Gram bound does on
        # seeds 3 and 4
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=(12, 9, 3, 5)) * (rng.random((12, 9, 3, 5)) < 0.05)
        cfg = FwConfig(shift=2)
        sigma = {k: dominant_sigma(Gram(unfold(grad, UnfoldSpec(k, 2)))) for k in (1, 2, 3, 4)}
        bound = {k: pruning_bound(unfold(grad, UnfoldSpec(k, 2))) for k in (1, 2, 3, 4)}
        assert sigma[1] == sigma[3] and sigma[2] == sigma[4]
        solves = 1 + (bound[1] >= sigma[2])
        assert solves == 1 + (bound[3] >= sigma[4]) == {0: 2, 1: 2, 2: 2, 3: 1, 4: 1}[seed]
        pick = self._counting_select(monkeypatch, grad, cfg)
        assert pick({1, 3}) == (1, 1)
        assert pick({2, 4}) == (2, 1)
        # a mode whose twin is not active is evaluated itself
        assert pick({3, 4}) == (3 if sigma[3] >= sigma[4] else 4, solves)
        assert pick({1, 2, 3, 4}) == (1 if sigma[1] >= sigma[2] else 2, solves)

    def test_square_twins_tie_toward_smaller_mode(self, monkeypatch):
        # the mode-2/4 unfoldings are 6x6 transposes. Evaluated apart, a @ a.T
        # and a.T @ a round differently, and for this seed mode 4's sigma
        # comes out one ulp larger; the twin's sigma is reused instead, so
        # the tie goes to the smaller mode, as for the non-square 4x9 / 9x4
        # mode-1/3 pair
        rng = np.random.default_rng(2)
        grad = rng.normal(size=(2, 3, 3, 2))
        sigma = {k: dominant_sigma(Gram(unfold(grad, UnfoldSpec(k, 2)))) for k in (1, 2, 3, 4)}
        assert sigma[4] > sigma[2] > sigma[1] == sigma[3]
        pick = self._counting_select(monkeypatch, grad, FwConfig(shift=2))
        # the 4-side mode 1 goes first; mode 2's bound is at least its sigma,
        # above mode 1's, so it is eigensolved
        assert pick({1, 2, 3, 4}) == (2, 2)
        assert pick({2, 4}) == (2, 1)
        assert pick({4}) == (4, 1)

    @staticmethod
    def _counting_select(monkeypatch, grad, cfg):
        """``select_mode`` on ``grad`` (observed where nonzero) as a function
        of the active set, returning the pick and its ``dominant_sigma`` calls;
        the returned Gram must hold the pick's unfolding of ``grad`` and factor
        bitwise as a Gram made from that unfolding does."""
        calls = []

        def counting_sigma(gram):
            calls.append(gram.shape)
            return dominant_sigma(gram)

        monkeypatch.setattr(completion_mod, "dominant_sigma", counting_sigma)
        t = observed(grad)
        grads = GradientUnfoldings(t, cfg.shift)

        def pick(active):
            calls.clear()
            k, gram = select_mode(grads, t.values, cfg, active)
            m = unfold(grad, UnfoldSpec(k, cfg.shift))
            np.testing.assert_array_equal(np.ldexp(gram.a, gram.exp), m)
            got, want = truncated_svd(gram, min(m.shape)), truncated_svd(Gram(m), min(m.shape))
            for name in ("u", "sigma", "v"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert k == exhaustive_select(grad, cfg.shift, active)[0]
            return k, len(calls)

        return pick


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
    st.sampled_from([None, 0.0, 1e-14, 1e-13]),
    st.integers(min_value=1, max_value=2**5 - 1),
    st.integers(min_value=0, max_value=10**6),
)
def test_select_mode_matches_exhaustive_eigensolves(dims, tie_jitter, active_bits, seed):
    """Pruned, cheapest-first selection picks what an eigensolve of every
    candidate picks, and hands over the same Gram bytes, at every shift. With
    ``tie_jitter`` set, the gradient is rank one on a random sub-box, so every
    unfolding has the same single sigma: a near-tie within 1e-12 relative,
    broken only by rounding and the ``tie_jitter`` relative perturbation, in
    which the Frobenius bound meets the sigma it bounds."""
    shape = tuple(dims)
    rng = np.random.default_rng(seed)
    if tie_jitter is None:
        grad = rng.normal(size=shape) * (rng.random(shape) < 0.3)
        grad.flat[rng.integers(grad.size)] = 1.0
    else:
        factors = [rng.normal(size=n) * (rng.random(n) < 0.7) for n in shape]
        for f in factors:
            f[rng.integers(f.size)] = 1.0 + rng.random()
        grad = functools.reduce(np.multiply.outer, factors)
        grad *= 1.0 + tie_jitter * rng.normal(size=shape)
    active = {k for k in range(1, len(shape) + 1) if active_bits >> (k - 1) & 1}
    active = active or set(range(1, len(shape) + 1))
    t = observed(grad)
    for shift in range(1, len(shape)):
        grads = GradientUnfoldings(t, shift)
        k, gram = select_mode(grads, t.values, FwConfig(shift=shift), active)
        want, want_gram, sigmas = exhaustive_select(grad, shift, active)
        if tie_jitter is not None:
            assert max(sigmas.values()) <= (1.0 + 1e-12) * min(sigmas.values())
        assert k == want
        assert (gram.exp, gram.g.tobytes()) == (want_gram.exp, want_gram.g.tobytes())


def frobenius_only_solves(grad, shift, active):
    """The eigensolves ``select_mode`` ran with the Frobenius bound alone: the
    same candidates in the same order, each eigensolved unless its widened
    bound ``||G||_F**(1/2)`` falls below the best sigma so far."""
    dims = {k: UnfoldSpec(k, shift).matrix_dims(grad.shape) for k in active}
    best, solves = -np.inf, 0
    for k in sorted(active, key=lambda j: (min(dims[j]), j)):
        if grad.ndim == 2 * shift and k - shift in active:
            continue
        gram = Gram(unfold(grad, UnfoldSpec(k, shift)))
        widened = np.sqrt(np.linalg.norm(gram.g)) * (1.0 + completion_mod._PRUNE_MARGIN)
        if np.ldexp(widened, gram.exp) >= best:
            solves += 1
            best = max(best, dominant_sigma(gram))
    return solves


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
    st.sampled_from(["sparse", "duplicated", "rank-one"]),
    st.sampled_from([-600, 0, 600]),
    st.integers(min_value=1, max_value=2**5 - 1),
    st.integers(min_value=0, max_value=10**6),
)
def test_squared_gram_pruning_is_exact_and_never_dearer(dims, kind, scale, active_bits, seed):
    """With the squared-Gram bound, selection still picks bitwise what an
    eigensolve of every candidate picks, with its Gram bytes, at every shift
    (twins included), and runs no more eigensolves than the Frobenius bound
    alone. ``duplicated`` copies one slice along a random axis into all
    slices along it, so each unfolding repeats rows or columns; ``rank-one``
    gives every unfolding one sigma, a near-tie within 1e-12 relative in which
    the squared-Gram bound meets the sigma it bounds (up to rounding). Each
    gradient is scaled by ``2**scale``."""
    shape = tuple(dims)
    rng = np.random.default_rng(seed)
    if kind == "rank-one":
        factors = [rng.normal(size=n) * (rng.random(n) < 0.7) for n in shape]
        for f in factors:
            f[rng.integers(f.size)] = 1.0 + rng.random()
        grad = functools.reduce(np.multiply.outer, factors)
    else:
        grad = rng.normal(size=shape) * (rng.random(shape) < 0.4)
        if kind == "duplicated":
            axis = int(rng.integers(len(shape)))
            grad = np.repeat(np.take(grad, [0], axis=axis), shape[axis], axis=axis)
        grad.flat[0] = 1.0
    grad = np.ldexp(grad, scale)
    active = {k for k in range(1, len(shape) + 1) if active_bits >> (k - 1) & 1}
    active = active or set(range(1, len(shape) + 1))
    t = observed(grad)
    solved = []

    def counting_sigma(gram):
        solved.append(gram.shape)
        return dominant_sigma(gram)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(completion_mod, "dominant_sigma", counting_sigma)
        for shift in range(1, len(shape)):
            solved.clear()
            k, gram = select_mode(GradientUnfoldings(t, shift), t.values,
                                  FwConfig(shift=shift), active)
            want, want_gram, _ = exhaustive_select(grad, shift, active)
            assert k == want
            assert (gram.exp, gram.g.tobytes()) == (want_gram.exp, want_gram.g.tobytes())
            assert 1 <= len(solved) <= frobenius_only_solves(grad, shift, active)


@pytest.mark.parametrize("shape", [(3, 7), (30, 16384), (384, 1280), (1280, 384)])
@pytest.mark.parametrize("kind", ["normal", "rank-one", "equal-sigmas"])
def test_widened_squared_gram_bound_is_at_least_sigma(kind, shape):
    """``||G @ G||_F**(1/4) * (1 + _PRUNE_MARGIN)`` bounds the eigensolved
    sigma from above, both where it is tight (rank one: equal in exact
    arithmetic, so only the margin covers the rounding of the two sides) and
    where it is loosest (all ``n`` singular values equal: ``n**(1/8)``
    times sigma, against ``n**(1/4)`` for the Frobenius bound)."""
    rng = np.random.default_rng(7)
    small = min(shape)
    if kind == "normal":
        m = rng.normal(size=shape)
    elif kind == "rank-one":
        m = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))
    else:
        q = np.linalg.qr(rng.normal(size=(max(shape), small)))[0] * 3.0
        m = q if shape[0] >= shape[1] else q.T
    gram = Gram(m)
    sigma = dominant_sigma(gram)
    root = np.linalg.norm(gram.g @ gram.g) ** 0.25
    assert np.ldexp(root * (1.0 + completion_mod._PRUNE_MARGIN), gram.exp) >= sigma
    ratio = {"rank-one": 1.0, "equal-sigmas": small ** 0.125}.get(kind)
    if ratio is not None:
        assert np.ldexp(root, gram.exp) == pytest.approx(ratio * sigma, rel=1e-12)


class TestGradientUnfoldings:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_scatter_is_unfold_of_dense_gradient(self, dims, density, seed):
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))
        flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
        idx = np.stack(np.unravel_index(flat, shape), axis=1)
        t = SparseTensor(shape, idx, rng.normal(size=flat.size))
        residual = rng.normal(size=flat.size)
        grad = np.zeros(shape)
        grad[tuple(idx.T)] = residual
        for shift in range(1, len(shape)):
            grads = GradientUnfoldings(t, shift)
            for k in range(1, len(shape) + 1):
                m = grads.matrix(k, residual, k % 2)
                ref = unfold(grad, UnfoldSpec(k, shift))
                assert m.flags.f_contiguous
                assert m.shape == ref.shape
                assert m.tobytes(order="F") == ref.tobytes(order="F")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_positions_match_dense_unfold_of_entry_numbers(self, dims, density, seed):
        # the O(nnz) weights find the places the dense construction found:
        # unfold a tensor of entry numbers and read off where each one lands
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))
        flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
        t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1),
                         rng.normal(size=flat.size))
        numbers = t.to_dense(np.arange(1, t.nnz + 1))
        for shift in range(1, len(shape)):
            grads = GradientUnfoldings(t, shift)
            for k in range(1, len(shape) + 1):
                entry = unfold(numbers, UnfoldSpec(k, shift)).ravel(order="F")
                where = np.flatnonzero(entry)
                ref = np.empty(t.nnz, dtype=np.intp)
                ref[entry[where] - 1] = where
                np.testing.assert_array_equal(grads.positions[k], ref)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_step_values_are_the_gathered_step(self, dims, density, seed):
        # at every shift, mode and rank 1..min(rows, cols), with zeros of
        # either sign in the factors: what the loop line-searches is the step
        # tensor at the observed entries, as floats (-0.0 == 0.0)
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))
        flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
        t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1),
                         rng.normal(size=flat.size))
        for shift in range(1, len(shape)):
            grads = GradientUnfoldings(t, shift)
            for k in range(1, len(shape) + 1):
                rows, cols = grads.dims[k]
                top = min(rows, cols)
                for r in sorted({1, int(rng.integers(1, top + 1)), top}):
                    u = rng.normal(size=(rows, r)) * (rng.random((rows, r)) < 0.8)
                    v = rng.normal(size=(cols, r)) * (rng.random((cols, r)) < 0.8)
                    step = GradientStep(k, u, rng.uniform(0.1, 10.0, size=r), v)
                    got, m = grads.step_values(step, np.empty(total))
                    want = gather(t, dense_step(step, shape, shift))
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert (got == want).all()
                    if r == 1:
                        assert m is None
                    else:
                        assert m.tobytes() == step.matrix().tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_recycled_buffers_never_leak_a_residual(self, dims, density, seed):
        # matrix calls interleave over modes, residuals and the two slots,
        # with a point at another observed set of the shape now and then:
        # every unfolding handed out is bitwise unfold of its own dense
        # gradient, whatever its slot held before, and the other slot's
        # unfolding is left as it was until a point zeroes both. A slot keeps
        # its buffer across points, so at most two exist (every unfolding is
        # kept alive here, so no address can be reused by a fresh allocation)
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))

        def observed_set():
            flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
            idx = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(shape, idx, rng.normal(size=flat.size)), idx

        t, idx = observed_set()
        shift = int(rng.integers(1, len(shape)))
        grads = GradientUnfoldings(t, shift)
        kept, seen, live = [], set(), {}  # live: slot -> (address, unfolding, its bytes)
        for _ in range(16):
            if live and rng.random() < 0.2:
                t, idx = observed_set()
                grads.point(t)
                for slot, (address, held, _) in live.items():
                    assert not held.any()
                    live[slot] = address, held, held.tobytes(order="F")
                continue
            k, slot = int(rng.integers(1, len(shape) + 1)), int(rng.integers(2))
            residual = rng.normal(size=t.nnz)
            grad = np.zeros(shape)
            grad[tuple(idx.T)] = residual
            m = grads.matrix(k, residual, slot)
            ref = unfold(grad, UnfoldSpec(k, shift)).tobytes(order="F")
            assert m.flags.f_contiguous and m.shape == grads.dims[k]
            assert m.tobytes(order="F") == ref
            address = m.__array_interface__["data"][0]
            if slot in live:
                assert address == live[slot][0]
            else:
                assert address not in seen
            for other, (_, held, want) in live.items():
                if other != slot:
                    assert held.tobytes(order="F") == want
            kept.append(m)
            seen.add(address)
            live[slot] = address, m, ref

    def test_same_mode_again_overwrites_every_position(self):
        # a slot scattered again along the mode it holds is not zeroed first:
        # the scatter alone leaves no trace of the earlier residual and keeps
        # each zero's sign. A change of mode in between zeroes the old places
        shape = (3, 4, 2, 5)
        rng = np.random.default_rng(5)
        flat = rng.choice(120, size=40, replace=False)
        idx = np.stack(np.unravel_index(flat, shape), axis=1)
        t = SparseTensor(shape, idx, rng.normal(size=40))
        r1, r2 = rng.normal(size=40), rng.normal(size=40)
        r2[::3], r2[1::3] = 0.0, -0.0
        first, second = (r1, t.to_dense(r1)), (r2, t.to_dense(r2))
        for shift in range(1, len(shape)):
            grads = GradientUnfoldings(t, shift)
            for k in range(1, len(shape) + 1):
                other = k % len(shape) + 1
                for slot in (0, 1):
                    for mode, (residual, grad) in ((k, first), (k, second), (other, first),
                                                   (k, second)):
                        m = grads.matrix(mode, residual, slot)
                        ref = unfold(grad, UnfoldSpec(mode, shift))
                        assert m.tobytes(order="F") == ref.tobytes(order="F")


    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_repeated_scatters_of_a_mode_are_unfold(self, dims, density, seed):
        # every mode is scattered three times per observed set, round robin
        # over the modes and alternating slots, so its 2nd and 3rd scatters
        # go through its sorted positions; then the unfoldings are pointed at
        # another observed set (other entries, listed in another order) and
        # the rounds repeat. Each unfolding handed out is bitwise unfold of
        # its own dense gradient
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))

        def observed_set():  # entries in drawn order, not in any unfolding's
            flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
            idx = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(shape, idx, rng.normal(size=flat.size)), idx

        shift = int(rng.integers(1, len(shape)))
        t, idx = observed_set()
        grads = GradientUnfoldings(t, shift)
        for _ in range(2):
            for round_ in range(3):
                for k in range(1, len(shape) + 1):
                    residual = rng.normal(size=t.nnz)
                    grad = np.zeros(shape)
                    grad[tuple(idx.T)] = residual
                    m = grads.matrix(k, residual, (k + round_) % 2)
                    ref = unfold(grad, UnfoldSpec(k, shift))
                    assert m.tobytes(order="F") == ref.tobytes(order="F")
            t, idx = observed_set()
            grads.point(t)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_pointed_at_another_tensor_keeps_its_buffers(self, dims, density, seed):
        # scattered along every mode from both slots, then pointed at a tensor
        # of the same shape with other entries: each unfolding handed out is
        # bitwise unfold of the new dense gradient, in the same two buffers
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))

        def tensor():
            flat = np.sort(rng.choice(total, size=max(1, round(density * total)), replace=False))
            idx = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(shape, idx, rng.normal(size=flat.size))

        shift = int(rng.integers(1, len(shape)))
        first, second = tensor(), tensor()
        grads = GradientUnfoldings(first, shift)
        held = [grads.matrix(k, first.values, k % 2) for k in range(1, len(shape) + 1)]
        addresses = {m.__array_interface__["data"][0] for m in held}
        grads.point(second)
        for k in range(len(shape), 0, -1):
            m = grads.matrix(k, second.values, k % 2)
            ref = unfold(second.to_dense(), UnfoldSpec(k, shift))
            assert m.tobytes(order="F") == ref.tobytes(order="F")
            assert m.__array_interface__["data"][0] in addresses


class TestGradientStep:
    def test_multi_rank_normalization(self):
        grad = fold(np.diag([3.0, 1.0]), UnfoldSpec(1, 1), (2, 2, 1))
        step = step_of(unfolded(grad, 1), 1, 2)
        s_unf = unfold(dense_step(step, (2, 2, 1), 1), UnfoldSpec(1, 1)) / completion_mod._STEP_SCALE
        np.testing.assert_allclose(s_unf, np.diag([3.0, 1.0]) / 4.0, atol=1e-12)

    def test_rank_one_drops_sigma_structure(self):
        grad = fold(np.diag([3.0, 1.0]), UnfoldSpec(1, 1), (2, 2, 1))
        step = step_of(unfolded(grad, 1), 1, 2, update_rule="rank1")
        s_unf = unfold(dense_step(step, (2, 2, 1), 1), UnfoldSpec(1, 1)) / completion_mod._STEP_SCALE
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(s_unf, expected, atol=1e-12)

    def test_beta_linearity(self, monkeypatch):
        # the step is linear in the step scale
        grad = RNG.normal(size=(3, 4, 2))
        monkeypatch.setattr(completion_mod, "_STEP_SCALE", 1.0)
        s1 = dense_step(step_of(unfolded(grad, 2), 2, 2), (3, 4, 2), 1)
        monkeypatch.setattr(completion_mod, "_STEP_SCALE", 2.0)
        s2 = dense_step(step_of(unfolded(grad, 2), 2, 2), (3, 4, 2), 1)
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_weights_sum_to_beta(self, monkeypatch):
        # the weights sum to the step scale, at its value and at another
        grad = RNG.normal(size=(3, 4, 2))
        for scale in (completion_mod._STEP_SCALE, 37.5):
            monkeypatch.setattr(completion_mod, "_STEP_SCALE", scale)
            for rule in ("multi", "rank1"):
                step = step_of(unfolded(grad, 1), 1, 2, update_rule=rule)
                assert abs(step.weights.sum() - scale) <= 1e-9 * scale

    def test_positive_correlation_with_gradient(self):
        grad = RNG.normal(size=(3, 4, 5))
        step = step_of(unfolded(grad, 2), 2, 3)
        s = dense_step(step, (3, 4, 5), 1)
        assert float((s * grad).sum()) > 0

    def test_zero_weight_components_never_returned(self):
        # gradient unfolding of rank 1, but r_k allows 2
        spec = UnfoldSpec(1, 1)
        grad = fold(np.outer([1.0, 0.0], [1.0, 2.0]), spec, (2, 2, 1))
        step = step_of(unfolded(grad, 1), 1, 2)
        assert step.rank == 1
        assert (step.weights > 0).all()


    @pytest.mark.parametrize("rule", ["multi", "rank1"])
    def test_step_factors_are_views_of_the_triplets(self, rule):
        # the kept triplets are a prefix, so the step holds views of the
        # triplets' factors, wide (u the small side) or tall, never copies
        for shape in ((3, 40), (40, 3)):
            trip = truncated_svd(Gram(RNG.normal(size=shape)), 3)
            step = gradient_step(trip, 1, 2, rule)
            assert step.rank == (1 if rule == "rank1" else 2)
            assert np.shares_memory(step.u, trip.u) and np.shares_memory(step.v, trip.v)
            assert (step.u == trip.u[:, :step.rank]).all()
            assert (step.v == trip.v[:, :step.rank]).all()

    @pytest.mark.parametrize("tail", [
        [2.0, 0.0, 0.0],  # exact zeros
        [2.0, 1e-9, 0.0],  # below the cut
        [5e-7, 0.0, 0.0],  # at the cut: sigma_1 * _SIGMA_EPS itself, not above it
        ["next", 0.0, 0.0],  # the float just above the cut
        [3.0, 2.0, 1.0],  # nothing to drop
    ])
    def test_sigma_tails_dropped_as_the_boolean_mask_dropped_them(self, tail):
        # what the step keeps, at every allowance and under both rules, is
        # bitwise what the boolean-mask selection of the kept triplets gave
        cut = 5.0 * completion_mod._SIGMA_EPS
        sigma = np.array([5.0] + [np.nextafter(cut, np.inf) if s == "next" else
                                  (cut if s == 5e-7 else s) for s in tail])
        trip = SvdTriplet(RNG.normal(size=(6, 4)), sigma, RNG.normal(size=(9, 4)))
        for rule in ("multi", "rank1"):
            for r_k in range(1, 5):
                step = gradient_step(trip, 2, r_k, rule)
                r = 1 if rule == "rank1" else r_k
                keep = sigma[:r] > sigma[0] * completion_mod._SIGMA_EPS
                assert step.u.tobytes() == trip.u[:, :r][:, keep].tobytes()
                assert step.v.tobytes() == trip.v[:, :r][:, keep].tobytes()
                if rule == "multi":
                    kept = sigma[:r][keep]
                    want = completion_mod._STEP_SCALE / float(kept.sum()) * kept
                    assert step.weights.tobytes() == want.tobytes()


class TestLineSearch:
    def test_exact_fit_step(self):
        t = two_cell_tensor()
        x = np.zeros((2, 2, 1))
        s = np.zeros((2, 2, 1))
        s[0, 0, 0], s[1, 1, 0] = -3.0, -4.0
        gamma = search(x, t, s)
        assert gamma == pytest.approx(1.0, abs=1e-12)
        fitted = x - gamma * s
        np.testing.assert_allclose(gather(t, fitted), t.values, atol=1e-12)

    def test_anticorrelated_clamps_to_zero(self):
        t = two_cell_tensor()
        x = np.zeros((2, 2, 1))
        s = np.zeros((2, 2, 1))
        s[0, 0, 0], s[1, 1, 0] = 3.0, 4.0  # points away from the residual
        assert search(x, t, s) == 0.0

    def test_zero_overlap_signals(self):
        t = two_cell_tensor()
        s = np.zeros((2, 2, 1))
        s[0, 1, 0] = 5.0  # only touches unobserved cells
        assert search(np.zeros((2, 2, 1)), t, s) == 0.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        gammas = np.arange(0.0, 10.0 + 1e-9, 1e-4)
        for trial in range(20):
            t, x, s = _random_line_search_fixture(rng)
            gamma = search(x, t, s)
            obs_x, obs_s = gather(t, x), gather(t, s)
            objective = ((obs_x[None, :] - gammas[:, None] * obs_s[None, :] - t.values) ** 2).sum(
                axis=1
            )
            gamma_grid = gammas[int(np.argmin(objective))]
            assert abs(gamma - gamma_grid) <= 1e-4 + 1e-9


def _random_line_search_fixture(rng):
    shape = (3, 4, 5)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=20, replace=False)
    idx = np.stack(np.unravel_index(flat, shape, order="F"), axis=1)
    t = SparseTensor(shape, idx, rng.normal(size=20))
    x = rng.normal(size=shape)
    s = rng.normal(size=shape)
    gamma0 = search(x, t, s)
    if gamma0 == 0.0:
        s = -s
        gamma0 = search(x, t, s)
    # rescale so the optimum lies strictly inside the oracle grid
    target = rng.uniform(0.1, 9.0)
    return t, x, s * (gamma0 / target)


def form_in_workspace(state, step):
    """Form ``step``'s product in ``state``'s workspace, as the sweep does to
    line-search a multi-rank step, so the replay of ``x`` reads it there."""
    ws = state._ws
    step.matrix(ws.product.reshape(UnfoldSpec(step.mode, state.shift).matrix_dims(state.shape)))
    ws.formed = weakref.ref(step)


class TestApplyUpdate:
    def test_non_finite_iterate_raises(self):
        # the log takes the step; building the dense iterate from it catches it
        t = two_cell_tensor()
        state = FwState.initial(t.shape, 1)
        step = step_of(unfolded(-t.to_dense(), 1), 1, 2)
        apply_update(state, step, np.inf)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            state.x

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=1e3),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_update_moves_x_by_exactly_minus_gamma_s(self, dims, shift, r, gamma, seed):
        shape = tuple(dims)
        shift = min(shift, len(shape) - 1)
        rng = np.random.default_rng(seed)

        def random_step(rank):
            k = int(rng.integers(1, len(shape) + 1))
            m = unfold(rng.normal(size=shape), UnfoldSpec(k, shift))
            return step_of(m, k, min(rank, *m.shape))

        def log(state, step, gamma):  # with or without its product in the workspace
            if rng.random() < 0.5:
                form_in_workspace(state, step)
            apply_update(state, step, gamma)

        state = FwState.initial(shape, shift)
        for _ in range(int(rng.integers(0, 3))):  # x0 is what the logged steps made
            log(state, random_step(int(rng.integers(1, 4))), rng.uniform(0.1, 10.0))
        state.consumed = {k: int(rng.integers(0, cap + 1)) for k, cap in state.caps.items()}
        step = random_step(r)
        s0 = dense_step(step, shape, shift)
        x0 = dataclasses.replace(state, steps=list(state.steps)).x.copy()  # state's x unread
        consumed0 = dict(state.consumed)
        log(state, step, gamma)
        assert state.x.tobytes() == (x0 - gamma * s0).tobytes()
        assert state.consumed == {**consumed0, step.mode: consumed0[step.mode] + step.rank}

    @pytest.mark.parametrize("n_steps", [0, 1, 3])
    def test_x_is_the_zero_started_replay_signs_of_zero_included(self, n_steps):
        # x starts from the first step's product, not from zeros, yet must be
        # bitwise the replay from x = 0: where a step's unfolding is zero its
        # product with -gamma is -0.0, and 0.0 + -0.0 reads +0.0
        shape, shift = (3, 4, 2, 5), 2
        rng = np.random.default_rng(n_steps)
        state = FwState.initial(shape, shift)
        for i, (k, rank) in enumerate([(1, 2), (3, 1), (1, 3)][:n_steps]):
            rows, cols = UnfoldSpec(k, shift).matrix_dims(shape)
            u, v = rng.normal(size=(rows, rank)), rng.normal(size=(cols, rank))
            u[0] = 0.0  # a zero row of the step's unfolding
            step = GradientStep(k, u, np.full(rank, 1e5 / rank), v)
            if i == n_steps - 1:
                form_in_workspace(state, step)
            apply_update(state, step, rng.uniform(0.1, 2.0))
        replay = np.zeros(shape)
        for step, gamma in state.steps:
            replay += dense_step(step, shape, shift) * -gamma
        x = state.x
        assert len(state.steps) == n_steps
        assert x.tobytes() == replay.tobytes()
        np.testing.assert_array_equal(np.signbit(x), np.signbit(replay))
        assert (replay == 0.0).any()  # where the products hold -0.0, if there are steps

    def test_full_iteration_fits_two_cells(self):
        t = two_cell_tensor()
        state, trace = complete(t, FwConfig(), 4)
        assert trace[0].rse == 1.0
        assert trace[-1].rse <= 1e-12

    def test_objective_never_increases(self):
        obs, _ = synth_low_rank((6, 5, 4, 3), (2, 2, 2, 2), observe_fraction=0.4, seed=3)
        _, trace = complete(obs, FwConfig(), 10)
        rses = [row.rse for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(rses, rses[1:]))

    def test_representation_matches_iterate_every_step(self):
        # the state (step log plus rank ledger) moves by exactly what each
        # applied step says: x by -gamma * S, the step's mode by its rank
        obs, _ = synth_low_rank((6, 5, 4), (2, 2, 1), observe_fraction=0.5, seed=9)
        cfg, budget = FwConfig(), 6
        state = FwState.initial(obs.shape, cfg.shift)
        grads = GradientUnfoldings(obs, cfg.shift)
        applied = 0
        for _ in range(4):
            residual = gather(obs, state.x) - obs.values
            if np.linalg.norm(residual) / np.linalg.norm(obs.values) < 1e-12:
                break
            k, gram = select_mode(grads, residual, cfg, state.active)
            r = update_rank_budget(state, k, budget)
            if r == 0:
                break
            step = gradient_step(truncated_svd(gram, r), k, r)
            s_dense = dense_step(step, obs.shape, cfg.shift)
            gamma = line_search(residual, gather(obs, s_dense))
            x_before, consumed_before = state.x.copy(), dict(state.consumed)
            apply_update(state, step, gamma)
            np.testing.assert_array_equal(state.x, x_before - gamma * s_dense)
            assert state.consumed == {**consumed_before, k: consumed_before[k] + step.rank}
            applied += 1
        assert applied > 0


class TestUpdateRankBudget:
    def test_formula_at_paper_dims(self):
        state = FwState.initial((128, 128, 3, 10), 1)
        assert update_rank_budget(state, 3, 8) == 3

    def test_saturated_mode_pruned(self):
        state = FwState.initial((2, 3, 4), 1)
        state.consumed[1] = 2  # min dim of mode-1 unfolding is 2
        assert update_rank_budget(state, 1, 100) == 0
        assert 1 not in state.active

    def test_exhausted_budget_stops_everywhere(self):
        state = FwState.initial((4, 4, 4), 1)
        state.consumed[2] = 5
        for k in (1, 2, 3):
            assert update_rank_budget(state, k, 5) == 0
        assert 1 in state.active and 3 in state.active  # not saturated, just out of budget


class TestComplete:
    def test_fully_observed_rank_one(self):
        shape = (5, 4, 3)
        spec = UnfoldSpec(1, 1)
        rows, cols = spec.matrix_dims(shape)
        truth = fold(np.outer(RNG.normal(size=rows), RNG.normal(size=cols)), spec, shape)
        total = int(np.prod(shape))
        idx = np.stack(np.unravel_index(np.arange(total), shape, order="F"), axis=1)
        t = SparseTensor(shape, idx, truth.ravel(order="F"))
        _, trace = complete(t, FwConfig(), 3)
        assert len(trace) - 1 <= 2
        assert trace[-1].rse <= 1e-8

    def test_empty_tensor_rejected(self):
        t = SparseTensor((2, 2, 2), np.zeros((0, 3), dtype=int), [])
        with pytest.raises(ValueError):
            complete(t, FwConfig(), 2)

    def test_all_zero_values_rejected(self):
        t = SparseTensor((2, 2, 2), [[0, 0, 0]], [0.0])
        with pytest.raises(ValueError):
            complete(t, FwConfig(), 2)

    def test_thirty_percent_observed_rank2(self):
        obs, _ = synth_low_rank((10, 10, 5, 5), (2, 2, 2, 2), observe_fraction=0.3, seed=7)
        _, trace = complete(obs, FwConfig(), 8)
        assert trace[-1].rse <= 1e-6

    def test_rank_ledger_respected(self):
        for seed in range(5):
            obs, _ = synth_low_rank((7, 6, 5, 4), (2, 2, 2, 2), observe_fraction=0.5, seed=seed)
            budget = 9
            state, trace = complete(obs, FwConfig(), budget)
            assert state.consumed_total() <= budget
            assert len(trace) - 1 <= budget
            for k, consumed in state.consumed.items():
                rows, cols = UnfoldSpec(k, 1).matrix_dims(obs.shape)
                assert consumed <= min(rows, cols)

    def test_trace_modes_and_gamma_recorded(self):
        obs, _ = synth_low_rank((6, 5, 4), (1, 1, 1), observe_fraction=0.6, seed=2)
        _, trace = complete(obs, FwConfig(), 3)
        for row in trace[1:]:
            assert row.mode in (1, 2, 3)
            assert row.gamma > 0

    def test_fold_runs_once_per_applied_step(self, monkeypatch):
        # the loop evaluates each step at the observed entries only; the first
        # read of x folds every logged step once, and a second read none
        calls = []

        def counting_fold(*args):
            calls.append(args[1].mode)
            return fold(*args)

        monkeypatch.setattr(completion_mod, "fold", counting_fold)
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        for rule, steps in (("rank1", 8), ("multi", 1)):
            calls.clear()
            state, trace = complete(obs, FwConfig(shift=2, update_rule=rule), 8)
            assert len(trace) - 1 == len(state.steps) == steps
            assert calls == []
            x = state.x
            assert calls == [row.mode for row in trace[1:]]
            assert state.x is x
            assert len(calls) == len(trace) - 1

    def test_unfold_never_runs_in_a_solve(self, monkeypatch):
        # the step's gradient unfoldings are scattered from the residual, and
        # the entry positions come from per-axis weights, not a dense unfold
        calls = []

        def counting_unfold(*args):
            calls.append(args[1].mode)
            return unfold(*args)

        monkeypatch.setattr(completion_mod, "unfold", counting_unfold)
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        _, trace = complete(obs, FwConfig(shift=2, update_rule="rank1"), 8)
        assert len(trace) - 1 == 8
        assert calls == []

    @pytest.mark.parametrize("budgets", [(8,), (2, 9)])
    def test_blow_up_raises_mid_solve(self, monkeypatch, budgets):
        # a step that makes the observed iterate non-finite stops the solve at
        # that step, on the shared path and on a budget's own last step (the
        # first step spends the 4-row mode-4 unfolding's rank 4; budget 2
        # takes its own), before any result is yielded
        monkeypatch.setattr(completion_mod, "line_search", lambda residual, s_obs: np.inf)
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"non-finite iterate after mode-4 update \(gamma=inf\)"):
            next(complete_sweep(obs, FwConfig(), budgets))

    def test_a_zero_gradient_ends_every_budget_where_it_stands(self, monkeypatch):
        # step 2's SVD reports a zero gradient: every budget stops there and
        # yields the state step 1 left, charged and traced once, bitwise a
        # one-step solve
        calls = []

        def zero_on_step_two(gram, r):
            trip = truncated_svd(gram, r)
            calls.append(r)
            if len(calls) == 2:
                trip.sigma[:] = 0.0
            return trip

        monkeypatch.setattr(completion_mod, "truncated_svd", zero_on_step_two)
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        cfg = FwConfig(update_rule="rank1")
        swept = list(complete_sweep(obs, cfg, (2, 4, 8)))
        assert len(calls) == 2
        monkeypatch.undo()
        ref_state, ref_trace = complete(obs, cfg, 1)
        assert [b for b, _, _ in swept] == [2, 4, 8]
        for _, state, trace in swept:
            assert len(trace) == 2 and len(state.steps) == 1
            assert state.consumed == ref_state.consumed
            assert trace_columns(trace) == trace_columns(ref_trace)
            assert state.x.tobytes() == ref_state.x.tobytes()

    def test_all_modes_stalled_is_clean_convergence(self, monkeypatch):
        obs, _ = synth_low_rank((4, 4, 4), (1, 1, 1), observe_fraction=0.5, seed=1)
        monkeypatch.setattr(completion_mod, "line_search", lambda *a, **k: 0.0)
        state, trace = complete(obs, FwConfig(), 4)
        assert len(trace) == 1  # only the baseline row
        assert not state.x.any()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["multi", "rank1"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_solver_invariants(dims, shift, budget, rule, seed):
    shape = tuple(dims)
    shift = min(shift, len(shape) - 1)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, total // 2), replace=False)
    idx = np.stack(np.unravel_index(flat, shape, order="F"), axis=1)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, idx, values)
    cfg = FwConfig(shift=shift, update_rule=rule)
    state, trace = complete(t, cfg, budget)
    min_dim = {k: min(UnfoldSpec(k, shift).matrix_dims(shape)) for k in range(1, len(shape) + 1)}
    assert state.consumed_total() <= budget
    assert all(state.consumed[k] <= min_dim[k] for k in min_dim)
    # no iteration cap: the loop ends because every applied step charges rank >= 1
    assert len(trace) - 1 <= state.consumed_total() <= budget
    for row in trace[1:]:
        assert row.gamma > 0
        assert row.mode in min_dim
    rses = [row.rse for row in trace]
    assert all(b <= a + 1e-12 for a, b in zip(rses, rses[1:]))
    assert state.active == {k for k in min_dim if state.consumed[k] < min_dim[k]}
    # the ledger is the per-mode sum of the logged steps' ranks
    for k in min_dim:
        assert state.consumed[k] == sum(step.rank for step, _ in state.steps if step.mode == k)
    for k, c in state.consumed.items():
        rows, cols = UnfoldSpec(k, shift).matrix_dims(shape)
        allowance = max(min(rows - c, cols - c, budget - state.consumed_total()), 0)
        assert update_rank_budget(state, k, budget) == allowance


def near_rank_one(shape, rng):
    """A CP rank-1 tensor of standard-normal vectors plus ``1e-9`` noise."""
    x = np.ones(())
    for n in shape:
        x = np.multiply.outer(x, rng.standard_normal(n))
    return x + 1e-9 * rng.standard_normal(shape)


def trace_columns(trace):
    """Every trace column but ``elapsed_s``."""
    return repr([(row.iteration, row.rse, row.mode, row.gamma) for row in trace])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4),
    st.sampled_from([1, 2]),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    st.sampled_from(["multi", "rank1"]),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_sweep_bitwise_equals_single_budget_solves(dims, shift, budgets, rule, density, seed,
                                                   near_low_rank):
    shape = tuple(dims)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    if near_low_rank:  # fully observed: the first step drops all but one triplet
        flat, values = np.arange(total), near_rank_one(shape, rng).ravel()
    else:
        flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
        values = rng.normal(size=flat.size)
        values[0] = 1.0  # never all zero
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1), values)
    cfg = FwConfig(shift=shift, update_rule=rule)
    swept = list(complete_sweep(t, cfg, budgets))  # every result kept while the sweep runs
    assert sorted(b for b, _, _ in swept) == sorted(set(budgets))
    for budget, state, trace in swept:
        ref_state, ref_trace = complete(t, cfg, budget)
        assert state.consumed == ref_state.consumed
        assert state.x.tobytes() == ref_state.x.tobytes()
        assert trace_columns(trace) == trace_columns(ref_trace)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4),
    st.sampled_from([1, 2]),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    st.sampled_from(["multi", "rank1"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_state_x_is_a_fresh_replay_of_its_log(dims, shift, budgets, rule, seed):
    # every state a sweep yields, a budget's own last step included: x is
    # bitwise x - gamma * S applied from zero for each logged pair in order,
    # the ledger is the logged ranks, and a second read returns the same array
    shape = tuple(dims)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, total // 2), replace=False)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1), values)
    for _, state, trace in complete_sweep(t, FwConfig(shift=shift, update_rule=rule), budgets):
        assert [gamma for _, gamma in state.steps] == [row.gamma for row in trace[1:]]
        replay = np.zeros(shape)
        for step, gamma in state.steps:
            replay = replay - gamma * dense_step(step, shape, shift)
        x = state.x
        assert x.tobytes() == replay.tobytes()
        assert state.x is x
        assert state.consumed_total() == sum(step.rank for step, _ in state.steps)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
    st.data(),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    st.sampled_from(["multi", "rank1"]),
    st.floats(min_value=0.05, max_value=0.6),
    st.integers(min_value=0, max_value=10**6),
)
def test_every_step_is_zero_off_the_observed_lines_of_its_unfolding(dims, data, budgets, rule,
                                                                    density, seed):
    # truncated_svd forms the long side from the zero-filled gradient G: along a
    # wide unfolding a step is c * U U^T G, along a tall one c * G V V^T, so every
    # column (row, if tall) of the step's unfolding that holds no observed entry
    # is exactly zero, for every applied step of every budget
    shape = tuple(dims)
    shift = data.draw(st.integers(min_value=1, max_value=len(shape) - 1))
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1), values)
    observed = t.to_dense(np.ones(t.nnz, dtype=bool))
    for _, state, _ in complete_sweep(t, FwConfig(shift=shift, update_rule=rule), budgets):
        for step, _ in state.steps:
            spec = UnfoldSpec(step.mode, shift)
            seen, m = unfold(observed, spec), step.matrix()
            rows, cols = spec.matrix_dims(shape)
            if rows <= cols:  # truncated_svd's wide rule
                assert not m[:, ~seen.any(axis=0)].any()
            else:
                assert not m[~seen.any(axis=1)].any()


class TestCompleteSweep:
    def fixture(self):
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        return obs

    def svd_ranks(self, monkeypatch):
        """The rank of every ``truncated_svd`` call the solver makes from now on."""
        calls = []

        def counting_svd(gram, r):
            calls.append(r)
            return truncated_svd(gram, r)

        monkeypatch.setattr(completion_mod, "truncated_svd", counting_svd)
        return calls

    @pytest.mark.parametrize("shift", [1, 2])
    def test_one_gram_per_candidate_evaluated_none_in_the_step(self, monkeypatch, shift):
        # order 4: at shift 2 the mode-(k + 2) unfolding of an active mode k is
        # its transpose and inherits its outcome, so it is not evaluated. Every
        # evaluated candidate's Gram is formed, pruned or not, from its
        # unfolding already scaled by the residual's exponent
        made, steps = [], []

        class CountingGram(Gram):
            def __init__(self, m, exp=None):
                made.append(exp)
                super().__init__(m, exp)

        def counting_select(grads, residual, cfg, active):
            before = len(made)
            k, gram = select_mode(grads, residual, cfg, active)
            assert made[before:] == [Gram.exponent(residual)] * (len(made) - before)
            steps.append((set(active), len(made) - before, gram))
            return k, gram

        def checking_svd(gram, r, **lent):
            assert gram is steps[-1][2]  # the step factors the selection's Gram
            return truncated_svd(gram, r, **lent)

        monkeypatch.setattr(completion_mod, "Gram", CountingGram)
        monkeypatch.setattr(completion_mod, "select_mode", counting_select)
        monkeypatch.setattr(completion_mod, "truncated_svd", checking_svd)
        complete(self.fixture(), FwConfig(shift=shift, update_rule="rank1"), 6)
        assert len(steps) > 1
        for active, n, _ in steps:
            evaluated = {k for k in active if not (shift == 2 and k - shift in active)}
            assert n == len(evaluated)
        assert steps[0][1] == 4 // shift
        assert len(made) == sum(n for _, n, _ in steps)  # none outside mode selection

    def test_pruning_skips_eigensolves_on_a_benchmark_shaped_fixture(self, monkeypatch):
        # a noisy CP-rank-2 tensor shaped like the benchmark's, at shift 2: the
        # 30-side mode 2 is evaluated first and wins every step, and on all but
        # one step the pruning bound of the 96-side mode 1 rules it out (the
        # Frobenius bound alone did on 5 of 12), so fewer eigensolves run than
        # candidates are evaluated; the solve is still bitwise the exhaustive one
        shape = (32, 32, 3, 10)
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((n, 2)) for n in shape]
        truth = np.einsum("ar,br,cr,dr->abcd", *(f / np.linalg.norm(f, axis=0) for f in factors))
        flat = np.sort(rng.choice(truth.size, size=truth.size // 2, replace=False))
        idx = np.stack(np.unravel_index(flat, shape), axis=1)
        values = truth[tuple(idx.T)]
        t = SparseTensor(shape, idx, values + 0.1 * values.std() * rng.standard_normal(flat.size))
        made, solved = [], []

        class CountingGram(Gram):
            def __init__(self, m, exp=None):
                made.append(m.shape)
                super().__init__(m, exp)

        def counting_sigma(gram):
            solved.append(gram.shape)
            return dominant_sigma(gram)

        monkeypatch.setattr(completion_mod, "Gram", CountingGram)
        monkeypatch.setattr(completion_mod, "dominant_sigma", counting_sigma)
        cfg = FwConfig(shift=2, update_rule="rank1")
        state, trace = complete(t, cfg, 12)
        assert len(trace) - 1 == 12
        assert len(made) == 2 * 12  # modes 1 and 2 each step; 3 and 4 are their twins
        assert len(solved) == 13
        assert solved.count((1024, 30)) == 12  # the cheap mode is never pruned
        ref_x, ref_trace = reference_complete(t, cfg, 12)
        assert trace_columns(trace) == repr(ref_trace)
        assert state.x.tobytes() == ref_x.tobytes()

    def test_a_benchmark_shaped_sweep_allocates_two_unfolding_buffers(self, monkeypatch):
        # the shape, shift, rule and budgets of the benchmark's complete run at
        # a quarter of its files: each step scatters two candidates, 24 in
        # all, into the same two buffers (every unfolding is kept alive here,
        # so no address can be reused by a fresh allocation)
        shape = (32, 32, 3, 10)
        rng = np.random.default_rng(1)
        flat = np.sort(rng.choice(int(np.prod(shape)), size=int(np.prod(shape)) // 5,
                                  replace=False))
        t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1),
                         rng.normal(size=flat.size))
        handed = []
        scatter = GradientUnfoldings.matrix

        def recording_matrix(grads, k, residual, slot):
            handed.append(scatter(grads, k, residual, slot))
            return handed[-1]

        monkeypatch.setattr(GradientUnfoldings, "matrix", recording_matrix)
        swept = list(complete_sweep(t, FwConfig(shift=2, update_rule="rank1"), (4, 8, 12)))
        assert [len(trace) - 1 for _, _, trace in swept] == [4, 8, 12]
        assert len(handed) == 24
        assert len({m.__array_interface__["data"][0] for m in handed}) == 2

    def test_states_held_by_a_library_caller_own_their_x(self):
        # under multi, budgets 3 and 8 take their own last step on the first
        # step, which spends budget 12: three logs, all held until the sweep
        # is done. No two states' x share memory, and each is bitwise the
        # replay of its log from fresh arrays
        shape, shift = (8, 7, 3, 4), 2
        swept = list(complete_sweep(self.fixture(), FwConfig(shift=shift), (3, 8, 12)))
        assert len({id(state.steps[-1][0]) for _, state, _ in swept}) == 3
        xs = [state.x for _, state, _ in swept]
        for i, a in enumerate(xs):
            assert not any(np.shares_memory(a, b) for b in xs[i + 1:])
        for (_, state, _), x in zip(swept, xs):
            replay = np.zeros(shape)
            for step, gamma in state.steps:
                replay = replay - gamma * dense_step(step, shape, shift)
            assert x.tobytes() == replay.tobytes()

    @pytest.mark.parametrize("rule", ["multi", "rank1"])
    def test_a_lent_sweep_read_on_arrival_is_the_library_sweep(self, rule):
        # two windows of one shape through one workspace, each state's x read
        # as it arrives: the traces, logs and iterates are bitwise what a
        # sweep from fresh arrays gives, forking budgets included, and every
        # lent x lives in the workspace
        cfg = FwConfig(shift=2, update_rule=rule)
        workspace = completion_mod._Workspace((8, 7, 3, 4))
        for seed in (6, 7):
            t, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=seed)
            fresh = [(b, state.x, trace) for b, state, trace in complete_sweep(t, cfg, (3, 8, 12))]
            lent = []
            for b, state, trace in complete_sweep(t, cfg, (3, 8, 12), _workspace=workspace):
                x = state.x
                assert x is workspace.x
                lent.append((b, x.copy(), trace))
            for (b, x, trace), (b_ref, x_ref, trace_ref) in zip(lent, fresh, strict=True):
                assert b == b_ref and x.tobytes() == x_ref.tobytes()
                assert trace_columns(trace) == trace_columns(trace_ref)

    def test_replay_reuses_the_products_the_loop_formed(self, monkeypatch):
        # under multi, budgets 3 and 8 take their own last step on the first
        # step, which spends budget 12: three one-step logs, each of whose
        # product the loop formed for the line search, so reading every x as
        # its state arrives forms none again
        formed, replayed, logs = [], 0, []
        product = GradientStep.matrix

        def counting_matrix(step, out=None):
            formed.append(step.rank)
            return product(step, out)

        monkeypatch.setattr(GradientStep, "matrix", counting_matrix)
        for _, state, _ in complete_sweep(self.fixture(), FwConfig(shift=2), (3, 8, 12)):
            before = len(formed)
            state.x
            replayed += len(formed) - before
            logs.append(len(state.steps))
        assert logs == [1, 1, 1]
        assert len(formed) == 3 and replayed == 0

    @pytest.mark.parametrize("lent", [False, True])
    def test_replay_after_an_unlogged_step_forms_the_last_logged_product(self, monkeypatch,
                                                                         lent):
        # near CP rank 2: the first step keeps 2 triplets and the second
        # would take 4 more, but its line search returns 0, so the state
        # logs the first alone while the workspace's product holds the
        # second's. x, read on arrival from a lent workspace or after a
        # library sweep, is bitwise the replay of the log from fresh arrays
        rng = np.random.default_rng(0)
        shape = (6, 6, 6)
        dense = near_rank_one(shape, rng) + near_rank_one(shape, rng)
        t = SparseTensor(shape, np.argwhere(np.ones(shape)), dense.ravel())
        searched = []

        def zero_on_second(residual, s_obs):
            searched.append(s_obs.size)
            return 0.0 if len(searched) == 2 else line_search(residual, s_obs)

        monkeypatch.setattr(completion_mod, "line_search", zero_on_second)
        workspace = completion_mod._Workspace(shape) if lent else None
        [(state, trace, held, x)] = [
            (st, tr, st._ws.formed(), st.x.copy() if lent else None)
            for _, st, tr in complete_sweep(t, FwConfig(), (12,), _workspace=workspace)]
        x = x if lent else state.x
        assert len(searched) == 2 and len(trace) == 2
        [(step, gamma)] = state.steps
        assert step.rank == 2 and held.rank == 4
        replay = np.zeros(shape) - gamma * dense_step(step, shape, 1)
        assert x.tobytes() == replay.tobytes()

    def test_a_lent_workspace_keeps_no_step_alive_between_windows(self):
        # the workspace knows which step its product holds without holding
        # that step: once the states of a lent sweep are dropped, its last
        # logged step is gone
        workspace = completion_mod._Workspace((8, 7, 3, 4))
        for _, state, _ in complete_sweep(self.fixture(), FwConfig(shift=2), (3, 8, 12),
                                          _workspace=workspace):
            state.x
            last = weakref.ref(state.steps[-1][0])
        assert workspace.formed() is last() is not None
        del state
        assert last() is None and workspace.formed() is None

    def test_a_sweeps_own_scatter_buffers_go_when_it_ends(self):
        # a state held by a library caller keeps its workspace (the replay's
        # arrays) but not the gradient unfoldings, whose two scatter buffers
        # the sweep made for itself, whether it ran to its end or was closed
        # after its first state; the online loop's lent workspace keeps them
        # for its next window. Weak references to the buffers show that
        # nothing else keeps them alive
        shape = (16, 12, 3, 5)
        t, _ = synth_low_rank(shape, (2, 2, 2, 2), observe_fraction=0.3, seed=1)

        def buffers(grads):
            return [weakref.ref(flat) for flat, _ in grads._slots]

        state, _ = complete(t, FwConfig(), 8)
        state.x
        assert state._ws.grads is None

        for close in (False, True):
            sweep = complete_sweep(t, FwConfig(), (2, 8))
            _, state, _ = next(sweep)
            held = buffers(state._ws.grads)
            if close:
                sweep.close()
            else:
                [(_, state, _)] = sweep
            state.x
            assert state._ws.grads is None
            assert [ref() for ref in held] == [None, None]

        workspace = completion_mod._Workspace(shape)
        for _, state, _ in complete_sweep(t, FwConfig(), (8,), _workspace=workspace):
            state.x
        assert workspace.grads is not None
        assert all(ref() is not None for ref in buffers(workspace.grads))

    def test_a_library_state_holds_only_its_iterate_and_factors(self):
        # once its sweep has ended, a state that has read x holds no
        # window-sized array of its workspace: of the blocks over 0.5 MiB
        # (the window is 0.94 MiB), only x and the step's long-side factor
        # stay live. A later replay makes a new product and gives bitwise
        # the same x
        t, _ = synth_low_rank((64, 64, 3, 10), (2, 2, 2, 2), observe_fraction=0.3, seed=1)
        tracemalloc.start()
        try:
            state, _ = complete(t, FwConfig(), 8)
            x = state.x
            live = [tr.size for tr in tracemalloc.take_snapshot().traces if tr.size > 2**19]
        finally:
            tracemalloc.stop()
        [(step, _)] = state.steps
        factor = max((a if a.base is None else a.base for a in (step.u, step.v)),
                     key=lambda a: a.nbytes)
        assert sorted(live) == sorted([x.nbytes, factor.nbytes])
        again = dataclasses.replace(state, steps=list(state.steps))
        assert again.x.tobytes() == x.tobytes() and again.x is not x

    @pytest.mark.parametrize("rule", ["multi", "rank1"])
    def test_a_replay_allocates_less_than_a_mask_of_the_window(self, rule):
        # in a lent workspace a replay writes into arrays it already has: it
        # allocates less than one byte per entry of the window, so no
        # boolean mask of it, whether it reuses the loop's product (a
        # one-step log) or forms each step's product (rank1 at shift 2 logs
        # several steps)
        t, _ = synth_low_rank((64, 64, 3, 10), (2, 2, 2, 2), observe_fraction=0.3, seed=1)
        workspace = completion_mod._Workspace(t.shape)
        logs = []
        for _, state, _ in complete_sweep(t, FwConfig(shift=2, update_rule=rule), (3, 8, 12),
                                          _workspace=workspace):
            tracemalloc.start()
            try:
                state.x
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < math.prod(t.shape)
            logs.append(len(state.steps))
        assert logs == ([1, 1, 1] if rule == "multi" else [3, 8, 12])

    @pytest.mark.parametrize("case", ["rank1", "multi", "multi-drops-triplets"])
    def test_tracked_observed_iterate_is_the_gathered_iterate(self, monkeypatch, case):
        # the sweep updates the iterate at the observed entries alongside x
        # instead of gathering it again: after every applied step, on the
        # shared path and on a budget's own last step, the next residual and
        # the trace's RSE read bitwise what a gather of the updated iterate
        # gives. Under multi, budgets 3 and 8 take their own last step on the
        # first step, which spends budget 12. On the near-rank-one fixture the
        # first step drops triplets, so a second one follows and only budget 3
        # takes its own last step there
        cfg, forks = FwConfig(shift=2, update_rule="rank1"), 0
        t = self.fixture()
        if case == "multi":
            cfg, forks = FwConfig(shift=2), 2
        elif case == "multi-drops-triplets":
            t = SparseTensor((6, 6, 6), np.argwhere(np.ones((6, 6, 6))),
                             near_rank_one((6, 6, 6), np.random.default_rng(0)).ravel())
            cfg, forks = FwConfig(), 1
        t_norm = float(np.linalg.norm(t.values))
        updated, residuals = [], []

        def recording_update(state, step, gamma):
            apply_update(state, step, gamma)
            updated.append((state, gather(t, state.x)))

        def recording_select(grads, residual, cfg, active):
            residuals.append(residual.copy())
            return select_mode(grads, residual, cfg, active)

        monkeypatch.setattr(completion_mod, "apply_update", recording_update)
        monkeypatch.setattr(completion_mod, "select_mode", recording_select)
        results = list(complete_sweep(t, cfg, (3, 8, 12)))
        main = results[-1][1]
        shared = [x_obs for state, x_obs in updated if state is main]
        assert len(updated) - len(shared) == forks
        assert residuals[0].tobytes() == (-t.values).tobytes()
        assert len(residuals) == len(shared)  # no step was left unapplied
        for residual, x_obs in zip(residuals[1:], shared):
            assert residual.tobytes() == (x_obs - t.values).tobytes()
        for _, state, trace in results:
            own = [x_obs for st, x_obs in updated if st is state and st is not main]
            gathered = shared[:len(trace) - 1 - len(own)] + own
            assert [row.rse for row in trace[1:]] == [
                float(np.linalg.norm(x_obs - t.values)) / t_norm for x_obs in gathered]

    def test_rank1_budgets_share_every_step(self, monkeypatch):
        calls = self.svd_ranks(monkeypatch)
        cfg = FwConfig(shift=2, update_rule="rank1")
        traces = {b: tr for b, _, tr in complete_sweep(self.fixture(), cfg, (8, 2, 4))}
        assert [len(traces[b]) - 1 for b in (2, 4, 8)] == [2, 4, 8]
        assert len(calls) == 8  # the longest run's steps, not 2 + 4 + 8
        assert trace_columns(traces[2]) == trace_columns(traces[8][:3])

    def test_multi_forks_where_allowances_differ(self, monkeypatch):
        calls = self.svd_ranks(monkeypatch)
        # the first step is along the 4-row mode-4 unfolding and spends its rank
        results = list(complete_sweep(self.fixture(), FwConfig(), (2, 5, 9)))
        assert calls == [4]  # one SVD, sized for the largest allowance
        ranks = {b: state.consumed[4] for b, state, _ in results}
        assert ranks == {2: 2, 5: 4, 9: 4}

    @pytest.mark.parametrize("budgets", [(3, 9), (2, 4, 9)])
    def test_budgets_stay_on_a_step_that_drops_triplets(self, monkeypatch, budgets):
        # the first step keeps 1 of its 6 triplets for every budget, so no
        # budget leaves the path there; the smaller ones end on the second step
        t = SparseTensor((6, 6, 6), np.argwhere(np.ones((6, 6, 6))),
                         near_rank_one((6, 6, 6), np.random.default_rng(0)).ravel())
        calls = self.svd_ranks(monkeypatch)
        swept = list(complete_sweep(t, FwConfig(), budgets))
        assert calls == [6, 5]
        for budget, state, trace in swept:
            ref_state, ref_trace = complete(t, FwConfig(), budget)
            assert state.consumed == ref_state.consumed
            assert state.x.tobytes() == ref_state.x.tobytes()
            assert trace_columns(trace) == trace_columns(ref_trace)

    @pytest.mark.parametrize("budgets", [(), (0, 4)])
    def test_bad_budgets_rejected_at_the_call(self, budgets):
        message = r"rank budgets must be >= 1, got \[0, 4\]" if budgets else "no rank budget given"
        with pytest.raises(ValueError, match=message):
            complete_sweep(self.fixture(), FwConfig(), budgets)


def reference_complete(t, cfg, budget):
    """The solver loop as it was before the gradient unfoldings were scattered
    from the residual: a dense gradient tensor, ``unfold`` of it for every
    active mode and again for the step, a dense iterate updated by every step
    and a line search that gathers it by fancy indexing. ``state`` holds the
    rank ledger only."""
    state = FwState.initial(t.shape, cfg.shift)
    x = np.zeros(t.shape)
    mask = tuple(t.indices.T)
    t_norm = float(np.linalg.norm(t.values))
    trace = [(0, 1.0, 0, 0.0)]
    residual = x[mask] - t.values
    rse = float(np.linalg.norm(residual)) / t_norm
    for it in range(1, budget + 1):  # every step charges rank >= 1
        active = state.active
        spent = state.consumed_total() >= budget
        if rse < completion_mod._RSE_FLOOR or not active or spent:
            break
        grad = np.zeros(t.shape)
        grad[mask] = residual
        modes = sorted(active)
        k, best, sigmas = modes[0], -np.inf, {}
        for j in modes:
            if len(t.shape) == 2 * cfg.shift and j - cfg.shift in sigmas:
                sigmas[j] = sigmas[j - cfg.shift]  # transposed twin: same sigma
            else:
                sigmas[j] = dominant_sigma(Gram(unfold(grad, UnfoldSpec(j, cfg.shift))))
            if sigmas[j] > best:
                k, best = j, sigmas[j]
        r = update_rank_budget(state, k, budget)
        trip = truncated_svd(Gram(unfold(grad, UnfoldSpec(k, cfg.shift))),
                             1 if cfg.update_rule == "rank1" else r)
        if trip.sigma[0] <= 0.0:
            break
        step = gradient_step(trip, k, r, cfg.update_rule)
        s = dense_step(step, t.shape, cfg.shift)
        s_obs = s[mask]
        a_bar = float(s_obs @ s_obs)
        gamma = 0.0 if a_bar == 0.0 else max(float((x[mask] - t.values) @ s_obs) / a_bar, 0.0)
        if gamma == 0.0:
            break
        x -= gamma * s
        state.consumed[k] += step.rank
        residual = x[mask] - t.values
        rse = float(np.linalg.norm(residual)) / t_norm
        trace.append((it, rse, k, gamma))
    return x, trace


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["multi", "rank1"]),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_complete_bitwise_equals_reference_loop(dims, shift, budget, rule, density, seed):
    shape = tuple(dims)
    shift = min(shift, len(shape) - 1)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
    idx = np.stack(np.unravel_index(flat, shape), axis=1)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, idx, values)
    cfg = FwConfig(shift=shift, update_rule=rule)
    state, trace = complete(t, cfg, budget)
    ref_x, ref_trace = reference_complete(t, cfg, budget)
    got = [(row.iteration, row.rse, row.mode, row.gamma) for row in trace]
    assert repr(got) == repr(ref_trace)
    assert state.x.tobytes() == ref_x.tobytes()


class TestStepScaleInvariance:
    """Invariance of the solve to the step scale ``completion._STEP_SCALE``:
    the exact line search divides it out of ``gamma``, so modes, ``gamma *
    scale`` products and iterates agree."""

    def test_across_decades(self):
        obs, _ = synth_low_rank((10, 10, 5, 5), (2, 2, 2, 2), observe_fraction=0.3, seed=7)
        cfg = FwConfig()
        assert step_scale_invariance(obs, cfg, 8, [1.0, 1e5, 1e9])

    def test_identical_scales_trivially_true(self):
        obs, _ = synth_low_rank((6, 5, 4), (1, 1, 1), observe_fraction=0.5, seed=4)
        assert step_scale_invariance(obs, FwConfig(), 3, [1e5, 1e5])

    def test_gamma_scale_products_match(self, monkeypatch):
        obs, _ = synth_low_rank((8, 7, 6), (2, 2, 2), observe_fraction=0.4, seed=5)
        traces = {}
        for scale in (1.0, 1e6):
            monkeypatch.setattr(completion_mod, "_STEP_SCALE", scale)
            _, trace = complete(obs, FwConfig(), 6)
            traces[scale] = [row.gamma * scale for row in trace[1:]]
        a, b = traces[1.0], traces[1e6]
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert abs(pa - pb) <= 1e-8 * max(abs(pa), abs(pb))

    def test_requires_two_scales(self):
        obs, _ = synth_low_rank((4, 4, 4), (1, 1, 1), observe_fraction=0.5, seed=1)
        with pytest.raises(ValueError):
            step_scale_invariance(obs, FwConfig(), 2, [1e5])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["multi", "rank1"]),
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_invariant_on_random_fixtures(self, dims, shift, budget, rule, density, exponent,
                                          seed):
        # a power-of-two scale changes no rounding, so any fixture, down to
        # steps that fit rounding noise, must agree bitwise (rel_tol=0); an
        # absolute threshold anywhere in the loop would break this
        shape = tuple(dims)
        rng = np.random.default_rng(seed)
        total = int(np.prod(shape))
        flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
        idx = np.stack(np.unravel_index(flat, shape), axis=1)
        values = rng.normal(size=flat.size)
        values[0] = 1.0  # never all zero
        t = SparseTensor(shape, idx, values)
        cfg = FwConfig(shift=min(shift, len(shape) - 1), update_rule=rule)
        scales = [completion_mod._STEP_SCALE, np.ldexp(completion_mod._STEP_SCALE, exponent)]
        assert step_scale_invariance(t, cfg, budget, scales, rel_tol=0.0)


class TestMultiRankVsRankOne:
    def test_multi_rank_dominates(self):
        obs, _ = synth_low_rank((10, 10, 4, 4), (2, 2, 2, 2), observe_fraction=0.5, seed=13)
        budget = 8
        _, trace_multi = complete(obs, FwConfig(update_rule="multi"), budget)
        _, trace_r1 = complete(obs, FwConfig(update_rule="rank1"), budget)
        assert trace_multi[-1].rse <= trace_r1[-1].rse

        def iters_to(trace, tol):
            for row in trace:
                if row.rse <= tol:
                    return row.iteration
            return np.inf

        assert iters_to(trace_multi, 1e-3) < iters_to(trace_r1, 1e-3)
