from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscache.completion as completion_mod
from tenscache.completion import (
    FwConfig,
    FwState,
    GradientUnfoldings,
    ZeroGradientError,
    apply_update,
    beta_invariance_check,
    complete,
    complete_sweep,
    gradient_step,
    line_search,
    select_mode,
    update_rank_budget,
)
from tenscache.ingest import synth_low_rank
from tenscache.svd import dominant_sigma, truncated_svd
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


def step_of(m, k, r, beta, update_rule="multi"):
    """``gradient_step`` from the SVD of unfolding ``m``, truncated to what the
    step reads."""
    trip = truncated_svd(m, 1 if update_rule == "rank1" else r)
    return gradient_step(trip, k, r, beta, update_rule)


def search(x, t, s):
    """``line_search`` for the dense iterate ``x`` and step ``s``."""
    return line_search(t.gather(x) - t.values, t.gather(s))


class TestSelectMode:
    def test_min_dim_prefers_smallest_unfolding(self):
        grad = np.zeros((128, 128, 3, 10))
        grad[0, 0, 0, 0] = 1.0
        cfg = FwConfig(rank_budget=8, mode_selection="min-dim")
        assert select(grad, cfg, {1, 2, 3, 4}) == 3

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
        cfg = FwConfig(rank_budget=4)
        assert select(grad, cfg, {1, 2, 3, 4}) == 2

    def test_singleton_active_set(self):
        grad = RNG.normal(size=(3, 4, 5, 2))
        for rule in ("sigma", "min-dim"):
            cfg = FwConfig(rank_budget=4, mode_selection=rule)
            assert select(grad, cfg, {4}) == 4

    def test_empty_active_set_rejected(self):
        cfg = FwConfig(rank_budget=4)
        with pytest.raises(ValueError):
            select(RNG.normal(size=(2, 2, 2)), cfg, set())

    @pytest.mark.parametrize("seed", range(5))
    def test_shift2_transposed_pairs_tie_toward_smaller_mode(self, monkeypatch, seed):
        # at shift 2 on an order-4 tensor the mode-k and mode-(k+2) unfoldings
        # are transposes of each other (here 60x27 / 27x60 and 108x15 /
        # 15x108), so their sigmas tie exactly, the smaller mode index wins,
        # and the larger one's sigma is not computed again
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=(12, 9, 3, 5)) * (rng.random((12, 9, 3, 5)) < 0.05)
        cfg = FwConfig(rank_budget=4, shift=2)
        sigma = {k: dominant_sigma(unfold(grad, UnfoldSpec(k, 2))) for k in (1, 2, 3, 4)}
        assert sigma[1] == sigma[3] and sigma[2] == sigma[4]
        pick = self._counting_select(monkeypatch, grad, cfg)
        assert pick({1, 3}) == (1, 1)
        assert pick({2, 4}) == (2, 1)
        # a mode whose twin is not active is evaluated itself
        assert pick({3, 4}) == (3 if sigma[3] >= sigma[4] else 4, 2)
        assert pick({1, 2, 3, 4}) == (1 if sigma[1] >= sigma[2] else 2, 2)

    def test_square_twins_both_evaluated(self, monkeypatch):
        # mode-2/4 unfoldings are 6x6: a @ a.T and a.T @ a round differently,
        # so that pair is not taken as tied; the 4x9 / 9x4 mode-1/3 pair is
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(2, 3, 3, 2))
        pick = self._counting_select(monkeypatch, grad, FwConfig(rank_budget=4, shift=2))
        assert pick({1, 2, 3, 4})[1] == 3

    @staticmethod
    def _counting_select(monkeypatch, grad, cfg):
        """``select_mode`` on ``grad`` (observed where nonzero) as a function
        of the active set, returning the pick and its ``dominant_sigma`` calls;
        the returned unfolding must equal the pick's unfolding of ``grad``."""
        calls = []

        def counting_sigma(m):
            calls.append(m.shape)
            return dominant_sigma(m)

        monkeypatch.setattr(completion_mod, "dominant_sigma", counting_sigma)
        t = observed(grad)
        grads = GradientUnfoldings(t, cfg.shift)

        def pick(active):
            calls.clear()
            k, m = select_mode(grads, t.values, cfg, active)
            np.testing.assert_array_equal(m, unfold(grad, UnfoldSpec(k, cfg.shift)))
            return k, len(calls)

        return pick


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
                m = grads.matrix(k, residual)
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


class TestGradientStep:
    def test_multi_rank_normalization(self):
        grad = fold(np.diag([3.0, 1.0]), UnfoldSpec(1, 1), (2, 2, 1))
        step = step_of(unfolded(grad, 1), 1, 2, beta=1.0)
        s_unf = unfold(step.dense((2, 2, 1), 1), UnfoldSpec(1, 1))
        np.testing.assert_allclose(s_unf, np.diag([3.0, 1.0]) / 4.0, atol=1e-12)

    def test_rank_one_drops_sigma_structure(self):
        grad = fold(np.diag([3.0, 1.0]), UnfoldSpec(1, 1), (2, 2, 1))
        step = step_of(unfolded(grad, 1), 1, 2, beta=1.0, update_rule="rank1")
        s_unf = unfold(step.dense((2, 2, 1), 1), UnfoldSpec(1, 1))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(s_unf, expected, atol=1e-12)

    def test_beta_linearity(self):
        grad = RNG.normal(size=(3, 4, 2))
        s1 = step_of(unfolded(grad, 2), 2, 2, beta=1.0).dense((3, 4, 2), 1)
        s2 = step_of(unfolded(grad, 2), 2, 2, beta=2.0).dense((3, 4, 2), 1)
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_weights_sum_to_beta(self):
        grad = RNG.normal(size=(3, 4, 2))
        for rule in ("multi", "rank1"):
            step = step_of(unfolded(grad, 1), 1, 2, beta=37.5, update_rule=rule)
            assert abs(step.weights.sum() - 37.5) <= 1e-9 * 37.5

    def test_positive_correlation_with_gradient(self):
        grad = RNG.normal(size=(3, 4, 5))
        step = step_of(unfolded(grad, 2), 2, 3, beta=1e5)
        s = step.dense((3, 4, 5), 1)
        assert float((s * grad).sum()) > 0

    def test_zero_weight_components_never_returned(self):
        # gradient unfolding of rank 1, but r_k allows 2
        spec = UnfoldSpec(1, 1)
        grad = fold(np.outer([1.0, 0.0], [1.0, 2.0]), spec, (2, 2, 1))
        step = step_of(unfolded(grad, 1), 1, 2, beta=1.0)
        assert step.rank == 1
        assert (step.weights > 0).all()


class TestLineSearch:
    def test_exact_fit_step(self):
        t = two_cell_tensor()
        x = np.zeros((2, 2, 1))
        s = np.zeros((2, 2, 1))
        s[0, 0, 0], s[1, 1, 0] = -3.0, -4.0
        gamma = search(x, t, s)
        assert gamma == pytest.approx(1.0, abs=1e-12)
        fitted = x - gamma * s
        np.testing.assert_allclose(t.gather(fitted), t.values, atol=1e-12)

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
            obs_x, obs_s = t.gather(x), t.gather(s)
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


class TestApplyUpdate:
    def test_zero_gamma_advances_ledger_without_append(self):
        t = two_cell_tensor()
        cfg = FwConfig(rank_budget=4, beta=1.0)
        state = FwState.initial(t.shape, cfg)
        grad = -t.to_dense()
        step = step_of(unfolded(grad, 1), 1, 2, beta=1.0)
        apply_update(state, step, 0.0, step.dense(t.shape, 1))
        assert not state.x.any()
        assert state.consumed[1] == step.rank

    @pytest.mark.parametrize("fork", [False, True])
    def test_non_finite_iterate_raises(self, fork):
        t = two_cell_tensor()
        state = FwState.initial(t.shape, FwConfig(rank_budget=4))
        step = step_of(unfolded(-t.to_dense(), 1), 1, 2, beta=1.0)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            apply_update(state, step, np.inf, step.dense(t.shape, 1), fork=fork)

    def test_fork_leaves_parent_and_matches_in_place(self):
        t = two_cell_tensor()
        state = FwState.initial(t.shape, FwConfig(rank_budget=4))
        state.x += 0.25
        step = step_of(unfolded(-t.to_dense(), 1), 1, 2, beta=1.0)
        s = step.dense(t.shape, 1)
        child = apply_update(state, step, 0.3, s.copy(), fork=True)
        assert child is not state and child.x is not state.x
        assert (state.x == 0.25).all() and state.consumed_total() == 0
        assert child.x.flags.c_contiguous
        assert child.x.tobytes() == (state.x - 0.3 * s).tobytes()
        assert child.consumed == {1: step.rank, 2: 0, 3: 0}
        apply_update(state, step, 0.3, s)
        assert state.x.tobytes() == child.x.tobytes()
        assert state.consumed == child.consumed

    def test_full_iteration_fits_two_cells(self):
        t = two_cell_tensor()
        state, trace = complete(t, FwConfig(rank_budget=4, beta=1.0))
        assert trace[0].rse == 1.0
        assert trace[-1].rse <= 1e-12

    def test_objective_never_increases(self):
        obs, _ = synth_low_rank((6, 5, 4, 3), (2, 2, 2, 2), observe_fraction=0.4, seed=3)
        _, trace = complete(obs, FwConfig(rank_budget=10))
        rses = [row.rse for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(rses, rses[1:]))

    def test_representation_matches_iterate_every_step(self):
        # the state (dense iterate plus rank ledger) moves by exactly what each
        # applied step says: x by -gamma * S, the step's mode by its rank
        obs, _ = synth_low_rank((6, 5, 4), (2, 2, 1), observe_fraction=0.5, seed=9)
        cfg = FwConfig(rank_budget=6)
        state = FwState.initial(obs.shape, cfg)
        grads = GradientUnfoldings(obs, cfg.shift)
        applied = 0
        for _ in range(4):
            residual = obs.gather(state.x) - obs.values
            if np.linalg.norm(residual) / np.linalg.norm(obs.values) < 1e-12:
                break
            k, m = select_mode(grads, residual, cfg, state.active)
            r = update_rank_budget(state, k)
            if r == 0:
                break
            step = step_of(m, k, r, cfg.beta)
            s_dense = step.dense(obs.shape, cfg.shift)
            gamma = line_search(residual, obs.gather(s_dense))
            x_before, consumed_before = state.x.copy(), dict(state.consumed)
            apply_update(state, step, gamma, s_dense.copy())  # the update spends its s
            np.testing.assert_array_equal(state.x, x_before - gamma * s_dense)
            assert state.consumed == {**consumed_before, k: consumed_before[k] + step.rank}
            applied += 1
        assert applied > 0


class TestUpdateRankBudget:
    def test_formula_at_paper_dims(self):
        cfg = FwConfig(rank_budget=8)
        state = FwState.initial((128, 128, 3, 10), cfg)
        assert update_rank_budget(state, 3) == 3

    def test_saturated_mode_pruned(self):
        cfg = FwConfig(rank_budget=100)
        state = FwState.initial((2, 3, 4), cfg)
        state.consumed[1] = 2  # min dim of mode-1 unfolding is 2
        assert update_rank_budget(state, 1) == 0
        assert 1 not in state.active

    def test_exhausted_budget_stops_everywhere(self):
        cfg = FwConfig(rank_budget=5)
        state = FwState.initial((4, 4, 4), cfg)
        state.consumed[2] = 5
        for k in (1, 2, 3):
            assert update_rank_budget(state, k) == 0
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
        _, trace = complete(t, FwConfig(rank_budget=3))
        assert len(trace) - 1 <= 2
        assert trace[-1].rse <= 1e-8

    def test_empty_tensor_rejected(self):
        t = SparseTensor((2, 2, 2), np.zeros((0, 3), dtype=int), [])
        with pytest.raises(ValueError):
            complete(t, FwConfig(rank_budget=2))

    def test_all_zero_values_rejected(self):
        t = SparseTensor((2, 2, 2), [[0, 0, 0]], [0.0])
        with pytest.raises(ValueError):
            complete(t, FwConfig(rank_budget=2))

    def test_thirty_percent_observed_rank2(self):
        obs, _ = synth_low_rank((10, 10, 5, 5), (2, 2, 2, 2), observe_fraction=0.3, seed=7)
        _, trace = complete(obs, FwConfig(rank_budget=8))
        assert trace[-1].rse <= 1e-6

    def test_rank_ledger_respected(self):
        for seed in range(5):
            obs, _ = synth_low_rank((7, 6, 5, 4), (2, 2, 2, 2), observe_fraction=0.5, seed=seed)
            budget = 9
            state, trace = complete(obs, FwConfig(rank_budget=budget))
            assert state.consumed_total() <= budget
            assert len(trace) - 1 <= budget
            for k, consumed in state.consumed.items():
                rows, cols = UnfoldSpec(k, 1).matrix_dims(obs.shape)
                assert consumed <= min(rows, cols)

    def test_trace_modes_and_gamma_recorded(self):
        obs, _ = synth_low_rank((6, 5, 4), (1, 1, 1), observe_fraction=0.6, seed=2)
        _, trace = complete(obs, FwConfig(rank_budget=3, beta=10.0))
        for row in trace[1:]:
            assert row.mode in (1, 2, 3)
            assert row.gamma > 0
            assert row.beta_gamma == pytest.approx(row.gamma * 10.0)

    def test_fold_runs_once_per_applied_step(self, monkeypatch):
        # the step tensor built for the line search is the one applied
        calls = []

        def counting_fold(*args):
            calls.append(args[1])
            return fold(*args)

        monkeypatch.setattr(completion_mod, "fold", counting_fold)
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        _, trace = complete(obs, FwConfig(rank_budget=8, shift=2, update_rule="rank1"))
        assert len(trace) - 1 == 8
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
        _, trace = complete(obs, FwConfig(rank_budget=8, shift=2, update_rule="rank1"))
        assert len(trace) - 1 == 8
        assert calls == []

    def test_all_modes_stalled_is_clean_convergence(self, monkeypatch):
        obs, _ = synth_low_rank((4, 4, 4), (1, 1, 1), observe_fraction=0.5, seed=1)
        monkeypatch.setattr(completion_mod, "line_search", lambda *a, **k: 0.0)
        state, trace = complete(obs, FwConfig(rank_budget=4))
        assert len(trace) == 1  # only the baseline row
        assert not state.x.any()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["multi", "rank1"]),
    st.sampled_from(["sigma", "min-dim"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_solver_invariants(dims, shift, budget, rule, selection, seed):
    shape = tuple(dims)
    shift = min(shift, len(shape) - 1)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, total // 2), replace=False)
    idx = np.stack(np.unravel_index(flat, shape, order="F"), axis=1)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, idx, values)
    cfg = FwConfig(rank_budget=budget, shift=shift, update_rule=rule, mode_selection=selection)
    state, trace = complete(t, cfg)
    min_dim = {k: min(UnfoldSpec(k, shift).matrix_dims(shape)) for k in range(1, len(shape) + 1)}
    assert state.consumed_total() <= budget
    assert all(state.consumed[k] <= min_dim[k] for k in min_dim)
    assert len(trace) - 1 <= budget
    for row in trace[1:]:
        assert row.gamma > 0
        assert row.mode in min_dim
    rses = [row.rse for row in trace]
    assert all(b <= a + 1e-12 for a, b in zip(rses, rses[1:]))
    assert state.active == {k for k in min_dim if state.consumed[k] < min_dim[k]}


def trace_columns(trace):
    """Every trace column but ``elapsed_s``."""
    return repr([(row.iteration, row.rse, row.mode, row.gamma, row.beta_gamma) for row in trace])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4),
    st.sampled_from([1, 2]),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    st.sampled_from(["multi", "rank1"]),
    st.sampled_from(["sigma", "min-dim"]),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_sweep_bitwise_equals_single_budget_solves(dims, shift, budgets, rule, selection,
                                                   density, seed):
    shape = tuple(dims)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1), values)
    cfg = FwConfig(rank_budget=1, shift=shift, update_rule=rule, mode_selection=selection)
    swept = list(complete_sweep(t, cfg, budgets))  # every result kept while the sweep runs
    assert sorted(b for b, _, _ in swept) == sorted(set(budgets))
    for budget, state, trace in swept:
        ref_state, ref_trace = complete(t, replace(cfg, rank_budget=budget))
        assert state.config == ref_state.config
        assert state.consumed == ref_state.consumed
        assert state.x.tobytes() == ref_state.x.tobytes()
        assert trace_columns(trace) == trace_columns(ref_trace)


class TestCompleteSweep:
    def fixture(self):
        obs, _ = synth_low_rank((8, 7, 3, 4), (2, 2, 2, 2), observe_fraction=0.4, seed=6)
        return obs

    def test_rank1_budgets_share_every_step(self, monkeypatch):
        calls = []

        def counting_svd(m, r):
            calls.append(r)
            return truncated_svd(m, r)

        monkeypatch.setattr(completion_mod, "truncated_svd", counting_svd)
        cfg = FwConfig(rank_budget=1, shift=2, update_rule="rank1")
        traces = {b: tr for b, _, tr in complete_sweep(self.fixture(), cfg, (8, 2, 4))}
        assert [len(traces[b]) - 1 for b in (2, 4, 8)] == [2, 4, 8]
        assert len(calls) == 8  # the longest run's steps, not 2 + 4 + 8
        assert trace_columns(traces[2]) == trace_columns(traces[8][:3])

    def test_multi_forks_where_allowances_differ(self, monkeypatch):
        calls = []

        def counting_svd(m, r):
            calls.append(r)
            return truncated_svd(m, r)

        monkeypatch.setattr(completion_mod, "truncated_svd", counting_svd)
        cfg = FwConfig(rank_budget=1, mode_selection="min-dim")  # the 3-row mode-3 unfolding
        results = list(complete_sweep(self.fixture(), cfg, (2, 5, 9)))
        assert calls == [3]  # one SVD, sized for the largest allowance
        ranks = {b: state.consumed[3] for b, state, _ in results}
        assert ranks == {2: 2, 5: 3, 9: 3}

    @pytest.mark.parametrize("budgets", [(), (0, 4)])
    def test_bad_budgets_rejected_at_the_call(self, budgets):
        with pytest.raises(ValueError):
            complete_sweep(self.fixture(), FwConfig(rank_budget=4), budgets)


def reference_complete(t, cfg):
    """The solver loop as it was before the gradient unfoldings were scattered
    from the residual: a dense gradient tensor, ``unfold`` of it for every
    active mode and again for the step, and a line search that gathers the
    iterate by fancy indexing."""
    state = FwState.initial(t.shape, cfg)
    mask = tuple(t.indices.T)
    t_norm = float(np.linalg.norm(t.values))
    trace = [(0, 1.0, 0, 0.0, 0.0)]
    residual = state.x[mask] - t.values
    rse = float(np.linalg.norm(residual)) / t_norm
    for it in range(1, cfg.max_iter + 1):
        active = state.active
        spent = state.consumed_total() >= cfg.rank_budget
        if rse < completion_mod._RSE_FLOOR or not active or spent:
            break
        grad = np.zeros(t.shape)
        grad[mask] = residual
        modes = sorted(active)
        if cfg.mode_selection == "min-dim":
            k = min(modes, key=lambda j: min(UnfoldSpec(j, cfg.shift).matrix_dims(t.shape)))
        else:
            k, best = modes[0], -np.inf
            for j in modes:
                sigma = dominant_sigma(unfold(grad, UnfoldSpec(j, cfg.shift)))
                if sigma > best:
                    k, best = j, sigma
        r = update_rank_budget(state, k)
        try:
            step = step_of(unfold(grad, UnfoldSpec(k, cfg.shift)), k, r, cfg.beta,
                           cfg.update_rule)
        except ZeroGradientError:
            break
        s = step.dense(t.shape, cfg.shift)
        s_obs = s[mask]
        a_bar = float(s_obs @ s_obs)
        gamma = 0.0 if a_bar == 0.0 else max(float((state.x[mask] - t.values) @ s_obs) / a_bar, 0.0)
        if gamma == 0.0:
            break
        state.x -= gamma * s
        state.consumed[k] += step.rank
        residual = state.x[mask] - t.values
        rse = float(np.linalg.norm(residual)) / t_norm
        trace.append((it, rse, k, gamma, gamma * cfg.beta))
    return state.x, trace


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["multi", "rank1"]),
    st.sampled_from(["sigma", "min-dim"]),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_complete_bitwise_equals_reference_loop(dims, shift, budget, rule, selection, density,
                                                seed):
    shape = tuple(dims)
    shift = min(shift, len(shape) - 1)
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, round(density * total)), replace=False)
    idx = np.stack(np.unravel_index(flat, shape), axis=1)
    values = rng.normal(size=flat.size)
    values[0] = 1.0  # never all zero
    t = SparseTensor(shape, idx, values)
    cfg = FwConfig(rank_budget=budget, shift=shift, update_rule=rule, mode_selection=selection)
    state, trace = complete(t, cfg)
    ref_x, ref_trace = reference_complete(t, cfg)
    got = [(row.iteration, row.rse, row.mode, row.gamma, row.beta_gamma) for row in trace]
    assert repr(got) == repr(ref_trace)
    assert state.x.tobytes() == ref_x.tobytes()


class TestBetaInvariance:
    def test_across_decades(self):
        obs, _ = synth_low_rank((10, 10, 5, 5), (2, 2, 2, 2), observe_fraction=0.3, seed=7)
        cfg = FwConfig(rank_budget=8)
        assert beta_invariance_check(obs, cfg, [1.0, 1e5, 1e9])

    def test_identical_betas_trivially_true(self):
        obs, _ = synth_low_rank((6, 5, 4), (1, 1, 1), observe_fraction=0.5, seed=4)
        assert beta_invariance_check(obs, FwConfig(rank_budget=3), [1e5, 1e5])

    def test_gamma_beta_products_match(self):
        obs, _ = synth_low_rank((8, 7, 6), (2, 2, 2), observe_fraction=0.4, seed=5)
        traces = {}
        for beta in (1.0, 1e6):
            _, trace = complete(obs, FwConfig(rank_budget=6, beta=beta))
            traces[beta] = [row.beta_gamma for row in trace[1:]]
        a, b = traces[1.0], traces[1e6]
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert abs(pa - pb) <= 1e-8 * max(abs(pa), abs(pb))

    def test_requires_two_betas(self):
        obs, _ = synth_low_rank((4, 4, 4), (1, 1, 1), observe_fraction=0.5, seed=1)
        with pytest.raises(ValueError):
            beta_invariance_check(obs, FwConfig(rank_budget=2), [1e5])


class TestMultiRankVsRankOne:
    def test_multi_rank_dominates(self):
        obs, _ = synth_low_rank((10, 10, 4, 4), (2, 2, 2, 2), observe_fraction=0.5, seed=13)
        budget = 8
        _, trace_multi = complete(obs, FwConfig(rank_budget=budget, update_rule="multi"))
        _, trace_r1 = complete(obs, FwConfig(rank_budget=budget, update_rule="rank1"))
        assert trace_multi[-1].rse <= trace_r1[-1].rse

        def iters_to(trace, tol):
            for row in trace:
                if row.rse <= tol:
                    return row.iteration
            return np.inf

        assert iters_to(trace_multi, 1e-3) < iters_to(trace_r1, 1e-3)
