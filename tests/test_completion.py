from dataclasses import replace

import numpy as np
import pytest

import tenscache.completion as completion_mod
from tenscache.completion import (
    FwConfig,
    FwState,
    ZeroOverlapError,
    apply_update,
    beta_invariance_check,
    complete,
    gradient_step,
    line_search,
    select_mode,
    update_rank_budget,
)
from tenscache.ingest import synth_low_rank
from tenscache.tensors import SparseTensor, UnfoldSpec, fold, unfold

RNG = np.random.default_rng(11)


def two_cell_tensor():
    return SparseTensor((2, 2, 1), [[0, 0, 0], [1, 1, 0]], [3.0, 4.0])


class TestSelectMode:
    def test_min_dim_prefers_smallest_unfolding(self):
        grad = np.zeros((128, 128, 3, 10))
        grad[0, 0, 0, 0] = 1.0
        cfg = FwConfig(rank_budget=8, mode_selection="min-dim")
        assert select_mode(grad, cfg, {1, 2, 3, 4}) == 3

    def test_sigma_max_finds_planted_mode(self):
        # rank-1 along the mode-2 unfolding with sigma exactly 10; the premise
        # (all other modes strictly below 10) is checked with an independent
        # Gram-eigenvalue oracle
        shape = (4, 5, 3, 2)
        spec = UnfoldSpec(2, 1)
        rows, cols = spec.matrix_dims(shape)
        u = RNG.normal(size=rows)
        v = RNG.normal(size=cols)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        grad = fold(10.0 * np.outer(u, v), spec, shape)
        for k in (1, 3, 4):
            m = unfold(grad, UnfoldSpec(k, 1))
            gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
            top = np.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0))
            assert top < 10.0 - 1e-6
        cfg = FwConfig(rank_budget=4)
        assert select_mode(grad, cfg, {1, 2, 3, 4}) == 2

    def test_singleton_active_set(self):
        grad = RNG.normal(size=(3, 4, 5, 2))
        for rule in ("sigma", "min-dim"):
            cfg = FwConfig(rank_budget=4, mode_selection=rule)
            assert select_mode(grad, cfg, {4}) == 4

    def test_empty_active_set_rejected(self):
        cfg = FwConfig(rank_budget=4)
        with pytest.raises(ValueError):
            select_mode(RNG.normal(size=(2, 2, 2)), cfg, set())


class TestGradientStep:
    def test_multi_rank_normalization(self):
        grad = fold(np.diag([3.0, 1.0]), UnfoldSpec(1, 1), (2, 2, 1))
        step = gradient_step(grad, 1, 2, beta=1.0)
        s_unf = unfold(step.dense((2, 2, 1), 1), UnfoldSpec(1, 1))
        np.testing.assert_allclose(s_unf, np.diag([3.0, 1.0]) / 4.0, atol=1e-12)

    def test_rank_one_drops_sigma_structure(self):
        grad = fold(np.diag([3.0, 1.0]), UnfoldSpec(1, 1), (2, 2, 1))
        step = gradient_step(grad, 1, 2, beta=1.0, update_rule="rank1")
        s_unf = unfold(step.dense((2, 2, 1), 1), UnfoldSpec(1, 1))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(s_unf, expected, atol=1e-12)

    def test_beta_linearity(self):
        grad = RNG.normal(size=(3, 4, 2))
        s1 = gradient_step(grad, 2, 2, beta=1.0).dense((3, 4, 2), 1)
        s2 = gradient_step(grad, 2, 2, beta=2.0).dense((3, 4, 2), 1)
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_weights_sum_to_beta(self):
        grad = RNG.normal(size=(3, 4, 2))
        for rule in ("multi", "rank1"):
            step = gradient_step(grad, 1, 2, beta=37.5, update_rule=rule)
            assert abs(step.weights.sum() - 37.5) <= 1e-9 * 37.5

    def test_positive_correlation_with_gradient(self):
        grad = RNG.normal(size=(3, 4, 5))
        step = gradient_step(grad, 2, 3, beta=1e5)
        s = step.dense((3, 4, 5), 1)
        assert float((s * grad).sum()) > 0

    def test_zero_weight_components_never_returned(self):
        # gradient unfolding of rank 1, but r_k allows 2
        spec = UnfoldSpec(1, 1)
        grad = fold(np.outer([1.0, 0.0], [1.0, 2.0]), spec, (2, 2, 1))
        step = gradient_step(grad, 1, 2, beta=1.0)
        assert step.rank == 1
        assert (step.weights > 0).all()


class TestLineSearch:
    def test_exact_fit_step(self):
        t = two_cell_tensor()
        x = np.zeros((2, 2, 1))
        s = np.zeros((2, 2, 1))
        s[0, 0, 0], s[1, 1, 0] = -3.0, -4.0
        gamma = line_search(x, t, s)
        assert gamma == pytest.approx(1.0, abs=1e-12)
        fitted = x - gamma * s
        np.testing.assert_allclose(t.gather(fitted), t.values, atol=1e-12)

    def test_anticorrelated_clamps_to_zero(self):
        t = two_cell_tensor()
        x = np.zeros((2, 2, 1))
        s = np.zeros((2, 2, 1))
        s[0, 0, 0], s[1, 1, 0] = 3.0, 4.0  # points away from the residual
        assert line_search(x, t, s) == 0.0

    def test_zero_overlap_signals(self):
        t = two_cell_tensor()
        s = np.zeros((2, 2, 1))
        s[0, 1, 0] = 5.0  # only touches unobserved cells
        with pytest.raises(ZeroOverlapError):
            line_search(np.zeros((2, 2, 1)), t, s)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        gammas = np.arange(0.0, 10.0 + 1e-9, 1e-4)
        for trial in range(20):
            t, x, s = _random_line_search_fixture(rng)
            gamma = line_search(x, t, s)
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
    gamma0 = line_search(x, t, s)
    if gamma0 == 0.0:
        s = -s
        gamma0 = line_search(x, t, s)
    # rescale so the optimum lies strictly inside the oracle grid
    target = rng.uniform(0.1, 9.0)
    return t, x, s * (gamma0 / target)


class TestApplyUpdate:
    def test_zero_gamma_advances_ledger_without_append(self):
        t = two_cell_tensor()
        cfg = FwConfig(rank_budget=4, beta=1.0)
        state = FwState.initial(t.shape, cfg)
        grad = -t.to_dense()
        step = gradient_step(grad, 1, 2, beta=1.0)  # gamma left at 0.0
        apply_update(state, step)
        assert not state.x.any()
        assert state.consumed[1] == step.rank

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
        mask = obs.mask_tuple()
        applied = 0
        for _ in range(4):
            residual = state.x[mask] - obs.values
            if np.linalg.norm(residual) / np.linalg.norm(obs.values) < 1e-12:
                break
            grad = np.zeros(obs.shape)
            grad[mask] = residual
            k = select_mode(grad, cfg, state.active)
            r = update_rank_budget(state, k)
            if r == 0:
                break
            step = gradient_step(grad, k, r, cfg.beta)
            s_dense = step.dense(obs.shape, cfg.shift)
            gamma = line_search(state.x, obs, s_dense)
            x_before, consumed_before = state.x.copy(), dict(state.consumed)
            apply_update(state, replace(step, gamma=gamma))
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

    def test_all_modes_stalled_is_clean_convergence(self, monkeypatch):
        obs, _ = synth_low_rank((4, 4, 4), (1, 1, 1), observe_fraction=0.5, seed=1)
        monkeypatch.setattr(completion_mod, "line_search", lambda *a, **k: 0.0)
        state, trace = complete(obs, FwConfig(rank_budget=4))
        assert len(trace) == 1  # only the baseline row
        assert not state.x.any()


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
