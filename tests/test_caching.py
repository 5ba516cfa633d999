import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import stacked, synth_request_stream
import tenscache.caching as caching_mod
from tenscache.caching import (
    OnlineConfig,
    hit_rate,
    mpc_place,
    oracle_place,
    run_online,
)
from tenscache.completion import FwConfig, complete_sweep
from tenscache.ingest import synth_lowrank_stream
from tenscache.prediction import PredictorConfig, fit_predict, normalize_demands
from tenscache.tensors import SparseTensor

RNG = np.random.default_rng(31)


def slice_rate(d, c):
    """Hit rate of placement ``c`` on demand slice ``d``."""
    return hit_rate(d.sum(axis=1), float(d.sum()), np.asarray(c, dtype=float))


def oracle_of(d, capacity):
    return oracle_place(d.sum(axis=1), float(d.sum()), capacity)


class TestMpcPlace:
    def test_top_two(self):
        plan = mpc_place(np.array([0.5, 0.3, 0.1, 0.1]), 2)
        np.testing.assert_array_equal(plan, [1, 1, 0, 0])

    def test_uniform_ties_break_to_low_index(self):
        plan = mpc_place(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        np.testing.assert_array_equal(plan, [1, 1, 0, 0])

    def test_full_capacity_caches_everything(self):
        plan = mpc_place(np.array([0.1, 0.2, 0.7]), 3)
        np.testing.assert_array_equal(plan, [1, 1, 1])
        d = RNG.random((3, 3))
        assert slice_rate(d, plan) == pytest.approx(1.0)

    def test_capacity_above_library_rejected(self):
        with pytest.raises(ValueError):
            mpc_place(np.array([0.5, 0.5]), 3)


class TestHitRate:
    def test_all_demand_on_cached_file(self):
        d = np.zeros((3, 3))
        d[0, 1] = 7.0
        assert slice_rate(d, [1.0, 0.0, 0.0]) == 1.0

    def test_all_demand_on_uncached_files(self):
        d = np.zeros((3, 3))
        d[1, 1] = 4.0
        assert slice_rate(d, [1.0, 0.0, 0.0]) == 0.0

    def test_ratio_with_mixed_mass(self):
        # per-file mass (6, 3, 1), cache {file 1} -> 0.6
        d = np.zeros((3, 3))
        d[0, :] = 2.0
        d[1, 0] = 3.0
        d[2, 2] = 1.0
        assert slice_rate(d, [1.0, 0.0, 0.0]) == pytest.approx(0.6)

    def test_zero_demand_scores_zero(self):
        assert slice_rate(np.zeros((2, 2)), [1.0, 0.0]) == 0.0

    def test_negative_demand_rejected(self):
        # checked once per realized slot, before the online loop scores it
        stream = [RNG.random((4, 4, 2)) for _ in range(7)]
        stream[5] = stream[5].copy()
        stream[5][0, 1, 1] = -1.0
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=(False,))
        with pytest.raises(ValueError, match="slot 6"):
            run_observing_nonzero(stream, cfg)

    def test_monotone_in_capacity(self):
        d = RNG.random((8, 8))
        shares = RNG.random(8)
        rates = []
        for cap in range(1, 9):
            rates.append(slice_rate(d, mpc_place(shares, cap)))
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def run_observing_nonzero(stream, cfg):
    """``run_online`` with the nonzero entries of each slot of ``stream``
    observed: the mask the CLI gives ratings data, where a zero is a missing
    entry."""
    return run_online(((x, x != 0.0) for x in stream), cfg)


def assert_same_scores(got, ref, keys):
    """Bitwise-equal slots, zero mask, oracle and ``keys`` cells, and equal averages."""
    assert got.slots.tobytes() == ref.slots.tobytes()
    assert got.zero_demand.tobytes() == ref.zero_demand.tobytes()
    assert got.oracle.tobytes() == ref.oracle.tobytes()
    assert got.average() == ref.average()
    for key in keys:
        assert got.cells[key].tobytes() == ref.cells[key].tobytes()
        assert got.average(key) == ref.average(key)


def reference_completed_online(pairs, cfg):
    """The completed cells of ``run_online`` from a loop that holds the
    whole stream: each window is stacked dense, its observed entries found by
    ``np.argwhere`` on the stacked masks, and completed by a
    ``complete_sweep`` from fresh arrays whose states are all held until it
    ends, each budget's ``x`` normalized on its own. Also returns how many
    windows had more than one distinct step log (a budget forked)."""
    realized, masks = stacked(pairs)
    cells = {(p, True, b): [] for p in cfg.predictors for b in cfg.rank_budgets}
    forked = 0
    for n in range(cfg.tau, len(realized)):
        window = np.stack(list(realized[n - cfg.tau:n]), axis=-1)
        idx = np.argwhere(np.stack(list(masks[n - cfg.tau:n]), axis=-1))
        t = SparseTensor(window.shape, idx, window[tuple(idx.T)])
        swept = list(complete_sweep(t, FwConfig(shift=cfg.shift), cfg.rank_budgets))
        forked += len({tuple(id(step) for step, _ in state.steps) for _, state, _ in swept}) > 1
        histories = {b: normalize_demands(state.x) for b, state, _ in swept}
        for bs in range(window.shape[2]):
            d = realized[n][:, :, bs]
            for p in cfg.predictors:
                for b in cfg.rank_budgets:
                    forecast = fit_predict(histories[b], PredictorConfig(cfg.order, p), bs)
                    cells[p, True, b].append(
                        slice_rate(d, mpc_place(forecast.shares, cfg.cache_size)))
    n_bs = realized.shape[3]
    return {key: np.array(rates).reshape(-1, n_bs) for key, rates in cells.items()}, forked


def window_of(kinds, files, n_bs, seed):
    """One (realized, mask) slot pair per entry of ``kinds``: ``empty`` and
    ``full`` slots and ``part``ly observed ones, whose values include observed
    ``0.0`` and ``-0.0`` entries."""
    rng = np.random.default_rng(seed)
    pairs = []
    for kind in kinds:
        realized = rng.normal(size=(files, files, n_bs))
        realized[rng.random(realized.shape) < 0.2] = 0.0
        realized[rng.random(realized.shape) < 0.2] = -0.0
        mask = {"empty": np.zeros(realized.shape, dtype=bool),
                "full": np.ones(realized.shape, dtype=bool),
                "part": rng.random(realized.shape) < 0.4}[kind]
        pairs.append((realized, mask))
    return pairs


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(["empty", "full", "part"]), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_window_from_slot_entries_is_argwhere_of_the_dense_window(kinds, files, n_bs, seed):
    # tau = len(kinds) slots, n_bs = 1 among them: the entries merged from
    # each slot's flatnonzero are np.argwhere of the stacked (F, F, N_BS, tau)
    # window, in the same order, with bitwise the same values, -0.0 and
    # observed zeros included
    pairs = window_of(kinds, files, n_bs, seed)
    entries = [(np.flatnonzero(mask), realized.reshape(-1)[np.flatnonzero(mask)])
               for realized, mask in pairs]
    shape = (files, files, n_bs, len(pairs))
    indices, values = caching_mod._window_entries(entries, shape)
    window = np.stack([realized for realized, _ in pairs], axis=-1)
    want = np.argwhere(np.stack([mask for _, mask in pairs], axis=-1))
    assert indices.dtype == want.dtype and indices.shape == want.shape
    assert (indices == want).all()
    assert values.tobytes() == window[tuple(want.T)].tobytes()


class TestRunOnline:
    @pytest.mark.parametrize("shift", [1, 2, 3])
    @pytest.mark.parametrize("observed", ["masked", "nonzero"])
    def test_lent_workspace_scores_as_fresh_arrays_do(self, shift, observed):
        # every window solved in the run's one workspace scores bitwise what
        # a loop completing each window from fresh arrays scores: budget 1
        # forks its last step whenever a step has rank 2 or more, and the
        # nonzero stream is observed where it is nonzero (the ratings path)
        rng = np.random.default_rng(shift)
        if observed == "masked":
            pairs = list(synth_lowrank_stream(12, 2, 11, observe_fraction=0.3, seed=shift))
        else:
            counts = rng.poisson(0.4, size=(11, 12, 12, 2)).astype(float)
            pairs = [(x, x != 0.0) for x in counts]
        cfg = OnlineConfig(tau=6, order=3, cache_size=4, predictors=("lp", "mean"),
                           rank_budgets=(1, 3, 7), shift=shift)
        got = run_online(pairs, cfg)
        want, forked = reference_completed_online(pairs, cfg)
        assert forked > 0
        assert got.cells.keys() == want.keys()
        for key, rates in want.items():
            assert got.cells[key].tobytes() == rates.tobytes(), key

    def test_oracle_dominates_every_slot(self):
        stream = synth_request_stream(12, 2, 20, requests_per_slot=200, seed=3)
        cfg = OnlineConfig(tau=4, order=2, cache_size=4, predictors=("lp",), completion=(False,))
        result = run_observing_nonzero(stream, cfg)
        [rates] = result.cells.values()
        assert rates.shape == result.oracle.shape == (len(stream) - cfg.tau, 2)
        assert (result.oracle >= rates - 1e-12).all()

    def test_stationary_zipf_mean_predictor_near_oracle(self):
        stream = synth_request_stream(40, 3, 200, requests_per_slot=3000, zipf_a=1.0, seed=5)
        cfg = OnlineConfig(tau=8, order=4, cache_size=12, predictors=("mean",),
                           completion=(False,))
        result = run_observing_nonzero(stream, cfg)
        avg = result.average(("mean", False, 0))
        oracle = result.average()
        assert avg >= oracle * 0.98

    def test_completion_improves_masked_stream(self):
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("mean",),
                           completion=(True, False), rank_budgets=(16,), shift=2)
        result = run_online(synth_lowrank_stream(24, 3, 60, observe_fraction=0.05, seed=0), cfg)
        assert result.average(("mean", True, 16)) >= result.average(("mean", False, 0))

    def test_shared_completion_matches_single_predictor_runs(self):
        truth, mask = stacked(synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1))
        base = dict(tau=8, order=4, cache_size=6, rank_budgets=(16,), shift=2)
        both = run_online(zip(truth, mask), OnlineConfig(predictors=("lp", "mean"), **base))
        lp = run_online(zip(truth, mask), OnlineConfig(predictors=("lp",), **base))
        mean = run_online(zip(truth, mask), OnlineConfig(predictors=("mean",), **base))
        assert [method for method, _, _ in both.runs()] == ["lp-completed", "mean-completed"]
        assert_same_scores(both, lp, [("lp", True, 16)])
        assert_same_scores(both, mean, [("mean", True, 16)])

    def test_budget_sweep_matches_single_budget_runs(self):
        truth, mask = stacked(synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1))
        base = dict(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2)
        budgets = (16, 4, 8, 4)
        swept = run_online(zip(truth, mask), OnlineConfig(rank_budgets=budgets, **base))
        assert [(method, rank) for method, rank, _ in swept.runs()] == [
            (method, b) for method in ("lp-completed", "mean-completed") for b in budgets]
        for b in set(budgets):
            single = run_online(zip(truth, mask), OnlineConfig(rank_budgets=(b,), **base))
            got = [key for _, rank, key in swept.runs() if rank == b]
            assert len(got) == 2 * budgets.count(b)
            assert_same_scores(swept, single, got)

    @pytest.mark.parametrize("completion", [(True, False), (False, True)])
    def test_treatments_in_one_pass_match_single_treatment_runs(self, completion):
        truth, mask = stacked(synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1))
        base = dict(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2,
                    rank_budgets=(16, 4, 8, 4))
        both = run_online(zip(truth, mask), OnlineConfig(completion=completion, **base))
        on = run_online(zip(truth, mask), OnlineConfig(completion=(True,), **base))
        off = run_online(zip(truth, mask), OnlineConfig(completion=(False,), **base))
        assert both.cells.keys() == on.cells.keys() | off.cells.keys()
        assert_same_scores(both, on, on.cells)
        assert_same_scores(both, off, off.cells)

    def test_no_treatment_rejected(self):
        stream = [RNG.random((4, 4, 2)) for _ in range(6)]
        with pytest.raises(ValueError, match="no treatment"):
            run_observing_nonzero(stream, OnlineConfig(tau=4, order=2, cache_size=2,
                                                       completion=()))

    def test_one_completion_per_scored_slot(self, monkeypatch):
        calls = []

        def counting_sweep(t, fw_cfg, budgets, **lent):
            calls.append(t.shape)
            return complete_sweep(t, fw_cfg, budgets, **lent)

        monkeypatch.setattr(caching_mod, "complete_sweep", counting_sweep)
        truth, mask = stacked(synth_lowrank_stream(24, 3, 12, observe_fraction=0.05, seed=2))
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("lp", "mean"),
                           rank_budgets=(4, 8), shift=2)
        result = run_online(zip(truth, mask), cfg)
        scored_slots = set(result.slots.tolist())
        assert len(scored_slots) == len(truth) - cfg.tau
        assert len(calls) == len(scored_slots)

    @pytest.mark.parametrize("shift", [1, 2])
    @pytest.mark.parametrize("completion", [(False,), (True,)], ids=["raw", "completed"])
    def test_generator_list_and_stacked_streams_score_alike(self, completion, shift):
        # 17 slots at tau=5: the windows do not tile the stream
        args = (16, 2, 17, 0.2, 3)
        cfg = OnlineConfig(tau=5, order=3, cache_size=4, predictors=("lp", "mean"),
                           completion=completion, rank_budgets=(3, 6), shift=shift)
        from_generator = run_online(synth_lowrank_stream(*args), cfg)
        from_list = run_online(list(synth_lowrank_stream(*args)), cfg)
        from_stacked = run_online(zip(*stacked(synth_lowrank_stream(*args))), cfg)
        for got in (from_list, from_stacked):
            assert got.cells.keys() == from_generator.cells.keys()
            assert_same_scores(got, from_generator, from_generator.cells)
        assert from_generator.slots.tolist() == list(range(6, 18))

    @pytest.mark.parametrize("n_bs", [1, 3])
    def test_raw_reports_same_from_list_and_array_stream(self, n_bs):
        truth, mask = stacked(synth_lowrank_stream(24, n_bs, 16, observe_fraction=0.3, seed=4))
        cfg = OnlineConfig(tau=5, order=3, cache_size=6, predictors=("lp", "mean"),
                           completion=(False,))
        from_array = run_online(zip(truth, mask), cfg)
        from_list = run_online(list(zip(list(truth), list(mask))), cfg)
        assert len(from_array.cells) == len(from_list.cells) == 2
        assert_same_scores(from_array, from_list, from_list.cells)

    @pytest.mark.parametrize("n_bs", [1, 2])
    def test_raw_window_shares_equal_whole_window_normalization(self, monkeypatch, n_bs):
        # each slot is normalized once per run; every window's history must
        # still be bitwise the shares of that observed window normalized whole
        seen, real_fit = [], caching_mod.fit_predict

        def recording_fit(history, pred_cfg, bs):
            seen.append(history.shares.copy())
            return real_fit(history, pred_cfg, bs)

        monkeypatch.setattr(caching_mod, "fit_predict", recording_fit)
        tau = 4
        stream = RNG.random((23, 16, 16, n_bs))
        stream[RNG.random(stream.shape) < 0.1] = 0.0  # observed zeros
        stream[:tau] -= 0.5  # negative demands, in slots never scored, read as their clip
        mask = RNG.random(stream.shape) < 0.3
        mask[7, :, :, 0] = False  # an unobserved slice reads uniform
        cfg = OnlineConfig(tau=tau, order=2, cache_size=3, predictors=("lp",), completion=(False,))
        run_online(zip(stream, mask), cfg)
        assert len(seen) == (len(stream) - tau) * n_bs
        observed = np.where(mask, stream, 0.0)
        for t_idx in range(tau - 1, len(stream) - 1):
            window = np.stack(list(observed[t_idx - tau + 1 : t_idx + 1]), axis=-1)
            want = normalize_demands(window).shares.tobytes()
            for b in range(n_bs):
                assert seen.pop(0).tobytes() == want

    def test_masked_stream_predicts_from_its_observed_copy(self, monkeypatch):
        # the predictors (raw and completed histories alike) see bitwise what
        # the zero-filled observed stream gives them with its nonzero entries
        # observed, while every slot is scored against the realized demands
        seen, real_fit = [], caching_mod.fit_predict

        def recording_fit(history, pred_cfg, bs):
            seen.append(history.shares.tobytes())
            return real_fit(history, pred_cfg, bs)

        monkeypatch.setattr(caching_mod, "fit_predict", recording_fit)
        truth, mask = stacked(synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1))
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2,
                           completion=(True, False), rank_budgets=(16, 4))
        masked = run_online(zip(truth, mask), cfg)
        masked_seen, seen[:] = seen[:], []
        run_observing_nonzero(np.where(mask, truth, 0.0), cfg)
        assert len(masked_seen) == 6 * 3 * 3 * 2 and masked_seen == seen
        assert masked.oracle.tobytes() == run_observing_nonzero(truth, cfg).oracle.tobytes()

    @pytest.mark.parametrize("slot, mask, got", [
        (1, np.ones((4, 4, 2)), "float64 of shape (4, 4, 2)"),
        (1, np.ones((4, 4, 1), dtype=bool), "bool of shape (4, 4, 1)"),
        (6, np.ones((3, 4, 2), dtype=bool), "bool of shape (3, 4, 2)"),
    ], ids=["not-bool", "bs-shape", "later-slot"])
    def test_bad_mask_rejected_naming_both_shapes(self, slot, mask, got):
        # every slot's mask is checked as the slot arrives
        stream = RNG.random((7, 4, 4, 2))
        masks = [np.ones((4, 4, 2), dtype=bool) for _ in stream]
        masks[slot - 1] = mask
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=(False,))
        with pytest.raises(ValueError) as info:
            run_online(zip(stream, masks), cfg)
        assert str(info.value) == (f"mask of slot {slot} must be a bool array of the slot's "
                                   f"shape (4, 4, 2), got {got}")

    def test_slot_of_another_shape_rejected(self):
        stream = [RNG.random((4, 4, 2)) for _ in range(7)]
        stream[2] = RNG.random((4, 4, 3))
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=(False,))
        with pytest.raises(ValueError, match=r"slot 3 has shape \(4, 4, 3\), expected \(4, 4, 2\)"):
            run_observing_nonzero(stream, cfg)

    def test_no_full_stream_copy(self):
        # the stream yields one slot at a time and the loop holds the last tau
        # slots' raw shares, plus, with completion, the last tau slots'
        # observed entries and the run's workspace: 5 window-sized arrays (two
        # scatter buffers, the step product, the replayed x and its scratch).
        # At this small shape the solve's transients take up to 5 windows more:
        # a rank-16 SVD factor, its scaled copy and numpy's buffer for that
        # product each take 2/3 of a window, the Gram matrices, eigensolves and
        # the entries' indices as much again. A whole run, generation
        # included, stays within those 5 + 5 windows at 60 and at 200 slots
        # (with the whole stream held, a 60-slot run peaks above both)
        slot_nbytes = 24 * 24 * 3 * 8
        base = dict(tau=8, order=4, cache_size=6, predictors=("mean",), shift=2,
                    rank_budgets=(16,))
        raw = OnlineConfig(completion=(False,), **base)
        both = OnlineConfig(completion=(True, False), **base)
        run_online(synth_lowrank_stream(24, 3, 12), both)  # numpy's lazy first calls
        for cfg, bound in ((raw, base["tau"] + 4), (both, (5 + 5) * base["tau"])):
            for n_slots in (60, 200):
                tracemalloc.start()
                try:
                    run_online(synth_lowrank_stream(24, 3, n_slots), cfg)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < bound * slot_nbytes, (cfg.completion, n_slots, peak / slot_nbytes)

    def test_zero_demand_slots_flagged_and_excluded(self):
        stream = [RNG.random((5, 5, 2)) for _ in range(8)]
        stream[6] = np.zeros((5, 5, 2))  # realized demands vanish for one scored slot
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, predictors=("mean",),
                           completion=(False,))
        result = run_observing_nonzero(stream, cfg)
        rates = result.cells["mean", False, 0]
        flagged = rates[result.zero_demand]
        assert len(flagged) == 2  # one per base station
        assert all(flagged == 0.0)
        assert result.slots[result.zero_demand.any(axis=1)].tolist() == [7]
        valid = rates[~result.zero_demand]
        assert result.average(("mean", False, 0)) == pytest.approx(float(np.mean(valid)))

    def test_stream_shorter_than_window_rejected(self):
        stream = [RNG.random((4, 4, 2)) for _ in range(3)]
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=(False,))
        with pytest.raises(ValueError):
            run_observing_nonzero(stream, cfg)

    def test_errors_carry_slot_index(self, monkeypatch):
        def failing_fit(*args):
            raise np.linalg.LinAlgError("solver blew up")

        monkeypatch.setattr(caching_mod, "fit_predict", failing_fit)
        stream = [RNG.random((5, 5, 2)) for _ in range(8)]
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=(False,))
        with pytest.raises(RuntimeError, match="slot 5") as info:
            run_observing_nonzero(stream, cfg)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestOraclePlace:
    def test_oracle_is_top_of_realized_mass(self):
        d = np.zeros((4, 4))
        d[2, :] = 5.0
        d[0, 0] = 1.0
        plan = oracle_of(d, 2)
        np.testing.assert_array_equal(plan, [1, 0, 1, 0])

    def test_oracle_optimal_among_all_plans(self):
        # exhaustive check on a small library: no 2-subset beats the oracle
        from itertools import combinations

        d = RNG.random((5, 5))
        oracle = slice_rate(d, oracle_of(d, 2))
        for pair in combinations(range(5), 2):
            c = np.zeros(5)
            c[list(pair)] = 1.0
            assert oracle >= slice_rate(d, c) - 1e-12
