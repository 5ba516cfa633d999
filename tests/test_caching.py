import tracemalloc

import numpy as np
import pytest

from helpers import synth_request_stream
import tenscache.caching as caching_mod
from tenscache.caching import (
    OnlineConfig,
    hit_rate,
    mpc_place,
    oracle_place,
    run_online,
)
from tenscache.completion import complete_sweep
from tenscache.ingest import synth_lowrank_stream
from tenscache.prediction import normalize_demands

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
    """``run_online`` with the nonzero entries of ``stream`` observed: the
    mask the CLI gives ratings data, where a zero is a missing entry."""
    stream = np.asarray(stream)
    return run_online(stream, cfg, stream != 0.0)


def assert_same_scores(got, ref, keys):
    """Bitwise-equal slots, zero mask, oracle and ``keys`` cells, and equal averages."""
    assert got.slots.tobytes() == ref.slots.tobytes()
    assert got.zero_demand.tobytes() == ref.zero_demand.tobytes()
    assert got.oracle.tobytes() == ref.oracle.tobytes()
    assert got.average() == ref.average()
    for key in keys:
        assert got.cells[key].tobytes() == ref.cells[key].tobytes()
        assert got.average(key) == ref.average(key)


class TestRunOnline:
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
        truth, mask = synth_lowrank_stream(24, 3, 60, observe_fraction=0.05, seed=0)
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("mean",),
                           completion=(True, False), rank_budgets=(16,), shift=2)
        result = run_online(truth, cfg, mask)
        assert result.average(("mean", True, 16)) >= result.average(("mean", False, 0))

    def test_shared_completion_matches_single_predictor_runs(self):
        truth, mask = synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1)
        base = dict(tau=8, order=4, cache_size=6, rank_budgets=(16,), shift=2)
        both = run_online(truth, OnlineConfig(predictors=("lp", "mean"), **base), mask)
        lp = run_online(truth, OnlineConfig(predictors=("lp",), **base), mask)
        mean = run_online(truth, OnlineConfig(predictors=("mean",), **base), mask)
        assert [method for method, _, _ in both.runs()] == ["lp-completed", "mean-completed"]
        assert_same_scores(both, lp, [("lp", True, 16)])
        assert_same_scores(both, mean, [("mean", True, 16)])

    def test_budget_sweep_matches_single_budget_runs(self):
        truth, mask = synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1)
        base = dict(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2)
        budgets = (16, 4, 8, 4)
        swept = run_online(truth, OnlineConfig(rank_budgets=budgets, **base), mask)
        assert [(method, rank) for method, rank, _ in swept.runs()] == [
            (method, b) for method in ("lp-completed", "mean-completed") for b in budgets]
        for b in set(budgets):
            single = run_online(truth, OnlineConfig(rank_budgets=(b,), **base), mask)
            got = [key for _, rank, key in swept.runs() if rank == b]
            assert len(got) == 2 * budgets.count(b)
            assert_same_scores(swept, single, got)

    @pytest.mark.parametrize("completion", [(True, False), (False, True)])
    def test_treatments_in_one_pass_match_single_treatment_runs(self, completion):
        truth, mask = synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1)
        base = dict(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2,
                    rank_budgets=(16, 4, 8, 4))
        both = run_online(truth, OnlineConfig(completion=completion, **base), mask)
        on = run_online(truth, OnlineConfig(completion=(True,), **base), mask)
        off = run_online(truth, OnlineConfig(completion=(False,), **base), mask)
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

        def counting_sweep(t, fw_cfg, budgets):
            calls.append(t.shape)
            return complete_sweep(t, fw_cfg, budgets)

        monkeypatch.setattr(caching_mod, "complete_sweep", counting_sweep)
        truth, mask = synth_lowrank_stream(24, 3, 12, observe_fraction=0.05, seed=2)
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("lp", "mean"),
                           rank_budgets=(4, 8), shift=2)
        result = run_online(truth, cfg, mask)
        scored_slots = set(result.slots.tolist())
        assert len(scored_slots) == len(truth) - cfg.tau
        assert len(calls) == len(scored_slots)

    @pytest.mark.parametrize("n_bs", [1, 3])
    def test_raw_reports_same_from_list_and_array_stream(self, n_bs):
        truth, mask = synth_lowrank_stream(24, n_bs, 16, observe_fraction=0.3, seed=4)
        cfg = OnlineConfig(tau=5, order=3, cache_size=6, predictors=("lp", "mean"),
                           completion=(False,))
        from_array = run_online(truth, cfg, mask)
        from_list = run_online(list(truth), cfg, list(mask))
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
        stream = RNG.random((23, 16, 16, n_bs))
        mask = RNG.random(stream.shape) < 0.3
        mask[7, :, :, 0] = False  # an unobserved slice reads uniform
        tau = 4
        cfg = OnlineConfig(tau=tau, order=2, cache_size=3, predictors=("lp",), completion=(False,))
        run_online(stream, cfg, mask)
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
        truth, mask = synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1)
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2,
                           completion=(True, False), rank_budgets=(16, 4))
        masked = run_online(truth, cfg, mask)
        masked_seen, seen[:] = seen[:], []
        run_observing_nonzero(np.where(mask, truth, 0.0), cfg)
        assert len(masked_seen) == 6 * 3 * 3 * 2 and masked_seen == seen
        assert masked.oracle.tobytes() == run_observing_nonzero(truth, cfg).oracle.tobytes()

    @pytest.mark.parametrize("mask, got", [
        (np.ones((7, 4, 4, 2)), "float64 of shape (7, 4, 4, 2)"),
        (np.ones((7, 4, 4, 1), dtype=bool), "bool of shape (7, 4, 4, 1)"),
        (np.ones((6, 4, 4, 2), dtype=bool), "bool of shape (6, 4, 4, 2)"),
    ], ids=["not-bool", "bs-shape", "slot-count"])
    def test_bad_mask_rejected_naming_both_shapes(self, mask, got):
        stream = RNG.random((7, 4, 4, 2))
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=(False,))
        with pytest.raises(ValueError) as info:
            run_online(stream, cfg, mask)
        assert str(info.value) == ("mask must be a bool array of the stream's shape "
                                   f"(7, 4, 4, 2), got {got}")

    def test_no_full_stream_copy(self):
        # the raw shares come from one observed block of tau slots at a time
        # and each window is solved from its observed entries, so the run's
        # own allocations stay far below the stream's
        truth, mask = synth_lowrank_stream(24, 3, 200)
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("mean",), shift=2,
                           completion=(True, False), rank_budgets=(16,))
        tracemalloc.start()
        try:
            run_online(truth, cfg, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < truth.nbytes / 2

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
        with pytest.raises(RuntimeError, match="slot 4") as info:
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
