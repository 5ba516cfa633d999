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
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=False)
        with pytest.raises(ValueError, match="slot 6"):
            run_online(stream, cfg)

    def test_monotone_in_capacity(self):
        d = RNG.random((8, 8))
        shares = RNG.random(8)
        rates = []
        for cap in range(1, 9):
            rates.append(slice_rate(d, mpc_place(shares, cap)))
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


class TestRunOnline:
    def test_oracle_dominates_every_slot(self):
        stream = synth_request_stream(12, 2, 20, requests_per_slot=200, seed=3)
        cfg = OnlineConfig(tau=4, order=2, cache_size=4, predictors=("lp",), completion=False)
        [report] = run_online(stream, cfg)
        assert len(report.outcomes) == len(report.oracle_outcomes)
        for got, oracle in zip(report.outcomes, report.oracle_outcomes):
            assert (got.slot, got.bs) == (oracle.slot, oracle.bs)
            assert oracle.hit_rate >= got.hit_rate - 1e-12

    def test_stationary_zipf_mean_predictor_near_oracle(self):
        stream = synth_request_stream(40, 3, 200, requests_per_slot=3000, zipf_a=1.0, seed=5)
        cfg = OnlineConfig(tau=8, order=4, cache_size=12, predictors=("mean",), completion=False)
        [report] = run_online(stream, cfg)
        avg = report.average()
        oracle = report.averages["oracle"]
        assert avg >= oracle * 0.98

    def test_completion_improves_masked_stream(self):
        observed, truth = synth_lowrank_stream(24, 3, 60, observe_fraction=0.05, seed=0)
        base = dict(tau=8, order=4, cache_size=6, predictors=("mean",), rank_budgets=(16,), shift=2)
        [on] = run_online(observed, OnlineConfig(completion=True, **base), truth)
        [off] = run_online(observed, OnlineConfig(completion=False, **base), truth)
        assert on.average() >= off.average()

    def test_shared_completion_matches_single_predictor_runs(self):
        observed, truth = synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1)
        base = dict(tau=8, order=4, cache_size=6, rank_budgets=(16,), shift=2)
        both = run_online(observed, OnlineConfig(predictors=("lp", "mean"), **base), truth)
        [lp] = run_online(observed, OnlineConfig(predictors=("lp",), **base), truth)
        [mean] = run_online(observed, OnlineConfig(predictors=("mean",), **base), truth)
        assert [rep.method for rep in both] == ["lp-completed", "mean-completed"]
        for got, single in zip(both, (lp, mean)):
            assert got.outcomes == single.outcomes  # dataclass equality: bitwise floats
            assert got.oracle_outcomes == single.oracle_outcomes
            assert got.averages == single.averages

    def test_budget_sweep_matches_single_budget_runs(self):
        observed, truth = synth_lowrank_stream(24, 3, 14, observe_fraction=0.05, seed=1)
        base = dict(tau=8, order=4, cache_size=6, predictors=("lp", "mean"), shift=2)
        budgets = (16, 4, 8, 4)
        swept = run_online(observed, OnlineConfig(rank_budgets=budgets, **base), truth)
        assert [(rep.method, rep.rank) for rep in swept] == [
            (method, b) for method in ("lp-completed", "mean-completed") for b in budgets]
        for b in set(budgets):
            single = run_online(observed, OnlineConfig(rank_budgets=(b,), **base), truth)
            got = [rep for rep in swept if rep.rank == b]
            assert len(got) == 2 * budgets.count(b)
            for rep in got:
                [ref] = [r for r in single if r.method == rep.method]
                assert rep.outcomes == ref.outcomes  # dataclass equality: bitwise floats
                assert rep.oracle_outcomes == ref.oracle_outcomes
                assert rep.averages == ref.averages

    def test_one_completion_per_scored_slot(self, monkeypatch):
        calls = []

        def counting_sweep(t, fw_cfg, budgets):
            calls.append(t.shape)
            return complete_sweep(t, fw_cfg, budgets)

        monkeypatch.setattr(caching_mod, "complete_sweep", counting_sweep)
        observed, truth = synth_lowrank_stream(24, 3, 12, observe_fraction=0.05, seed=2)
        cfg = OnlineConfig(tau=8, order=4, cache_size=6, predictors=("lp", "mean"),
                           rank_budgets=(4, 8), shift=2)
        reports = run_online(observed, cfg, truth)
        scored_slots = {o.slot for o in reports[0].outcomes}
        assert len(scored_slots) == len(observed) - cfg.tau
        assert len(calls) == len(scored_slots)

    def test_zero_demand_slots_flagged_and_excluded(self):
        stream = [RNG.random((5, 5, 2)) for _ in range(8)]
        stream[6] = np.zeros((5, 5, 2))  # realized demands vanish for one scored slot
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, predictors=("mean",), completion=False)
        [report] = run_online(stream, cfg)
        flagged = [o for o in report.outcomes if o.zero_demand]
        assert len(flagged) == 2  # one per base station
        assert all(o.hit_rate == 0.0 for o in flagged)
        valid = [o.hit_rate for o in report.outcomes if not o.zero_demand]
        assert report.average() == pytest.approx(float(np.mean(valid)))

    def test_stream_shorter_than_window_rejected(self):
        stream = [RNG.random((4, 4, 2)) for _ in range(3)]
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=False)
        with pytest.raises(ValueError):
            run_online(stream, cfg)

    def test_errors_carry_slot_index(self, monkeypatch):
        def failing_fit(*args):
            raise np.linalg.LinAlgError("solver blew up")

        monkeypatch.setattr(caching_mod, "fit_predict", failing_fit)
        stream = [RNG.random((5, 5, 2)) for _ in range(8)]
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, completion=False)
        with pytest.raises(RuntimeError, match="slot 4") as info:
            run_online(stream, cfg)
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
