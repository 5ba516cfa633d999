import numpy as np
import pytest

import tenscache.caching as caching_mod
from tenscache.caching import (
    CachePlan,
    OnlineConfig,
    hit_rate,
    mpc_place,
    oracle_place,
    run_online,
)
from tenscache.ingest import synth_lowrank_stream, synth_request_stream
from tenscache.prediction import Forecast

RNG = np.random.default_rng(31)


def forecast_of(shares, bs=0):
    shares = np.asarray(shares, dtype=float)
    return Forecast(bs, shares, np.zeros(0))


class TestMpcPlace:
    def test_top_two(self):
        plan = mpc_place(forecast_of([0.5, 0.3, 0.1, 0.1]), 2)
        np.testing.assert_array_equal(plan.c, [1, 1, 0, 0])

    def test_uniform_ties_break_to_low_index(self):
        plan = mpc_place(forecast_of([0.25, 0.25, 0.25, 0.25]), 2)
        np.testing.assert_array_equal(plan.c, [1, 1, 0, 0])

    def test_full_capacity_caches_everything(self):
        plan = mpc_place(forecast_of([0.1, 0.2, 0.7]), 3)
        np.testing.assert_array_equal(plan.c, [1, 1, 1])
        d = RNG.random((3, 3))
        assert hit_rate(d, plan) == pytest.approx(1.0)

    def test_capacity_above_library_rejected(self):
        with pytest.raises(ValueError):
            mpc_place(forecast_of([0.5, 0.5]), 3)

    def test_plan_feasibility_enforced(self):
        with pytest.raises(ValueError):
            CachePlan(np.array([1.0, 0.5, 0.0]), capacity=2)
        with pytest.raises(ValueError):
            CachePlan(np.array([1.5, 0.5]), capacity=2)


class TestHitRate:
    def test_all_demand_on_cached_file(self):
        d = np.zeros((3, 3))
        d[0, 1] = 7.0
        plan = CachePlan(np.array([1.0, 0.0, 0.0]), 1)
        assert hit_rate(d, plan) == 1.0

    def test_all_demand_on_uncached_files(self):
        d = np.zeros((3, 3))
        d[1, 1] = 4.0
        plan = CachePlan(np.array([1.0, 0.0, 0.0]), 1)
        assert hit_rate(d, plan) == 0.0

    def test_ratio_with_mixed_mass(self):
        # per-file mass (6, 3, 1), cache {file 1} -> 0.6
        d = np.zeros((3, 3))
        d[0, :] = 2.0
        d[1, 0] = 3.0
        d[2, 2] = 1.0
        plan = CachePlan(np.array([1.0, 0.0, 0.0]), 1)
        assert hit_rate(d, plan) == pytest.approx(0.6)

    def test_zero_demand_scores_zero(self):
        plan = CachePlan(np.array([1.0, 0.0]), 1)
        assert hit_rate(np.zeros((2, 2)), plan) == 0.0

    def test_negative_demand_rejected(self):
        plan = CachePlan(np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError):
            hit_rate(np.array([[-1.0, 0.0], [0.0, 0.0]]), plan)

    def test_monotone_in_capacity(self):
        d = RNG.random((8, 8))
        shares = RNG.random(8)
        rates = []
        for cap in range(1, 9):
            rates.append(hit_rate(d, mpc_place(forecast_of(shares), cap)))
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


class TestRunOnline:
    def test_oracle_dominates_every_slot(self):
        stream = synth_request_stream(12, 2, 20, requests_per_slot=200, seed=3)
        cfg = OnlineConfig(tau=4, order=2, cache_size=4, predictor="lp", completion=False)
        report = run_online(stream, cfg)
        assert len(report.outcomes) == len(report.oracle_outcomes)
        for got, oracle in zip(report.outcomes, report.oracle_outcomes):
            assert (got.slot, got.bs) == (oracle.slot, oracle.bs)
            assert oracle.hit_rate >= got.hit_rate - 1e-12

    def test_stationary_zipf_mean_predictor_near_oracle(self):
        stream = synth_request_stream(40, 3, 200, requests_per_slot=3000, zipf_a=1.0, seed=5)
        cfg = OnlineConfig(tau=8, order=4, cache_size=12, predictor="mean", completion=False)
        report = run_online(stream, cfg)
        avg = report.average()
        oracle = report.averages["oracle"]
        assert avg >= oracle * 0.98

    def test_completion_improves_masked_stream(self):
        observed, truth = synth_lowrank_stream(24, 3, 60, observe_fraction=0.05, seed=0)
        base = dict(tau=8, order=4, cache_size=6, predictor="mean", rank_budget=16, shift=2)
        on = run_online(observed, OnlineConfig(completion=True, **base), truth)
        off = run_online(observed, OnlineConfig(completion=False, **base), truth)
        assert on.average() >= off.average()

    def test_zero_demand_slots_flagged_and_excluded(self):
        stream = [RNG.random((5, 5, 2)) for _ in range(8)]
        stream[6] = np.zeros((5, 5, 2))  # realized demands vanish for one scored slot
        cfg = OnlineConfig(tau=4, order=2, cache_size=2, predictor="mean", completion=False)
        report = run_online(stream, cfg)
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
        plan = oracle_place(d, 2)
        np.testing.assert_array_equal(plan.c, [1, 0, 1, 0])

    def test_oracle_optimal_among_all_plans(self):
        # exhaustive check on a small library: no 2-subset beats the oracle
        from itertools import combinations

        d = RNG.random((5, 5))
        oracle = hit_rate(d, oracle_place(d, 2))
        for pair in combinations(range(5), 2):
            c = np.zeros(5)
            c[list(pair)] = 1.0
            assert oracle >= hit_rate(d, CachePlan(c, 2)) - 1e-12
