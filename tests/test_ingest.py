import numpy as np
import pytest

from helpers import synth_request_stream
from tenscache.completion import FwConfig, complete
from tenscache.ingest import (
    IngestConfig,
    RatingsRecord,
    build_demand_tensor,
    load_ratings,
    synth_low_rank,
    synth_lowrank_stream,
)

DAY = 86400


def rec(user, movie, ts, rating=4.0):
    return RatingsRecord(user, movie, rating, ts)


def distinct_movie_records(n_movies, start_ts=1000):
    """One rating per movie so every movie survives top-F selection."""
    return [rec(u + 1, m + 1, start_ts + m) for u, m in zip(range(n_movies), range(n_movies))]


class TestBuildDemandTensor:
    def test_single_rating_lands_on_diagonal(self):
        records = distinct_movie_records(3)
        result = build_demand_tensor(records, IngestConfig(top_f=3, n_bs=2))
        assert len(result.slots) == 1
        slot = result.slots[0]
        assert slot.sum() == 3.0
        # all mass on the diagonal
        assert np.triu(slot.sum(axis=2), 1).sum() == 0
        assert np.tril(slot.sum(axis=2), -1).sum() == 0

    def test_cosession_pair_within_gap(self):
        records = distinct_movie_records(2)
        records += [rec(9, 1, 5_000_000), rec(9, 2, 5_000_000 + 3600)]
        cfg = IngestConfig(top_f=2, n_bs=1, pairing="cosession", session_gap_hours=6.0)
        result = build_demand_tensor(records, cfg)
        total = sum(s.sum() for s in result.slots)
        assert total == 1.0
        f, i = result.movie_ids.index(1), result.movie_ids.index(2)
        assert sum(s[f, i, 0] for s in result.slots) == 1.0

    def test_cosession_pair_outside_gap_ignored(self):
        records = distinct_movie_records(2)
        records += [rec(9, 1, 5_000_000), rec(9, 2, 5_000_000 + 7 * 3600)]
        cfg = IngestConfig(top_f=2, n_bs=1, pairing="cosession", session_gap_hours=6.0)
        result = build_demand_tensor(records, cfg)
        assert sum(s.sum() for s in result.slots) == 0.0

    def test_slot_boundary_is_half_open(self):
        records = [rec(1, 1, 1000), rec(2, 2, 1000 + 30 * DAY)]
        result = build_demand_tensor(records, IngestConfig(top_f=2, n_bs=1))
        assert len(result.slots) == 2
        assert result.slots[0].sum() == 1.0 and result.slots[1].sum() == 1.0

    def test_mass_conservation_self_pairing(self):
        rng = np.random.default_rng(0)
        records = distinct_movie_records(10)
        records += [
            rec(int(rng.integers(1, 50)), int(rng.integers(1, 11)), int(rng.integers(1000, 10**7)))
            for _ in range(200)
        ]
        result = build_demand_tensor(records, IngestConfig(top_f=10, n_bs=3))
        assert sum(s.sum() for s in result.slots) == len(records)

    def test_bs_assignment_is_deterministic_partition(self):
        records = distinct_movie_records(4)
        cfg = IngestConfig(top_f=4, n_bs=3)
        a = build_demand_tensor(records, cfg)
        b = build_demand_tensor(records, cfg)
        for sa, sb in zip(a.slots, b.slots):
            np.testing.assert_array_equal(sa, sb)
        # every rating lands in exactly one bs: totals already checked above
        assert all((s.sum(axis=2) >= 0).all() for s in a.slots)

    def test_top_f_selection_count_then_id(self):
        records = [rec(1, 5, 1000), rec(2, 5, 1001), rec(3, 9, 1002), rec(4, 2, 1003)]
        result = build_demand_tensor(records, IngestConfig(top_f=2, n_bs=1))
        assert result.movie_ids == [5, 2]  # count 2 first, then tie 2 vs 9 by id

    def test_too_few_movies_rejected(self):
        with pytest.raises(ValueError, match="distinct movies"):
            build_demand_tensor(distinct_movie_records(3), IngestConfig(top_f=5, n_bs=1))

    def test_star_sum_weighting(self):
        records = [rec(1, 1, 1000, rating=2.5), rec(2, 1, 2000, rating=1.5)]
        counted = build_demand_tensor(records, IngestConfig(top_f=1, n_bs=1))
        starred = build_demand_tensor(records, IngestConfig(top_f=1, n_bs=1, weight="stars"))
        assert counted.slots[0].sum() == 2.0
        assert starred.slots[0].sum() == 4.0


class TestLoadRatings:
    def test_comma_and_tab_with_header(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p1.write_text("user_id,movie_id,rating,timestamp\n1,2,3.5,1000\n")
        p2 = tmp_path / "b.tsv"
        p2.write_text("1\t2\t3.5\t1000\n")
        for p in (p1, p2):
            records = load_ratings(p)
            assert records == [RatingsRecord(1, 2, 3.5, 1000)]

    def test_bad_timestamp_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3.5,0\n")
        with pytest.raises(ValueError, match="timestamp"):
            load_ratings(p)

    @pytest.mark.parametrize("record, message", [
        ("1,2,3.5,x", "bad field in '1,2,3.5,x'"),
        ("1,2.5,3.5,1000", "bad field in '1,2.5,3.5,1000'"),
        ("1,2,3.5,inf", "bad field in '1,2,3.5,inf'"),
        ("1,2,3.5,nan", "bad field in '1,2,3.5,nan'"),
        ("1,2,3.5,-5", "timestamp must be > 0"),
        ("1,2,nan,1000", "rating must be finite and >= 0"),
        ("1,2,inf,1000", "rating must be finite and >= 0"),
        ("1,2,-1,1000", "rating must be finite and >= 0"),
    ])
    def test_bad_record_rejected_naming_line(self, tmp_path, record, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"1,2,3.5,1000\n{record}\n")
        with pytest.raises(ValueError) as info:
            load_ratings(p)
        assert str(info.value) == f"{p}:2: {message}"

    def test_fractional_timestamp_truncates(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3.5,1000.9\n")
        assert load_ratings(p) == [RatingsRecord(1, 2, 3.5, 1000)]


class TestSynthLowRank:
    def test_full_observation_covers_truth(self):
        obs, truth = synth_low_rank((4, 5, 3), (1, 1, 1), observe_fraction=1.0, seed=0)
        np.testing.assert_array_equal(obs.to_dense(), truth)

    def test_deterministic_under_seed(self):
        a = synth_low_rank((4, 5, 3, 2), (1, 2, 1, 1), observe_fraction=0.4, seed=9)
        b = synth_low_rank((4, 5, 3, 2), (1, 2, 1, 1), observe_fraction=0.4, seed=9)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1], b[1])

    def test_end_to_end_recovery_at_matching_budget(self):
        ranks = (2, 2, 2, 2)
        obs, _ = synth_low_rank((8, 8, 4, 4), ranks, observe_fraction=0.5, seed=3)
        _, trace = complete(obs, FwConfig(rank_budget=sum(ranks)))
        assert trace[-1].rse <= 1e-6

    def test_noise_sets_observed_error_floor(self):
        noise = 0.05
        obs, truth = synth_low_rank(
            (8, 8, 4, 4), (2, 2, 2, 2), noise_sigma=noise, observe_fraction=0.6, seed=4
        )
        state, trace = complete(obs, FwConfig(rank_budget=8))
        # solver fits the noisy observations, so its error against the clean
        # truth at the observed cells sits at the injected noise level
        truth_obs = obs.gather(truth)
        err = np.linalg.norm(obs.gather(state.x) - truth_obs)
        expected = np.linalg.norm(obs.values - truth_obs)
        assert 0.5 * expected <= err <= 1.5 * expected

    def test_infeasible_rank_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            synth_low_rank((3, 3, 3), (10, 1, 1), seed=0)


class TestSynthStreams:
    def test_request_stream_counts_and_determinism(self):
        a = synth_request_stream(10, 2, 5, requests_per_slot=500, seed=1)
        b = synth_request_stream(10, 2, 5, requests_per_slot=500, seed=1)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa, sb)
            assert sa.sum() == 500 * 2

    def test_lowrank_stream_masks_observed_fraction(self):
        observed, truth = synth_lowrank_stream(20, 3, 10, observe_fraction=0.05, seed=2)
        frac = np.mean([np.count_nonzero(o) / o.size for o in observed])
        assert 0.02 <= frac <= 0.09
        for o, t in zip(observed, truth):
            nz = o != 0
            np.testing.assert_array_equal(o[nz], t[nz])
