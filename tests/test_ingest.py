import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RATINGS_DTYPE,
    gather,
    ratings,
    reference_demand_slots,
    reference_lowrank_stream,
    stacked,
    synth_request_stream,
)
from tenscache.completion import FwConfig, complete
from tenscache.ingest import (
    IngestConfig,
    _parse_ratings_array,
    _parse_ratings_lines,
    build_demand_tensor,
    load_ratings,
    synth_low_rank,
    synth_lowrank_stream,
)

DAY = 86400


def rec(user, movie, ts, rating=4.0):
    return (user, movie, rating, ts)


def distinct_movie_records(n_movies, start_ts=1000):
    """One rating per movie so every movie survives top-F selection."""
    return [rec(u + 1, m + 1, start_ts + m) for u, m in zip(range(n_movies), range(n_movies))]


class TestBuildDemandTensor:
    def test_single_rating_lands_on_diagonal(self):
        records = distinct_movie_records(3)
        result = build_demand_tensor(ratings(records), IngestConfig(top_f=3, n_bs=2))
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
        result = build_demand_tensor(ratings(records), cfg)
        total = sum(s.sum() for s in result.slots)
        assert total == 1.0
        f, i = result.movie_ids.index(1), result.movie_ids.index(2)
        assert sum(s[f, i, 0] for s in result.slots) == 1.0

    def test_cosession_pair_outside_gap_ignored(self):
        records = distinct_movie_records(2)
        records += [rec(9, 1, 5_000_000), rec(9, 2, 5_000_000 + 7 * 3600)]
        cfg = IngestConfig(top_f=2, n_bs=1, pairing="cosession", session_gap_hours=6.0)
        result = build_demand_tensor(ratings(records), cfg)
        assert sum(s.sum() for s in result.slots) == 0.0

    def test_slot_boundary_is_half_open(self):
        records = [rec(1, 1, 1000), rec(2, 2, 1000 + 30 * DAY)]
        result = build_demand_tensor(ratings(records), IngestConfig(top_f=2, n_bs=1))
        assert len(result.slots) == 2
        assert result.slots[0].sum() == 1.0 and result.slots[1].sum() == 1.0

    def test_mass_conservation_self_pairing(self):
        rng = np.random.default_rng(0)
        records = distinct_movie_records(10)
        records += [
            rec(int(rng.integers(1, 50)), int(rng.integers(1, 11)), int(rng.integers(1000, 10**7)))
            for _ in range(200)
        ]
        result = build_demand_tensor(ratings(records), IngestConfig(top_f=10, n_bs=3))
        assert sum(s.sum() for s in result.slots) == len(records)

    def test_bs_assignment_is_deterministic_partition(self):
        records = distinct_movie_records(4)
        cfg = IngestConfig(top_f=4, n_bs=3)
        a = build_demand_tensor(ratings(records), cfg)
        b = build_demand_tensor(ratings(records), cfg)
        for sa, sb in zip(a.slots, b.slots):
            np.testing.assert_array_equal(sa, sb)
        # every rating lands in exactly one bs: totals already checked above
        assert all((s.sum(axis=2) >= 0).all() for s in a.slots)

    def test_top_f_selection_count_then_id(self):
        records = [rec(1, 5, 1000), rec(2, 5, 1001), rec(3, 9, 1002), rec(4, 2, 1003)]
        result = build_demand_tensor(ratings(records), IngestConfig(top_f=2, n_bs=1))
        assert result.movie_ids == [5, 2]  # count 2 first, then tie 2 vs 9 by id

    def test_too_few_movies_rejected(self):
        with pytest.raises(ValueError, match="distinct movies"):
            build_demand_tensor(ratings(distinct_movie_records(3)), IngestConfig(top_f=5, n_bs=1))

    def test_star_sum_weighting(self):
        records = [rec(1, 1, 1000, rating=2.5), rec(2, 1, 2000, rating=1.5)]
        counted = build_demand_tensor(ratings(records), IngestConfig(top_f=1, n_bs=1))
        starred = build_demand_tensor(ratings(records),
                                      IngestConfig(top_f=1, n_bs=1, weight="stars"))
        assert counted.slots[0].sum() == 2.0
        assert starred.slots[0].sum() == 4.0

    @settings(max_examples=300, deadline=None)
    @given(
        # (user, movie, rating in tenths, half-hours after the start), in
        # file order: users interleave, and timestamps tie often
        st.lists(st.tuples(st.integers(-3, 6), st.integers(1, 6), st.integers(0, 50),
                           st.integers(0, 200)), min_size=1, max_size=80),
        st.sampled_from(["self", "cosession"]),
        st.sampled_from(["count", "stars"]),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from([0.5, 6.0, 48.0]),
    )
    def test_bitwise_equals_per_record_loop(self, rows, pairing, weight, n_bs, top_f,
                                            slot_days, gap_hours):
        records = ratings([(u, m, k / 10, 10**9 + 1800 * h) for u, m, k, h in rows])
        top_f = min(top_f, len({r[1] for r in rows}))  # movies beyond it are dropped
        cfg = IngestConfig(top_f=top_f, n_bs=n_bs, slot_days=slot_days, pairing=pairing,
                           session_gap_hours=gap_hours, weight=weight)
        result = build_demand_tensor(records, cfg)
        slots, movie_ids, start = reference_demand_slots(records, cfg)
        assert result.slots.shape == (len(slots), top_f, top_f, n_bs)
        assert result.slots.tobytes() == np.stack(slots).tobytes()
        assert result.movie_ids == movie_ids
        assert result.start_timestamp == start


class TestLoadRatings:
    def test_comma_and_tab_with_header(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p1.write_text("user_id,movie_id,rating,timestamp\n1,2,3.5,1000\n")
        p2 = tmp_path / "b.tsv"
        p2.write_text("1\t2\t3.5\t1000\n")
        for p in (p1, p2):
            records = load_ratings(p)
            assert records.dtype == RATINGS_DTYPE
            assert records.tolist() == [(1, 2, 3.5, 1000)]

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

    @pytest.mark.parametrize("text", [
        "user_id,movie_id,rating,timestamp\n1,2,3.5,1000\n",
        "\n\nuser\tmovie\trating\ttimestamp\n1\t2\t3.5\t1000\n",  # the first non-blank row
    ])
    def test_header_row_skipped(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_text(text)
        assert load_ratings(p).tolist() == [(1, 2, 3.5, 1000)]

    def test_numeric_first_row_is_data(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("-1,10,4.0,1000\n1,2,3.5,1000\n")
        assert load_ratings(p).tolist() == [(-1, 10, 4.0, 1000), (1, 2, 3.5, 1000)]

    def test_fractional_id_on_first_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.5,10,4.0,1000\n1,2,3.5,1000\n")
        with pytest.raises(ValueError) as info:
            load_ratings(p)
        assert str(info.value) == f"{p}:1: bad field in '1.5,10,4.0,1000'"

    @pytest.mark.parametrize("record, loaded", [
        (f"{2**63 - 1},{-2**63},3.5,1000", (2**63 - 1, -2**63, 3.5, 1000)),
        (f"{2**63},2,3.5,1000", None),
        (f"1,{-2**63 - 1},3.5,1000", None),
        # timestamps go through float: 2**63 - 1024 is the largest below 2**63,
        # and 2**63 - 1 rounds up to 2**63
        (f"1,2,3.5,{2**63 - 1024}", (1, 2, 3.5, 2**63 - 1024)),
        (f"1,2,3.5,{2**63 - 1}", None),
    ])
    def test_ids_and_timestamps_must_fit_int64(self, tmp_path, record, loaded):
        p = tmp_path / "a.csv"
        p.write_text(f"1,2,3.5,1000\n{record}\n")
        if loaded is None:
            with pytest.raises(ValueError) as info:
                load_ratings(p)
            assert str(info.value) == f"{p}:2: bad field in {record!r}"
        else:
            assert load_ratings(p).tolist() == [(1, 2, 3.5, 1000), loaded]

    def test_fractional_timestamp_truncates(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3.5,1000.9\n")
        assert load_ratings(p).tolist() == [(1, 2, 3.5, 1000)]


# --- ratings: the array parse against the line parser -----------------------


@pytest.fixture(scope="module")
def ratings_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ratings") / "ratings.csv"


def sniffed(text: str) -> str:
    """The delimiter ``load_ratings`` picks for a file of ``text``."""
    return "\t" if text[:4096].count("\t") > text[:4096].count(",") else ","


def assert_same_records(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype == RATINGS_DTYPE
    assert a.tobytes() == b.tobytes()


IDS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0, -1]))
RATINGS = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-0.0, 0.0, 5.0]))
# the integer part of each is >= 1 and fits int64 (2**63 - 1024 is the largest float below 2**63)
STAMPS = st.floats(min_value=1.0, max_value=2.0**63 - 1024)
STAMP_TEXTS = ["{:d}", "{!r}", "{:e}", "{:.3f}", "{:.17E}", "{:+.1f}"]
EXTRA_FIELDS = st.sampled_from(["", "x", "1.5", "a note", "nan", "-"])
SPACES = st.sampled_from(["", " ", "  "])


@st.composite
def ratings_texts(draw):
    """A valid ratings file and its number of records: comma or tab, with or
    without a header row and a final newline, extra columns, spaces around
    all but the first field, and timestamps written with fractions and
    exponents."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    rows = []
    if draw(st.booleans()):
        rows.append(delimiter.join([draw(st.sampled_from(["userId", "user_id", "u"])),
                                    "movieId", "rating", "timestamp"]))
    n_records = draw(st.integers(1, 6))
    for _ in range(n_records):
        stamp = draw(STAMPS)
        stamp_text = draw(st.sampled_from(STAMP_TEXTS))
        fields = [str(draw(IDS)), str(draw(IDS)),
                  draw(st.sampled_from(["{!r}", "{:e}", "{:.2f}"])).format(draw(RATINGS)),
                  stamp_text.format(int(stamp) if stamp_text == "{:d}" else stamp)]
        fields += draw(st.lists(EXTRA_FIELDS, max_size=2))
        rows.append(fields[0] + draw(SPACES) + delimiter
                    + delimiter.join(draw(SPACES) + f + draw(SPACES) for f in fields[1:]))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n"])), n_records


@settings(max_examples=200, deadline=None)
@given(ratings_texts())
def test_array_parse_equals_line_parser_on_valid_files(ratings_path, case):
    text, n_records = case
    ratings_path.write_text(text)
    delimiter = sniffed(text)
    fast = _parse_ratings_array(ratings_path, delimiter)  # takes every such file
    assert_same_records(fast, _parse_ratings_lines(ratings_path, delimiter))
    assert_same_records(load_ratings(ratings_path), fast)
    assert len(fast) == n_records


# characters that make the number parsers of numpy and Python disagree, or
# that a ratings file may carry by mistake
FUZZ_ALPHABET = "0123456789+-.eE_ ,\t\"\r\n#naifINFx\x0b\x0c\x1c\x00\xa0\u0661\u01fe"


@st.composite
def fuzzed_ratings(draw):
    """Valid comma-separated ratings rows with up to four characters
    inserted or deleted."""
    text = "\n".join(",".join([str(draw(st.integers(-3, 3))), str(draw(st.integers(1, 9))),
                               repr(draw(RATINGS)), repr(draw(STAMPS))])
                     for _ in range(draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from(FUZZ_ALPHABET)) + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


@settings(max_examples=500, deadline=None)
@given(fuzzed_ratings())
def test_array_parse_never_accepts_what_the_line_parser_rejects(ratings_path, text):
    ratings_path.write_bytes(text.encode())
    try:
        fast = _parse_ratings_array(ratings_path, ",")
    except ValueError:  # what load_ratings hands to the line parser
        return
    assert_same_records(fast, _parse_ratings_lines(ratings_path, ","))


# files the array parse leaves to the line parser: (text, the records, or the
# line parser's message after "path:")
IN_DOUBT = [
    # a non-ASCII character: Python reads Arabic-Indic digits as a number
    ("1,2,3.5,\u0661\u0660\u0660\u0660\n", [(1, 2, 3.5, 1000)]),
    ("userId,movieId,rating,timestamp \u2713\n1,2,3.5,1000\n", [(1, 2, 3.5, 1000)]),
    ("1,2,3.5,1000\n1,2,3.5,\u0661x\n", "2: bad field in '1,2,3.5,\u0661x'"),
    # a quote: csv unquotes fields, and a quoted newline does not end a row
    ('"1",2,3.5,1000\n', [(1, 2, 3.5, 1000)]),
    ('1,2,3.5,1000,"a note\n5,6,7.0,8,"\n', [(1, 2, 3.5, 1000)]),
    ('1,2,"3,5",1000\n', "1: bad field in '1,2,3,5,1000'"),
    # a carriage return: csv ends rows at \r\n
    ("1,2,3.5,1000\r\n1,3,4.0,1001\r\n", [(1, 2, 3.5, 1000), (1, 3, 4.0, 1001)]),
    ("1,2,3.5,1000\r\n1,3,4.0,0\r\n", "2: timestamp must be > 0"),
    # other control characters: Python strips \x0c from a number, not \x1c
    ("1,2,3.5,1000\x0c\n", [(1, 2, 3.5, 1000)]),
    ("1,2,3.5,1000\n1,3,4.0,1001\x1c\n", "2: bad field in '1,3,4.0,1001\\x1c'"),
    # blank rows and blank first fields: the line parser skips them
    ("1,2,3.5,1000\n\n1,3,4.0,1001\n", [(1, 2, 3.5, 1000), (1, 3, 4.0, 1001)]),
    ("1,2,3.5,1000\n ,3,4.0,x\n,1,1,1\n", [(1, 2, 3.5, 1000)]),
    ("\n\tuser\tmovie\trating\n1\t2\t3.5\t1000\n", [(1, 2, 3.5, 1000)]),
    (" 1,2,3.5,1000\n", [(1, 2, 3.5, 1000)]),
    # no data rows
    ("", []),
    ("userId,movieId,rating,timestamp\n", []),
    ("\n\n", []),
    # loadtxt errors: a short row, a field loadtxt does not read
    ("1,2,3.5,1000\n1,2,3.5\n", "2: expected 4 fields, got 3"),
    ("1,2,3.5,1000\n1,,3.5,1000\n", "2: bad field in '1,,3.5,1000'"),
    ("1,2,3.5,1_000\n1_0,2,3.5,1000\n", [(1, 2, 3.5, 1000), (10, 2, 3.5, 1000)]),
    ("1,2.5,3.5,1000\n", "1: bad field in '1,2.5,3.5,1000'"),
    (f"1,{2**63},3.5,1000\n", f"1: bad field in '1,{2**63},3.5,1000'"),
    # records that fail a check
    ("1,2,3.5,1000\n1,2,3.5,inf\n", "2: bad field in '1,2,3.5,inf'"),
    (f"1,2,3.5,{2**63 - 1}\n", f"1: bad field in '1,2,3.5,{2**63 - 1}'"),
    ("1,2,3.5,0.5\n", "1: timestamp must be > 0"),
    ("1,2,-0.5,1000\n", "1: rating must be finite and >= 0"),
    ("1,2,nan,1000\n", "1: rating must be finite and >= 0"),
]


@pytest.mark.parametrize("text, expected", IN_DOUBT)
def test_a_file_in_doubt_is_read_by_the_line_parser(tmp_path, text, expected):
    path = tmp_path / "ratings.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        _parse_ratings_array(path, sniffed(text))
    if isinstance(expected, str):
        with pytest.raises(ValueError) as lines:
            _parse_ratings_lines(path, sniffed(text))
        with pytest.raises(ValueError) as loaded:
            load_ratings(path)
        assert str(loaded.value) == str(lines.value) == f"{path}:{expected}"
    else:
        records = load_ratings(path)
        assert_same_records(records, _parse_ratings_lines(path, sniffed(text)))
        assert records.tolist() == expected


def test_a_row_beyond_the_csv_field_limit_is_left_to_the_line_parser(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("1,2,3.5,1000," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError):
        _parse_ratings_array(path, ",")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_ratings(path)


@pytest.mark.parametrize("effect", ["warn", "overflow"])
def test_a_loadtxt_warning_or_overflow_is_left_to_the_line_parser(tmp_path, monkeypatch, effect):
    # numpy < 2 reads "2.5" as an int with only a DeprecationWarning
    loadtxt = np.loadtxt

    def doubtful_loadtxt(*args, **kwargs):
        if effect == "warn":
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return loadtxt(*args, **kwargs)
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setattr(np, "loadtxt", doubtful_loadtxt)
    path = tmp_path / "ratings.csv"
    path.write_text("1,2,3.5,1000\n1,3,4.0,1001\n")
    with warnings.catch_warnings(), pytest.raises(ValueError, match="loadtxt"):
        warnings.simplefilter("ignore")  # a warning is doubt even where it would not be seen
        _parse_ratings_array(path, ",")
    assert load_ratings(path).tolist() == [(1, 2, 3.5, 1000), (1, 3, 4.0, 1001)]


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
        _, trace = complete(obs, FwConfig(), sum(ranks))
        assert trace[-1].rse <= 1e-6

    def test_noise_sets_observed_error_floor(self):
        noise = 0.05
        obs, truth = synth_low_rank(
            (8, 8, 4, 4), (2, 2, 2, 2), noise_sigma=noise, observe_fraction=0.6, seed=4
        )
        state, trace = complete(obs, FwConfig(), 8)
        # solver fits the noisy observations, so its error against the clean
        # truth at the observed cells sits at the injected noise level
        truth_obs = gather(obs, truth)
        err = np.linalg.norm(gather(obs, state.x) - truth_obs)
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
        truth, mask = stacked(synth_lowrank_stream(20, 3, 10, observe_fraction=0.05, seed=2))
        assert mask.dtype == bool and mask.shape == truth.shape == (10, 20, 20, 3)
        assert 0.02 <= mask.mean() <= 0.09
        assert (truth > 0).all()  # so a zero-filled observed stream's zeros are the mask's holes

    @pytest.mark.parametrize("args", [
        (24, 3, 20, 0.05, 0), (7, 1, 5, 1.0, 3), (10, 2, 9, 0.5, 7), (3, 4, 6, 0.001, 11),
        (128, 3, 2, 0.05, 0),
    ])
    def test_lowrank_stream_is_the_reference_stream_bitwise(self, args):
        truth, mask = stacked(synth_lowrank_stream(*args))
        observed, ref_truth = reference_lowrank_stream(*args)
        assert truth.tobytes() == ref_truth.tobytes()
        assert np.where(mask, truth, 0.0).tobytes() == observed.tobytes()
        np.testing.assert_array_equal(mask, observed != 0)

    @pytest.mark.parametrize("observe", [0.0, -0.5, 1.5, float("nan")])
    def test_lowrank_stream_checks_its_arguments_at_the_call(self, observe):
        with pytest.raises(ValueError, match=r"observe_fraction must be in \(0, 1\]"):
            synth_lowrank_stream(8, 2, 5, observe)  # raises before any slot is asked for

    def test_lowrank_stream_holds_few_buffers_beyond_its_outputs(self):
        # draining the stream holds O(1) slots: the pairs in hand, the two
        # profiles and the scratch slot, however many slots it yields
        synth_lowrank_stream(2, 1, 1)  # numpy's lazy imports on a first call are not the stream's
        slot = 24 * 24 * 3 * 8
        for n_slots in (20, 200):
            tracemalloc.start()
            try:
                for realized, mask in synth_lowrank_stream(24, 3, n_slots):
                    assert realized.nbytes == slot and mask.shape == realized.shape
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 7 * slot, (n_slots, peak / slot)
