import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gather, reference_coo_text
from tenscache import tensors
from tenscache.tensors import (
    SparseTensor,
    _parse_coo_array,
    _parse_coo_lines,
    UnfoldSpec,
    fold,
    read_coo,
    unfold,
    validate_shape,
    write_coo_dense,
    write_coo_sparse,
)

RNG = np.random.default_rng(42)

ROUND_TRIP_SHAPES = [
    (2, 2, 2),
    (2, 3, 4),
    (5, 4, 3),
    (6, 6, 6),
    (3, 4, 5, 6),
    (2, 2, 2, 2),
    (6, 5, 4, 3),
    (2, 3, 2, 4, 3),
    (3, 2, 4, 2, 5),
]


def all_specs(shape):
    n = len(shape)
    return [UnfoldSpec(k, d) for k in range(1, n + 1) for d in range(1, n)]


class TestValidateShape:
    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            validate_shape((3, 4))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            validate_shape((3, 0, 4))

    def test_normalizes(self):
        assert validate_shape([2, 3, 4]) == (2, 3, 4)


class TestUnfold:
    def test_2x2x2_mode1_shift1(self):
        x = RNG.normal(size=(2, 2, 2))
        assert unfold(x, UnfoldSpec(1, 1)).shape == (2, 4)

    def test_paper_scale_dims_table(self):
        # direct evaluation of the row/col products at 128x128x3x10, d=1
        shape = (128, 128, 3, 10)
        expected = {1: (128, 3840), 2: (128, 3840), 3: (3, 163840), 4: (10, 49152)}
        for k, dims in expected.items():
            assert UnfoldSpec(k, 1).matrix_dims(shape) == dims

    def test_dims_product_invariant(self):
        for shape in ROUND_TRIP_SHAPES:
            for spec in all_specs(shape):
                rows, cols = spec.matrix_dims(shape)
                assert rows * cols == int(np.prod(shape))

    def test_element_mapping_first_index_fastest(self):
        x = RNG.normal(size=(2, 3, 4))
        m = unfold(x, UnfoldSpec(1, 1))
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert m[i, j + 3 * k] == x[i, j, k]

    def test_linearity(self):
        x = RNG.normal(size=(3, 4, 5))
        y = RNG.normal(size=(3, 4, 5))
        spec = UnfoldSpec(2, 2)
        lhs = unfold(2.5 * x - 1.5 * y, spec)
        rhs = 2.5 * unfold(x, spec) - 1.5 * unfold(y, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_invalid_spec_rejected(self):
        x = RNG.normal(size=(2, 3, 4))
        with pytest.raises(ValueError):
            unfold(x, UnfoldSpec(4, 1))
        with pytest.raises(ValueError):
            unfold(x, UnfoldSpec(1, 3))


class TestFold:
    def test_round_trip_exhaustive(self):
        for shape in ROUND_TRIP_SHAPES:
            x = RNG.normal(size=shape)
            for spec in all_specs(shape):
                m = unfold(x, spec)
                np.testing.assert_array_equal(fold(m, spec, shape), x)

    def test_zero_matrix(self):
        spec = UnfoldSpec(2, 1)
        out = fold(np.zeros((3, 8)), spec, (2, 3, 4))
        assert not out.any()

    def test_single_row_matrix_round_trip(self):
        # degenerate row dimension: the row lays along the remaining modes
        shape = (1, 3, 4)
        spec = UnfoldSpec(1, 1)
        m = RNG.normal(size=(1, 12))
        np.testing.assert_array_equal(unfold(fold(m, spec, shape), spec), m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), UnfoldSpec(1, 1), (2, 3, 4))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(dims, seed):
    shape = tuple(dims)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    for spec in all_specs(shape):
        np.testing.assert_array_equal(fold(unfold(x, spec), spec, shape), x)


class TestSparseTensor:
    def test_basic_construction(self):
        t = SparseTensor((3, 3, 3), [[0, 1, 2], [1, 1, 1]], [4.0, 5.0])
        assert t.nnz == 2
        dense = t.to_dense()
        assert dense[0, 1, 2] == 4.0 and dense[1, 1, 1] == 5.0
        assert dense.sum() == 9.0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseTensor((3, 3, 3), [[0, 1, 2], [0, 1, 2]], [1.0, 2.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseTensor((3, 3, 3), [[0, 1, 3]], [1.0])

    def test_gather(self):
        # the tests' gather reads the entries to_dense places
        t = SparseTensor((2, 2, 2), [[0, 0, 0], [1, 1, 1]], [1.0, 2.0])
        x = np.arange(8, dtype=float).reshape(2, 2, 2)
        np.testing.assert_array_equal(gather(t, x), [x[0, 0, 0], x[1, 1, 1]])
        assert gather(t, t.to_dense()).tobytes() == t.values.tobytes()


class TestCooFormat:
    def test_sparse_round_trip(self, tmp_path):
        t = SparseTensor((3, 4, 5), [[0, 1, 2], [2, 3, 4]], [1.5, -2.25])
        path = tmp_path / "t.coo"
        write_coo_sparse(path, t)
        back = read_coo(path)
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.indices, t.indices)
        np.testing.assert_array_equal(back.values, t.values)

    def test_dense_full_support_round_trip(self, tmp_path):
        x = RNG.normal(size=(2, 3, 4))
        path = tmp_path / "x.coo"
        write_coo_dense(path, x)
        np.testing.assert_array_equal(read_coo(path).to_dense(), x)

    def test_one_based_indices_on_disk(self, tmp_path):
        t = SparseTensor((2, 2, 2), [[0, 0, 0]], [7.0])
        path = tmp_path / "t.coo"
        write_coo_sparse(path, t)
        lines = path.read_text().splitlines()
        assert lines[0] == "# shape: 2x2x2"
        assert lines[1].startswith("1,1,1,")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("1,1,1,2.0\n")
        with pytest.raises(ValueError, match="shape"):
            read_coo(path)

    def test_duplicate_entries_in_file_rejected(self, tmp_path):
        path = tmp_path / "dup.coo"
        path.write_text("# shape: 2x2x2\n1,1,1,2.0\n1,1,1,3.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_coo(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "bad.coo"
        path.write_text(f"# shape: 2x2x2\n1,1,1,2.0\n2,1,1,{value}\n")
        with pytest.raises(ValueError, match=f"{path}:3: non-finite value"):
            read_coo(path)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=4),
    st.data(),
)
def test_duplicate_check_in_any_entry_order(dims, data):
    # entries in C order, first-index-fastest order or any other order: the
    # check rejects a repeated position and nothing else
    shape = tuple(dims)
    size = int(np.prod(shape))
    flat = data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size))
    order = data.draw(st.sampled_from(["C", "F", None]))
    if order:
        flat = sorted(flat)
    idx = np.stack(np.unravel_index(np.array(flat, dtype=np.intp), shape, order=order or "C"),
                   axis=1).reshape(-1, len(shape))
    values = np.ones(len(flat))
    if len(set(flat)) < len(flat):
        with pytest.raises(ValueError, match="duplicate"):
            SparseTensor(shape, idx, values)
    else:
        assert SparseTensor(shape, idx, values).nnz == len(flat)


# --- COO text: round trips, the array parse against the line parser ---------

EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1e16, 3.0, -7.0]
coo_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**9, max_value=10**9).map(float),
)


@st.composite
def sparse_tensors(draw, min_entries=0):
    """Order 3-5, entries in drawn (unsorted) order; none gives a header-only file."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=5)))
    size = int(np.prod(shape))
    flat = draw(st.lists(st.integers(0, size - 1), unique=True,
                         min_size=min(min_entries, size), max_size=min(size, 30)))
    idx = np.stack(np.unravel_index(np.array(flat, dtype=np.intp), shape), axis=1)
    idx = idx.reshape(len(flat), len(shape))
    values = draw(st.lists(coo_values, min_size=len(flat), max_size=len(flat)))
    return SparseTensor(shape, idx, np.array(values, dtype=np.float64))


def assert_bitwise_equal(a: SparseTensor, b: SparseTensor):
    assert a.shape == b.shape
    assert a.indices.dtype == b.indices.dtype and a.indices.shape == b.indices.shape
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()


@pytest.fixture(scope="module")
def coo_path(tmp_path_factory):
    return tmp_path_factory.mktemp("coo") / "t.coo"


@settings(max_examples=80, deadline=None)
@given(sparse_tensors())
def test_sparse_write_read_round_trips_bitwise(coo_path, t):
    write_coo_sparse(coo_path, t)
    assert_bitwise_equal(read_coo(coo_path), t)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=3, max_size=5), st.data())
def test_dense_write_read_round_trips_bitwise(coo_path, dims, data):
    shape = tuple(dims)
    size = int(np.prod(shape))
    values = data.draw(st.lists(coo_values, min_size=size, max_size=size))
    x = np.array(values, dtype=np.float64).reshape(shape)
    write_coo_dense(coo_path, x)
    back = read_coo(coo_path)
    assert back.nnz == size
    assert back.to_dense().tobytes() == x.tobytes()
    np.testing.assert_array_equal(  # first index fastest on disk
        back.indices, np.stack(np.unravel_index(np.arange(size), shape, order="F"), axis=1))


def test_dense_write_of_integer_tensor_reads_back_as_floats(coo_path):
    x = np.arange(8).reshape(2, 2, 2)
    write_coo_dense(coo_path, x)
    assert coo_path.read_text().splitlines()[1] == "1,1,1,0.0"
    assert read_coo(coo_path).to_dense().tobytes() == x.astype(np.float64).tobytes()


# NaNs with other bit patterns than np.nan's: each is written as ``nan``
NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0008000000000000, -0x0007FFFFFFFFFFFF],
                        dtype=np.int64).view(np.float64).tolist()
WRITE_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, -1e16,
                     -2.2250738585072014e-308, -1.7976931348623157e308, 0.0001, 1e-5,
                     *NAN_PAYLOADS]),
    st.floats(),  # many distinct values
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12) | st.integers(13, 1200), min_size=3, max_size=5),
       st.integers(1, 5), st.data())
def test_write_coo_matches_the_per_line_formatter(coo_path, dims, chunk, data):
    # dimensions both within and longer than the entry list; chunks of 1-5 lines;
    # distinct positions in any order
    shape = tuple(dims)
    size = math.prod(shape)
    flat = data.draw(st.lists(st.integers(0, size - 1), max_size=min(12, size), unique=True))
    columns = np.unravel_index(np.array(flat, dtype=np.intp), shape)
    values = data.draw(st.lists(WRITE_VALUES, min_size=len(flat), max_size=len(flat)))
    t = SparseTensor(shape, np.stack(columns, axis=1), values)
    with mock.patch.object(tensors, "_CHUNK_LINES", chunk):
        write_coo_sparse(coo_path, t)
    assert coo_path.read_bytes() == reference_coo_text(shape, columns, values).encode()


def test_write_coo_matches_the_per_line_formatter_over_many_chunks(coo_path):
    # distinct normal values, repeated counts and both zeros, over ten chunks,
    # by the sparse writer and by the dense writer's batches
    shape = (40, 9, 3, 70)
    x = np.random.default_rng(7).standard_normal(shape)
    x[:, :3] = np.round(x[:, :3] * 2)
    x[:, 3:5] = -0.0
    x[:, 5:7] = 0.0
    columns = np.unravel_index(np.arange(x.size), shape, order="F")
    expected = reference_coo_text(shape, columns, x.ravel(order="F")).encode()
    write_coo_sparse(coo_path, SparseTensor(shape, np.stack(columns, axis=1), x.ravel(order="F")))
    assert coo_path.read_bytes() == expected
    write_coo_dense(coo_path, x)
    assert coo_path.read_bytes() == expected
    assert x.size > 2 * tensors._CHUNK_LINES


def test_sparse_write_forms_only_the_index_strings_in_use(coo_path):
    # a table of every index of a million-long dimension would take ~60 MiB
    t = SparseTensor((10**6, 3, 3), [[5, 1, 2], [999_999, 0, 0], [42, 2, 1]], [1.0, -0.0, 2.5])
    tracemalloc.start()
    try:
        write_coo_sparse(coo_path, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coo_path.read_text() == "# shape: 1000000x3x3\n6,2,3,1.0\n1000000,1,1,-0.0\n43,3,2,2.5\n"
    assert peak < 2**20


@st.composite
def dense_shapes(draw):
    """Order 3-4: short dimensions and one up to 120 long, anywhere."""
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    dims.insert(draw(st.integers(0, len(dims))), draw(st.integers(1, 120)))
    return tuple(dims)


@st.composite
def dense_tensors(draw, shape):
    """A dense tensor of ``shape`` with a drawn share of nonzero bit patterns,
    mostly small; the nonzero values cycle through a few drawn from
    ``WRITE_VALUES`` or counts, so they repeat."""
    size = math.prod(shape)
    count = draw(st.integers(0, size // 20) | st.integers(0, size))
    nonzero = draw(st.lists(WRITE_VALUES.filter(lambda v: math.copysign(1.0, v) < 0 or v != 0)
                            | st.integers(1, 9).map(float), min_size=1, max_size=6))
    x = np.zeros(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x[rng.permutation(size)[:count]] = np.resize(np.array(nonzero), count)
    return x.reshape(shape, order="F")


@settings(max_examples=150, deadline=None)
@given(dense_shapes(), st.integers(1, 70), st.integers(1, 40), st.data())
def test_dense_write_matches_the_per_line_formatter(coo_path, shape, lead, chunk, data):
    # blocks of one lead mode up to all modes and batches of one block up to many, so
    # runs of zero lines start and end at blocks' edges and inside them
    x = data.draw(dense_tensors(shape))
    with mock.patch.multiple(tensors, _LEAD_LINES=lead, _CHUNK_LINES=chunk):
        write_coo_dense(coo_path, x)
    columns = np.unravel_index(np.arange(x.size), shape, order="F")
    assert coo_path.read_bytes() == reference_coo_text(shape, columns, x.ravel(order="F")).encode()


def test_header_only_file_round_trips(coo_path):
    t = SparseTensor((2, 3, 4), np.empty((0, 3), dtype=np.intp), [])
    write_coo_sparse(coo_path, t)
    assert coo_path.read_text() == "# shape: 2x3x4\n"
    assert_bitwise_equal(read_coo(coo_path), t)


BLANK_OR_COMMENT = st.sampled_from(["", "   ", "\t", " \t ", "#", "# a note", "  # 1,2,3,4.0"])
SPACES = st.sampled_from(["", " ", "  "])


@st.composite
def decorated_coo_texts(draw):
    """A valid file with comment, blank and whitespace-only lines, spaces
    around fields and other spellings of the same numbers."""
    t = draw(sparse_tensors(min_entries=1))
    lines = draw(st.lists(BLANK_OR_COMMENT, max_size=2))
    lines.append(draw(st.sampled_from(["# shape: ", "#shape:", "  #  shape:  "]))
                 + "x".join(map(str, t.shape)))
    for row, value in zip(t.indices.tolist(), t.values.tolist()):
        lines += draw(st.lists(BLANK_OR_COMMENT, max_size=2))
        index_text = draw(st.sampled_from(["{}", "+{}", "0{}"]))
        value_text = draw(st.sampled_from(["{!r}", "{:.17e}", "{:+.17g}"]))
        fields = [index_text.format(i + 1) for i in row] + [value_text.format(value)]
        lines.append(",".join(draw(SPACES) + f + draw(SPACES) for f in fields))
    return t, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=80, deadline=None)
@given(decorated_coo_texts(), st.sampled_from(["\n", "\r\n"]))
def test_array_parse_equals_line_parser_on_valid_files(coo_path, case, newline):
    t, text = case
    with open(coo_path, "w", newline=newline) as fh:
        fh.write(text)
    fast = _parse_coo_array(coo_path)  # takes every such file
    assert_bitwise_equal(fast, _parse_coo_lines(coo_path))
    assert_bitwise_equal(fast, t)


# characters that make the number parsers of numpy and Python disagree, or
# that a COO file may carry by mistake
FUZZ_ALPHABET = "0123456789+-.eE_ ,#naifINFx\t\x0b\x1c\x1f\x00\xa0١Ǿ "


@st.composite
def fuzzed_entries(draw):
    """A valid entry line for shape 2x3x2 with up to three characters
    inserted or deleted."""
    line = ",".join([str(draw(st.integers(1, 2))), str(draw(st.integers(1, 3))),
                     str(draw(st.integers(1, 2))), repr(draw(st.floats()))])
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(line)))
        if draw(st.booleans()):
            line = line[:pos] + draw(st.sampled_from(FUZZ_ALPHABET)) + line[pos:]
        else:
            line = line[:pos] + line[pos + 1:]
    return line


class FilterRan(Exception):
    pass


def test_plain_bodies_skip_the_line_filter(tmp_path, monkeypatch):
    # a body with no comment, space or other character to strip goes straight
    # to loadtxt, whatever its newlines; any other body passes the filter
    def no_filter(lines):
        raise FilterRan

    monkeypatch.setattr(tensors, "_entry_lines", no_filter)
    rng = np.random.default_rng(3)
    shape = (7, 5, 3, 4)
    flat = rng.choice(420, size=60, replace=False)
    values = rng.normal(size=60)
    values[:len(EDGE_VALUES)] = EDGE_VALUES
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1), values)
    path = tmp_path / "t.coo"
    write_coo_sparse(path, t)
    assert_bitwise_equal(_parse_coo_array(path), t)
    text = path.read_text()
    with open(path, "w", newline="\r\n") as fh:
        fh.write(text.replace("\n", "\n\n"))  # blank lines too
    assert_bitwise_equal(_parse_coo_array(path), t)
    head, body = text.split("\n", 1)
    for other in (f"{head}\n#note\n{body}", f"{head}\n{body.replace(',', ', ', 1)}"):
        path.write_text(other)
        with pytest.raises(FilterRan):
            _parse_coo_array(path)


def _traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_read_coo_lets_the_body_text_go_before_the_parse(tmp_path):
    # the body text is never held whole: it is checked a chunk at a time and
    # parsed from the open file, so the parse does not hold the text beside
    # loadtxt's table. The bound is the traced peak of the same parse that
    # keeps the text and its lines to the end, less half the text, so
    # loadtxt's own use, which varies with numpy's version, is in both sides
    # (numpy 2.4: 3.0 file sizes against 7.3)
    rng = np.random.default_rng(1)
    shape = (32, 32, 3, 10)
    flat = np.sort(rng.choice(30720, size=9830, replace=False))
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1),
                     rng.normal(size=flat.size))
    path = tmp_path / "t.coo"
    write_coo_sparse(path, t)

    def parse_holding_text():
        with open(path) as fh:
            fh.readline()  # the header
            body = fh.read()
        lines = body.split("\n")
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                           dtype=[("idx", np.intp, (len(shape),)), ("val", np.float64)])
        return SparseTensor(shape, table["idx"] - 1, np.ascontiguousarray(table["val"])), body

    read_coo(path)  # numpy's lazy first calls
    (want, body), held = _traced_peak(parse_holding_text)
    got, peak = _traced_peak(lambda: read_coo(path))
    assert_bitwise_equal(want, t)
    assert_bitwise_equal(got, t)
    assert peak < held - len(body) / 2, (peak / len(body), held / len(body))


def test_read_coo_peaks_at_its_rows_held_twice(tmp_path):
    # on the benchmark's complete fixture shape and density, a plain body goes
    # to loadtxt as the open file, so the parse holds at most loadtxt's rows
    # (nnz * (N + 1) * 8 bytes) and the tensor's copy of them, as many bytes,
    # plus buffers: a quarter of the text bounds them (0.02 of it measured on
    # numpy 2.4). Parsing a list of the body's lines peaked at 6.1 texts,
    # 4.6 times the rows
    rng = np.random.default_rng(1)
    shape = (128, 128, 3, 10)
    flat = np.sort(rng.choice(491520, size=98304, replace=False))
    t = SparseTensor(shape, np.stack(np.unravel_index(flat, shape), axis=1),
                     rng.normal(size=flat.size))
    path = tmp_path / "t.coo"
    write_coo_sparse(path, t)
    rows = t.nnz * (len(shape) + 1) * 8
    read_coo(path)  # numpy's lazy first calls
    got, peak = _traced_peak(lambda: read_coo(path))
    assert_bitwise_equal(got, t)
    assert peak < 2 * rows + path.stat().st_size / 4, (peak / rows, peak / path.stat().st_size)


@settings(max_examples=500, deadline=None)
@given(st.lists(fuzzed_entries(), min_size=1, max_size=2))
def test_array_parse_never_accepts_what_the_line_parser_rejects(coo_path, entries):
    coo_path.write_text("# shape: 2x3x2\n" + "\n".join(entries) + "\n")
    try:
        fast = _parse_coo_array(coo_path)
    except ValueError:  # what read_coo hands to the line parser
        return
    assert_bitwise_equal(fast, _parse_coo_lines(coo_path))


MALFORMED = [
    # loadtxt traps
    ("# shape: 2x2x2\n1,1,1,nan\n", "2: non-finite value 'nan'"),
    ("# shape: 2x2x2\n1,1,1,1.0\n2,1,1,-inf\n", "3: non-finite value '-inf'"),
    ("# shape: 2x2x2\n1,1,1,2.0 # note\n", "2: bad value '2.0 # note'"),
    ("# shape: 2x2x2\n1.0,1,1,2.0\n", "2: bad index in '1.0,1,1,2.0'"),
    ("# shape: 2x2x2\n1,1e0,1,2.0\n", "2: bad index in '1,1e0,1,2.0'"),
    ("# shape: 2x2x2\n1\x1c,1,1,2.0\n", "2: bad index in '1\\x1c,1,1,2.0'"),
    ("# shape: 2x2x2\n1,1,1,2.0\n99999999999999999999,1,1,1.0\n",
     "3: index out of range for shape 2x2x2"),
    # entries
    ("# shape: 2x2x2\n1,1,2.0\n", "2: expected 4 fields, got 3"),
    ("1,1,1,2.0\n# shape: 2x2x2\n", "1: entry before '# shape:' header"),
    ("# shape: 2x2x2\n\n1,1,1,1.0\n1,3,1,1.0\n", "4: index out of range for shape 2x2x2"),
    ("# shape: 2x2x2\n1,1,1,1.0\n# note\n1,1,1,3.0\n",
     "4: duplicate index 1,1,1 (first at line 2)"),
    # headers
    ("# shape: 2xax2\n1,1,1,1.0\n", "1: bad shape '2xax2'"),
    ("# shape: 2x2\n1,1,1.0\n", "1: tensor order must be >= 3, got 2"),
    ("# note\n# shape: 2x0x2\n", "2: all dimensions must be >= 1, got (2, 0, 2)"),
    ("# shape: 2x2x2\n1,1,1,1.0\n# shape: 3x3x3\n3,3,3,1.0\n",
     "3: second '# shape:' header (first at line 1)"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_file_gets_the_line_parsers_message(tmp_path, text, message):
    path = tmp_path / "bad.coo"
    path.write_text(text)
    with pytest.raises(ValueError) as lines:
        _parse_coo_lines(path)
    with pytest.raises(ValueError) as read:
        read_coo(path)
    assert str(read.value) == str(lines.value) == f"{path}:{message}"


@pytest.mark.parametrize("effect", ["warn", "overflow"])
def test_a_loadtxt_warning_or_overflow_is_left_to_the_line_parser(tmp_path, monkeypatch, effect):
    # numpy < 2 reads the index "1.0" as an int with only a DeprecationWarning
    loadtxt = np.loadtxt

    def doubtful_loadtxt(*args, **kwargs):
        if effect == "warn":
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return loadtxt(*args, **kwargs)
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setattr(np, "loadtxt", doubtful_loadtxt)
    path = tmp_path / "t.coo"
    path.write_text("# shape: 2x2x2\n1,1,1,2.0\n2,2,1,-0.5\n")
    with warnings.catch_warnings(), pytest.raises(ValueError, match="loadtxt"):
        warnings.simplefilter("ignore")  # a warning is doubt even where it would not be seen
        _parse_coo_array(path)
    got = read_coo(path)
    assert got.indices.tolist() == [[0, 0, 0], [1, 1, 0]]
    assert got.values.tolist() == [2.0, -0.5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, shape, entries", [
    ("# shape: 2x2x2\n \t \n1,1,1,2.0\n", (2, 2, 2), [((0, 0, 0), 2.0)]),
    ("# shape: 12x2x2\n1_0,1,1,2.0\n", (12, 2, 2), [((9, 0, 0), 2.0)]),
    ("# shape: 2x2x2\n", (2, 2, 2), []),
])
def test_files_loadtxt_alone_would_misread(tmp_path, text, shape, entries):
    # whitespace-only lines, an underscore in an index, no entries at all
    path = tmp_path / "ok.coo"
    path.write_text(text)
    t = read_coo(path)
    assert_bitwise_equal(t, _parse_coo_lines(path))
    assert t.shape == shape
    assert [(tuple(i), v) for i, v in zip(t.indices.tolist(), t.values.tolist())] == entries
