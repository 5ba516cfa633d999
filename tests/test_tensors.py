import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenscache.tensors import (
    SparseTensor,
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
        t = SparseTensor((2, 2, 2), [[0, 0, 0], [1, 1, 1]], [1.0, 2.0])
        x = np.arange(8, dtype=float).reshape(2, 2, 2)
        np.testing.assert_array_equal(t.gather(x), [x[0, 0, 0], x[1, 1, 1]])


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
