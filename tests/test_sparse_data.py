import io

import numpy as np
import pytest
import scipy.sparse as sp

from hdsl.objective import ConstraintSet
from hdsl.sparse_data import (
    Dataset,
    ParseError,
    SparseVector,
    feature_scales,
    parse_libsvm,
    read_triplets,
    scale_to_unit_range,
    serialize_libsvm,
    write_triplets,
)

from util import assert_same_csr


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


def csr_row(pairs, dim):
    """The same point as sv, entered as the one row of a CSR matrix."""
    idx, val = zip(*pairs)
    return Dataset.from_csr(sp.csr_matrix((val, idx, [0, len(idx)]), shape=(1, dim)))


class TestSparseVector:
    def test_invariants_enforced(self):
        for make in (sv, csr_row):
            with pytest.raises(ValueError):
                make([(2, 1.0), (1, 2.0)], 5)  # not increasing
            with pytest.raises(ValueError):
                make([(1, 1.0), (1, 2.0)], 5)  # duplicate
            with pytest.raises(ValueError):
                make([(7, 1.0)], 5)  # out of range
            with pytest.raises(ValueError):
                make([(1, 0.0)], 5)  # explicit zero
            make([(1, 2.0), (3, -1.0)], 5)  # the valid form passes

    def test_get(self):
        v = sv([(1, 2.0), (7, -3.0)], 10)
        assert v.get(1) == 2.0
        assert v.get(7) == -3.0
        assert v.get(0) == 0.0
        assert v.get(9) == 0.0

    def test_dense_round_trip(self):
        v = sv([(0, 1.5), (4, -2.0)], 6)
        assert SparseVector.from_dense(v.to_dense()) == v


def _random_vec(rng, d):
    nnz = int(rng.integers(0, d + 1))
    idx = np.sort(rng.choice(d, size=nnz, replace=False))
    vals = rng.normal(size=nnz)
    vals[vals == 0] = 1.0
    return SparseVector(idx, vals, d)


class TestDataset:
    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]]])
    def test_label_count_checked(self, labels):
        pts = [sv([(0, 1.0)], 2), sv([], 2), sv([(1, 1.0)], 2)]
        with pytest.raises(ValueError, match="one entry per point"):
            Dataset(pts, labels=labels)
        with pytest.raises(ValueError, match="one entry per point"):
            Dataset.from_csr(Dataset(pts).to_csr(), labels=labels)

    def test_rows_built_on_demand(self):
        pts = [sv([(0, 1.0)], 3), sv([], 3), sv([(1, 2.0), (2, -1.0)], 3)]
        ds = Dataset(pts, labels=[4, 5, 6])
        assert len(ds) == 3 and ds.dim == 3
        assert [ds[i] for i in range(3)] == pts and ds[-1] == pts[2]
        with pytest.raises(IndexError):
            ds[3]
        ds[2].values[0] = 7.0  # a row is a copy, not a view of the matrix
        assert ds[2] == pts[2]
        same = Dataset.from_csr(ds.to_csr(), ds.labels)
        assert same.labels.tolist() == [4, 5, 6]
        assert_same_csr(same.to_csr(), ds.to_csr())


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("1 3:0.5 7:1.0\n")
        assert len(ds) == 1
        assert ds.labels.tolist() == [1]
        assert ds[0] == sv([(2, 0.5), (6, 1.0)], 7)

    def test_empty_stream(self):
        ds = parse_libsvm("")
        assert len(ds) == 0
        assert ds.dim == 0

    def test_non_increasing_index_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("2 1:1 1:2\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("line", ["1 1:nan\n", "1 1:1 2:inf\n", "1 2:-inf\n",
                                      "nan 1:1\n", "inf 1:1\n"])
    def test_non_finite_values_rejected(self, line):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 1:0.5\n" + line)
        assert exc.value.line == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 2:0.5\n1 nonsense\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", ["1e20 1:1\n", "-1e20 1:1\n",
                                      "1 99999999999999999999999:0.5\n"])
    def test_int64_overflow_rejected(self, line):
        with pytest.raises(ParseError, match="overflows int64") as exc:
            parse_libsvm("1 1:0.5\n" + line)
        assert exc.value.line == 2

    def test_comments_and_blanks(self):
        ds = parse_libsvm("# header\n\n1 1:1.0  # trailing\n")
        assert len(ds) == 1

    def test_explicit_dim(self):
        ds = parse_libsvm("1 2:1.0\n", dim=10)
        assert ds.dim == 10
        with pytest.raises(ValueError):
            parse_libsvm("1 5:1.0\n", dim=3)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for labeled in [True, False] * 4:
            points = [_random_vec(rng, 12) for _ in range(8)]
            points[2] = points[7] = sv([], 12)  # empty rows, one of them last
            ds = Dataset(points, labels=rng.integers(-3, 3, size=8) if labeled else None, dim=12)
            back = parse_libsvm(io.StringIO(serialize_libsvm(ds)), dim=12)
            assert back.labels.tolist() == (ds.labels.tolist() if labeled else [0] * 8)
            assert_same_csr(back.to_csr(), ds.to_csr())


class TestScaleToUnitRange:
    def test_divides_by_feature_max(self):
        ds = Dataset([sv([(0, 0.5)], 2), sv([(0, 2.0)], 2)])
        out = scale_to_unit_range(ds)
        assert out[0].get(0) == 0.25
        assert out[1].get(0) == 1.0

    def test_zero_feature_unchanged(self):
        ds = Dataset([sv([(1, 1.0)], 3)])
        out = scale_to_unit_range(ds)
        assert out[0] == ds[0]
        assert feature_scales(ds)[0] == 0.0

    def test_identity_when_max_one(self):
        ds = Dataset([sv([(0, 1.0), (1, 0.25)], 2), sv([(1, 1.0)], 2)])
        out = scale_to_unit_range(ds)
        assert_same_csr(out.to_csr(), ds.to_csr())

    def test_train_stats_applied_to_other_split(self):
        train = Dataset([sv([(0, 4.0)], 1)])
        test = Dataset([sv([(0, 8.0)], 1)])
        out = scale_to_unit_range(test, scales=feature_scales(train))
        assert out[0].get(0) == 2.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            scale_to_unit_range(Dataset([], dim=3))

    @pytest.mark.parametrize("size", [1, 2, 4, 6])
    def test_scales_of_another_dim_rejected(self, size):
        ds = Dataset([sv([(0, 1.0), (2, 3.0)], 3)])
        with pytest.raises(ValueError, match="scales"):
            scale_to_unit_range(ds, scales=np.ones(size))

    def test_range_property(self):
        rng = np.random.default_rng(11)
        pts = [_random_vec(rng, 20) for _ in range(30)]
        pts = [p for p in pts if p.nnz]
        ds = Dataset(pts, dim=20)
        out = scale_to_unit_range(ds)
        assert np.all(np.abs(out.to_csr().data) <= 1.0 + 1e-15)


class TestTriplets:
    def test_b_equals_c_rejected(self):
        ds = Dataset([sv([(0, 1.0)], 2), sv([(1, 1.0)], 2)], dim=2)
        with pytest.raises(ValueError, match="b != c"):
            ConstraintSet(ds, read_triplets("0 1 0\n1 0 0\n"))

    def test_file_round_trip(self):
        ts = np.array([[0, 1, 2], [3, 2, 0], [2**62, 0, 7]], dtype=np.int64)
        got = read_triplets(write_triplets(ts))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ts)
        assert write_triplets(ts) == "0 1 2\n3 2 0\n4611686018427387904 0 7\n"

    @pytest.mark.parametrize("text", ["", "\n# comment only\n"])
    def test_empty_text_gives_no_rows(self, text):
        got = read_triplets(text)
        assert got.shape == (0, 3) and got.dtype == np.int64
        assert write_triplets(got) == ""

    def test_int64_overflow_rejected(self):
        with pytest.raises(ParseError, match="overflows int64") as exc:
            read_triplets("0 1 2\n0 99999999999999999999999 1\n")
        assert exc.value.line == 2
