import io

import numpy as np
import pytest

from hdsl.objective import ConstraintSet
from hdsl.sparse_data import (
    Dataset,
    ParseError,
    SparseVector,
    diff,
    feature_scales,
    parse_libsvm,
    read_triplets,
    scale_to_unit_range,
    serialize_libsvm,
    write_triplets,
)


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


class TestSparseVector:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            sv([(2, 1.0), (1, 2.0)], 5)  # not increasing
        with pytest.raises(ValueError):
            sv([(1, 1.0), (1, 2.0)], 5)  # duplicate
        with pytest.raises(ValueError):
            sv([(7, 1.0)], 5)  # out of range
        with pytest.raises(ValueError):
            sv([(1, 0.0)], 5)  # explicit zero

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


class TestDiff:
    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 30))
            u, v = _random_vec(rng, d), _random_vec(rng, d)
            np.testing.assert_allclose(diff(u, v).to_dense(), u.to_dense() - v.to_dense())

    def test_exact_cancellation_dropped(self):
        u = sv([(1, 2.0), (3, 1.0)], 5)
        v = sv([(1, 2.0)], 5)
        assert diff(u, v) == sv([(3, 1.0)], 5)


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
        points = [_random_vec(rng, 12) for _ in range(8)]
        ds = Dataset(points, labels=rng.integers(0, 3, size=8), dim=12)
        back = parse_libsvm(io.StringIO(serialize_libsvm(ds)), dim=12)
        assert back.labels.tolist() == ds.labels.tolist()
        for p, q in zip(ds.points, back.points):
            assert p == q


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
        for p, q in zip(ds.points, out.points):
            assert p == q

    def test_train_stats_applied_to_other_split(self):
        train = Dataset([sv([(0, 4.0)], 1)])
        test = Dataset([sv([(0, 8.0)], 1)])
        out = scale_to_unit_range(test, scales=feature_scales(train))
        assert out[0].get(0) == 2.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            scale_to_unit_range(Dataset([], dim=3))

    def test_range_property(self):
        rng = np.random.default_rng(11)
        pts = [_random_vec(rng, 20) for _ in range(30)]
        pts = [p for p in pts if p.nnz]
        ds = Dataset(pts, dim=20)
        out = scale_to_unit_range(ds)
        for p in out.points:
            assert np.all(np.abs(p.values) <= 1.0 + 1e-15)


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
