import importlib
import os
import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from hdsl.model import NEG, POS, BasisId, Model
from hdsl.objective import (
    ConstraintSet,
    MarginCache,
    init_cache,
    objective,
    smoothed_hinge,
    smoothed_hinge_deriv,
    update_cache_sparse,
    usable_cpus,
    _add_transpose,
)
from hdsl.sparse_data import Dataset, SparseVector

from util import basis_inner, count_pools, on_cpus, reference_pair_statistic, reference_triplet_view

# the module, not the `objective` function the package exports by that name
objective_mod = importlib.import_module("hdsl.objective")


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


def sparse_diff(u, v):
    """u - v as a SparseVector, through the dense difference."""
    return SparseVector.from_dense(u.to_dense() - v.to_dense())


def random_dataset(rng, n, dim, max_nnz=6):
    pts = []
    for _ in range(n):
        nnz = int(rng.integers(1, min(max_nnz, dim) + 1))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        vals = rng.uniform(0.1, 1.0, size=nnz)
        pts.append(SparseVector(idx, vals, dim))
    return Dataset(pts, dim=dim)


def random_constraints(rng, ds, T):
    trips = np.empty((T, 3), dtype=np.int64)
    n = len(ds)
    trips[:, 0] = rng.integers(0, n, size=T)
    trips[:, 1] = rng.integers(0, n, size=T)
    trips[:, 2] = (trips[:, 1] + 1 + rng.integers(0, n - 1, size=T)) % n
    return ConstraintSet(ds, trips)


class TestSmoothedHinge:
    def test_branch_values(self):
        assert smoothed_hinge(1.5) == 0.0
        assert smoothed_hinge(-0.5) == 1.0
        assert smoothed_hinge(0.5) == 0.125

    def test_deriv_branch_values(self):
        assert smoothed_hinge_deriv(2.0) == 0.0
        assert smoothed_hinge_deriv(-3.0) == -1.0
        assert smoothed_hinge_deriv(0.25) == -0.75

    def test_continuity_at_branch_points(self):
        # values and derivatives agree exactly from both sides at m=0 and m=1
        assert smoothed_hinge(0.0) == 0.5
        assert smoothed_hinge(np.nextafter(0.0, -1)) == pytest.approx(0.5, abs=1e-15)
        assert smoothed_hinge(np.nextafter(0.0, 1)) == pytest.approx(0.5, abs=1e-15)
        assert smoothed_hinge(1.0) == 0.0
        assert smoothed_hinge_deriv(0.0) == -1.0
        assert smoothed_hinge_deriv(1.0) == 0.0

    def test_finite_differences(self):
        h = 1e-6
        for m in np.arange(-2.0, 2.0001, 0.01):
            fd = (smoothed_hinge(m + h) - smoothed_hinge(m - h)) / (2 * h)
            assert smoothed_hinge_deriv(m) == pytest.approx(fd, abs=1e-6)

    def test_vectorized(self):
        m = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(smoothed_hinge(m), [1.5, 0.5, 0.125, 0.0, 0.0])
        np.testing.assert_allclose(smoothed_hinge_deriv(m), [-1, -1, -0.5, 0, 0])


class TestObjective:
    def test_all_satisfied(self):
        assert objective(MarginCache(np.array([1.0, 2.0, 5.0]))) == 0.0

    def test_mixed_margins(self):
        assert objective(MarginCache(np.array([0.0, 1.0]))) == pytest.approx(0.25)

    def test_single_negative(self):
        assert objective(MarginCache(np.array([-1.0]))) == pytest.approx(1.5)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            objective(MarginCache(np.zeros(0)))


class TestInitCache:
    def test_single_atom_matches_basis_inner(self):
        ds = Dataset([sv([(0, 1.0)], 3), sv([(1, 1.0)], 3), sv([(2, 1.0)], 3)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        m = Model(2.0, 3, {BasisId(0, 1, POS): 1.0})
        cache = init_cache(cs, m)
        assert cache.margins[0] == pytest.approx(2.0)

    def test_empty_constraint_set(self):
        ds = Dataset([sv([(0, 1.0)], 3), sv([(1, 1.0)], 3)])
        cs = ConstraintSet(ds, np.zeros((0, 3), dtype=np.int64))
        assert init_cache(cs, Model(1.0, 3, {BasisId(0, 1, POS): 1.0})).count == 0

    def test_matches_per_triplet_recomputation(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 12, 10)
        cs = random_constraints(rng, ds, 40)
        atoms = {BasisId(0, 3, POS): 0.4, BasisId(2, 7, NEG): 0.6}
        m = Model(1.5, 10, atoms)
        cache = init_cache(cs, m)
        for t in range(len(cs)):
            a, b, c = cs.triplets[t]
            d = sparse_diff(ds[b], ds[c])
            expected = sum(
                alpha * basis_inner(ds[a], d, bb, m.lam) for bb, alpha in atoms.items()
            )
            assert cache.margins[t] == pytest.approx(expected, abs=1e-12)


class TestPairInners:
    """pair_inners over the point view against per-triplet basis_inner."""

    @staticmethod
    def edge_set():
        ds = Dataset(
            [
                sv([(0, 0.5), (1, 0.9)], 6),
                sv([(1, 0.3), (2, 0.7)], 6),
                sv([(1, 0.4), (3, 0.8)], 6),
                sv([(1, 0.4), (4, 0.6)], 6),  # shares feature 1's value with point 2
                sv([(0, 0.2), (5, 1.0)], 6),
                sv([], 6),
                sv([(0, 0.6), (2, 0.1)], 6),  # points 6 and 7 are never referenced
                sv([(1, 0.5), (3, 0.5)], 6),
            ],
            dim=6,
        )
        trips = np.array([[0, 0, 1], [4, 2, 3], [1, 3, 2], [0, 5, 4], [2, 1, 0], [5, 0, 1]])
        return ConstraintSet(ds, trips)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_basis_inner(self, sparse, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
        rng = np.random.default_rng(3)
        for cs in [self.edge_set(), random_constraints(rng, random_dataset(rng, 14, 9), 30)]:
            assert isinstance(cs.P, np.ndarray) != sparse
            ds = cs.dataset
            dim = cs.dim
            for i in range(dim):
                for j in range(i + 1, dim):
                    for sign in (POS, NEG):
                        rows, vals = cs.pair_inners(i, j, sign, 1.3)
                        expected = np.array([
                            basis_inner(ds[a], sparse_diff(ds[b], ds[c]), BasisId(i, j, sign), 1.3)
                            for a, b, c in cs.triplets
                        ])
                        np.testing.assert_array_equal(rows, np.flatnonzero(expected))
                        np.testing.assert_allclose(vals, expected[rows], rtol=0, atol=1e-12)

    def test_dense_and_sparse_views_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 20, 12)
        trips = random_constraints(rng, ds, 60).triplets
        dense = ConstraintSet(ds, trips)
        monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        sparse = ConstraintSet(ds, trips)
        assert isinstance(dense.P, np.ndarray) and not isinstance(sparse.P, np.ndarray)
        for i in range(12):
            for j in range(i + 1, 12):
                for sign in (POS, NEG):
                    for got, want in zip(sparse.pair_inners(i, j, sign, 0.7),
                                         dense.pair_inners(i, j, sign, 0.7)):
                        np.testing.assert_array_equal(got, want)


def integer_dataset(rng, n, dim, max_nnz=6):
    """Points with values in {-2, -1, 1, 2}, so that x_b - x_c often cancels
    to exact zeros on the features b and c share."""
    pts = []
    for _ in range(n):
        nnz = int(rng.integers(1, min(max_nnz, dim) + 1))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        pts.append(SparseVector(idx, rng.choice([-2.0, -1.0, 1.0, 2.0], size=nnz), dim))
    return Dataset(pts, dim=dim)


class TestOneView:
    """The set stores the point view, and XD once read; XD and the on-demand
    X and D equal the former triplet-view build bit for bit."""

    @staticmethod
    def instances(seed):
        rng = np.random.default_rng(seed)
        for n, dim, T in ((6, 4, 30), (12, 8, 40), (30, 20, 120), (15, 700, 60)):
            yield random_constraints(rng, integer_dataset(rng, n, dim), T)
            yield random_constraints(rng, random_dataset(rng, n, dim), T)

    @staticmethod
    def assert_same_csr(got, want):
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_views_match_former_build(self, sparse, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        cancelled = 0
        for cs in self.instances(5):
            assert isinstance(cs.P, np.ndarray) == (not sparse and cs.dim <= 512)
            X, D, XD = reference_triplet_view(cs)
            self.assert_same_csr(cs.XD, XD)
            self.assert_same_csr(cs.X, X)
            self.assert_same_csr(cs.D, D)
            base, (_, b, c) = cs.dataset.to_csr(), cs.triplets.T
            cancelled += (abs(base[b]) + abs(base[c])).nnz - D.nnz
        assert cancelled > 0  # some x_b - x_c cancelled to exact zeros

    def test_empty_set(self):
        ds = Dataset([sv([(0, 1.0)], 3), sv([(1, 1.0)], 3)])
        cs = ConstraintSet(ds, np.zeros((0, 3), dtype=np.int64))
        for got, want in zip((cs.X, cs.D, cs.XD), reference_triplet_view(cs)):
            self.assert_same_csr(got, want)

    def test_xd_is_the_only_triplet_matrix(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 10, 30)
        cs = random_constraints(rng, ds, 50)
        cs.pair_statistic(np.ones(len(cs)))  # fills the cached full pattern

        def wide():
            return {name for name, v in vars(cs).items()
                    if sp.issparse(v) or (isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[1] != 3)}

        # no T x d matrix before XD's first read
        assert wide() == {"P", "PT"}
        assert not any(getattr(v, "shape", None) == (len(cs), cs.dim) for v in vars(cs).values())
        cs.XD
        assert "X" not in vars(cs) and "D" not in vars(cs)
        assert wide() == {"XD", "P", "PT"}
        assert cs.P.shape[0] < len(cs) and cs.XD.shape[0] == len(cs)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("role", [0, 1, 2])
    def test_non_finite_point_value_rejected(self, sparse, bad, role, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        pts = [sv([(0, 1.0), (2, 0.5)], 3), sv([(1, 1.0)], 3), sv([(2, 1.0)], 3)]
        pts[role] = sv([(0, 0.5), (1, bad)], 3)
        trips = np.array([[0, 1, 2], [1, 2, 0]])
        with pytest.raises(ValueError, match="finite"):
            ConstraintSet(Dataset(pts), trips[:1])
        pts[role] = sv([(0, 0.5), (1, 2.0)], 3)
        ConstraintSet(Dataset(pts), trips)


class TestSingleWRule:
    """pair_statistic keeps only W's nonzero entries on every call; its
    result holds the bits of a W that keeps its explicit zeros."""

    @staticmethod
    def assert_same_bits(got, want):
        assert sp.issparse(got) == sp.issparse(want)
        if sp.issparse(got):
            got, want = got.tocsr(), want.tocsr()
            got.sort_indices()
            want.sort_indices()
            assert (got.indptr.tolist(), got.indices.tolist()) == (want.indptr.tolist(), want.indices.tolist())
            got, want = got.data, want.data
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    # no limit: P and H dense; DENSE_DIM_LIMIT: CSR P, dense H;
    # DENSE_CELL_LIMIT: CSR P and H
    @pytest.mark.parametrize("limit", [None, "DENSE_DIM_LIMIT", "DENSE_CELL_LIMIT"])
    def test_bit_equal_to_w_with_explicit_zeros(self, limit, monkeypatch):
        if limit is not None:
            monkeypatch.setattr(ConstraintSet, limit, 0)
        rng = np.random.default_rng(430)
        dropped_few = 0
        for dim in (6, 25):
            # few points and many triplets, with g in {-1, 1}: W's entries
            # often cancel to exact zeros
            cs = random_constraints(rng, integer_dataset(rng, 12, dim), 150)
            assert isinstance(cs.P, np.ndarray) == (limit is None)
            for _ in range(3):  # later calls refill the cached full-set W
                # a derivative change zero on most rows, then on few rows
                for zero_share in (0.9, 0.1):
                    g = rng.choice([-1.0, 1.0], size=len(cs))
                    g[rng.random(len(cs)) < zero_share] = 0.0
                    for subset in (None, np.arange(0, len(cs), 2)):
                        got = cs.pair_statistic(g, subset)
                        self.assert_same_bits(got, reference_pair_statistic(cs, g, subset))
                    W, indices = cs._full_pattern[:2]
                    assert W.nnz == np.count_nonzero(W.data)
                    if zero_share == 0.1:
                        dropped_few += indices.size - W.nnz
                        # fewer than half zero: the entries the former rule kept
                        assert 2 * (indices.size - W.nnz) < indices.size
        assert dropped_few > 0

    @pytest.mark.parametrize("limit", [None, "DENSE_DIM_LIMIT"])
    @pytest.mark.parametrize("zero_share", [0.0, 0.5])
    def test_w_p_bit_equal_to_compacted_w(self, limit, zero_share, monkeypatch):
        """With or without a zero entry the full-set W is compacted, and W P
        holds the bits of the compacted W's."""
        if limit is not None:
            monkeypatch.setattr(ConstraintSet, limit, 0)
        rng = np.random.default_rng(440)
        cs = random_constraints(rng, random_dataset(rng, 40, 30), 300)
        assert isinstance(cs.P, np.ndarray) == (limit is None)
        for _ in range(2):  # the second call refills the cached W
            g = rng.uniform(-1.0, -0.1, size=len(cs))
            g[rng.random(len(cs)) < zero_share] = 0.0
            cs.pair_statistic(g)
            W, indices, indptr, slot, _ = cs._full_pattern
            data = np.bincount(slot, weights=np.concatenate((g, -g)), minlength=indices.size)
            assert data.all() == (zero_share == 0.0)
            compact = sp.csr_matrix((data, indices, indptr), shape=W.shape)
            compact.eliminate_zeros()
            assert W.nnz == compact.nnz
            self.assert_same_bits(W @ cs.P, compact @ cs.P)


class TestSharedSet:
    """One set shared across threads: each pair_statistic call gets the
    statistic of its own g, and the set pickles without its lock."""

    @pytest.mark.parametrize("limit", [None, "DENSE_DIM_LIMIT"])
    def test_call_inside_another_calls_w_product(self, limit, monkeypatch):
        if limit is not None:
            monkeypatch.setattr(ConstraintSet, limit, 0)
        rng = np.random.default_rng(440)
        cs = random_constraints(rng, random_dataset(rng, 30, 40), 120)
        g_a, g_b = rng.uniform(-1.0, -0.1, size=(2, len(cs)))
        want_a, want_b = cs.pair_statistic(g_a), cs.pair_statistic(g_b)  # builds the cached W
        main, real = threading.current_thread(), sp.csr_matrix.__matmul__
        got, b_done, threads = {}, threading.Event(), []

        def call_b():
            got["b"] = cs.pair_statistic(g_b)
            b_done.set()

        def first_product_runs_b(W, other):
            # the main thread's first product is its W P: thread B makes a
            # whole call here, unless the set holds it back until A is done
            if threading.current_thread() is main and not threads:
                threads.append(threading.Thread(target=call_b))
                threads[0].start()
                b_done.wait(timeout=0.5)
            return real(W, other)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", first_product_runs_b)
        got["a"] = cs.pair_statistic(g_a)
        threads[0].join(timeout=60)
        assert not threads[0].is_alive()
        np.testing.assert_array_equal(got["a"], want_a)
        np.testing.assert_array_equal(got["b"], want_b)

    def test_concurrent_calls_on_many_threads(self, monkeypatch):
        # more threads than cores, switching often: each call's statistic
        # must be that of its own g
        monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
        rng = np.random.default_rng(442)
        cs = random_constraints(rng, random_dataset(rng, 30, 40), 120)
        gs = rng.uniform(-1.0, -0.1, size=(6, len(cs)))
        want = [cs.pair_statistic(g) for g in gs]
        wrong = []

        def calls(k):
            for _ in range(20):
                if not np.array_equal(cs.pair_statistic(gs[k]), want[k]):
                    wrong.append(k)

        threads = [threading.Thread(target=calls, args=(k,)) for k in range(len(gs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_pickles_without_its_lock(self):
        rng = np.random.default_rng(441)
        cs = random_constraints(rng, random_dataset(rng, 20, 12), 60)
        g = rng.uniform(-1.0, 0.0, size=len(cs))
        want = cs.pair_statistic(g)  # the cached W goes into the pickle too
        copy = pickle.loads(pickle.dumps(cs))
        np.testing.assert_array_equal(copy.pair_statistic(g), want)
        np.testing.assert_array_equal(copy.pair_statistic(g, np.arange(0, len(cs), 3)),
                                      cs.pair_statistic(g, np.arange(0, len(cs), 3)))


class TestAddTranspose:
    """pair_statistic turns its dense C into C + C^T in place, tile pair by
    tile pair; the result must hold the bits of the full-matrix sum."""

    @pytest.mark.parametrize("tile", [1, 2, 7])
    def test_bit_equal_to_full_sum(self, tile, monkeypatch):
        monkeypatch.setattr(objective_mod, "DENSE_TILE", tile)
        rng = np.random.default_rng(300 + tile)
        for d in sorted({2, 3, tile - 1, tile, tile + 1, 2 * tile + 1} - {0}):
            for _ in range(50):
                C = rng.integers(-3, 4, size=(d, d)) * rng.choice([1.0, 0.1, 1 / 3])
                C[rng.random((d, d)) < 0.2] = -0.0
                C[rng.random((d, d)) < 0.05] = np.nan
                C[rng.random((d, d)) < 0.2] += rng.normal(size=1)
                expected = C + C.T
                got = _add_transpose(C)
                assert got is C
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestUsableCpus:
    def test_affinity_set_where_the_platform_has_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 3

    @pytest.mark.parametrize("count, expected", [(6, 6), (None, 1)])
    def test_cpu_count_without_affinity(self, count, expected, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert usable_cpus() == expected


class TestBandPool:
    """With sparse points and a dense H, pair_statistic's band products and
    _add_transpose's row bands run on a thread pool when there are several
    bands and CPUs; the results must hold the bits of the one-worker path,
    and no thread may outlive the call. Dense points and a CSR H never
    enter a pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        return count_pools(monkeypatch)

    on_cpus = staticmethod(on_cpus)

    @staticmethod
    def instance(rng, dim):
        # sparse points and a dense H, the recovery benchmark's form
        ds = random_dataset(rng, 40, dim, max_nnz=max(2, dim // 4))
        cs = random_constraints(rng, ds, 120)
        assert sp.issparse(cs.P)
        return cs

    @pytest.mark.parametrize("tile", [4, 128])
    def test_dense_statistic_bit_equal_to_one_worker(self, tile, monkeypatch, pools):
        monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
        monkeypatch.setattr(objective_mod, "DENSE_TILE", tile)
        rng = np.random.default_rng(400 + tile)
        for dim in (tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 1):
            cs = self.instance(rng, dim)
            g = rng.uniform(-1.0, 0.0, size=len(cs))
            g[rng.random(len(cs)) < 0.3] = 0.0
            for subset in (None, np.arange(0, len(cs), 3)):
                serial = self.on_cpus(monkeypatch, 1, cs.pair_statistic, g, subset)
                made = pools[0]
                pooled = self.on_cpus(monkeypatch, 4, cs.pair_statistic, g, subset)
                # a pool for the product and one for the transpose, or none
                # with a single band
                assert pools[0] - made == (2 if dim > tile else 0)
                assert isinstance(pooled, np.ndarray) and pooled.shape == (dim, dim)
                np.testing.assert_array_equal(pooled.view(np.int64), serial.view(np.int64))
                np.testing.assert_array_equal(pooled, pooled.T)

    def test_sparse_statistic_equal_to_one_worker(self, monkeypatch, pools):
        monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        monkeypatch.setattr(objective_mod, "DENSE_TILE", 4)
        rng = np.random.default_rng(410)
        for dim in (3, 4, 5, 17, 60):
            cs = self.instance(rng, dim)
            g = rng.uniform(-1.0, 0.0, size=len(cs))
            for subset in (None, np.arange(1, len(cs), 2)):
                serial = self.on_cpus(monkeypatch, 1, cs.pair_statistic, g, subset)
                pooled = self.on_cpus(monkeypatch, 4, cs.pair_statistic, g, subset)
                assert sp.issparse(pooled) and pooled.shape == (dim, dim)
                assert (pooled != serial).nnz == 0
                assert (pooled != pooled.T).nnz == 0
        assert pools[0] == 0

    def test_dense_points_never_enter_a_pool(self, monkeypatch, pools):
        # d = 200 is two default tiles, below DENSE_DIM_LIMIT, so P is dense
        rng = np.random.default_rng(415)
        ds = random_dataset(rng, 30, 200, max_nnz=20)
        cs = random_constraints(rng, ds, 60)
        assert isinstance(cs.P, np.ndarray)
        g = rng.uniform(-1.0, 0.0, size=len(cs))
        serial = self.on_cpus(monkeypatch, 1, cs.pair_statistic, g)
        pooled = self.on_cpus(monkeypatch, 4, cs.pair_statistic, g)
        assert pools[0] == 0
        np.testing.assert_array_equal(pooled.view(np.int64), serial.view(np.int64))

    @pytest.mark.parametrize("tile", [1, 3, 7])
    def test_add_transpose_bands_bit_equal_to_full_sum(self, tile, monkeypatch, pools):
        monkeypatch.setattr(objective_mod, "DENSE_TILE", tile)
        rng = np.random.default_rng(420 + tile)
        for d in (2 * tile + 1, 4 * tile, 5 * tile - 1):
            for cpus in (1, 4):
                C = rng.normal(size=(d, d)) * rng.choice([1.0, 1 / 3])
                C[rng.random((d, d)) < 0.2] = -0.0
                expected = C + C.T
                made = pools[0]
                got = self.on_cpus(monkeypatch, cpus, _add_transpose, C, cpus)
                assert pools[0] - made == (cpus > 1)
                assert got is C
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_band_error_reaches_the_caller(self):
        def band(rows):
            if rows.start == 6:
                raise FloatingPointError("band 6")
            return rows.start

        threads = threading.active_count()
        bands = objective_mod._bands(10, 3)
        with pytest.raises(FloatingPointError, match="band 6"):
            objective_mod.map_blocks(band, bands, 4)
        assert threading.active_count() == threads
        assert objective_mod.map_blocks(lambda rows: rows.start, bands, 4) == [0, 3, 6, 9]


class TestUpdateCache:
    """update_cache_sparse against the step formulas on dense basis inners."""

    @staticmethod
    def step(margins, kind, gamma, dense):
        cache = MarginCache(np.array(margins, dtype=np.float64))
        rows = np.flatnonzero(dense)
        update_cache_sparse(cache, kind, gamma, rows, np.asarray(dense, dtype=np.float64)[rows])
        return cache.margins

    def test_full_forward_step_replaces(self):
        np.testing.assert_allclose(self.step([3.0, -2.0], "F", 1.0, [0.5, 0.5]), [0.5, 0.5])

    def test_zero_forward_step_identity(self):
        np.testing.assert_allclose(self.step([3.0, -2.0], "F", 0.0, [9.0, 9.0]), [3.0, -2.0])

    def test_away_step_formula(self):
        assert self.step([1.0], "A", 0.5, [2.0])[0] == pytest.approx(0.5)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(4)
        margins = rng.normal(size=20)
        rows = np.sort(rng.choice(20, size=7, replace=False))
        vals = rng.normal(size=7)
        dense = np.zeros(20)
        dense[rows] = vals
        for kind, gamma in (("F", 0.3), ("A", 0.2)):
            cache = MarginCache(margins.copy())
            update_cache_sparse(cache, kind, gamma, rows, vals)
            sign = 1.0 if kind == "F" else -1.0
            want = (1.0 - sign * gamma) * margins + sign * gamma * dense
            np.testing.assert_allclose(cache.margins, want, atol=1e-15)


class TestGradInnerWithModel:
    def test_kept_until_the_margins_change(self, monkeypatch):
        rng = np.random.default_rng(7)
        cache = MarginCache(rng.uniform(-0.5, 1.5, size=50))
        means = []
        real = np.mean

        def counting(*args, **kwargs):
            means.append(1)
            return real(*args, **kwargs)

        first = cache.grad_inner()
        assert first == float(np.mean(smoothed_hinge_deriv(cache.margins) * cache.margins))
        rows = np.sort(rng.choice(50, size=9, replace=False))
        for kind in ("F", "A"):
            update_cache_sparse(cache, kind, 0.3, rows, rng.uniform(-1.0, 1.0, size=9))
            fresh = float(np.mean(smoothed_hinge_deriv(cache.margins) * cache.margins))
            with monkeypatch.context() as mp:
                mp.setattr(objective_mod.np, "mean", counting)
                assert cache.grad_inner() == fresh
                assert cache.grad_inner() == fresh
            assert len(means) == (1 if kind == "F" else 2)
        assert fresh != first

    def test_all_satisfied_is_zero(self):
        assert MarginCache(np.array([1.0, 3.0])).grad_inner() == 0.0

    def test_single_term(self):
        assert MarginCache(np.array([0.5])).grad_inner() == pytest.approx(-0.25)

    def test_matches_dense_gradient_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = int(rng.integers(4, 15))
            ds = random_dataset(rng, 8, dim)
            cs = random_constraints(rng, ds, 20)
            atoms = {}
            while len(atoms) < 3:
                i, j = sorted(rng.choice(dim, size=2, replace=False))
                atoms[BasisId(int(i), int(j), POS if rng.random() < 0.5 else NEG)] = rng.random() + 0.1
            tot = sum(atoms.values())
            m = Model(2.0, dim, {b: a / tot for b, a in atoms.items()})
            cache = init_cache(cs, m)

            # dense oracle: grad = (1/T) sum g_t A^t, inner with dense M
            M = np.zeros((dim, dim))
            for b, a in m.atoms.items():
                e = np.zeros(dim)
                e[b.i] = 1
                e[b.j] = b.sign
                M += a * m.lam * np.outer(e, e)
            grad = np.zeros((dim, dim))
            for t in range(len(cs)):
                a_, b_, c_ = cs.triplets[t]
                A = np.outer(ds[a_].to_dense(), ds[b_].to_dense() - ds[c_].to_dense())
                mt = float(np.sum(A * M))
                grad += smoothed_hinge_deriv(mt) * A
            grad /= len(cs)
            assert cache.grad_inner() == pytest.approx(float(np.sum(grad * M)), abs=1e-10)


class TestConvexityAlongSegments:
    def test_objective_midpoint_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            T = int(rng.integers(1, 30))
            m0 = rng.normal(scale=2, size=T)
            m1 = rng.normal(scale=2, size=T)
            f0 = objective(MarginCache(m0))
            f1 = objective(MarginCache(m1))
            fm = objective(MarginCache(0.5 * (m0 + m1)))
            assert fm <= 0.5 * (f0 + f1) + 1e-12
