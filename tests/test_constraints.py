import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hdsl.constraints as constraints_mod
from hdsl.constraints import (
    RANK_BLOCK,
    link_triplets,
    neighbors_triplets,
    random_label_triplets,
    ranked_blocks,
    truth_triplets,
)
from hdsl.evaluation import link_auc
from hdsl.model import NEG, POS, BasisId, Model
from hdsl.objective import ConstraintSet
from hdsl.sparse_data import Dataset, SparseVector
from hdsl.synthetic import gen_links, gen_truth

from util import (
    _ranked,
    assert_same_csr,
    count_pools,
    dense_model_matrix,
    objective_mod,
    on_cpus,
    random_sparse_dataset,
    random_triplets,
    reference_gen_links,
    reference_neighbors_triplets,
    reference_random_label_triplets,
    reference_truth_triplets,
)


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


def labeled_blobs(rng, per_class=10, classes=2, dim=12):
    pts, labels = [], []
    for c in range(classes):
        anchor_feats = np.arange(c * 3, c * 3 + 3)
        for _ in range(per_class):
            extra = rng.choice(np.arange(classes * 3, dim), size=2, replace=False)
            idx = np.sort(np.concatenate([anchor_feats, extra]))
            vals = rng.uniform(0.5, 1.0, size=idx.size)
            pts.append(SparseVector(idx, vals, dim))
            labels.append(c)
    return Dataset(pts, labels, dim=dim)


class TestNeighborsTriplets:
    def test_degenerate_two_points(self, caplog):
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4)], labels=[0, 1])
        cs = neighbors_triplets(ds)
        assert len(cs) == 0

    def test_default_count_is_fifteen_per_instance(self):
        rng = np.random.default_rng(1)
        ds = labeled_blobs(rng, per_class=10)
        cs = neighbors_triplets(ds)
        assert len(cs) == 15 * len(ds)

    def test_triplet_sides_have_right_labels(self):
        rng = np.random.default_rng(2)
        ds = labeled_blobs(rng, per_class=8)
        cs = neighbors_triplets(ds, n_targets=2, n_impostors=3)
        for a, b, c in cs.triplets:
            assert ds.labels[a] == ds.labels[b]
            assert ds.labels[a] != ds.labels[c]
            assert a != b

    def test_tie_prefers_lower_index(self):
        # identical candidates: the earliest index must win
        ds = Dataset(
            [sv([(0, 1.0)], 3), sv([(0, 1.0)], 3), sv([(0, 1.0)], 3), sv([(1, 1.0)], 3)],
            labels=[0, 0, 0, 1],
        )
        cs = neighbors_triplets(ds, n_targets=1, n_impostors=1)
        first = cs.triplets[cs.triplets[:, 0] == 0][0]
        assert first[1] == 1  # lower-index same-label tie winner

    @pytest.mark.parametrize("counts", [(0, 2), (2, -1)])
    def test_counts_below_one_rejected(self, counts):
        # a negative count once sliced "all but the last" candidates
        ds = labeled_blobs(np.random.default_rng(3), per_class=5)
        with pytest.raises(ValueError, match=">= 1"):
            neighbors_triplets(ds, n_targets=counts[0], n_impostors=counts[1])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        ds = labeled_blobs(rng)
        a = neighbors_triplets(ds).triplets
        b = neighbors_triplets(ds).triplets
        np.testing.assert_array_equal(a, b)


class TestRandomLabelTriplets:
    def test_count(self):
        rng = np.random.default_rng(4)
        ds = labeled_blobs(rng, per_class=6)
        cs = random_label_triplets(ds, per_instance=20, rng=np.random.default_rng(0))
        assert len(cs) == 20 * len(ds)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        ds = labeled_blobs(rng)
        t1 = random_label_triplets(ds, rng=np.random.default_rng(9)).triplets
        t2 = random_label_triplets(ds, rng=np.random.default_rng(9)).triplets
        np.testing.assert_array_equal(t1, t2)

    def test_b_never_anchor_and_labels_correct(self):
        rng = np.random.default_rng(6)
        ds = labeled_blobs(rng, per_class=5)
        cs = random_label_triplets(ds, per_instance=10, rng=rng)
        for a, b, c in cs.triplets:
            assert b != a
            assert ds.labels[a] == ds.labels[b]
            assert ds.labels[a] != ds.labels[c]

    def test_matches_per_triplet_reference(self):
        """Equal triplets and generator state to drawing each anchor's pairs
        and appending one tuple per triplet; the singleton anchor is skipped."""
        ds = labeled_blobs(np.random.default_rng(7), per_class=5)
        labels = ds.labels.copy()
        labels[3] = 9
        ds = Dataset.from_csr(ds.to_csr(), labels)
        rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
        got = random_label_triplets(ds, per_instance=6, rng=rng_got).triplets
        want = []
        for a in range(len(ds)):
            same = np.flatnonzero((labels == labels[a]) & (np.arange(len(ds)) != a))
            other = np.flatnonzero(labels != labels[a])
            if same.size and other.size:
                bs, cs = rng_want.choice(same, size=6), rng_want.choice(other, size=6)
                want.extend((a, int(b), int(c)) for b, c in zip(bs, cs))
        np.testing.assert_array_equal(got, np.array(want, dtype=np.int64))
        assert got.dtype == np.int64 and 3 not in got[:, 0]
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("n_labels, singletons", [(2, 0), (4, 3), (50, 5)])
    def test_matches_former_loop(self, n_labels, singletons):
        """Equal triplets and generator state to the former per-anchor scan
        of the labels, with singleton classes skipped."""
        rng = np.random.default_rng(10 + n_labels)
        n = 400
        labels = rng.integers(0, n_labels, size=n)
        labels[rng.choice(n, size=singletons, replace=False)] = n_labels + np.arange(singletons)
        ds = Dataset.from_csr(sp.csr_matrix((n, 3)), labels)
        anchors = np.count_nonzero(np.bincount(labels)[labels] > 1)
        assert anchors <= n - singletons
        for per_instance in (1, 7):
            rng_got, rng_want = np.random.default_rng(per_instance), np.random.default_rng(per_instance)
            got = random_label_triplets(ds, per_instance=per_instance, rng=rng_got).triplets
            want = reference_random_label_triplets(ds.labels, per_instance, rng_want)
            assert got.dtype == np.int64 and got.shape == (anchors * per_instance, 3)
            np.testing.assert_array_equal(got, want)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("per_instance", [0, -2])
    def test_per_instance_below_one_rejected(self, per_instance):
        ds = labeled_blobs(np.random.default_rng(4), per_class=5)
        with pytest.raises(ValueError, match=">= 1"):
            random_label_triplets(ds, per_instance=per_instance)

    def test_single_class_rejected(self):
        ds = Dataset([sv([(0, 1.0)], 3), sv([(1, 1.0)], 3)], labels=[0, 0])
        with pytest.raises(ValueError):
            random_label_triplets(ds, rng=np.random.default_rng(0))


class TestTruthTriplets:
    def make_truth(self, dim):
        return Model(1.0, dim, {BasisId(0, 1, POS): 0.5, BasisId(2, 3, POS): 0.5})

    def test_triplets_respect_truth_ordering(self):
        rng = np.random.default_rng(7)
        ds = random_sparse_dataset(rng, 40, 10, max_nnz=4)
        truth = self.make_truth(10)
        cs = truth_triplets(ds, truth, alpha=0.2, count=200, rng=np.random.default_rng(1))
        M = dense_model_matrix(truth)
        X = ds.to_csr().toarray()
        sims = X @ M @ X.T
        for a, b, c in cs.triplets:
            assert sims[a, b] >= sims[a, c] - 1e-12

    def test_degenerate_alpha_picks_argmax(self):
        rng = np.random.default_rng(8)
        ds = random_sparse_dataset(rng, 12, 10, max_nnz=4)
        truth = self.make_truth(10)
        # alpha small enough that the top set has exactly one element
        cs = truth_triplets(ds, truth, alpha=0.05, count=50, rng=np.random.default_rng(2))
        M = dense_model_matrix(truth)
        X = ds.to_csr().toarray()
        sims = X @ M @ X.T
        for a, b, _ in cs.triplets:
            others = np.delete(np.arange(len(ds)), a)
            best = others[np.lexsort((others, -sims[a, others]))[0]]
            assert b == best

    def test_too_small_n_rejected(self):
        rng = np.random.default_rng(9)
        ds = random_sparse_dataset(rng, 4, 8, max_nnz=3)
        with pytest.raises(ValueError):
            truth_triplets(ds, self.make_truth(8), alpha=0.4, count=5, rng=rng)

    def test_count_and_reproducibility(self):
        rng = np.random.default_rng(10)
        ds = random_sparse_dataset(rng, 30, 10, max_nnz=4)
        truth = self.make_truth(10)
        t1 = truth_triplets(ds, truth, 0.25, 100, np.random.default_rng(3)).triplets
        t2 = truth_triplets(ds, truth, 0.25, 100, np.random.default_rng(3)).triplets
        assert t1.shape == (100, 3)
        np.testing.assert_array_equal(t1, t2)


class TestLinkTriplets:
    def test_minimal_shared_anchor(self):
        rng = np.random.default_rng(11)
        ds = random_sparse_dataset(rng, 5, 6, max_nnz=3)
        links = [(0, 1, 1), (0, 2, -1)]
        cs = link_triplets(ds, links, rng=np.random.default_rng(0))
        assert len(cs) == 2
        # positive link: (a, b, dissimilar); negative link: (a, similar, b)
        assert tuple(cs.triplets[0]) == (0, 1, 2)
        assert tuple(cs.triplets[1]) == (0, 1, 2)

    def test_multiplicity(self):
        rng = np.random.default_rng(12)
        ds = random_sparse_dataset(rng, 6, 6, max_nnz=3)
        links = [(0, 1, 1), (0, 2, -1), (1, 3, -1)]
        cs = link_triplets(ds, links, rng=np.random.default_rng(1), per_link=4)
        assert len(cs) == 4 * len(links)

    def test_skips_links_without_neighbors(self):
        rng = np.random.default_rng(13)
        ds = random_sparse_dataset(rng, 5, 6, max_nnz=3)
        # only positive links: no dissimilar pool exists for any anchor
        cs = link_triplets(ds, [(0, 1, 1), (2, 3, 1)], rng=np.random.default_rng(2))
        assert len(cs) == 0

    @pytest.mark.parametrize("per_link", [0, -1])
    def test_per_link_below_one_rejected(self, per_link):
        ds = random_sparse_dataset(np.random.default_rng(15), 5, 6, max_nnz=3)
        with pytest.raises(ValueError, match="per_link must be >= 1"):
            link_triplets(ds, [(0, 1, 1), (0, 2, -1)], rng=np.random.default_rng(0), per_link=per_link)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(14)
        ds = random_sparse_dataset(rng, 8, 6, max_nnz=3)
        links = [(0, 1, 1), (0, 2, -1), (3, 4, 1), (3, 5, -1)]
        t1 = link_triplets(ds, links, np.random.default_rng(5), per_link=2).triplets
        t2 = link_triplets(ds, links, np.random.default_rng(5), per_link=2).triplets
        np.testing.assert_array_equal(t1, t2)


class TestLinkInput:
    """link_triplets and link_auc take links as a list of (a, b, y) or an
    (L, 3) integer array, and reject any other shape, an endpoint outside
    [0, n) and a label other than +1 or -1."""

    def instance(self):
        rng = np.random.default_rng(16)
        samples = random_sparse_dataset(rng, 40, 20, max_nnz=6)
        links = gen_links(samples, gen_truth(20, n_bases=6, rng=rng), n_links=40, top_frac=0.1, rng=rng)
        return samples, gen_truth(20, n_bases=4, rng=rng), links

    def test_array_links_match_list_links(self):
        samples, m, links = self.instance()
        arr = np.array(links)
        assert link_auc(m, samples, arr) == link_auc(m, samples, links)
        rngs = np.random.default_rng(3), np.random.default_rng(3)
        got = link_triplets(samples, arr, rng=rngs[0], per_link=2).triplets
        want = link_triplets(samples, links, rng=rngs[1], per_link=2).triplets
        np.testing.assert_array_equal(got, want)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("y", [0, 7, 2, -2])
    def test_label_other_than_plus_minus_one_rejected(self, y):
        samples, m, links = self.instance()
        bad = links[:5] + [(0, 1, y)] + links[5:]
        for form in (bad, np.array(bad)):
            with pytest.raises(ValueError, match="label"):
                link_triplets(samples, form, rng=np.random.default_rng(0))
            with pytest.raises(ValueError, match="label"):
                link_auc(m, samples, form)

    @pytest.mark.parametrize("bad", [
        [(0, 1), (2, 3)],
        [(0, 1, 1, 0)],
        np.array([0, 1, 1]),
        np.array([[0.0, 1.0, 1.0], [2.0, 3.0, -1.0]]),
    ])
    def test_wrong_shape_or_type_rejected(self, bad):
        samples, m, _ = self.instance()
        with pytest.raises(ValueError, match="triples"):
            link_triplets(samples, bad)
        with pytest.raises(ValueError, match="triples"):
            link_auc(m, samples, bad)

    def test_endpoint_out_of_range_rejected(self):
        samples, m, _ = self.instance()
        for bad in ([(0, 40, 1)], np.array([[-1, 3, -1]])):
            with pytest.raises(ValueError, match="link endpoint out of range"):
                link_triplets(samples, bad)
            with pytest.raises(ValueError, match="link endpoint out of range"):
                link_auc(m, samples, bad)


def tied_dataset(rng, n, dim=12, labels=3):
    """Few features per point, so most similarities are exactly zero, and
    every fifth point duplicated, so nonzero similarities tie too."""
    base = random_sparse_dataset(rng, n - n // 5, dim, max_nnz=2)
    pts = [base[i] for i in range(len(base))]
    pts += pts[: n // 5]
    return Dataset(pts, rng.integers(0, labels, size=n), dim=dim)


class TestBlockBuildersMatchReference:
    """The block kernels against per-anchor references built one anchor,
    one product and one sort at a time."""

    def truth(self, dim):
        return Model(1.0, dim, {BasisId(0, 1, POS): 0.4, BasisId(2, 5, NEG): 0.35,
                                BasisId(3, 7, POS): 0.25})

    @pytest.mark.parametrize("n,count", [(40, 400), (2 * RANK_BLOCK + 90, 4000)])
    def test_truth_triplets(self, n, count):
        ds = tied_dataset(np.random.default_rng(n), n)
        truth = self.truth(ds.dim)
        got_rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        got = truth_triplets(ds, truth, 0.2, count, got_rng).triplets
        want = reference_truth_triplets(ds, truth, 0.2, count, ref_rng)
        assert np.unique(got[:, 0]).size < count  # repeated anchors
        if n > RANK_BLOCK:
            assert np.unique(got[:, 0]).size > 2 * RANK_BLOCK  # three blocks
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [30, RANK_BLOCK + 40])
    def test_neighbors_triplets(self, n):
        ds = tied_dataset(np.random.default_rng(n + 1), n)
        got = neighbors_triplets(ds, n_targets=2, n_impostors=3).triplets
        want = reference_neighbors_triplets(ds, n_targets=2, n_impostors=3)
        assert len(want) > 0
        np.testing.assert_array_equal(got, want)

    def test_neighbors_triplets_reads_past_the_first_ranks(self):
        # 40 labels: most anchors find 3 same-label points only beyond the
        # first 4 * (3 + 2) ranks, some only in the zero class
        ds = tied_dataset(np.random.default_rng(6), RANK_BLOCK + 40, labels=40)
        got = neighbors_triplets(ds, n_targets=3, n_impostors=2).triplets
        want = reference_neighbors_triplets(ds, n_targets=3, n_impostors=2)
        assert len(want) > 0
        np.testing.assert_array_equal(got, want)

    def test_neighbors_triplets_skips_like_reference(self):
        # a singleton class: its anchor has too few same-label candidates
        ds = tied_dataset(np.random.default_rng(5), 25, labels=2)
        labels = ds.labels.copy()
        labels[7] = 9
        ds = Dataset([ds[i] for i in range(len(ds))], labels, dim=ds.dim)
        got = neighbors_triplets(ds, n_targets=4, n_impostors=2).triplets
        np.testing.assert_array_equal(got, reference_neighbors_triplets(ds, 4, 2))
        assert 7 not in got[:, 0]

    @pytest.mark.parametrize("nan_frac", [1.0, 0.3], ids=["all", "some"])
    def test_nan_similarity_ranks_last(self, nan_frac):
        rng = np.random.default_rng(4)
        n = RANK_BLOCK + 10
        sims = rng.integers(0, 3, size=(n, n)).astype(float)  # coarse, so most pairs tie
        sims[rng.random((n, n)) < nan_frac] = np.nan  # the diagonal too
        anchors = rng.permutation(n)
        blocks = ranked_blocks(lambda block: sims[block], anchors, lambda block, at: (
            block, at(np.arange(block.size)[:, None], np.arange(n - 1))))
        np.testing.assert_array_equal(np.concatenate([b for b, _ in blocks]), anchors)
        for block, ranks in blocks:
            for a, row in zip(block, ranks):
                ref = np.argsort(-sims[a], kind="stable")
                np.testing.assert_array_equal(row, ref[ref != a])
                assert np.all(np.diff(np.isnan(sims[a, row]).astype(int)) >= 0)

    @pytest.mark.parametrize("n", [60, RANK_BLOCK + 60])
    def test_gen_links(self, n):
        ds = tied_dataset(np.random.default_rng(n + 2), n)
        truth = self.truth(ds.dim)
        got_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = gen_links(ds, truth, n_links=40, top_frac=0.1, rng=got_rng)
        want = reference_gen_links(ds, truth, 40, 0.1, ref_rng)
        assert got == want
        assert all(type(v) is int for link in got for v in link)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class TestPooledBuilds:
    """The ranked builders and the XD build run their blocks on
    objective.map_blocks' pool: outputs and generator states must hold the
    same bits for any CPU count, and at most one block ranking per worker
    may be alive."""

    CPUS = (1, 2, 4)

    @pytest.fixture
    def pools(self, monkeypatch):
        return count_pools(monkeypatch)

    on_cpus = staticmethod(on_cpus)

    truth = TestBlockBuildersMatchReference.truth

    def test_truth_triplets(self, monkeypatch, pools):
        ds = tied_dataset(np.random.default_rng(30), 2 * RANK_BLOCK + 90)
        truth = self.truth(ds.dim)
        runs = []
        for cpus in self.CPUS:
            rng = np.random.default_rng(31)
            cs = self.on_cpus(monkeypatch, cpus, truth_triplets, ds, truth, 0.2, 4000, rng)
            runs.append((cs.triplets, rng.integers(0, 2**62, size=4)))
        assert np.unique(runs[0][0][:, 0]).size > 2 * RANK_BLOCK  # three blocks
        for triplets, draws in runs[1:]:
            np.testing.assert_array_equal(triplets, runs[0][0])
            np.testing.assert_array_equal(draws, runs[0][1])
        assert pools[0] > 0

    def test_neighbors_triplets(self, monkeypatch, pools, caplog):
        ds = tied_dataset(np.random.default_rng(32), 2 * RANK_BLOCK + 40, labels=40)
        runs = []
        for cpus in self.CPUS:
            caplog.clear()
            cs = self.on_cpus(monkeypatch, cpus, neighbors_triplets, ds, 3, 2)
            runs.append((cs.triplets, caplog.text))
        assert len(runs[0][0]) > 0
        for triplets, log in runs[1:]:
            np.testing.assert_array_equal(triplets, runs[0][0])
            assert log == runs[0][1]
        assert pools[0] > 0

    def test_gen_links(self, monkeypatch, pools):
        ds = tied_dataset(np.random.default_rng(33), 2 * RANK_BLOCK + 60)
        truth = self.truth(ds.dim)
        runs = []
        for cpus in self.CPUS:
            rng = np.random.default_rng(34)
            links = self.on_cpus(monkeypatch, cpus, gen_links, ds, truth, 60, 0.1, rng)
            runs.append((links, rng.integers(0, 2**62, size=4)))
        for links, draws in runs[1:]:
            assert links == runs[0][0]
            np.testing.assert_array_equal(draws, runs[0][1])
        assert pools[0] > 0

    def test_xd(self, monkeypatch, pools):
        rng = np.random.default_rng(35)
        ds = random_sparse_dataset(rng, 60, 40, max_nnz=8)
        T = 2 * objective_mod.TRIPLET_BAND + 500  # three bands
        trips = random_triplets(rng, 60, T)
        sets = [self.on_cpus(monkeypatch, cpus, ConstraintSet, ds, trips) for cpus in self.CPUS]
        assert pools[0] == 0  # the constructor builds no XD
        for cpus, cs in zip(self.CPUS, sets):
            self.on_cpus(monkeypatch, cpus, getattr, cs, "XD")
        # the unbanded product, as one band
        X, D = sets[0]._triplet_rows()
        whole = X.multiply(D)
        whole.eliminate_zeros()
        for cs in sets:
            assert cs.XD.shape == (T, ds.dim) and isinstance(cs.XD, sp.csr_matrix)
            assert_same_csr(cs.XD, whole)
        assert pools[0] == len(self.CPUS) - 1

    def test_two_blocks_run_serially(self, monkeypatch, pools):
        # a pool would cost each worker a block's allocations and save no time
        ds = tied_dataset(np.random.default_rng(38), RANK_BLOCK + 60)
        self.on_cpus(monkeypatch, 4, gen_links, ds, self.truth(ds.dim), 40, 0.1, np.random.default_rng(39))
        assert pools[0] == 0

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("build", ["truth", "neighbors", "links"])
    def test_at_most_one_ranking_per_worker(self, cpus, build, monkeypatch):
        lock, alive, peak, made = threading.Lock(), [0], [0], [0]
        real = constraints_mod._block_ranking

        def release():
            with lock:
                alive[0] -= 1

        def tracked(S, block):
            at = real(S, block)
            with lock:
                alive[0] += 1
                made[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(at, release)
            return at

        monkeypatch.setattr(constraints_mod, "_block_ranking", tracked)
        ds = tied_dataset(np.random.default_rng(36), 3 * RANK_BLOCK + 20)
        truth, rng = self.truth(ds.dim), np.random.default_rng(37)
        run = {"truth": lambda: truth_triplets(ds, truth, 0.2, 3000, rng),
               "neighbors": lambda: neighbors_triplets(ds, 2, 2),
               "links": lambda: gen_links(ds, truth, 40, 0.1, rng)}[build]
        out = self.on_cpus(monkeypatch, cpus, run)
        ranked = np.unique(out.triplets[:, 0]).size if build == "truth" else len(ds)
        blocks = -(-ranked // RANK_BLOCK)
        assert blocks >= 3
        assert made[0] == blocks * (2 if build == "links" else 1)  # links rank both ways
        assert alive[0] == 0
        assert 1 <= peak[0] <= cpus


def stored_csr(values, stored, rng):
    """values[stored] as an n x n CSR matrix that keeps every stored entry,
    explicit zeros too, with the columns of each row in random order."""
    rows, cols = np.nonzero(stored)
    perm = rng.permutation(rows.size)
    perm = perm[np.argsort(rows[perm], kind="stable")]  # rows grouped, columns shuffled
    rows, cols = rows[perm], cols[perm]
    indptr = np.searchsorted(rows, np.arange(values.shape[0] + 1))
    return sp.csr_matrix((values[rows, cols], cols, indptr), shape=values.shape)


def assert_ranks_match_reference(values, stored, anchors, rng):
    """ranked_blocks over stored_csr(values, stored) answers every rank of
    every anchor as the stable per-row sort of the dense row does."""
    n = values.shape[0]
    S = stored_csr(values, stored, rng)
    dense = np.where(stored, values, 0.0)

    def lookups(block, at):
        # 50 random queries too, from a generator of the block's own
        local = np.random.default_rng(int(block[0]))
        rows, ranks = local.integers(0, block.size, 50), local.integers(0, n - 1, 50)
        return block, at(np.arange(block.size)[:, None], np.arange(n - 1)), rows, ranks, at(rows, ranks)

    blocks = ranked_blocks(lambda block: S[block], anchors, lookups)
    np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), anchors)
    for block, ranked, rows, ranks, picked in blocks:
        want = np.array([_ranked(dense[a], a) for a in block]).reshape(block.size, n - 1)
        np.testing.assert_array_equal(ranked, want)
        np.testing.assert_array_equal(picked, want[rows, ranks])


class TestSparseRankKernel:
    """ranked_blocks' sparse lookup against the per-row stable sort."""

    COARSE = [0.0, -0.0, np.nan, 1.0, -1.0, 0.5, -2.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_stable_sort(self, data):
        n = data.draw(st.integers(2, 14), label="n")
        coarse = data.draw(st.booleans(), label="coarse")  # coarse values tie and take the lexsort
        value = st.sampled_from(self.COARSE) if coarse else st.floats(-4, 4, width=32)
        cells = st.lists(value, min_size=n * n, max_size=n * n)
        values = np.array(data.draw(cells, label="values"), dtype=np.float64).reshape(n, n)
        stored = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n),
                                    label="stored")).reshape(n, n)
        anchors = np.array(data.draw(st.permutations(range(n)), label="anchors"))
        assert_ranks_match_reference(values, stored, anchors, np.random.default_rng(n))

    def test_listed_cases(self):
        rng = np.random.default_rng(0)
        n = 9
        values = rng.uniform(-1, 1, size=(n, n))
        stored = rng.random((n, n)) < 0.5
        values[0, [1, 2, 5]] = [0.0, -0.0, 0.0]  # explicit zeros, stored
        stored[0, [1, 2, 5]] = True
        stored[1, 1], values[1, 1] = True, 3.0  # a stored self-similarity
        stored[2, 2] = False  # an implicit one
        values[3, [0, 4, 6, 8]] = np.nan
        stored[3, [0, 4, 6, 8]] = True
        values[4, [1, 3, 7]] = 0.25  # duplicated nonzeros
        stored[4, [1, 3, 7]] = True
        stored[5] = False  # a row with no stored entry
        stored[6] = True  # a row with no zero class
        assert_ranks_match_reference(values, stored, rng.permutation(n), rng)
        assert_ranks_match_reference(values, stored, np.array([5, 2]), rng)

    def test_many_blocks_of_distinct_values(self):
        rng = np.random.default_rng(1)
        n = 2 * RANK_BLOCK + 30
        values = rng.normal(size=(n, n))
        stored = rng.random((n, n)) < 0.1
        assert_ranks_match_reference(values, stored, rng.permutation(n), rng)


def test_truth_triplets_holds_no_dense_block():
    """On very sparse data the build's traced peak stays below one dense
    RANK_BLOCK x n float64 block."""
    rng = np.random.default_rng(3)
    n, dim = 20_000, 4_000
    pts = [SparseVector(np.sort(rng.choice(dim, 2, replace=False)), rng.uniform(0.1, 1, 2), dim)
           for _ in range(n)]
    ds = Dataset(pts, dim=dim)
    truth = gen_truth(dim, n_bases=40, rng=rng)
    tracemalloc.start()
    try:
        cs = truth_triplets(ds, truth, alpha=0.1, count=2_000, rng=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cs) == 2_000
    assert peak < RANK_BLOCK * n * 8
