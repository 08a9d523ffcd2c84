import numpy as np
import pytest

from hdsl.constraints import (
    RANK_BLOCK,
    link_triplets,
    neighbors_triplets,
    random_label_triplets,
    ranked_blocks,
    truth_triplets,
)
from hdsl.model import NEG, POS, BasisId, Model
from hdsl.sparse_data import Dataset, SparseVector
from hdsl.synthetic import gen_links

from util import (
    dense_model_matrix,
    random_sparse_dataset,
    reference_gen_links,
    reference_neighbors_triplets,
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

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(14)
        ds = random_sparse_dataset(rng, 8, 6, max_nnz=3)
        links = [(0, 1, 1), (0, 2, -1), (3, 4, 1), (3, 5, -1)]
        t1 = link_triplets(ds, links, np.random.default_rng(5), per_link=2).triplets
        t2 = link_triplets(ds, links, np.random.default_rng(5), per_link=2).triplets
        np.testing.assert_array_equal(t1, t2)


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
        blocks = list(ranked_blocks(lambda block: sims[block], anchors))
        np.testing.assert_array_equal(np.concatenate([b for b, _ in blocks]), anchors)
        for block, order in blocks:
            for a, row in zip(block, order):
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
