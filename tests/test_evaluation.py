import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import rankdata

from hdsl.evaluation import (
    auc,
    entry_recovery_auc,
    feature_recovery_auc,
    knn_error,
    link_auc,
)
from hdsl.model import NEG, POS, BasisId, Model, factorize, project_dataset, similarity
from hdsl.sparse_data import Dataset, SparseVector
from hdsl.synthetic import gen_links, gen_truth, gen_uniform_sparse

from util import random_model, reference_entries


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


def mixed_sign_model(rng, dim, n_atoms, lam, n_features=None):
    """Random model on distinct pairs of the first `n_features` features
    (default: all) whose atoms alternate NEG and POS."""
    pairs = set()
    while len(pairs) < n_atoms:
        pairs.add(tuple(sorted(rng.choice(n_features or dim, size=2, replace=False).tolist())))
    w = rng.uniform(0.1, 1.0, size=n_atoms)
    atoms = {
        BasisId(i, j, NEG if k % 2 == 0 else POS): a
        for k, ((i, j), a) in enumerate(zip(sorted(pairs), w / w.sum()))
    }
    return Model(lam, dim, atoms)


class TestAuc:
    def test_perfect_ranking(self):
        scores = [("a", 3.0), ("b", 2.0), ("c", 1.0), ("d", 0.0)]
        assert auc(scores, {"a", "b"}) == 1.0

    def test_all_ties(self):
        scores = [(i, 1.0) for i in range(6)]
        assert auc(scores, {0, 1, 2}) == 0.5

    def test_reversed_ranking(self):
        scores = [("a", 0.0), ("b", 1.0), ("c", 2.0)]
        assert auc(scores, {"a"}) == 0.0

    def test_degenerate_classes_rejected(self):
        with pytest.raises(ValueError):
            auc([("a", 1.0)], {"a"})
        with pytest.raises(ValueError):
            auc([("a", 1.0), ("b", 2.0)], set())

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            vals = rng.normal(size=n)
            pos = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            base = auc(list(enumerate(vals)), pos)
            assert auc(list(enumerate(np.exp(vals))), pos) == pytest.approx(base)
            assert auc(list(enumerate(3.0 * vals + 7.0)), pos) == pytest.approx(base)

    def test_matches_pairwise_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            vals = np.round(rng.normal(size=n), 1)  # induce some ties
            pos = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            wins = 0.0
            total = 0
            for i in range(n):
                for j in range(n):
                    if i in pos and j not in pos:
                        total += 1
                        if vals[i] > vals[j]:
                            wins += 1
                        elif vals[i] == vals[j]:
                            wins += 0.5
            assert auc(list(enumerate(vals)), pos) == pytest.approx(wins / total)


class TestKnnError:
    def separated_dataset(self):
        # class 0 lives on features {0,1}, class 1 on features {2,3}
        pts = [
            sv([(0, 1.0), (1, 0.5)], 4),
            sv([(0, 0.8), (1, 0.9)], 4),
            sv([(0, 0.6), (1, 1.0)], 4),
            sv([(2, 1.0), (3, 0.5)], 4),
            sv([(2, 0.7), (3, 0.8)], 4),
            sv([(2, 0.9), (3, 1.0)], 4),
        ]
        return Dataset(pts, labels=[0, 0, 0, 1, 1, 1])

    def block_model(self, lam=1.0):
        return Model(lam, 4, {BasisId(0, 1, POS): 0.5, BasisId(2, 3, POS): 0.5})

    def test_zero_error_on_separable(self):
        ds = self.separated_dataset()
        assert knn_error(self.block_model(), ds, ds, k=3) == 0.0

    def test_single_train_point_forces_label(self):
        train = Dataset([sv([(0, 1.0)], 4)], labels=[7])
        test = self.separated_dataset()
        err = knn_error(self.block_model(), train, test, k=1)
        assert err == 1.0  # nothing is labeled 7

    def test_k_larger_than_train_rejected(self):
        ds = self.separated_dataset()
        with pytest.raises(ValueError):
            knn_error(self.block_model(), ds, ds, k=7)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        ds = self.separated_dataset()
        with pytest.raises(ValueError, match="at least 1"):
            knn_error(self.block_model(), ds, ds, k=k)

    def test_dataset_of_another_dim_rejected(self):
        ds = self.separated_dataset()
        X = ds.to_csr()
        narrow = Dataset.from_csr(X[:, :3], ds.labels)
        wide = Dataset.from_csr(sp.csr_matrix((X.data, X.indices, X.indptr), shape=(6, 8)), ds.labels)
        for other in (narrow, wide):
            for train, test in ((ds, other), (other, ds), (other, other)):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    knn_error(self.block_model(), train, test, k=1)

    def test_unlabeled_rejected(self):
        ds = self.separated_dataset()
        bare = Dataset.from_csr(ds.to_csr())
        with pytest.raises(ValueError):
            knn_error(self.block_model(), bare, ds)

    def test_invariant_under_lambda_rescaling(self):
        rng = np.random.default_rng(3)
        ds = self.separated_dataset()
        for lam in (0.1, 1.0, 250.0):
            assert knn_error(self.block_model(lam), ds, ds, k=3) == knn_error(
                self.block_model(1.0), ds, ds, k=3
            )

    def random_labeled(self, rng):
        pts = []
        labels = rng.integers(0, 3, size=15)
        for _ in range(15):
            nnz = int(rng.integers(1, 5))
            idx = np.sort(rng.choice(8, size=nnz, replace=False))
            pts.append(SparseVector(idx, rng.uniform(0.2, 1, size=nnz), 8))
        return Dataset(pts, labels=labels, dim=8)

    def brute_force_error(self, m, ds, k=3):
        errors = 0
        for t in range(len(ds)):
            sims = np.array([similarity(m, ds[t], ds[r]) for r in range(len(ds))])
            order = np.lexsort((np.arange(len(ds)), -sims))[:k]
            votes, counts = np.unique(ds.labels[order], return_counts=True)
            if votes[np.argmax(counts)] != ds.labels[t]:
                errors += 1
        return errors / len(ds)

    def test_matches_brute_force_vote(self):
        rng = np.random.default_rng(4)
        ds = self.random_labeled(rng)
        m = random_model(rng, 8, 4, lam=2.0)
        assert knn_error(m, ds, ds, k=3) == pytest.approx(self.brute_force_error(m, ds))

    def row_loop_error(self, m, train, test, k):
        """Reference: one lexsort and one np.unique vote per test row."""
        proj = factorize(m)
        sims = project_dataset(proj, test.to_csr()) @ project_dataset(proj, train.to_csr()).T
        errors = 0
        for r in range(len(test)):
            order = np.lexsort((np.arange(len(train)), -sims[r]))[:k]
            votes, counts = np.unique(train.labels[order], return_counts=True)
            errors += int(votes[np.argmax(counts)] != test.labels[r])
        return errors / len(test)

    def test_blockwise_vote_matches_row_loop_on_ties(self):
        rng = np.random.default_rng(7)
        # the model reads features 0-3 only: points on features 4-7 project
        # to zero, so their similarities are exact-zero ties
        m = Model(1.0, 8, {BasisId(0, 1, POS): 0.4, BasisId(2, 3, NEG): 0.6})

        def points(n):
            pts = []
            for _ in range(n):
                pool = np.arange(4) if rng.random() < 0.4 else np.arange(4, 8)
                idx = np.sort(rng.choice(pool, size=int(rng.integers(1, 4)), replace=False))
                pts.append(SparseVector(idx, rng.choice([0.5, 1.0], size=idx.size), 8))
            return pts

        # the first three train labels differ: a zero-projection test point
        # takes them as its 3 neighbors, a 1-1-1 vote the smallest label wins
        train = Dataset(points(40), labels=[2, 1, 0] + list(rng.integers(0, 3, size=37)), dim=8)
        test = Dataset(points(30), labels=rng.integers(0, 3, size=30), dim=8)
        assert np.any(project_dataset(factorize(m), test.to_csr()).any(axis=1) == 0)
        for k in (1, 2, 3, 5):
            assert knn_error(m, train, test, k=k) == self.row_loop_error(m, train, test, k)
        zero_test = Dataset([SparseVector(np.array([5]), np.array([1.0]), 8)], labels=[0], dim=8)
        assert knn_error(m, train, zero_test, k=3) == 0.0

    def test_matches_brute_force_vote_with_neg_atoms(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ds = self.random_labeled(rng)
            m = mixed_sign_model(rng, 8, 5, lam=2.0)
            assert knn_error(m, ds, ds, k=3) == pytest.approx(self.brute_force_error(m, ds))


class TestFeatureRecoveryAuc:
    def test_truth_model_scores_one(self):
        truth = gen_truth(40, n_bases=6, rng=np.random.default_rng(5))
        feats = truth.feature_set()
        assert feature_recovery_auc(truth, feats) == 1.0

    def test_disjoint_model_scores_low(self):
        truth_feats = {0, 1, 2, 3}
        m = Model(1.0, 20, {BasisId(10, 11, POS): 1.0})
        assert feature_recovery_auc(m, truth_feats) <= 0.5

    def test_degenerate_truth_rejected(self):
        m = Model(1.0, 10, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError):
            feature_recovery_auc(m, set())
        with pytest.raises(ValueError):
            feature_recovery_auc(m, set(range(10)))

    @pytest.mark.parametrize("feats", [{-1, 3}, {0, 40}, {3, 10}])
    def test_out_of_range_truth_rejected(self, feats):
        m = Model(1.0, 10, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError, match="outside"):
            feature_recovery_auc(m, feats)


class TestEntryRecoveryAuc:
    def test_truth_model_scores_one(self):
        truth = gen_truth(30, n_bases=5, rng=np.random.default_rng(6))
        entries = {(b.i, b.j) for b in truth.atoms}
        assert entry_recovery_auc(truth, entries) == 1.0

    @pytest.mark.parametrize("entries", [{(0, 25), (3, 4)}, {(-1, 2), (3, 4)}, {(10, 10), (3, 4)}])
    def test_out_of_range_truth_rejected(self, entries):
        m = Model(1.0, 10, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError, match="outside"):
            entry_recovery_auc(m, entries)

    def test_zero_offdiagonal_model_is_half(self):
        # P and N on the same pair cancel off-diagonal: all pair scores zero
        m = Model(2.0, 10, {BasisId(0, 1, POS): 0.5, BasisId(0, 1, NEG): 0.5})
        assert entry_recovery_auc(m, {(2, 3), (4, 5)}) == 0.5

    def test_independent_model_near_half(self):
        rng = np.random.default_rng(7)
        vals = []
        truth = gen_truth(30, n_bases=10, rng=np.random.default_rng(1000))
        entries = {(b.i, b.j) for b in truth.atoms}
        for seed in range(30):
            m = gen_truth(30, n_bases=10, rng=np.random.default_rng(seed))
            vals.append(entry_recovery_auc(m, entries))
        assert abs(np.mean(vals) - 0.5) < 0.1

    def test_matches_materialized_enumeration(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            dim = 12
            m = random_model(rng, dim, 5, lam=1.5)
            truth = {(b.i, b.j) for b in random_model(rng, dim, 4, lam=1.0).atoms}
            from hdsl.model import to_sparse_matrix

            scored = {(r, c): abs(v) for r, c, v in to_sparse_matrix(m) if r < c}
            items = []
            for i in range(dim):
                for j in range(i + 1, dim):
                    items.append(((i, j), scored.get((i, j), 0.0)))
            assert entry_recovery_auc(m, truth) == pytest.approx(auc(items, truth))

    def test_degenerate_truth_rejected(self):
        m = Model(1.0, 10, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError):
            entry_recovery_auc(m, set())
        with pytest.raises(ValueError):
            entry_recovery_auc(m, {(0, 0)})  # diagonal only -> empty after filtering


class TestRecoveryAucsMatchReference:
    """Both recovery AUCs equal values computed from the dict-accumulated
    entries of tests/util.py, bit for bit."""

    @staticmethod
    def reference_feature_auc(m, truth_features):
        scores = np.zeros(m.dim)
        for r, _, v in reference_entries(m):
            scores[r] += abs(v)
        return auc(list(enumerate(scores)), set(truth_features))

    @staticmethod
    def reference_entry_auc(m, truth_entries):
        truth = {(min(i, j), max(i, j)) for i, j in truth_entries if i != j}
        scored = {(r, c): abs(v) for r, c, v in reference_entries(m) if r < c}
        n_pos = len(truth)
        n_neg = m.dim * (m.dim - 1) // 2 - n_pos
        pos = np.array([scored[p] for p in sorted(truth) if p in scored])
        neg = np.array([v for p, v in sorted(scored.items()) if p not in truth])
        u_ss = 0.0
        if pos.size and neg.size:
            ranks = rankdata(np.concatenate([pos, neg]))
            u_ss = float(ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0)
        p_z, n_z = n_pos - pos.size, n_neg - neg.size
        return float((u_ss + pos.size * n_z + 0.5 * p_z * n_z) / (n_pos * n_neg))

    def models(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            yield mixed_sign_model(rng, 25, int(rng.integers(2, 12)), lam=float(rng.uniform(0.5, 20)))
        # P and N on the same pairs: exact cancellations off the diagonal
        yield Model(3.0, 12, {BasisId(0, 1, POS): 0.25, BasisId(0, 1, NEG): 0.25,
                              BasisId(1, 5, POS): 0.3, BasisId(2, 5, NEG): 0.2})
        yield gen_truth(2000, n_bases=100, rng=np.random.default_rng(15))

    def test_equal_to_reference(self):
        rng = np.random.default_rng(16)
        for m in self.models():
            feats = sorted(m.feature_set())
            truth_feats = set(feats[::2]) | set(rng.choice(m.dim, size=3, replace=False).tolist())
            assert feature_recovery_auc(m, truth_feats) == self.reference_feature_auc(m, truth_feats)
            pairs = [(b.j, b.i) for b in m.atoms][::2] + [tuple(rng.choice(m.dim, size=2, replace=False))]
            assert entry_recovery_auc(m, set(pairs)) == self.reference_entry_auc(m, pairs)


class TestLinkAuc:
    def test_truth_model_separates_links(self):
        rng = np.random.default_rng(9)
        samples = gen_uniform_sparse(80, 30, sparsity=0.25, rng=rng)
        truth = gen_truth(30, n_bases=10, rng=rng)
        links = gen_links(samples, truth, n_links=60, top_frac=0.08, rng=rng)
        assert link_auc(truth, samples, links) == 1.0

    def test_empty_links_rejected(self):
        rng = np.random.default_rng(10)
        samples = gen_uniform_sparse(10, 8, sparsity=0.5, rng=rng)
        m = Model(1.0, 8, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError):
            link_auc(m, samples, [])

    def test_single_class_links_rejected(self):
        rng = np.random.default_rng(11)
        samples = gen_uniform_sparse(10, 8, sparsity=0.5, rng=rng)
        m = Model(1.0, 8, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError):
            link_auc(m, samples, [(0, 1, 1), (2, 3, 1)])

    def test_endpoint_out_of_range_rejected(self):
        rng = np.random.default_rng(12)
        samples = gen_uniform_sparse(10, 8, sparsity=0.5, rng=rng)
        m = Model(1.0, 8, {BasisId(0, 1, POS): 1.0})
        for bad in ([(-1, 1, 1), (2, 3, -1)], [(0, 1, 1), (2, 10, -1)]):
            with pytest.raises(ValueError, match="out of range"):
                link_auc(m, samples, bad)

    def test_samples_of_another_dim_rejected(self):
        rng = np.random.default_rng(15)
        m = Model(1.0, 8, {BasisId(0, 1, POS): 1.0})
        for dim in (6, 12):
            samples = gen_uniform_sparse(10, dim, sparsity=0.5, rng=rng)
            with pytest.raises(ValueError, match="dimension mismatch"):
                link_auc(m, samples, [(0, 1, 1), (2, 3, -1)])

    def test_matches_per_pair_similarity(self):
        rng = np.random.default_rng(13)
        dim = 12
        # the model lives on features 0..7; points 0..9 carry only features
        # 8..11, so every link touching one of them scores exactly 0 (ties)
        pts = [sv([(f, float(rng.uniform(0.2, 1)))], dim) for f in rng.integers(8, 12, size=10)]
        for _ in range(30):
            idx = np.sort(rng.choice(dim, size=int(rng.integers(1, 5)), replace=False))
            pts.append(SparseVector(idx, rng.uniform(-1, 1, size=idx.size), dim))
        samples = Dataset(pts, dim=dim)
        m = mixed_sign_model(rng, dim, 6, lam=3.0, n_features=8)
        # distinct unordered pairs: x^T M y and y^T M x may round apart in
        # the reference, which would split a tie the projection keeps
        pairs = [(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))]
        picks = rng.choice(len(pairs), size=200, replace=False)
        links = [(*pairs[p], int(y)) for p, y in zip(picks, rng.choice([-1, 1], size=200))]
        scores = np.array([similarity(m, samples[a], samples[b]) for a, b, _ in links])
        positive = np.array([y == 1 for _, _, y in links])
        assert np.sum((scores == 0) & positive) > 1 and np.sum((scores == 0) & ~positive) > 1
        expected = auc(list(enumerate(scores)), set(np.flatnonzero(positive).tolist()))
        assert link_auc(m, samples, links) == pytest.approx(expected, abs=1e-12)
