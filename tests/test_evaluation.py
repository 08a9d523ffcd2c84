import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import hdsl
from hdsl.evaluation import (
    _average_ranks,
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

    @pytest.mark.parametrize("empty", [list, iter, lambda xs: (x for x in xs)],
                             ids=["list", "iter", "generator"])
    def test_empty_scores_give_the_documented_error(self, empty):
        with pytest.raises(ValueError, match="at least one positive and one negative"):
            auc(empty(()), {"a"})

    def test_generator_scores_read_once(self):
        scores = [("a", 3.0), ("b", 1.0), ("c", 2.0), ("d", 2.0)]
        assert auc((s for s in scores), {"a", "c"}) == auc(scores, {"a", "c"}) == 0.875


# a small pool of values, so that hypothesis draws heavy ties; -0.0 and 0.0 tie
TIED_FLOATS = st.sampled_from([-np.inf, -2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 3.5, np.inf])


class TestAverageRanks:
    """The numpy rank helper against scipy.stats.rankdata, bit for bit."""

    @staticmethod
    def assert_bit_equal(x):
        got, want = _average_ranks(x), rankdata(x)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(TIED_FLOATS, st.floats(allow_nan=False)), max_size=200))
    def test_bit_equal_to_scipy(self, vals):
        self.assert_bit_equal(np.array(vals, dtype=np.float64))

    def test_signed_zeros_and_infinities_tie(self):
        x = np.array([0.0, -np.inf, -0.0, np.inf, 0.0, -np.inf])
        assert _average_ranks(x).tolist() == [4.0, 1.5, 4.0, 6.0, 4.0, 1.5]
        self.assert_bit_equal(x)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(TIED_FLOATS, st.floats(allow_nan=False)), max_size=40),
           st.integers(min_value=0, max_value=40))
    def test_a_nan_gives_all_nan(self, vals, at):
        x = np.insert(np.array(vals, dtype=np.float64), min(at, len(vals)), np.nan)
        got = _average_ranks(x)
        assert got.shape == x.shape and np.isnan(got).all()
        assert np.isnan(rankdata(x)).all()


class TestMetricsUnchanged:
    """The four AUC metrics return, bit for bit, the values they returned
    when they ranked with scipy.stats.rankdata; every input holds ties."""

    def test_values(self):
        rng = np.random.default_rng(24)
        vals = np.round(rng.normal(size=300), 1)
        pos = set(rng.choice(300, size=120, replace=False).tolist())
        assert auc(list(enumerate(vals)), pos) == 0.4883101851851852
        truth = gen_truth(200, n_bases=30, rng=rng)
        m = mixed_sign_model(rng, 200, 60, lam=5.0, n_features=80)
        assert feature_recovery_auc(m, truth.feature_set()) == 0.4742319749216301
        entries = {(b.i, b.j) for b in truth.atoms} | {(b.i, b.j) for b in list(m.atoms)[::3]}
        assert entry_recovery_auc(m, entries) == 0.6990458438287154
        samples = gen_uniform_sparse(80, 30, sparsity=0.25, rng=rng)
        links = gen_links(samples, gen_truth(30, n_bases=10, rng=rng), n_links=200,
                          top_frac=0.08, rng=rng)
        assert link_auc(mixed_sign_model(rng, 30, 8, lam=2.0), samples, links) == 0.686


def loaded_modules(code):
    """The names in sys.modules after running `code` in a fresh interpreter
    that finds this checkout's hdsl."""
    src = str(Path(hdsl.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


class TestImportFootprint:
    """Importing hdsl loads no scipy module beyond what scipy.sparse loads."""

    def test_only_numpy_and_scipy_sparse(self):
        ours = loaded_modules("import hdsl, hdsl.cli")
        sparse = loaded_modules("import scipy.sparse")
        assert "hdsl.cli" in ours and "scipy.sparse" in sparse
        assert "scipy.stats" not in ours
        assert {m for m in ours if m.split(".")[0] == "scipy"} <= sparse


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


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stable_sort_ranks_as_lexsort_by_train_index(self, data):
        # knn_error ranks a block by one stable argsort of -sims; the
        # reference orders by (-sim, train index). Tie-heavy blocks draw
        # from a few values with both zeros, infinities and NaN.
        rows = data.draw(st.integers(1, 6), label="rows")
        cols = data.draw(st.integers(1, 40), label="cols")
        if data.draw(st.booleans(), label="ties"):
            values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])
        else:
            values = st.floats(-1e3, 1e3)
        sims = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols),
                                  label="sims")).reshape(rows, cols)
        expected = np.lexsort((np.broadcast_to(np.arange(cols), sims.shape), -sims), axis=-1)
        np.testing.assert_array_equal(np.argsort(-sims, axis=-1, kind="stable"), expected)


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


class TestProjectionLookup:
    """link_auc and knn_error look factorize and project_dataset up through
    hdsl.model at each call, so a wrapper there sees their projections."""

    def test_one_factorize_per_metric_call(self, monkeypatch):
        import hdsl.model as model_mod

        calls = {"factorize": 0, "project_dataset": 0}
        for name in calls:
            def counting(*args, _real=getattr(model_mod, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(model_mod, name, counting)
        rng = np.random.default_rng(16)
        samples = gen_uniform_sparse(40, 12, sparsity=0.3, rng=rng)
        m = gen_truth(12, n_bases=4, rng=rng)
        link_auc(m, samples, [(0, 1, 1), (2, 3, -1), (4, 5, 1)])
        assert calls == {"factorize": 1, "project_dataset": 1}
        labeled = Dataset.from_csr(samples.to_csr(), np.arange(40) % 2)
        knn_error(m, labeled, labeled, k=3)
        assert calls == {"factorize": 2, "project_dataset": 3}


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
