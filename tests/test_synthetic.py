import math

import numpy as np
import pytest

from hdsl.sparse_data import Dataset, SparseVector
from hdsl.synthetic import (
    _uniform_values,
    gen_links,
    gen_powerlaw_sparse,
    gen_truth,
    gen_truth_frequent,
    gen_uniform_sparse,
    powerlaw_inclusion_probs,
)

from util import assert_same_csr, dense_model_matrix


def uniform_reference(n, dim, sparsity, rng):
    """gen_uniform_sparse's draws, one SparseVector per point."""
    k = math.ceil(sparsity * dim)
    pts = []
    for _ in range(n):
        idx = np.sort(rng.choice(dim, size=k, replace=False))
        pts.append(SparseVector(idx, _uniform_values(k, rng), dim))
    return Dataset(pts, dim=dim)


def powerlaw_reference(n, dim, avg_sparsity, exponent, rng):
    """gen_powerlaw_sparse's draws (a chunk's masks, then each row's
    values), one SparseVector per point."""
    p = powerlaw_inclusion_probs(dim, avg_sparsity, exponent)
    chunk = max(1, min(n, int(4e6 // max(dim, 1)) or 1))
    pts = []
    while len(pts) < n:
        mask = rng.random((min(chunk, n - len(pts)), dim)) < p
        for row in mask:
            idx = np.flatnonzero(row)
            pts.append(SparseVector(idx, _uniform_values(idx.size, rng), dim))
    return Dataset(pts, dim=dim)


def assert_same_draws(generate, reference, seed):
    """Bit-equal CSR arrays and equal generator states after both."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_csr(generate(rng_got).to_csr(), reference(rng_want).to_csr())
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestGenTruth:
    def test_single_basis(self):
        m = gen_truth(10, n_bases=1, rng=np.random.default_rng(0))
        assert m.n_atoms == 1
        assert list(m.atoms.values()) == [1.0]

    def test_weights_positive_and_normalized(self):
        m = gen_truth(50, n_bases=20, rng=np.random.default_rng(1))
        w = np.array(list(m.atoms.values()))
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-9
        m.check_invariants()

    def test_distinct_bases(self):
        m = gen_truth(8, n_bases=30, rng=np.random.default_rng(2))
        assert m.n_atoms == 30

    def test_block_structure(self):
        m = gen_truth(
            100, n_bases=25, block=((0, 20), (60, 80)), rng=np.random.default_rng(3)
        )
        for b in m.atoms:
            in_first = 0 <= b.i < 20 and 0 <= b.j < 20
            in_second = 60 <= b.i < 80 and 60 <= b.j < 80
            assert in_first or in_second

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            gen_truth(4, n_bases=100, rng=np.random.default_rng(4))

    def test_seeded_determinism(self):
        m1 = gen_truth(30, 10, rng=np.random.default_rng(7))
        m2 = gen_truth(30, 10, rng=np.random.default_rng(7))
        assert m1 == m2


class TestGenUniformSparse:
    def test_full_density(self):
        ds = gen_uniform_sparse(5, 10, sparsity=1.0, rng=np.random.default_rng(0))
        assert np.all(ds.to_csr().getnnz(axis=1) == 10)

    def test_expected_nnz(self):
        ds = gen_uniform_sparse(20, 150, sparsity=0.02, rng=np.random.default_rng(1))
        assert np.all(ds.to_csr().getnnz(axis=1) == math.ceil(0.02 * 150))

    def test_value_range(self):
        ds = gen_uniform_sparse(50, 40, sparsity=0.2, rng=np.random.default_rng(2))
        values = ds.to_csr().data
        assert np.all(values > 0) and np.all(values < 1)

    @pytest.mark.parametrize("n, dim, sparsity", [(0, 20, 0.2), (1, 5, 1.0), (300, 400, 0.02)])
    def test_matches_per_point_reference(self, n, dim, sparsity):
        assert_same_draws(lambda rng: gen_uniform_sparse(n, dim, sparsity, rng=rng),
                          lambda rng: uniform_reference(n, dim, sparsity, rng), seed=n)


class TestGenPowerlawSparse:
    def test_zero_exponent_is_uniform(self):
        p = powerlaw_inclusion_probs(100, avg_sparsity=0.1, exponent=0.0)
        np.testing.assert_allclose(p, 0.1)

    def test_probabilities_monotone_decreasing(self):
        p = powerlaw_inclusion_probs(500, avg_sparsity=0.01, exponent=1.0)
        assert np.all(np.diff(p) <= 0)

    def test_empirical_frequency_decreases_with_rank(self):
        ds = gen_powerlaw_sparse(500, 200, avg_sparsity=0.05, exponent=0.5,
                                 rng=np.random.default_rng(3))
        counts = ds.to_csr().getnnz(axis=0)
        # head features should be clearly more frequent than tail features
        assert counts[:20].mean() > counts[-100:].mean() * 2

    def test_mean_nnz_within_five_percent(self):
        ds = gen_powerlaw_sparse(10_000, 100, avg_sparsity=0.05, exponent=0.5,
                                 rng=np.random.default_rng(4))
        target = 0.05 * 100
        mean_nnz = ds.to_csr().getnnz(axis=1).mean()
        assert abs(mean_nnz - target) <= 0.05 * target

    def test_infeasible_scaling_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_inclusion_probs(1000, avg_sparsity=0.5, exponent=2.0)

    def test_seeded_determinism(self):
        d1 = gen_powerlaw_sparse(10, 50, 0.1, exponent=0.5, rng=np.random.default_rng(5))
        d2 = gen_powerlaw_sparse(10, 50, 0.1, exponent=0.5, rng=np.random.default_rng(5))
        assert [d1[i] for i in range(10)] == [d2[i] for i in range(10)]

    # 200 rows at d = 50,000 draw their masks in three chunks of at most 80 rows
    @pytest.mark.parametrize("n, dim, avg_sparsity", [(0, 30, 0.1), (40, 300, 0.02),
                                                      (200, 50_000, 0.0075)])
    def test_matches_per_point_reference(self, n, dim, avg_sparsity):
        assert_same_draws(lambda rng: gen_powerlaw_sparse(n, dim, avg_sparsity, 0.5, rng=rng),
                          lambda rng: powerlaw_reference(n, dim, avg_sparsity, 0.5, rng), seed=n)


class TestGenLinks:
    def setup_instance(self, seed=0, n=60, dim=20):
        rng = np.random.default_rng(seed)
        samples = gen_uniform_sparse(n, dim, sparsity=0.3, rng=rng)
        truth = gen_truth(dim, n_bases=8, rng=rng)
        return samples, truth

    def test_counts_and_balance(self):
        samples, truth = self.setup_instance()
        links = gen_links(samples, truth, n_links=30, top_frac=0.1,
                          rng=np.random.default_rng(1))
        assert len(links) == 30
        ys = [y for _, _, y in links]
        assert ys.count(1) == 15 and ys.count(-1) == 15

    def test_links_satisfy_rank_condition(self):
        samples, truth = self.setup_instance(seed=2)
        links = gen_links(samples, truth, n_links=40, top_frac=0.1,
                          rng=np.random.default_rng(2))
        M = dense_model_matrix(truth)
        X = samples.to_csr().toarray()
        sims = X @ M @ X.T
        n = len(samples)
        t = math.ceil(0.1 * (n - 1))
        top, bottom = [], []
        for a in range(n):
            order = np.lexsort((np.arange(n), -sims[a]))
            order = order[order != a]
            top.extend((min(a, int(b)), max(a, int(b))) for b in order[:t])
            order_asc = np.lexsort((np.arange(n), sims[a]))
            order_asc = order_asc[order_asc != a]
            bottom.extend((min(a, int(b)), max(a, int(b))) for b in order_asc[:t])
        for a, b, y in links:
            pair = (min(a, b), max(a, b))
            assert pair in (set(top) if y == 1 else set(bottom))

    def test_no_pair_with_both_labels(self):
        samples, truth = self.setup_instance(seed=3)
        links = gen_links(samples, truth, n_links=50, top_frac=0.15,
                          rng=np.random.default_rng(3))
        seen = {}
        for a, b, y in links:
            key = (min(a, b), max(a, b))
            assert seen.setdefault(key, y) == y

    def test_seeded_determinism(self):
        samples, truth = self.setup_instance(seed=4)
        l1 = gen_links(samples, truth, 20, rng=np.random.default_rng(9))
        l2 = gen_links(samples, truth, 20, rng=np.random.default_rng(9))
        assert l1 == l2


class TestGenTruthFrequent:
    def test_atoms_use_only_frequent_features(self):
        rng = np.random.default_rng(5)
        samples = gen_powerlaw_sparse(300, 100, avg_sparsity=0.08, exponent=0.5, rng=rng)
        freq = samples.to_csr().getnnz(axis=0) / len(samples)
        m = gen_truth_frequent(100, n_bases=10, samples=samples, min_freq=0.1, rng=rng)
        for b in m.atoms:
            assert freq[b.i] >= 0.1 and freq[b.j] >= 0.1

    def test_frequent_features_cluster_at_low_indices(self):
        rng = np.random.default_rng(6)
        samples = gen_powerlaw_sparse(300, 200, avg_sparsity=0.05, exponent=0.6, rng=rng)
        m = gen_truth_frequent(200, n_bases=10, samples=samples, min_freq=0.1, rng=rng)
        assert max(max(b.i, b.j) for b in m.atoms) < 100

    def test_min_freq_zero_uses_all_features(self):
        rng = np.random.default_rng(7)
        samples = gen_uniform_sparse(20, 30, sparsity=0.1, rng=rng)
        m = gen_truth_frequent(30, n_bases=15, samples=samples, min_freq=0.0, rng=rng)
        assert m.n_atoms == 15

    def test_too_few_frequent_features(self):
        rng = np.random.default_rng(8)
        samples = gen_uniform_sparse(50, 100, sparsity=0.02, rng=rng)
        with pytest.raises(ValueError):
            gen_truth_frequent(100, n_bases=5, samples=samples, min_freq=0.9, rng=rng)
