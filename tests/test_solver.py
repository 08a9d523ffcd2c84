import importlib
import pickle
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hdsl.solver as solver_mod
from hdsl.constraints import truth_triplets
from hdsl.model import NEG, POS, BasisId, Model, basis_order, serialize
from hdsl.objective import ConstraintSet, MarginCache, init_cache, objective, smoothed_hinge_deriv
from hdsl.solver import (
    Direction,
    GradientAccumulators,
    SolverConfig,
    SolverState,
    apply_step,
    away_direction,
    choose_direction,
    convergence_bound,
    excess_risk_bound,
    forward_exact,
    forward_heuristic,
    forward_minibatch,
    fw_gap,
    gradient_accumulate,
    lazy_direction,
    line_search,
    lipschitz_constant,
    train,
    _atom_direction,
    _gap_rounding,
    _gap_rounding_cap,
    _lex_min_candidate,
    _partner_scores,
)
from hdsl.sparse_data import Dataset, SparseVector
from hdsl.synthetic import gen_truth, gen_uniform_sparse

from util import (
    assert_same_csr,
    basis_score,
    batch_diag,
    brute_force_forward,
    dense_gradient,
    dense_margins,
    dense_model_matrix,
    dense_triplet_rows,
    random_instance,
    random_model,
    random_sparse_dataset,
    random_triplets,
    reference_apply_step,
    reference_away_pick,
    reference_forward_exact_dense,
    reference_forward_heuristic,
    reference_line_search,
    reference_lipschitz,
    reference_partner_scores,
    solver_state,
)

# the module, not the `objective` function the package exports by that name
objective_mod = importlib.import_module("hdsl.objective")


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


def acc_from_maps(diag_map, offdiag_map, dim):
    rows, cols, vals = [], [], []
    for i, v in diag_map.items():
        rows.append(i)
        cols.append(i)
        vals.append(2.0 * v)  # H_ii = 2 diag[i]
    for (i, j), v in offdiag_map.items():
        rows += [i, j]
        cols += [j, i]
        vals += [v, v]
    H = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return GradientAccumulators(H, count=1)


class TestGradientAccumulate:
    def test_all_satisfied_empty_maps(self):
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4), sv([(2, 1.0)], 4)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        acc = gradient_accumulate(cs, MarginCache(np.array([5.0])))
        np.testing.assert_array_equal(acc.diag, np.zeros(4))
        np.testing.assert_array_equal(sp.csr_matrix(acc.H).toarray(), np.zeros((4, 4)))

    def test_single_cross_constraint(self):
        # x = e0, d = e1, margin 0 so the loss derivative is -1
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4), sv([], 4)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        acc = gradient_accumulate(cs, MarginCache(np.array([0.0])))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = -1.0
        np.testing.assert_array_equal(acc.diag, np.zeros(4))
        np.testing.assert_array_equal(sp.csr_matrix(acc.H).toarray(), expected)

    def test_scores_match_dense_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            dim = int(rng.integers(4, 20))
            cs = random_instance(rng, dim, T=int(rng.integers(5, 30)))
            m = random_model(rng, dim, 3, lam=1.7)
            cache = init_cache(cs, m)
            grad = dense_gradient(cs, cache.margins)
            acc = gradient_accumulate(cs, cache)
            sym = acc.H
            if not isinstance(sym, np.ndarray):
                sym = sym.toarray()
            for i in range(dim):
                for j in range(i + 1, dim):
                    for sign in (POS, NEG):
                        b = BasisId(i, j, sign)
                        got = m.lam * (acc.diag[i] + acc.diag[j] + sign * sym[i, j])
                        assert got == pytest.approx(basis_score(grad, b, m.lam), abs=1e-10)


class TestPairStatistic:
    """gradient_accumulate's H against explicit dense sums, on triplets that
    reuse points and on triplets that do not, with P dense and sparse."""

    def edge_instance(self, rng, dim):
        ds = random_sparse_dataset(rng, 12, dim, max_nnz=max(2, dim // 3))
        trips = random_triplets(rng, 8, 30)  # points 8-11 are never referenced
        edges = np.array([[0, 0, 1], [2, 3, 2], [4, 5, 6], [4, 5, 6], [4, 5, 6]])
        return ConstraintSet(ds, np.vstack([trips, edges]))  # a == b, a == c, repeats

    def disjoint_instance(self, rng, dim):
        ds = random_sparse_dataset(rng, 120, dim, max_nnz=max(2, dim // 3))
        return ConstraintSet(ds, rng.permutation(120)[:105].reshape(-1, 3))  # no reuse

    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("limit", [None, "DENSE_DIM_LIMIT", "DENSE_CELL_LIMIT"])
    def test_matches_dense_gradient(self, limit, reuse, monkeypatch):
        if limit is not None:
            monkeypatch.setattr(ConstraintSet, limit, 0)  # build on the sparse side
        rng = np.random.default_rng(14)
        for _ in range(5):
            dim = int(rng.integers(4, 20))
            cs = self.edge_instance(rng, dim) if reuse else self.disjoint_instance(rng, dim)
            T = len(cs)
            # edge instance: all but the last 5 (7 points) reuse points
            subsets = [None, np.arange(T - 30, T), np.arange(T - 5, T),
                       np.sort(rng.choice(T, size=10, replace=False))]
            for _ in range(2):  # a second pass refills the cached full-set W
                cache = MarginCache(rng.uniform(-0.5, 1.5, size=T))
                for subset in subsets:
                    acc = gradient_accumulate(cs, cache, subset)
                    # H is dense whenever d*d fits, whatever form P has
                    dense_h = limit != "DENSE_CELL_LIMIT"
                    assert isinstance(acc.H, np.ndarray) == dense_h
                    H = acc.H if dense_h else acc.H.toarray()
                    G = dense_gradient(cs, cache.margins, subset)
                    np.testing.assert_allclose(H, G + G.T, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(acc.diag, np.diag(G), rtol=0, atol=1e-12)
                    assert acc.count == (T if subset is None else subset.size)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_exactly_symmetric(self, sparse, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        rng = np.random.default_rng(17)
        for cs in (self.edge_instance(rng, 12), self.disjoint_instance(rng, 12)):
            cache = MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))
            for subset in (None, np.arange(0, len(cs), 3)):
                H = gradient_accumulate(cs, cache, subset).H
                assert isinstance(H, np.ndarray) != sparse
                H = sp.csr_matrix(H).toarray()
                np.testing.assert_array_equal(H, H.T)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_satisfied_subset_gives_zero(self, sparse, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        rng = np.random.default_rng(18)
        cs = self.edge_instance(rng, 9)
        margins = rng.uniform(-0.5, 0.5, size=len(cs))
        subset = np.arange(4, 20)
        margins[subset] = 1.5  # every subset triplet is satisfied: no anchors
        acc = gradient_accumulate(cs, MarginCache(margins), subset)
        assert isinstance(acc.H, np.ndarray) != sparse
        assert acc.H.shape == (9, 9)
        np.testing.assert_array_equal(sp.csr_matrix(acc.H).toarray(), np.zeros((9, 9)))
        np.testing.assert_array_equal(acc.diag, np.zeros(9))

    def test_result_survives_later_calls(self, monkeypatch):
        monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        rng = np.random.default_rng(15)
        cs = self.edge_instance(rng, 10)
        first = MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))
        acc = gradient_accumulate(cs, first)
        before = acc.H.toarray()
        gradient_accumulate(cs, MarginCache(rng.uniform(-0.5, 1.5, size=len(cs))))
        # and an update of the running statistic on the same cache
        first.margins = rng.uniform(-0.5, 1.5, size=len(cs))
        gradient_accumulate(cs, first)
        np.testing.assert_array_equal(acc.H.toarray(), before)

    def test_dense_result_survives_running_updates(self):
        rng = np.random.default_rng(15)
        cs = self.edge_instance(rng, 10)
        cache = MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))
        acc = gradient_accumulate(cs, cache)
        assert isinstance(acc.H, np.ndarray)
        before = acc.H.copy()
        for _ in range(3):
            cache.margins = rng.uniform(-0.5, 1.5, size=len(cs))
            gradient_accumulate(cs, cache)
        np.testing.assert_array_equal(acc.H, before)

    def test_empty_subset_rejected(self):
        rng = np.random.default_rng(16)
        cs = self.edge_instance(rng, 6)
        with pytest.raises(ValueError):
            gradient_accumulate(cs, MarginCache(np.zeros(len(cs))), np.zeros(0, dtype=np.int64))


class TestRunningStatistic:
    """The exact oracle's running full-set statistic, kept on the cache:
    each call after the first adds the statistic of the change in g."""

    def to_dense(self, H):
        return H if isinstance(H, np.ndarray) else H.toarray()

    @pytest.mark.parametrize("limit", [None, "DENSE_DIM_LIMIT", "DENSE_CELL_LIMIT"])
    def test_matches_fresh_build(self, limit, monkeypatch):
        # no limit: P and H dense; DENSE_DIM_LIMIT: sparse P, dense H (the
        # recovery benchmark's form); DENSE_CELL_LIMIT: both sparse
        if limit is not None:
            monkeypatch.setattr(ConstraintSet, limit, 0)
        sparse = limit == "DENSE_CELL_LIMIT"
        rng = np.random.default_rng(91)
        pair = TestPairStatistic()
        for cs in (pair.edge_instance(rng, 12), pair.disjoint_instance(rng, 12)):
            assert sp.issparse(cs.P) == (limit is not None)
            T = len(cs)
            cache = MarginCache(rng.uniform(-0.5, 1.5, size=T))
            g_prev = None
            for step in range(40):
                acc = gradient_accumulate(cs, cache)
                assert isinstance(acc.H, np.ndarray) != sparse
                g = cache.derivs()
                expected_rows = T if g_prev is None else np.count_nonzero(g != g_prev)
                assert acc.rows == expected_rows
                running = self.to_dense(cache.statistic[1])
                fresh = self.to_dense(cs.pair_statistic(g))
                np.testing.assert_allclose(running, fresh, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(running, running.T)
                H = self.to_dense(acc.H)
                np.testing.assert_array_equal(H, H.T)
                np.testing.assert_allclose(H, fresh / T, rtol=0, atol=1e-12)
                # next state: a solver-like rescale, or new values on a
                # random share of the rows (none, some, or all of them)
                g_prev, m = g, cache.margins.copy()
                if step % 3 == 0:
                    m *= rng.uniform(0.5, 1.0)
                else:
                    rows = rng.choice(T, size=int(rng.integers(0, T + 1)), replace=False)
                    m[rows] = rng.uniform(-0.5, 1.5, size=rows.size)
                cache.margins = m

    def test_two_trains_on_one_set_give_the_same_model(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 25)
        rng = np.random.default_rng(92)
        cs = random_instance(rng, 15, T=60)
        cfg = SolverConfig(lam=3.0, max_iters=120, gap_tol=0.0)
        m1, h1 = train(cs, cfg)
        m2, h2 = train(cs, cfg)
        m3, _ = train(ConstraintSet(cs.dataset, cs.triplets), cfg)
        assert serialize(m1) == serialize(m2) == serialize(m3)
        assert h1 == h2

    @pytest.mark.parametrize("limit", ["DENSE_DIM_LIMIT", "DENSE_CELL_LIMIT"])
    def test_same_model_on_any_cpu_count(self, limit, monkeypatch):
        # sparse points, with a dense H in 4-row bands or a CSR H: the
        # pooled band products give the serial path's model and history
        monkeypatch.setattr(ConstraintSet, limit, 0)
        monkeypatch.setattr(objective_mod, "DENSE_TILE", 4)
        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 10)
        cs = random_instance(np.random.default_rng(94), 18, T=80)
        assert sp.issparse(cs.P)
        cfg = SolverConfig(lam=3.0, max_iters=30, gap_tol=0.0)
        runs = []
        for cpus in (1, 4):
            monkeypatch.setattr(objective_mod, "usable_cpus", lambda: cpus)
            threads = threading.active_count()
            model, history = train(cs, cfg)
            assert threading.active_count() == threads
            runs.append((serialize(model), history))
        assert runs[0] == runs[1]
        assert any("stat_drift" in h for h in runs[0][1])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_corrupted_statistic_raises_at_recompute(self, sparse, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 5)
        exact_accumulate = solver_mod.gradient_accumulate
        calls = []

        def corrupting(cs, cache, subset=None):
            acc = exact_accumulate(cs, cache, subset)
            calls.append(1)
            if len(calls) == 5:  # iteration 4: after its H was read
                H = cache.statistic[1]
                if sparse:
                    H.data[0] += 1.0
                else:
                    H[0, 1] += 1.0
            return acc

        monkeypatch.setattr(solver_mod, "gradient_accumulate", corrupting)
        cs = random_instance(np.random.default_rng(86), 15, T=40)
        with pytest.raises(RuntimeError, match="pair statistic drifted"):
            train(cs, SolverConfig(lam=2.0, max_iters=35, gap_tol=0.0))
        # the start, then iterations 0, 1, 3 and 4: iteration 2 is lazy
        assert len(calls) == 5

    def test_recompute_replaces_running_with_fresh(self):
        rng = np.random.default_rng(93)
        cs = random_instance(rng, 12, T=50)
        cache = MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))
        for _ in range(5):
            gradient_accumulate(cs, cache)
            cache.margins = cache.margins * 0.9
        gradient_accumulate(cs, cache)
        drift = solver_mod._statistic_drift(cs, cache, 5)
        assert 0.0 <= drift <= 1e-12
        np.testing.assert_array_equal(cache.statistic[1], cs.pair_statistic(cache.derivs()))
        assert solver_mod._statistic_drift(cs, MarginCache(cache.margins), 5) is None

    def test_no_accumulators_outlive_their_iteration(self, monkeypatch):
        # an exact solve with a dense H: when the oracle runs, every earlier
        # call's accumulators, and with them their scaled d x d copy, are gone
        exact_accumulate = solver_mod.gradient_accumulate
        refs = []

        def tracking(cs, cache, subset=None):
            assert all(ref() is None for ref in refs)
            acc = exact_accumulate(cs, cache, subset)
            assert isinstance(acc.H, np.ndarray)
            refs.append(weakref.ref(acc))
            return acc

        monkeypatch.setattr(solver_mod, "gradient_accumulate", tracking)
        cs = random_instance(np.random.default_rng(87), 15, T=40)
        _, history = train(cs, SolverConfig(lam=2.0, max_iters=20, gap_tol=0.0))
        # the start, then each iteration that ran the oracle
        oracle_rows = sum(h["gap"] is not None for h in history)
        assert len(refs) == oracle_rows + 1 > 2

    def test_history_reports_rows_and_drift(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 10)
        cs = random_instance(np.random.default_rng(86), 15, T=40)
        _, history = train(cs, SolverConfig(lam=2.0, max_iters=35, gap_tol=0.0))
        # stat_rows on exactly the rows whose oracle ran, and some rows are lazy
        assert all(("stat_rows" in h) == (h["gap"] is not None) for h in history)
        assert any(h["gap"] is None for h in history)
        assert all(0 <= h["stat_rows"] <= len(cs) for h in history if "stat_rows" in h)
        drifts = {h["k"]: h["stat_drift"] for h in history if "stat_drift" in h}
        assert sorted(drifts) == [10, 20, 30]
        assert all(0.0 <= v <= 1e-12 for v in drifts.values())
        cfg = SolverConfig(lam=2.0, max_iters=35, oracle="minibatch", batch_size=10)
        _, history = train(cs, cfg)
        assert not any("stat_rows" in h or "stat_drift" in h for h in history)


class TestForwardExact:
    def test_dense_scan_matches_masked_upper_triangle(self):
        # small integers make ties everywhere; the scan that masked i >= j
        # is the reference for the one that masks the diagonal only
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(2, 10))
            A = rng.integers(-2, 3, size=(dim, dim)).astype(float)
            acc = GradientAccumulators(A + A.T, count=1)
            lam = float(rng.choice([0.5, 1.0, 3.0]))
            got = forward_exact(acc, lam, dim)
            c, H = acc.diag, acc.H
            scores = lam * (c[:, None] + c[None, :] - np.abs(H))
            idx = np.arange(dim)
            scores[idx[:, None] >= idx] = np.inf
            i, j = divmod(int(np.argmin(scores)), dim)
            assert got.basis == BasisId(i, j, NEG if H[i, j] > 0 else POS)
            assert got.score == scores[i, j]

    def test_single_negative_cross_term(self):
        acc = acc_from_maps({}, {(0, 1): -1.0}, dim=4)
        d = forward_exact(acc, lam=1.0, dim=4)
        assert d.basis == BasisId(0, 1, POS)
        assert d.score == pytest.approx(-1.0)
        assert d.gamma_max == 1.0

    def test_diagonal_only(self):
        acc = acc_from_maps({3: -0.4, 7: -0.1}, {}, dim=10)
        d = forward_exact(acc, lam=10.0, dim=10)
        assert d.basis == BasisId(3, 7, POS)
        assert d.score == pytest.approx(-5.0)

    def test_all_zero_accumulators(self):
        acc = acc_from_maps({}, {}, dim=6)
        d = forward_exact(acc, lam=2.0, dim=6)
        assert d.basis == BasisId(0, 1, POS)
        assert d.score == 0.0

    def test_positive_cross_term_prefers_neg_sign(self):
        acc = acc_from_maps({}, {(2, 5): 3.0}, dim=8)
        d = forward_exact(acc, lam=1.0, dim=8)
        assert d.basis == BasisId(2, 5, NEG)
        assert d.score == pytest.approx(-3.0)

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            forward_exact(acc_from_maps({}, {}, dim=1), lam=1.0, dim=1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            dim = int(rng.integers(4, 25))
            cs = random_instance(rng, dim, T=int(rng.integers(5, 40)))
            m = random_model(rng, dim, int(rng.integers(1, 5)), lam=float(rng.uniform(0.5, 5)))
            cache = init_cache(cs, m)
            acc = gradient_accumulate(cs, cache)
            got = forward_exact(acc, m.lam, dim)
            expected_basis, expected_score = brute_force_forward(
                dense_gradient(cs, cache.margins), m.lam
            )
            assert got.score == pytest.approx(expected_score, abs=1e-10)
            assert got.basis == expected_basis

    def test_dense_and_sparse_branches_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            dim = int(rng.integers(4, 20))
            cs = random_instance(rng, dim, T=20)
            cache = init_cache(cs, random_model(rng, dim, 3, lam=1.0))
            acc = gradient_accumulate(cs, cache)
            assert isinstance(acc.H, np.ndarray)
            sparse_acc = GradientAccumulators(sp.csr_matrix(acc.H), acc.count)
            d_dense = forward_exact(acc, 2.0, dim)
            d_sparse = forward_exact(sparse_acc, 2.0, dim)
            assert d_dense.basis == d_sparse.basis
            assert d_dense.score == pytest.approx(d_sparse.score, abs=1e-13)


class TestTieBreak:
    def test_pick_follows_basis_order(self):
        # every pair with both signs, shuffled; scores tie in groups
        rng = np.random.default_rng(8)
        big = 2**31
        pairs = [(0, 1), (0, 2), (1, 2), (0, big), (big - 1, big), (big, big + 1)]
        bases = np.array([(i, j, s) for i, j in pairs for s in (POS, NEG)], dtype=np.int64)
        for _ in range(50):
            bases = bases[rng.permutation(len(bases))]
            scores = rng.integers(0, 3, size=len(bases)).astype(float)
            low = np.flatnonzero(scores == scores.min())
            k = _lex_min_candidate(scores, bases)
            assert k == low[basis_order(bases[low])[0]]

    def test_nan_minimum_gives_the_first_nan(self):
        bases = np.array([[0, 1, POS], [0, 1, NEG], [0, 2, POS], [1, 2, NEG]])
        assert _lex_min_candidate(np.array([1.0, np.nan, 0.5, np.nan]), bases) == 1
        assert _lex_min_candidate(np.array([np.nan, 0.5, 0.5, 0.5]), bases) == 0

    def test_sparse_forward_nan_matches_dense_pick(self):
        # a NaN cross term makes its pair's score NaN; both branches pick it
        H = np.zeros((5, 5))
        H[0, 1] = H[1, 0] = 2.0
        H[1, 3] = H[3, 1] = np.nan
        H[2, 4] = H[4, 2] = -3.0
        dense = forward_exact(GradientAccumulators(H, count=1), 1.0, 5)
        got = forward_exact(GradientAccumulators(sp.csr_matrix(H), count=1), 1.0, 5)
        assert got.basis == dense.basis == BasisId(1, 3, POS)
        assert np.isnan(got.score) and np.isnan(dense.score)

    def test_away_nan_score_gives_the_first_nan(self):
        rng = np.random.default_rng(9)
        cs = random_instance(rng, 6, T=12)
        m = Model(1.0, 6, {BasisId(0, 1, POS): 0.25, BasisId(2, 3, NEG): 0.25,
                           BasisId(1, 4, POS): 0.25, BasisId(3, 5, POS): 0.25})
        state = solver_state(cs, m)
        H = np.ones((6, 6))
        H[2, 3] = H[3, 2] = H[3, 5] = H[5, 3] = np.nan
        d = away_direction(state, GradientAccumulators(H, count=1))
        assert d.basis == BasisId(2, 3, NEG) and np.isnan(d.score)


class TestDenseTiledScan:
    """forward_exact scores a dense H in DENSE_TILE-row bands over the
    upper columns only; its pick and score must be those of one
    full-matrix argmin, bit for bit."""

    def assert_same_pick(self, H, lam):
        acc = GradientAccumulators(H, count=1)
        got = forward_exact(acc, lam, H.shape[0])
        i, j, sign, score = reference_forward_exact_dense(acc, lam)
        assert got.basis == BasisId(i, j, sign)
        assert np.float64(got.score).tobytes() == np.float64(score).tobytes()

    def dims(self, tile):
        return sorted({2, 3, tile - 1, tile, tile + 1, 2 * tile + 1} - {0, 1})

    @pytest.mark.parametrize("tile", [1, 2, 7])
    def test_tie_heavy_integers(self, tile, monkeypatch):
        monkeypatch.setattr(solver_mod, "DENSE_TILE", tile)
        rng = np.random.default_rng(100 + tile)
        for dim in self.dims(tile):
            for _ in range(100):
                A = rng.integers(-2, 3, size=(dim, dim)).astype(float)
                A[rng.random((dim, dim)) < 0.2] = -0.0
                self.assert_same_pick(A + A.T, float(rng.choice([0.5, 1.0, 3.0])))

    @pytest.mark.parametrize("tile", [1, 2, 7])
    def test_nan_score_picks_the_first_nan(self, tile, monkeypatch):
        # np.argmin returns the first NaN; a NaN or infinite H entry, on or
        # off the diagonal, puts NaN into one or more scores
        monkeypatch.setattr(solver_mod, "DENSE_TILE", tile)
        rng = np.random.default_rng(200 + tile)
        for dim in self.dims(tile):
            for _ in range(50):
                A = rng.integers(-2, 3, size=(dim, dim)).astype(float)
                H = A + A.T
                for _ in range(int(rng.integers(1, 3))):
                    i, j = rng.integers(dim, size=2)
                    H[i, j] = H[j, i] = rng.choice([np.nan, np.inf, -np.inf])
                with np.errstate(invalid="ignore"):  # inf - inf
                    self.assert_same_pick(H, 1.0)

    def test_one_call_holds_no_d_by_d_array(self):
        dim = 2_000
        A = np.random.default_rng(7).normal(size=(dim, dim))
        acc = GradientAccumulators(A + A.T, count=1)
        del A
        tracemalloc.start()
        try:
            forward_exact(acc, 1.0, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * 8 / 4

    def test_running_update_holds_one_d_by_d_array_at_a_time(self):
        # sparse points and a dense H, the recovery form: the delta's C is
        # densified and summed into H in place, then dropped before the
        # scaled copy is made, so no two d x d arrays are alive at once
        rng = np.random.default_rng(8)
        dim = 1_200
        cs = ConstraintSet(random_sparse_dataset(rng, 300, dim, max_nnz=4),
                           random_triplets(rng, 300, 400))
        assert sp.issparse(cs.P)
        cache = MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))
        gradient_accumulate(cs, cache)
        m = cache.margins.copy()
        m[:40] = rng.uniform(-0.5, 1.5, size=40)
        cache.margins = m
        tracemalloc.start()
        try:
            acc = gradient_accumulate(cs, cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acc.rows > 0 and isinstance(acc.H, np.ndarray)
        assert peak < 1.5 * dim * dim * 8


class TestForwardMinibatch:
    def test_full_batch_equals_exact(self):
        rng = np.random.default_rng(31)
        cs = random_instance(rng, 12, T=25)
        m = random_model(rng, 12, 3, lam=2.0)
        cache = init_cache(cs, m)
        exact = forward_exact(gradient_accumulate(cs, cache), m.lam, 12)
        mb = forward_minibatch(cs, cache, m.lam, size=25, rng=np.random.default_rng(0))
        assert mb.basis == exact.basis
        assert mb.score == pytest.approx(exact.score, abs=1e-12)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(32)
        cs = random_instance(rng, 15, T=40)
        m = random_model(rng, 15, 3, lam=1.0)
        cache = init_cache(cs, m)
        d1 = forward_minibatch(cs, cache, m.lam, 10, np.random.default_rng(7))
        d2 = forward_minibatch(cs, cache, m.lam, 10, np.random.default_rng(7))
        assert d1.basis == d2.basis
        assert d1.score == d2.score

    def test_bad_sizes(self):
        rng = np.random.default_rng(33)
        cs = random_instance(rng, 8, T=10)
        cache = init_cache(cs, random_model(rng, 8, 2, lam=1.0))
        with pytest.raises(ValueError):
            forward_minibatch(cs, cache, 1.0, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_minibatch(cs, cache, 1.0, 11, np.random.default_rng(0))

    def test_sampled_score_tracks_full_score(self):
        # deviation between sampled and full scores shrinks with batch size
        rng = np.random.default_rng(34)
        cs = random_instance(rng, 12, T=400, n_points=30)
        m = random_model(rng, 12, 3, lam=1.0)
        cache = init_cache(cs, m)
        grad = dense_gradient(cs, cache.margins)
        devs = {}
        for size in (20, 400):
            errs = []
            for rep in range(20):
                d = forward_minibatch(cs, cache, m.lam, size, np.random.default_rng(rep))
                errs.append(abs(d.score - basis_score(grad, d.basis, m.lam)))
            devs[size] = np.mean(errs)
        assert devs[400] <= devs[20] + 1e-12


class TestForwardHeuristic:
    def test_finds_concentrated_pair(self):
        # all gradient mass on pair (2, 6); whenever the random start feature
        # touches that pair, both stages land on it
        ds = Dataset([sv([(2, 1.0)], 8), sv([(6, 1.0)], 8), sv([], 8)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        cache = MarginCache(np.array([0.0]))
        hits = 0
        for seed in range(40):
            probe = np.random.default_rng(seed)
            probe.choice(1, size=1, replace=False)  # mirrors the subset draw
            i0 = int(probe.integers(8))
            d = forward_heuristic(cs, cache, size=1, rng=np.random.default_rng(seed), lam=1.0, dim=8)
            if i0 in (2, 6):
                hits += 1
                assert d.basis == BasisId(2, 6, POS)
                assert d.score == pytest.approx(-1.0)
        assert hits > 0

    def test_second_stage_improves_on_first(self):
        # interactions chain 0-2 (weak) and 2–5 (strong): starting from
        # feature 0, stage 1 finds partner 2, stage 2 then finds the
        # stronger pair (2, 5)
        ds = Dataset(
            [
                sv([(0, 0.5), (2, 1.0)], 6),  # anchor with features 0 and 2
                sv([(2, 0.5), (5, 1.0)], 6),
                sv([], 6),
            ]
        )
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        cache = MarginCache(np.array([0.0]))
        # force i0 = 0: find a seed whose post-subset-draw integer is 0
        seed = next(
            s
            for s in range(100)
            if (lambda r: (r.choice(1, size=1, replace=False), int(r.integers(6)))[1])(
                np.random.default_rng(s)
            )
            == 0
        )
        d = forward_heuristic(cs, cache, size=1, rng=np.random.default_rng(seed), lam=1.0, dim=6)
        expected_basis, expected_score = brute_force_forward(
            dense_gradient(cs, cache.margins), 1.0
        )
        assert d.basis == expected_basis
        assert d.score == pytest.approx(expected_score, abs=1e-12)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_no_partner_below_inf_raises(self, value, monkeypatch):
        # all-inf or all-NaN scores put both stages' argmin on feature 0,
        # which would make the basis (0, 0)
        def no_partner(cs, tri, g, count, lam, i, diag):
            return np.full(cs.dim, value), np.zeros(cs.dim)

        monkeypatch.setattr(solver_mod, "_partner_scores", no_partner)
        cs = random_instance(np.random.default_rng(90), 8, T=20)
        cache = MarginCache(np.zeros(len(cs)))
        with pytest.raises(RuntimeError, match="scores inf or NaN"):
            forward_heuristic(cs, cache, 10, np.random.default_rng(0), 1.0, cs.dim)

    def test_all_zero_gradient(self):
        ds = Dataset([sv([(0, 1.0)], 5), sv([(1, 1.0)], 5), sv([(2, 1.0)], 5)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        cache = MarginCache(np.array([2.0]))  # satisfied
        d = forward_heuristic(cs, cache, 1, np.random.default_rng(3), lam=1.0, dim=5)
        assert d.score == 0.0

    @pytest.mark.parametrize("sparse", [False, True])
    def test_partner_scores_match_dense_gradient(self, sparse, monkeypatch):
        # row i of H = G + G^T over the batch; margins in [-0.5, 1.5] leave
        # some batch triplets inactive, margins of 2 leave all of them
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
        rng = np.random.default_rng(36)
        cs = random_instance(rng, 15, T=80, n_points=20)
        assert isinstance(cs.P, np.ndarray) != sparse
        lam = 1.4
        cases = ((rng.uniform(-0.5, 1.5, size=80), True), (np.full(80, 2.0), False))
        for margins, any_active in cases:
            cache = MarginCache(margins)
            g = cache.derivs()
            batch = np.sort(rng.choice(80, size=30, replace=False))
            active = batch[g[batch] != 0.0]
            assert active.size < batch.size and (active.size > 0) == any_active
            G = dense_gradient(cs, margins, subset=batch)
            H, diag = G + G.T, np.diag(G)
            for i in range(15):
                scores, h = _partner_scores(
                    cs, cs.local[active], g[active], batch.size, lam, i, diag
                )
                want = lam * (diag[i] + diag - np.abs(H[i]))
                want[i] = np.inf
                np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
                # the pick's sign is Neg exactly where h > 0
                clear = np.abs(H[i]) > 1e-12
                np.testing.assert_array_equal((h > 0)[clear], (H[i] > 0)[clear])
                if not any_active:
                    assert not np.any(h > 0)

    @staticmethod
    def integer_instance(rng, sparse, monkeypatch):
        """Small-integer points and margins in {-1, 0.5, 2}, so that the
        loss derivatives are -1, -0.5 or 0 and partner scores tie often."""
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
        dim, n, T = 12, 16, 60
        pts = []
        for _ in range(n):
            idx = np.sort(rng.choice(dim, size=int(rng.integers(1, 5)), replace=False))
            pts.append(SparseVector(idx, rng.choice([-2.0, -1.0, 1.0, 2.0], size=idx.size), dim))
        cs = ConstraintSet(Dataset(pts, dim=dim), random_triplets(rng, n, T))
        assert isinstance(cs.P, np.ndarray) != sparse
        return cs, MarginCache(rng.choice([-1.0, 0.5, 2.0], size=T))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_partner_scores_match_reference_bits(self, sparse, monkeypatch):
        # the scores are bit for bit the reference's, whose sign array says
        # Neg exactly where h > 0; some stage picks a partner with h = 0
        rng = np.random.default_rng(37)
        zero_picks = 0
        for _ in range(20):
            cs, cache = self.integer_instance(rng, sparse, monkeypatch)
            g = cache.derivs()
            batch = np.sort(rng.choice(len(cs), size=20, replace=False))
            active = batch[g[batch] != 0.0]
            diag = batch_diag(cs, g, active, batch.size)
            for i in range(cs.dim):
                args = (cs, cs.local[active], g[active], batch.size, 1.5, i, diag)
                scores, h = _partner_scores(*args)
                want, signs = reference_partner_scores(*args)
                assert np.array_equal(scores, want)
                np.testing.assert_array_equal(np.where(h > 0, NEG, POS), signs)
                zero_picks += h[int(np.argmin(scores))] == 0.0
        assert zero_picks > 0

    def test_diag_bit_equal_to_entrywise_bincount(self, monkeypatch):
        # the diagonal bins the batch's XD entries by feature, in the
        # order batch_diag's bincount does, so both
        # stages score with the same bits, an all-satisfied batch included
        real = solver_mod._partner_scores
        diags = []

        def recording(cs, tri, g, count, lam, i, diag):
            diags.append(diag)
            return real(cs, tri, g, count, lam, i, diag)

        monkeypatch.setattr(solver_mod, "_partner_scores", recording)
        rng = np.random.default_rng(39)
        for seed in range(30):
            cs = random_instance(rng, 30, T=200)
            low = 1.0 if seed % 5 == 0 else -0.5
            cache = MarginCache(rng.uniform(low, 1.5, size=len(cs)))
            size = int(rng.integers(1, len(cs) + 1))
            forward_heuristic(cs, cache, size, np.random.default_rng(seed), 1.5, cs.dim)
            batch = np.sort(np.random.default_rng(seed).choice(len(cs), size=size, replace=False))
            g = cache.derivs()
            want = batch_diag(cs, g, batch[g[batch] != 0.0], size)
            assert [d.tobytes() for d in diags[-2:]] == [want.tobytes()] * 2

    def test_diag_bit_equal_to_row_gather(self, monkeypatch):
        # the diagonal read from XD's CSR arrays holds the bits of the
        # gathered product XD[active]^T g_active / count, signs of zeros
        # included, an all-satisfied batch and a full batch among the draws
        real = solver_mod._partner_scores
        diags = []

        def recording(cs, tri, g, count, lam, i, diag):
            diags.append(diag)
            return real(cs, tri, g, count, lam, i, diag)

        monkeypatch.setattr(solver_mod, "_partner_scores", recording)
        rng = np.random.default_rng(40)
        for seed in range(30):
            cs = random_instance(rng, int(rng.integers(4, 400)), T=int(rng.integers(1, 300)))
            low = 1.0 if seed % 5 == 0 else -0.5
            cache = MarginCache(rng.uniform(low, 1.5, size=len(cs)))
            size = len(cs) if seed % 7 == 0 else int(rng.integers(1, len(cs) + 1))
            forward_heuristic(cs, cache, size, np.random.default_rng(seed), 1.5, cs.dim)
            batch = np.sort(np.random.default_rng(seed).choice(len(cs), size=size, replace=False))
            g = cache.derivs()
            active = batch[g[batch] != 0.0]
            want = cs.XD[active].T @ g[active] / size
            assert [d.tobytes() for d in diags[-2:]] == [want.tobytes()] * 2

    @pytest.mark.parametrize("sparse", [False, True])
    def test_pick_matches_reference(self, sparse, monkeypatch):
        rng = np.random.default_rng(38)
        for seed in range(40):
            cs, cache = self.integer_instance(rng, sparse, monkeypatch)
            d = forward_heuristic(cs, cache, 20, np.random.default_rng(seed), 1.5, cs.dim)
            basis, score = reference_forward_heuristic(
                cs, cache, 20, np.random.default_rng(seed), 1.5
            )
            assert d.basis == basis
            assert d.score == score

    def test_pick_with_zero_cross_term_is_pos(self):
        # feature 2 carries diag -4.5 and feature 4 diag -0.5, and no point
        # holds both: from any start the search ends on (2, 4) with h = 0
        # at the pick, which makes the sign Pos
        ds = Dataset([sv([(2, 3.0)], 6), sv([(2, 3.0)], 6), sv([], 6),
                      sv([(4, 1.0)], 6), sv([(4, 1.0)], 6)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2], [3, 4, 2]]))
        cache = MarginCache(np.zeros(2))
        for seed in range(12):
            d = forward_heuristic(cs, cache, 2, np.random.default_rng(seed), 1.5, 6)
            basis, score = reference_forward_heuristic(cs, cache, 2, np.random.default_rng(seed), 1.5)
            assert d.basis == basis == BasisId(2, 4, POS)
            assert d.score == score == -7.5

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(35)
        cs = random_instance(rng, 20, T=50)
        cache = init_cache(cs, random_model(rng, 20, 2, lam=1.0))
        d1 = forward_heuristic(cs, cache, 20, np.random.default_rng(9), 1.0, 20)
        d2 = forward_heuristic(cs, cache, 20, np.random.default_rng(9), 1.0, 20)
        assert d1.basis == d2.basis and d1.score == d2.score


class TestMillionFeatures:
    """The heuristic oracle at d = 10^6 with small T. Points are built
    directly, about 20 nnz each: 5 features from a shared pool of 40 spread
    over the whole range, so that pairs interact, and 15 drawn uniformly."""

    DIM = 1_000_000

    @classmethod
    def instance(cls):
        rng = np.random.default_rng(92)
        pool = np.unique(rng.integers(0, cls.DIM, size=40))
        pts = []
        for _ in range(80):
            idx = np.unique(np.concatenate((
                rng.choice(pool, size=5, replace=False), rng.integers(0, cls.DIM, size=15))))
            pts.append(SparseVector(idx, rng.uniform(0.1, 1.0, size=idx.size), cls.DIM))
        cs = ConstraintSet(Dataset(pts, dim=cls.DIM), random_triplets(rng, len(pts), 300))
        return cs, MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))

    def test_picks_match_reference(self):
        cs, cache = self.instance()
        assert not isinstance(cs.P, np.ndarray)
        for seed in range(5):
            d = forward_heuristic(cs, cache, 200, np.random.default_rng(seed), 10.0, self.DIM)
            basis, score = reference_forward_heuristic(
                cs, cache, 200, np.random.default_rng(seed), 10.0
            )
            assert d.basis == basis and d.score == score

    def test_train_keeps_invariants(self):
        cs, _ = self.instance()
        cfg = SolverConfig(lam=10.0, max_iters=20, oracle="heuristic", batch_size=200)
        model, hist = train(cs, cfg)
        assert len(hist) == 20
        model.check_invariants()


class TestOraclesPickUpperPairs:
    """apply_step builds its models unchecked, so every basis an oracle or
    the lazy rule hands it must already have 0 <= i < j < d."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 12), T=st.integers(1, 40),
           n_atoms=st.integers(1, 5), lam=st.floats(0.1, 10.0))
    def test_forward_and_lazy_bases_are_upper(self, seed, dim, T, n_atoms, lam):
        rng = np.random.default_rng(seed)
        cs = random_instance(rng, dim, T=T)
        model = random_model(rng, dim, n_atoms, lam=lam)
        state = SolverState.from_model(cs, model)
        acc = gradient_accumulate(cs, state.cache)
        sparse_acc = GradientAccumulators(sp.csr_matrix(acc.H), acc.count)
        picks = [forward_exact(acc, lam, dim, cs=cs).basis, forward_exact(sparse_acc, lam, dim).basis,
                 forward_heuristic(cs, state.cache, len(cs), rng, lam, dim).basis]
        # a threshold of -inf always steps: the better of the two active moves
        lazy = lazy_direction(state, -np.inf)
        assert lazy.basis == BasisId._make(model.bases[lazy.atom].tolist())
        for i, j, sign in picks + [lazy.basis]:
            assert 0 <= i < j < dim and sign in (POS, NEG)


class TestAwayDirection:
    def test_single_atom_gamma_max_zero(self):
        rng = np.random.default_rng(41)
        cs = random_instance(rng, 8, T=10)
        m = random_model(rng, 8, 1, lam=1.0)
        d = away_direction(solver_state(cs, m))
        assert d.gamma_max == 0.0
        assert d.basis in m.atoms

    def test_two_atom_argmax(self):
        # margins land in the quadratic branch; atom inner products differ
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4), sv([(2, 1.0), (3, 1.0)], 4)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        m = Model(1.0, 4, {BasisId(0, 1, POS): 0.5, BasisId(2, 3, POS): 0.5})
        state = solver_state(cs, m)
        d = away_direction(state)
        grad = dense_gradient(cs, state.cache.margins)
        scores = {b: basis_score(grad, b, m.lam) for b in m.atoms}
        assert d.basis == max(scores, key=scores.get)
        assert d.gamma_max == pytest.approx(1.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            dim = int(rng.integers(5, 20))
            cs = random_instance(rng, dim, T=20)
            m = random_model(rng, dim, 4, lam=1.5)
            state = solver_state(cs, m)
            d = away_direction(state)
            grad = dense_gradient(cs, state.cache.margins)
            best = max(
                ((basis_score(grad, b, m.lam), -b.i, -b.j) for b in m.atoms),
            )
            assert d.score == pytest.approx(best[0], abs=1e-10)

    def test_stacked_scan_matches_per_atom_reference(self):
        # features 0 and 1 appear in no point, so atom (0, 1, Pos) has no
        # nonzero inner product: an empty row of A, scored 0. With every
        # margin satisfied all scores tie at 0 and it is the pick.
        rng = np.random.default_rng(45)
        for trial in range(20):
            dim = int(rng.integers(6, 16))
            inner = random_sparse_dataset(rng, dim, dim - 2, nonneg=False)
            pts = [SparseVector(p.indices + 2, p.values, dim) for p in inner]
            cs = ConstraintSet(Dataset(pts, dim=dim), random_triplets(rng, dim, 30))
            m = random_model(rng, dim - 2, 6, lam=1.5)
            atoms = {BasisId(0, 1, POS): 0.1}
            atoms.update({BasisId(b.i + 2, b.j + 2, b.sign): 0.9 * a for b, a in m.atoms.items()})
            margins = np.full(30, 3.0) if trial == 0 else None
            state = solver_state(cs, Model(1.5, dim, atoms), margins=margins)
            assert state.A.indptr[1] == 0
            d = away_direction(state)
            k, scores = reference_away_pick(cs, state)
            assert d.basis == BasisId._make(state.model.bases[k].tolist())
            assert d.score == pytest.approx(scores[k], abs=1e-12)
            if trial == 0:
                assert d.basis == BasisId(0, 1, POS) and d.inner_rows.size == 0
            rows, vals = cs.pair_inners(*d.basis, state.model.lam)
            np.testing.assert_array_equal(d.inner_rows, rows)
            np.testing.assert_array_equal(d.inner_vals, vals)

    def test_accumulator_path_matches_inner_products(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            dim = int(rng.integers(5, 20))
            cs = random_instance(rng, dim, T=25)
            state = solver_state(cs, random_model(rng, dim, 5, lam=2.0))
            acc = gradient_accumulate(cs, state.cache)
            via_dots = away_direction(state)
            via_acc = away_direction(state, acc)
            assert via_acc.basis == via_dots.basis
            assert via_acc.score == pytest.approx(via_dots.score, abs=1e-12)


class TestChooseDirection:
    def fwd(self, score):
        return Direction("F", BasisId(0, 1, POS), 1.0, score)

    def away(self, score, gmax=0.5):
        return Direction("A", BasisId(0, 2, POS), gmax, score)

    def test_away_impossible_forces_forward(self):
        cache = MarginCache(np.array([0.5]))
        chosen = choose_direction(self.fwd(5.0), self.away(-5.0, gmax=0.0), cache)
        assert chosen.kind == "F"

    def test_tie_goes_forward(self):
        cache = MarginCache(np.array([1.0]))  # satisfied: <M, grad> = 0
        chosen = choose_direction(self.fwd(-1.0), self.away(1.0), cache)
        assert chosen.kind == "F"

    def test_strictly_better_away(self):
        cache = MarginCache(np.array([1.0]))
        chosen = choose_direction(self.fwd(-1.0), self.away(2.0), cache)
        assert chosen.kind == "A"


class TestLineSearch:
    def test_closed_form_forward(self):
        # T=1, margin 0, b=2: phi(gamma) = loss(2*gamma), flat for gamma >= 0.5
        cache = MarginCache(np.array([0.0]))
        d = Direction("F", BasisId(0, 1, POS), 1.0, 0.0, np.array([0]), np.array([2.0]))
        gamma = line_search(cache, d)
        assert 0.5 - 1e-5 <= gamma <= 1.0
        assert objective(MarginCache(np.array([2 * gamma]))) <= 1e-10

    def test_no_descent_returns_zero(self):
        cache = MarginCache(np.array([0.5]))
        # b below the margin: moving toward it increases the loss
        d = Direction("F", BasisId(0, 1, POS), 1.0, 0.0, np.array([0]), np.array([-1.0]))
        assert line_search(cache, d) == 0.0

    def test_descent_throughout_returns_gamma_max(self):
        cache = MarginCache(np.array([0.0]))
        d = Direction("F", BasisId(0, 1, POS), 1.0, 0.0, np.array([0]), np.array([0.5]))
        # phi'(1) = l'(0.5)*0.5 < 0, so the boundary is optimal
        assert line_search(cache, d) == 1.0

    def test_interior_root(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            T = 30
            margins = rng.normal(size=T)
            rows = np.arange(T)
            vals = rng.normal(size=T) * 2
            d = Direction("F", BasisId(0, 1, POS), 1.0, 0.0, rows, vals)
            cache = MarginCache(margins.copy())
            gamma = line_search(cache, d)
            # compare against a fine grid search of the 1-d objective
            grid = np.linspace(0, 1, 2001)
            vals_grid = [
                objective(MarginCache((1 - g) * margins + g * vals)) for g in grid
            ]
            assert objective(
                MarginCache((1 - gamma) * margins + gamma * vals)
            ) <= min(vals_grid) + 1e-6

    @staticmethod
    def phi(m, u, gamma):
        return objective(MarginCache(m + gamma * u))

    def test_step_far_below_one_millionth(self):
        # the minimiser (1-m).u/|u|^2 is 2.5e-8; a search that stops at a
        # bracket of 1e-6 cannot see it and takes a null step
        m = np.array([0.5, 0.5])
        u = np.array([100.0, -100.0 + 1e-3])
        d = Direction("F", BasisId(0, 1, POS), 1.0, 0.0, np.arange(2), m + u)
        gamma = line_search(MarginCache(m.copy()), d)
        want = float((1.0 - m) @ u / (u @ u))
        assert abs(gamma - want) <= 4 * np.spacing(want)
        assert self.phi(m, u, gamma) < self.phi(m, u, 0.0)

    @pytest.mark.parametrize("kind", ["F", "A"])
    def test_minimiser_property(self, kind):
        rng = np.random.default_rng(52 if kind == "F" else 53)
        eps = np.finfo(float).eps
        for _ in range(300):
            T = int(rng.integers(1, 60))
            m = rng.normal(0.5, 1.0, size=T)
            b = m + rng.normal(size=T) * 10.0 ** rng.uniform(-4, 4)
            still = rng.random(T) < 0.2  # rows the step does not move
            b[still] = m[still]
            gmax = float(rng.choice([1.0, rng.uniform(1e-6, 1.0)]))
            d = Direction(kind, BasisId(0, 1, POS), gmax, 0.0, np.arange(T), b)
            gamma = line_search(MarginCache(m.copy()), d)
            u = b - m if kind == "F" else m - b
            assert 0.0 <= gamma <= gmax
            assert self.phi(m, u, gamma) <= self.phi(m, u, 0.0)
            if gamma not in (0.0, gmax):
                # phi'(gamma) = 0 up to the rounding of each term
                dphi = smoothed_hinge_deriv(m + gamma * u) @ u
                scale = np.abs(u) @ (1.0 + np.abs(m) + gamma * np.abs(u))
                assert abs(dphi) <= 64 * eps * scale

    @staticmethod
    def assert_reference_bits(m, b, kind, gmax, rows=None):
        rows = np.arange(m.size) if rows is None else rows
        d = Direction(kind, BasisId(0, 1, POS), gmax, 0.0, rows, b[rows])
        got = line_search(MarginCache(m.copy()), d)
        want = reference_line_search(MarginCache(m.copy()), d)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        return got

    @staticmethod
    def quarters(lo, hi):
        # values on a grid of quarters put roots on the loss's kinks
        return st.integers(4 * lo, 4 * hi).map(lambda q: q / 4)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), T=st.integers(1, 30), kind=st.sampled_from("FA"),
           on_grid=st.booleans(), gmax=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    def test_gamma_bits_match_reference(self, data, T, kind, on_grid, gmax):
        # b far from m makes rows cross whole pieces between evaluations
        margin = self.quarters(-2, 3) if on_grid else st.floats(-3.0, 4.0)
        inner = self.quarters(-16, 16) if on_grid else st.floats(-1e3, 1e3)
        m = np.array(data.draw(st.lists(margin, min_size=T, max_size=T)))
        b = np.array(data.draw(st.lists(inner, min_size=T, max_size=T)))
        rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=T, max_size=T)))
        self.assert_reference_bits(m, b, kind, gmax, rows)

    def test_each_return_matches_reference(self):
        def phi_prime(m, u, gamma):
            return float(smoothed_hinge_deriv(m + gamma * u) @ u)

        # phi'(0) >= 0: no descent
        assert self.assert_reference_bits(np.array([0.5]), np.array([-1.0]), "F", 1.0) == 0.0
        # phi' < 0 on all of [0, gamma_max]
        assert self.assert_reference_bits(np.array([0.0]), np.array([0.5]), "F", 1.0) == 1.0
        # no row is on the quadratic piece at 0: zero curvature, a bisection
        # to 0.5, where phi' is 0
        m, b = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert self.assert_reference_bits(m, b, "F", 1.0) == 0.5
        # the root lies strictly between two adjacent floats, and lo is returned
        m, u = np.array([1.25, -0.5, 0.75, 0.5]), np.array([-2.0, 1.0, 2.0, 0.5])
        gamma = self.assert_reference_bits(m, m + u, "F", 1.0)
        assert phi_prime(m, u, gamma) < 0.0 < phi_prime(m, u, np.nextafter(gamma, 1.0))
        # a Newton step from 0.125 to 0.0216 takes row 2 from the zero piece
        # to the linear one, across the quadratic piece: only the zero rows
        # show the change, and the point is not the root
        m, b = np.array([0.0, 1.0, -0.75]), np.array([1.25, -6.5, 14.75])
        assert self.assert_reference_bits(m, b, "F", 1.0) == pytest.approx(0.0952, abs=1e-4)
        # a Newton point whose rows keep their pieces
        m, b = np.array([0.2, 0.9]), np.array([0.8, 0.4])
        gamma = self.assert_reference_bits(m, b, "F", 1.0)
        assert 0.0 < gamma < 1.0

    def test_train_reaches_tight_gap(self):
        # the instance of acceptance criterion 4: every step before the
        # converged row moves, and the run stops on the gap
        rng = np.random.default_rng(42)
        cs = random_instance(rng, dim=50, T=200, n_points=40)
        _, hist = train(cs, SolverConfig(lam=10.0, max_iters=5000, gap_tol=1e-9))
        assert len(hist) < 5000
        assert hist[-1]["gap"] <= 1e-9
        assert all(h["gamma"] > 0.0 for h in hist[:-1])


class TestApplyStep:
    def make_state(self, rng, dim=8, T=12, n_atoms=3, lam=1.0):
        cs = random_instance(rng, dim, T=T)
        return cs, solver_state(cs, random_model(rng, dim, n_atoms, lam=lam))

    def fwd_direction(self, cs, state, basis):
        rows, vals = cs.pair_inners(basis.i, basis.j, basis.sign, state.model.lam)
        return Direction("F", basis, 1.0, 0.0, rows, vals)

    def test_full_forward_collapses(self):
        rng = np.random.default_rng(61)
        cs, state = self.make_state(rng)
        d = self.fwd_direction(cs, state, BasisId(0, 1, NEG))
        apply_step(state, d, 1.0)
        assert state.model.atoms == {BasisId(0, 1, NEG): 1.0}
        assert len(state.model.feature_set()) == 2

    def test_zero_forward_is_identity(self):
        rng = np.random.default_rng(62)
        cs, state = self.make_state(rng)
        before = dict(state.model.atoms)
        d = self.fwd_direction(cs, state, BasisId(0, 1, NEG))
        apply_step(state, d, 0.0)
        after = state.model.atoms
        assert set(after) - set(before) <= {BasisId(0, 1, NEG)}
        for b, a in before.items():
            assert after[b] == pytest.approx(a, abs=1e-15)

    def test_away_at_gamma_max_drops_atom(self):
        rng = np.random.default_rng(63)
        cs, state = self.make_state(rng)
        target = sorted(state.model.atoms)[0]
        alpha = state.model.atoms[target]
        gmax = alpha / (1 - alpha)
        rows, vals = cs.pair_inners(*target, state.model.lam)
        d = Direction("A", target, gmax, 0.0, rows, vals)
        apply_step(state, d, gmax)
        assert target not in state.model.atoms
        assert abs(sum(state.model.atoms.values()) - 1.0) <= 1e-9

    def test_gamma_out_of_range(self):
        rng = np.random.default_rng(64)
        cs, state = self.make_state(rng)
        d = self.fwd_direction(cs, state, BasisId(0, 1, POS))
        with pytest.raises(ValueError):
            apply_step(state, d, 1.5)

    def test_cache_stays_consistent(self):
        # random mix of forward steps and valid away steps, random step sizes
        rng = np.random.default_rng(65)
        cs, state = self.make_state(rng)
        for _ in range(50):
            if rng.random() < 0.3 and state.model.n_atoms > 1:
                target = sorted(state.model.atoms)[int(rng.integers(state.model.n_atoms))]
                alpha = state.model.atoms[target]
                gmax = alpha / (1 - alpha)
                rows, vals = cs.pair_inners(*target, state.model.lam)
                d = Direction("A", target, gmax, 0.0, rows, vals)
                gamma = float(rng.uniform(0, gmax))
            else:
                basis = BasisId(*sorted(rng.choice(cs.dim, 2, replace=False)), POS)
                d = self.fwd_direction(cs, state, basis)
                gamma = float(rng.uniform(0, 1))
            apply_step(state, d, gamma)
        recomputed = init_cache(cs, state.model)
        np.testing.assert_allclose(state.cache.margins, recomputed.margins, atol=1e-10)

    def test_from_model_round_trip(self):
        rng = np.random.default_rng(66)
        cs = random_instance(rng, 10, T=20)
        m = random_model(rng, 10, 12, lam=2.0)
        state = SolverState.from_model(cs, m)
        assert state.model == m
        assert list(state.model.atoms) == list(m.atoms)
        np.testing.assert_array_equal(state.cache.margins, init_cache(cs, m).margins)

    def test_from_model_stacks_one_row_per_atom(self, monkeypatch):
        rng = np.random.default_rng(69)
        cs = random_instance(rng, 12, T=60)
        m = random_model(rng, 12, 15, lam=1.3)
        calls = []
        real = ConstraintSet.pair_inners

        def counting(self, *basis):
            calls.append(basis[:3])
            return real(self, *basis)

        monkeypatch.setattr(ConstraintSet, "pair_inners", counting)
        state = SolverState.from_model(cs, m)
        # one call per atom for A, then init_cache's pass for the margins
        assert calls == 2 * [tuple(b) for b in m.bases.tolist()]
        monkeypatch.undo()
        want = init_cache(cs, m).margins
        np.testing.assert_array_equal(state.cache.margins.view(np.int64), want.view(np.int64))
        assert state.A.shape == (m.n_atoms, len(cs))
        for k, b in enumerate(m.bases.tolist()):
            rows, vals = cs.pair_inners(*b, m.lam)
            np.testing.assert_array_equal(state.A.indices[state.A.indptr[k]:state.A.indptr[k + 1]], rows)
            np.testing.assert_array_equal(state.A.data[state.A.indptr[k]:state.A.indptr[k + 1]], vals)

    def test_matches_dict_reference_bit_for_bit(self):
        # forward steps from a pool of 42 bases add and re-hit atoms, away
        # steps at gamma_max drop them; with 8 or more atoms numpy's pairwise
        # alpha.sum() rounds differently from the in-order sum
        rng = np.random.default_rng(67)
        dim = 7
        cs = random_instance(rng, dim, T=30)
        m = random_model(rng, dim, 10, lam=1.0)
        state = SolverState.from_model(cs, m)
        atoms, cache = dict(m.atoms), init_cache(cs, m)
        kinds = set()
        for _ in range(400):
            if rng.random() < 0.4 and len(atoms) > 1:
                basis = list(atoms)[int(rng.integers(len(atoms)))]
                gmax = atoms[basis] / (1.0 - atoms[basis])
                gamma = gmax if rng.random() < 0.3 else float(rng.uniform(0, gmax))
                kind = "A"
            else:
                i, j = sorted(rng.choice(dim, 2, replace=False).tolist())
                basis = BasisId(i, j, POS if rng.random() < 0.5 else NEG)
                gmax, kind = 1.0, "F"
                gamma = 1.0 if rng.random() < 0.01 else float(rng.uniform(0, 0.2))
            kinds.add((kind, basis in atoms, gamma == gmax))
            d = Direction(kind, basis, gmax, 0.0, *cs.pair_inners(*basis, m.lam))
            apply_step(state, d, gamma)
            reference_apply_step(atoms, cache, d, gamma)
            assert list(state.model.atoms.items()) == list(atoms.items())
            np.testing.assert_array_equal(state.cache.margins, cache.margins)
        assert {("F", False, False), ("F", True, False), ("A", True, True)} <= kinds


    def test_stacked_inners_follow_the_atoms(self):
        # forward steps to new and to existing atoms, away steps, and drops
        # to ATOM_DROP_TOL (away at gamma_max, forward at gamma = 1): row k
        # of A stays the pair_inners of atom k
        rng = np.random.default_rng(68)
        dim = 9
        cs = random_instance(rng, dim, T=40)
        state = SolverState.from_model(cs, random_model(rng, dim, 4, lam=1.2))
        kinds = set()
        for _ in range(300):
            atoms = state.model.bases.tolist()
            if rng.random() < 0.4 and len(atoms) > 1:
                k = int(rng.integers(len(atoms)))
                basis, alpha = BasisId(*atoms[k]), float(state.model.alpha[k])
                gmax = alpha / (1.0 - alpha)
                gamma = gmax if rng.random() < 0.3 else float(rng.uniform(0, gmax))
                kind = "A"
            else:
                i, j = sorted(rng.choice(dim, 2, replace=False).tolist())
                basis = BasisId(i, j, POS if rng.random() < 0.5 else NEG)
                gmax, kind = 1.0, "F"
                gamma = 1.0 if rng.random() < 0.03 else float(rng.uniform(0, 0.3))
            kinds.add((kind, list(basis) in atoms, gamma == gmax))
            d = Direction(kind, basis, gmax, 0.0, *cs.pair_inners(*basis, state.model.lam))
            apply_step(state, d, gamma)
            A = state.A
            assert A.shape == (state.model.n_atoms, len(cs))
            for k, b in enumerate(state.model.bases.tolist()):
                rows, vals = cs.pair_inners(*b, state.model.lam)
                lo, hi = A.indptr[k], A.indptr[k + 1]
                np.testing.assert_array_equal(A.indices[lo:hi], rows)
                np.testing.assert_array_equal(A.data[lo:hi], vals)
        assert {("F", False, False), ("F", True, False), ("A", True, True), ("A", True, False)} <= kinds
        assert ("F", False, True) in kinds or ("F", True, True) in kinds

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 6), steps=st.integers(1, 80))
    def test_trusted_models_hold_every_invariant(self, seed, dim, steps):
        # forward steps to new bases, to dropped ones and to active atoms
        # (their row carried), away steps from active atoms (some at
        # gamma_max, which drops the atom) and full forward steps (which
        # drop all others); no step re-checks its model, so each is checked
        # here and matched against the dict reference
        rng = np.random.default_rng(seed)
        cs = random_instance(rng, dim, T=20)
        m = random_model(rng, dim, int(rng.integers(1, 4)), lam=float(rng.uniform(0.5, 5.0)))
        state = SolverState.from_model(cs, m)
        atoms, cache = dict(m.atoms), init_cache(cs, m)
        for _ in range(steps):
            k = int(rng.integers(state.model.n_atoms))
            move = rng.random()
            if move < 0.35:
                d = _atom_direction(state, "A", k, 0.0)
                gamma = d.gamma_max if rng.random() < 0.3 else float(rng.uniform(0, d.gamma_max))
            elif move < 0.55:
                d = _atom_direction(state, "F", k, 0.0)
                gamma = 1.0 if rng.random() < 0.05 else float(rng.uniform(0, 0.5))
            else:
                i, j = sorted(rng.choice(dim, 2, replace=False).tolist())
                basis = BasisId(i, j, POS if rng.random() < 0.5 else NEG)
                d = Direction("F", basis, 1.0, 0.0, *cs.pair_inners(*basis, state.model.lam))
                gamma = 1.0 if rng.random() < 0.05 else float(rng.uniform(0, 0.5))
            apply_step(state, d, gamma)
            reference_apply_step(atoms, cache, d, gamma)
            got = state.model
            got.check_invariants()
            assert not got.bases.flags.writeable and not got.alpha.flags.writeable
            assert got == Model.from_arrays(got.lam, got.dim, got.bases, got.alpha)
            assert list(got.atoms.items()) == list(atoms.items())
            np.testing.assert_array_equal(state.cache.margins, cache.margins)


class TestFwGap:
    def test_zero_when_satisfied(self):
        rng = np.random.default_rng(71)
        cs = random_instance(rng, 8, T=10)
        m = random_model(rng, 8, 2, lam=1.0)
        state = solver_state(cs, m, margins=np.full(10, 5.0))
        fwd = forward_exact(gradient_accumulate(cs, state.cache), m.lam, 8, cs=cs)
        assert fw_gap(state, fwd) == 0.0

    def test_nonnegative_and_matches_dense(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            dim = int(rng.integers(4, 18))
            cs = random_instance(rng, dim, T=15)
            m = random_model(rng, dim, 3, lam=2.0)
            state = solver_state(cs, m)
            fwd = forward_exact(gradient_accumulate(cs, state.cache), m.lam, dim, cs=cs)
            gap = fw_gap(state, fwd)
            assert gap >= -1e-10
            grad = dense_gradient(cs, state.cache.margins)
            from util import dense_model_matrix

            expected = float(np.sum(grad * dense_model_matrix(m))) - basis_score(
                grad, fwd.basis, m.lam
            )
            assert gap == pytest.approx(expected, abs=1e-10)


class TestGapRoundingCap:
    def test_cap_bounds_the_rounding_term(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            dim = int(rng.integers(4, 20))
            cs = random_instance(rng, dim, T=int(rng.integers(5, 40)))
            lam = float(rng.uniform(0.5, 5))
            cache = init_cache(cs, random_model(rng, dim, int(rng.integers(1, 6)), lam))
            fwd = forward_exact(gradient_accumulate(cs, cache), lam, dim, cs=cs)
            assert 0.0 <= _gap_rounding(cache, fwd) <= _gap_rounding_cap(cs, lam)

    def test_margin_bound_is_tight(self):
        # x_a = e0 + e1 and d = x_b - x_c = 2 (e0 + e1) give
        # lam (x_0 + x_1)(d_0 + d_1) = 8 lam max|P|^2 on the basis (0, 1, Pos)
        ds = Dataset([sv([(0, 1.0), (1, 1.0)], 3), sv([(0, 1.0), (1, 1.0)], 3),
                      sv([(0, -1.0), (1, -1.0)], 3)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        lam = 1.5
        cache = init_cache(cs, Model(lam, 3, {BasisId(0, 1, POS): 1.0}))
        eps = np.finfo(np.float64).eps
        assert cache.margins[0] == 8 * lam
        assert _gap_rounding_cap(cs, lam) == 4 * eps * 8 * lam * len(cs)

    @pytest.mark.parametrize("oracle", ["exact", "minibatch", "heuristic"])
    def test_overflowing_margins_rejected(self, oracle):
        # 8 lam max|x|^2 overflows: train refuses the set before any step,
        # with every oracle, instead of failing on a float power
        ds = Dataset([sv([(0, 1e200), (1, 1.0)], 3), sv([(1, 1.0)], 3), sv([(2, 1.0)], 3)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="margins could overflow"):
            train(cs, SolverConfig(lam=1.0, max_iters=5, oracle=oracle, batch_size=1))


class TestGapCertifiesSuboptimality:
    def test_gap_upper_bounds_distance_to_optimum(self):
        # f is convex, so <M - B_F, grad f(M)> >= f(M) - f(M*); check against
        # a long reference solve
        rng = np.random.default_rng(73)
        cs = random_instance(rng, 15, T=40, n_points=12)
        lam = 5.0
        model_ref, _ = train(cs, SolverConfig(lam=lam, max_iters=20000, gap_tol=0.0))
        f_star = objective(init_cache(cs, model_ref))
        _, hist = train(cs, SolverConfig(lam=lam, max_iters=300, gap_tol=0.0))
        certified = [h for h in hist if h["gap"] is not None]
        for h in certified:
            assert h["gap"] >= h["objective"] - f_star - 1e-8
        # the last row is certified, and a lazy row carries no gap
        assert hist[-1]["gap"] is not None and len(certified) < len(hist)


def recording_lazy(steps):
    """lazy_direction, appending (model, threshold, direction) to `steps`
    for every step it takes."""
    lazy = solver_mod.lazy_direction

    def recorded(state, threshold):
        d = lazy(state, threshold)
        if d is not None:
            steps.append((state.model, threshold, d))
        return d

    return recorded


class TestLazyRule:
    """An exact solve steps inside the active set, with no oracle call,
    while the better active step gains at least the last certified gap /
    LAZY_KAPPA; such a row has no gap, and every row that can end a run has
    one."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 10), T=st.integers(8, 50),
           lam=st.floats(0.5, 10.0), iters=st.integers(1, 60), eval_every=st.integers(1, 8),
           patience=st.one_of(st.none(), st.integers(1, 4)))
    def test_lazy_steps_gain_their_share(self, seed, dim, T, lam, iters, eval_every, patience):
        cs = random_instance(np.random.default_rng(seed), dim, T=T)
        val = {} if patience is None else dict(
            val_fn=lambda m: -float(m.n_atoms), eval_every=eval_every, patience=patience)
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "lazy_direction", recording_lazy(steps))
            _, hist = train(cs, SolverConfig(lam=lam, max_iters=iters, gap_tol=0.0, **val))
        assert hist[-1]["gap"] is not None
        assert all(h["gap"] is not None for h in hist if "val_metric" in h)
        assert sum(h["gap"] is None for h in hist) == len(steps)
        phi, lazy_steps = 0.0, iter(steps)
        for h in hist:
            if h["gap"] is not None:
                phi = h["gap"]
                continue
            model, threshold, d = next(lazy_steps)
            assert phi > 0.0 and threshold == phi / solver_mod.LAZY_KAPPA
            assert "stat_rows" not in h and h["step"] == d.kind
            assert d.basis in model.atoms
            # the step's gain from scratch: dense margins, gradient and <M, grad f>
            grad = dense_gradient(cs, dense_margins(cs, model))
            gm = float(np.sum(dense_model_matrix(model) * grad))
            score = basis_score(grad, d.basis, lam)
            gain = gm - score if d.kind == "F" else score - gm
            assert gain >= threshold - 1e-12 * max(1.0, abs(gm))

    @pytest.mark.parametrize("oracle", ["minibatch"])
    def test_sampled_oracles_are_never_lazy(self, oracle, monkeypatch):
        def refuse(state, threshold):
            raise AssertionError("lazy step on a sampled oracle")

        monkeypatch.setattr(solver_mod, "lazy_direction", refuse)
        cs = random_instance(np.random.default_rng(88), 15, T=40)
        cfg = SolverConfig(lam=2.0, max_iters=200, oracle=oracle, batch_size=10, gap_tol=0.0)
        _, hist = train(cs, cfg)
        assert len(hist) == 200 and all(h["gap"] is not None for h in hist)

    def test_heuristic_is_lazy_on_away_steps_only(self, monkeypatch):
        # the instance on which the heuristic oracle was never lazy: some
        # rows now skip the oracle, each with an away step asked for
        # without forward moves at the full gain of the last oracle step
        calls, lazy = [], solver_mod.lazy_direction

        def recorded(state, threshold, forward=True):
            calls.append(forward)
            return lazy(state, threshold, forward)

        monkeypatch.setattr(solver_mod, "lazy_direction", recorded)
        cs = random_instance(np.random.default_rng(88), 15, T=40)
        cfg = SolverConfig(lam=2.0, max_iters=200, oracle="heuristic", batch_size=10, gap_tol=0.0)
        _, hist = train(cs, cfg)
        skipped = [h for h in hist if h["gap"] is None]
        assert len(hist) == 200 and hist[-1]["gap"] is not None
        assert skipped and all(h["step"] == "A" for h in skipped)
        assert calls and not any(calls)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 10), T=st.integers(8, 50),
           lam=st.floats(0.5, 10.0), iters=st.integers(1, 60), batch=st.integers(1, 50),
           eval_every=st.integers(1, 8), patience=st.one_of(st.none(), st.integers(1, 4)))
    def test_heuristic_lazy_steps_are_away_steps_that_gain_phi(
        self, seed, dim, T, lam, iters, batch, eval_every, patience
    ):
        # phi is the last oracle row's better step gain: its gap, or the
        # away vertex's gain when an away step is possible
        cs = random_instance(np.random.default_rng(seed), dim, T=T)
        val = {} if patience is None else dict(
            val_fn=lambda m: -float(m.n_atoms), eval_every=eval_every, patience=patience)
        oracle_models, steps = [], []
        directions, lazy = solver_mod._directions, solver_mod.lazy_direction

        def recorded_directions(cs, state, cfg, rng):
            oracle_models.append(state.model)
            return directions(cs, state, cfg, rng)

        def recorded_lazy(state, threshold, forward=True):
            d = lazy(state, threshold, forward)
            if d is not None:
                steps.append((state.model, threshold, forward, d))
            return d

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_directions", recorded_directions)
            mp.setattr(solver_mod, "lazy_direction", recorded_lazy)
            _, hist = train(cs, SolverConfig(lam=lam, max_iters=iters, oracle="heuristic",
                                             batch_size=min(batch, T), gap_tol=0.0, seed=seed,
                                             **val))
        assert hist[-1]["gap"] is not None
        assert all(h["gap"] is not None for h in hist if "val_metric" in h)
        assert sum(h["gap"] is None for h in hist) == len(steps)
        # the first _directions call picks the starting atom, before row 0
        phi, models, lazy_steps = 0.0, iter(oracle_models[1:]), iter(steps)
        for h in hist:
            if h["gap"] is not None:
                model = next(models)
                grad = dense_gradient(cs, dense_margins(cs, model))
                gm = float(np.sum(dense_model_matrix(model) * grad))
                away = max(basis_score(grad, BasisId._make(b), lam) for b in model.bases.tolist())
                phi = max(h["gap"], away - gm) if model.n_atoms > 1 else h["gap"]
                phi_tol = 1e-12 * max(1.0, abs(gm))
                continue
            model, threshold, forward, d = next(lazy_steps)
            assert not forward and d.kind == h["step"] == "A"
            assert "stat_rows" not in h and d.basis in model.atoms and model.n_atoms > 1
            assert threshold > 0.0 and threshold == pytest.approx(phi, rel=0.0, abs=phi_tol)
            grad = dense_gradient(cs, dense_margins(cs, model))
            gm = float(np.sum(dense_model_matrix(model) * grad))
            assert basis_score(grad, d.basis, lam) - gm >= phi - phi_tol - 1e-12 * max(1.0, abs(gm))

    def test_no_active_gain_keeps_the_eager_bits(self, monkeypatch):
        # recovery-exact's regime at a smaller size: every oracle pick is a
        # new atom and no active atom reaches phi / LAZY_KAPPA, so the model
        # equals that of a hand-rolled eager loop bit for bit
        rng = np.random.default_rng(0)
        truth = gen_truth(600, n_bases=10, rng=rng, lam=1.0)
        samples = gen_uniform_sparse(300, 600, sparsity=0.02, rng=rng)
        cs = truth_triplets(samples, truth, alpha=0.1, count=1500, rng=rng)
        lam, iters = 100.0, 4
        tried, lazy = [], solver_mod.lazy_direction

        def recorded(state, threshold):
            tried.append(lazy(state, threshold))
            return tried[-1]

        monkeypatch.setattr(solver_mod, "lazy_direction", recorded)
        model, hist = train(cs, SolverConfig(lam=lam, max_iters=iters, gap_tol=0.0))
        # iteration 0 has no certified gap yet and iteration 3 is the last
        assert tried == [None, None] and all(h["gap"] is not None for h in hist)

        state = SolverState.from_model(cs, Model(lam, cs.dim, {BasisId(0, 1, POS): 1.0}))
        apply_step(state, forward_exact(gradient_accumulate(cs, state.cache), lam, cs.dim, cs=cs),
                   1.0)
        for _ in range(iters):
            acc = gradient_accumulate(cs, state.cache)
            fwd = forward_exact(acc, lam, cs.dim, cs=cs)
            g = state.cache.derivs()
            fwd.score = float(g[fwd.inner_rows] @ fwd.inner_vals) / state.cache.count
            chosen = choose_direction(fwd, away_direction(state, acc), state.cache)
            apply_step(state, chosen, line_search(state.cache, chosen))
        assert serialize(model) == serialize(state.model)


class TestTrain:
    def test_trivially_satisfiable_stops_immediately(self):
        # margins at the initial atom are already >= 1 for every constraint
        ds = Dataset([sv([(0, 1.0), (1, 1.0)], 4), sv([(0, 1.0)], 4), sv([], 4)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        model, history = train(cs, SolverConfig(lam=2.0, max_iters=50))
        assert history[0]["k"] == 0
        assert history[0]["gap"] == 0.0
        assert history[0]["gamma"] == 0.0
        assert len(history) == 1

    def test_objective_non_increasing_and_invariants(self):
        rng = np.random.default_rng(81)
        cs = random_instance(rng, 20, T=60, n_points=15)
        model, history = train(cs, SolverConfig(lam=5.0, max_iters=120))
        objs = [h["objective"] for h in history]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
        for h in history:
            assert h["atoms"] <= h["k"] + 1
            assert h["features"] <= 2 * (h["k"] + 1)
        model.check_invariants()

    def test_deterministic_histories(self):
        rng = np.random.default_rng(82)
        cs = random_instance(rng, 15, T=40)
        cfg = dict(lam=3.0, max_iters=60, oracle="minibatch", batch_size=10, seed=5)
        m1, h1 = train(cs, SolverConfig(**cfg))
        m2, h2 = train(cs, SolverConfig(**cfg))
        assert h1 == h2
        assert m1.atoms == m2.atoms

    @pytest.mark.parametrize("field", ["lam", "gap_tol"])
    def test_non_finite_config_rejected(self, field):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{"lam": 1.0, field: bad})

    def test_eval_every_below_one_rejected(self):
        with pytest.raises(ValueError, match="eval_every"):
            SolverConfig(lam=1.0, eval_every=0)

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_rejected(self, patience):
        with pytest.raises(ValueError, match="patience"):
            SolverConfig(lam=1.0, patience=patience)

    def test_negative_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(lam=1.0, max_iters=-1)

    def test_zero_max_iters_gives_empty_history(self):
        cs = random_instance(np.random.default_rng(8), 6, T=20)
        model, history = train(cs, SolverConfig(lam=2.0, max_iters=0))
        assert history == [] and model.n_atoms == 1

    def test_empty_constraints_rejected(self):
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4)])
        cs = ConstraintSet(ds, np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            train(cs, SolverConfig(lam=1.0))

    def test_exact_oracle_on_large_dimension_sparse_path(self, monkeypatch):
        # d above the dense-views threshold gives a sparse P; a zero cell
        # limit also keeps H sparse, which exercises the sparse scan in train
        monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        rng = np.random.default_rng(84)
        cs = random_instance(rng, 600, T=50, n_points=30)
        assert sp.issparse(gradient_accumulate(cs, MarginCache(np.zeros(len(cs)))).H)
        model, history = train(cs, SolverConfig(lam=5.0, max_iters=40))
        objs = [h["objective"] for h in history]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
        for h in history:
            assert h["atoms"] <= h["k"] + 1
        model.check_invariants()

    def test_exact_oracle_dense_statistic_over_sparse_points(self):
        # d = 600: P is sparse, and H is dense since d*d fits the cell limit
        rng = np.random.default_rng(84)
        cs = random_instance(rng, 600, T=50, n_points=30)
        assert sp.issparse(cs.P)
        assert isinstance(gradient_accumulate(cs, MarginCache(np.zeros(len(cs)))).H, np.ndarray)
        model, history = train(cs, SolverConfig(lam=5.0, max_iters=40))
        objs = [h["objective"] for h in history]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
        model.check_invariants()

    def test_gap_zero_up_to_rounding_stops(self):
        # acceptance criterion 4's reference solve: its gap reaches the
        # rounding level of fw_gap's sums near iteration 2,500, and it
        # must stop there rather than wait for a gap of exactly 0.0
        rng = np.random.default_rng(42)
        cs = random_instance(rng, dim=50, T=200, n_points=40)
        _, hist = train(cs, SolverConfig(lam=10.0, max_iters=100_000, gap_tol=0.0))
        assert len(hist) < 4000
        assert hist[-1]["gamma"] == 0.0
        assert abs(hist[-1]["gap"]) < 1e-13

    def test_recompute_records_drift(self, monkeypatch):
        import hdsl.solver as solver_mod

        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 10)
        rng = np.random.default_rng(86)
        cs = random_instance(rng, 15, T=40)
        _, history = train(cs, SolverConfig(lam=2.0, max_iters=35, gap_tol=0.0))
        drifts = {h["k"]: h["drift"] for h in history if "drift" in h}
        assert sorted(drifts) == [10, 20, 30]
        assert all(0.0 <= v <= 1e-10 for v in drifts.values())

    @pytest.mark.parametrize("oracle", ["exact", "heuristic"])
    def test_loss_derivatives_once_per_margin_update(self, monkeypatch, oracle):
        # the package's `objective` attribute is the function, not the module
        objective_mod = importlib.import_module("hdsl.objective")
        calls = []
        deriv = objective_mod.smoothed_hinge_deriv

        def counted(m):
            calls.append(1)
            return deriv(m)

        monkeypatch.setattr(objective_mod, "smoothed_hinge_deriv", counted)
        cs = random_instance(np.random.default_rng(87), 15, T=40)
        cfg = SolverConfig(lam=2.0, max_iters=1000, gap_tol=0.0, oracle=oracle, batch_size=20)
        _, history = train(cs, cfg)
        # one per iteration, plus one for the initial forward call
        assert len(calls) <= len(history) + 1

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_invariants_checked_per_recompute_and_on_return(self, snapshot, monkeypatch):
        checked = []
        check = Model.check_invariants

        def counted(model):
            checked.append(model)
            check(model)

        monkeypatch.setattr(Model, "check_invariants", counted)
        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 10)
        cs = random_instance(np.random.default_rng(86), 15, T=40)
        seen = []

        def falling(m):
            # the first snapshot scores best, so it is the one returned
            seen.append(m)
            return -len(seen)

        val = dict(val_fn=falling, eval_every=5, patience=100) if snapshot else {}
        model, history = train(cs, SolverConfig(lam=2.0, max_iters=35, gap_tol=0.0, **val))
        assert len(history) == 35
        if snapshot:
            assert model is seen[0]
        # the placeholder Model(...), the recomputes at k = 10, 20 and 30, and
        # the returned model; no step checks its own
        assert len(checked) == 5 and checked[-1] is model
        assert len({id(m) for m in checked[:4]}) == 4

    def test_drift_over_bound_raises(self, monkeypatch):
        import hdsl.solver as solver_mod

        exact_update = solver_mod.update_cache_sparse

        def skewed_update(cache, *args):
            exact_update(cache, *args)
            cache.margins += 1e-3

        monkeypatch.setattr(solver_mod, "update_cache_sparse", skewed_update)
        # recompute early: skewed margins soon give a negative gap, which stops the run
        monkeypatch.setattr(solver_mod, "RECOMPUTE_EVERY", 2)
        rng = np.random.default_rng(86)
        cs = random_instance(rng, 15, T=40)
        with pytest.raises(RuntimeError, match="drift"):
            train(cs, SolverConfig(lam=2.0, max_iters=35, gap_tol=0.0))

    def test_validation_early_stopping(self):
        rng = np.random.default_rng(83)
        cs = random_instance(rng, 15, T=40)
        calls = []

        def val_fn(model):
            calls.append(model.n_atoms)
            return -len(calls)  # strictly decreasing: never improves after first

        model, history = train(
            cs,
            SolverConfig(
                lam=5.0, max_iters=500, val_fn=val_fn, eval_every=5, patience=3
            ),
        )
        assert len(history) < 500  # stopped early
        assert model.n_atoms == calls[0]  # best snapshot was the first


    def test_validation_snapshots_stay_fixed(self):
        # later steps append and drop atoms; no step writes into the arrays
        # of a model it handed out
        rng = np.random.default_rng(84)
        cs = random_instance(rng, 15, T=40)
        seen = []

        def val_fn(model):
            seen.append((model, model.bases.copy(), model.alpha.copy()))
            return 0.0

        _, history = train(cs, SolverConfig(lam=5.0, max_iters=200, gap_tol=0.0, val_fn=val_fn,
                                            eval_every=2, patience=10**6))
        atoms = [row["atoms"] for row in history]
        steps = list(zip(atoms, atoms[1:]))
        assert any(b > a for a, b in steps) and any(b < a for a, b in steps)
        for model, bases, alpha in seen:
            np.testing.assert_array_equal(model.bases, bases)
            np.testing.assert_array_equal(model.alpha, alpha)

    def test_state_model_is_read_only(self):
        rng = np.random.default_rng(85)
        cs = random_instance(rng, 8, T=12)
        state = solver_state(cs, random_model(rng, 8, 3, lam=1.0))
        with pytest.raises(ValueError):
            state.model.alpha[0] = 0.5


class TestViewsOnFirstRead:
    """XD is built by its first reader, the heuristic oracle: an exact or a
    mini-batch solve never builds it, and a heuristic solve builds it once,
    one _xd_band call per TRIPLET_BAND band. A set pickles before and after."""

    @staticmethod
    def instance(seed):
        return random_instance(np.random.default_rng(seed), 30, T=200, n_points=40)

    @pytest.mark.parametrize("oracle", ["exact", "minibatch"])
    def test_exact_and_minibatch_never_build_xd(self, oracle):
        cs = self.instance(460)
        _, history = train(cs, SolverConfig(lam=5.0, max_iters=20, oracle=oracle, batch_size=50))
        assert len(history) > 1
        assert "XD" not in vars(cs)

    def test_heuristic_builds_xd_once(self, monkeypatch):
        monkeypatch.setattr(objective_mod, "TRIPLET_BAND", 64)
        cs = self.instance(461)
        calls, real = [], ConstraintSet._xd_band

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(ConstraintSet, "_xd_band", counting)
        cfg = SolverConfig(lam=5.0, max_iters=20, oracle="heuristic", batch_size=50)
        assert "XD" not in vars(cs)
        _, history = train(cs, cfg)
        assert len(history) > 1
        assert calls == objective_mod._bands(len(cs), 64) and len(calls) == 4
        XD = cs.XD
        train(cs, cfg)
        assert len(calls) == 4 and cs.XD is XD

    def test_pickles_before_and_after_xd(self):
        cs = self.instance(462)
        g = np.random.default_rng(463).uniform(-1.0, 0.0, size=len(cs))
        before = pickle.loads(pickle.dumps(cs))
        assert "XD" not in vars(before)
        XD = cs.XD
        after = pickle.loads(pickle.dumps(cs))
        assert "XD" in vars(after)
        cfg = SolverConfig(lam=5.0, max_iters=20, oracle="heuristic", batch_size=50, seed=3)
        want = serialize(train(cs, cfg)[0])
        for copy in (before, after):
            assert_same_csr(copy.XD, XD)
            np.testing.assert_array_equal(copy.pair_statistic(g), cs.pair_statistic(g))
            assert serialize(train(copy, cfg)[0]) == want


class TestBounds:
    def test_lipschitz_worked_example(self):
        ds = Dataset([sv([(0, 1.0), (1, 1.0)], 2), sv([(0, 1.0)], 2), sv([(1, 1.0)], 2)])
        cs = ConstraintSet(ds, np.array([[0, 1, 2]]))
        # x = (1,1), d = (1,-1): ||x||^2 * ||d||^2 = 2 * 2 = 4
        assert lipschitz_constant(cs) == pytest.approx(4.0)

    def test_lipschitz_matches_dense(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            cs = random_instance(rng, 12, T=15)
            X, D = dense_triplet_rows(cs)
            expected = np.mean(
                [np.sum(np.outer(X[t], D[t]) ** 2) for t in range(len(cs))]
            )
            assert lipschitz_constant(cs) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_lipschitz_matches_former_formula_bits(self, sparse, monkeypatch):
        # the former formula summed ||x_t||^2 and ||d_t||^2 over the triplet
        # view; the point view must give the same bits
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_CELL_LIMIT", 0)
        rng = np.random.default_rng(92)
        for dim in (5, 12, 40, 600):
            for nonneg in (True, False):
                ds = random_sparse_dataset(rng, 20, dim, max_nnz=max(2, dim // 3), nonneg=nonneg)
                cs = ConstraintSet(ds, random_triplets(rng, 20, 60))
                assert isinstance(cs.P, np.ndarray) == (not sparse and dim <= 512)
                assert lipschitz_constant(cs) == reference_lipschitz(cs)

    def test_lipschitz_empty_set_rejected(self):
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4)])
        with pytest.raises(ValueError, match="empty"):
            lipschitz_constant(ConstraintSet(ds, np.zeros((0, 3), dtype=np.int64)))

    def test_convergence_bound_values(self):
        assert convergence_bound(1.0, 4.0, 2) == pytest.approx(16.0)
        assert convergence_bound(2.0, 4.0, 2) == pytest.approx(4 * convergence_bound(1.0, 4.0, 2))
        ks = np.arange(1, 100)
        vals = [convergence_bound(1.0, 1.0, int(k)) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            convergence_bound(1.0, 1.0, 0)

    def test_excess_risk_bound(self):
        # middle term vanishes at k=1
        v1 = excess_risk_bound(1.0, 1.0, 1.0, k=1, n=300, delta=0.1)
        expected = 16.0 / 3 + 5 * 4 * np.sqrt(np.log(40.0) / 300)
        assert v1 == pytest.approx(expected, rel=1e-12)
        # decreasing in n
        v_small = excess_risk_bound(1.0, 1.0, 1.0, k=10, n=30, delta=0.1)
        v_large = excess_risk_bound(1.0, 1.0, 1.0, k=10, n=3000, delta=0.1)
        assert v_large < v_small
        with pytest.raises(ValueError):
            excess_risk_bound(1.0, 1.0, 1.0, k=10, n=2, delta=0.1)
        with pytest.raises(ValueError):
            excess_risk_bound(1.0, 1.0, 1.0, k=10, n=30, delta=1.5)
