import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from hdsl.model import NEG, POS, BasisId, Model
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
    line_search,
    lipschitz_constant,
    train,
    _partner_scores,
)
from hdsl.sparse_data import Dataset, SparseVector

from util import (
    basis_score,
    brute_force_forward,
    dense_gradient,
    dense_triplet_rows,
    random_instance,
    random_model,
    random_sparse_dataset,
    random_triplets,
    reference_apply_step,
    solver_state,
)


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
                    assert isinstance(acc.H, np.ndarray) == (limit is None)
                    H = acc.H if limit is None else acc.H.toarray()
                    G = dense_gradient(cs, cache.margins, subset)
                    np.testing.assert_allclose(H, G + G.T, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(acc.diag, np.diag(G), rtol=0, atol=1e-12)
                    assert acc.count == (T if subset is None else subset.size)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_exactly_symmetric(self, sparse, monkeypatch):
        if sparse:
            monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
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
            monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
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
        monkeypatch.setattr(ConstraintSet, "DENSE_DIM_LIMIT", 0)
        rng = np.random.default_rng(15)
        cs = self.edge_instance(rng, 10)
        first = MarginCache(rng.uniform(-0.5, 1.5, size=len(cs)))
        acc = gradient_accumulate(cs, first)
        before = acc.H.toarray()
        gradient_accumulate(cs, MarginCache(rng.uniform(-0.5, 1.5, size=len(cs))))
        np.testing.assert_array_equal(acc.H.toarray(), before)

    def test_empty_subset_rejected(self):
        rng = np.random.default_rng(16)
        cs = self.edge_instance(rng, 6)
        with pytest.raises(ValueError):
            gradient_accumulate(cs, MarginCache(np.zeros(len(cs))), np.zeros(0, dtype=np.int64))


class TestForwardExact:
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
                scores, signs = _partner_scores(
                    cs, cs.local[active], g[active], batch.size, lam, i, diag
                )
                want = lam * (diag[i] + diag - np.abs(H[i]))
                want[i] = np.inf
                np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
                clear = np.abs(H[i]) > 1e-12
                np.testing.assert_array_equal(signs[clear], np.where(H[i] > 0, NEG, POS)[clear])
                if not any_active:
                    assert np.all(signs == POS)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(35)
        cs = random_instance(rng, 20, T=50)
        cache = init_cache(cs, random_model(rng, 20, 2, lam=1.0))
        d1 = forward_heuristic(cs, cache, 20, np.random.default_rng(9), 1.0, 20)
        d2 = forward_heuristic(cs, cache, 20, np.random.default_rng(9), 1.0, 20)
        assert d1.basis == d2.basis and d1.score == d2.score


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
        rows, vals = cs.pair_inners(basis.i, basis.j, basis.sign, state.lam)
        return Direction("F", basis, 1.0, 0.0, rows, vals)

    def test_full_forward_collapses(self):
        rng = np.random.default_rng(61)
        cs, state = self.make_state(rng)
        d = self.fwd_direction(cs, state, BasisId(0, 1, NEG))
        apply_step(state, d, 1.0)
        assert state.model.atoms == {BasisId(0, 1, NEG): 1.0}
        assert state.n_features == 2

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
        rows, vals = cs.pair_inners(*target, state.lam)
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
                rows, vals = cs.pair_inners(*target, state.lam)
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
        for h in hist:
            assert h["gap"] >= h["objective"] - f_star - 1e-8


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

    def test_empty_constraints_rejected(self):
        ds = Dataset([sv([(0, 1.0)], 4), sv([(1, 1.0)], 4)])
        cs = ConstraintSet(ds, np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            train(cs, SolverConfig(lam=1.0))

    def test_exact_oracle_on_large_dimension_sparse_path(self):
        # d above the dense-views threshold exercises the sparse scan in train
        rng = np.random.default_rng(84)
        cs = random_instance(rng, 600, T=50, n_points=30)
        assert sp.issparse(gradient_accumulate(cs, MarginCache(np.zeros(len(cs)))).H)
        model, history = train(cs, SolverConfig(lam=5.0, max_iters=40))
        objs = [h["objective"] for h in history]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
        for h in history:
            assert h["atoms"] <= h["k"] + 1
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
