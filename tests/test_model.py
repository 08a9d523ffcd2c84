import numpy as np
import pytest

from hdsl.model import (
    NEG,
    POS,
    BasisId,
    Model,
    basis_inner,
    basis_sort_key,
    deserialize,
    factorize,
    make_basis,
    project,
    project_dataset,
    serialize,
    similarity,
    to_csr_matrix,
    to_sparse_matrix,
)
from hdsl.sparse_data import Dataset, SparseVector

from util import reference_entries


def sv(pairs, dim):
    if not pairs:
        return SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0), dim)
    idx, val = zip(*pairs)
    return SparseVector(np.array(idx), np.array(val), dim)


def dense_basis(b: BasisId, lam: float, dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[b.i] = 1.0
    e[b.j] = b.sign
    return lam * np.outer(e, e)


def dense_model(m: Model) -> np.ndarray:
    out = np.zeros((m.dim, m.dim))
    for b, a in m.atoms.items():
        out += a * dense_basis(b, m.lam, m.dim)
    return out


def random_model(rng, dim, n_atoms, lam=None):
    lam = lam if lam is not None else float(rng.uniform(0.5, 5.0))
    atoms = {}
    while len(atoms) < n_atoms:
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        atoms[BasisId(int(i), int(j), POS if rng.random() < 0.5 else NEG)] = rng.random() + 0.05
    total = sum(atoms.values())
    return Model(lam, dim, {b: a / total for b, a in atoms.items()})


def random_vec(rng, d, max_nnz=None):
    hi = d if max_nnz is None else min(max_nnz, d)
    nnz = int(rng.integers(0, hi + 1))
    idx = np.sort(rng.choice(d, size=nnz, replace=False))
    vals = rng.normal(size=nnz)
    vals[vals == 0] = 1.0
    return SparseVector(idx, vals, d)


class TestBasisId:
    def test_canonicalization(self):
        assert make_basis(3, 1, POS) == BasisId(1, 3, POS)
        with pytest.raises(ValueError):
            make_basis(2, 2, POS)
        with pytest.raises(ValueError):
            make_basis(0, 1, 3)

    def test_sort_key_pos_before_neg(self):
        assert basis_sort_key(BasisId(0, 1, POS)) < basis_sort_key(BasisId(0, 1, NEG))
        assert basis_sort_key(BasisId(0, 1, NEG)) < basis_sort_key(BasisId(0, 2, POS))


class TestModelInvariants:
    def test_weight_sum_checked(self):
        with pytest.raises(ValueError):
            Model(1.0, 4, {BasisId(0, 1, POS): 0.5})
        with pytest.raises(ValueError):
            Model(1.0, 4, {BasisId(0, 1, POS): 1.5, BasisId(0, 2, POS): -0.5})

    def test_needs_atoms_and_positive_lambda(self):
        with pytest.raises(ValueError):
            Model(1.0, 4, {})
        with pytest.raises(ValueError):
            Model(-1.0, 4, {BasisId(0, 1, POS): 1.0})

    def test_psd_by_construction(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 12, 6)
        for _ in range(1000):
            x = random_vec(rng, 12)
            assert similarity(m, x, x) >= -1e-10


class TestBasisInner:
    def test_worked_example(self):
        x = sv([(0, 1.0)], 3)
        d = sv([(1, 1.0), (2, -1.0)], 3)
        assert basis_inner(x, d, BasisId(0, 1, POS), 2.0) == pytest.approx(2.0)
        assert basis_inner(x, d, BasisId(0, 1, NEG), 2.0) == pytest.approx(-2.0)

    def test_zero_anchor(self):
        x = sv([], 3)
        d = sv([(1, 1.0)], 3)
        assert basis_inner(x, d, BasisId(0, 1, POS), 5.0) == 0.0

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(4, 30))
            x, dv = random_vec(rng, d), random_vec(rng, d)
            i, j = sorted(rng.choice(d, size=2, replace=False))
            b = BasisId(int(i), int(j), POS if rng.random() < 0.5 else NEG)
            lam = float(rng.uniform(0.1, 10))
            A = np.outer(x.to_dense(), dv.to_dense())
            expected = float(np.sum(A * dense_basis(b, lam, d)))
            assert basis_inner(x, dv, b, lam) == pytest.approx(expected, abs=1e-12)


class TestSimilarity:
    def test_single_atom_examples(self):
        m = Model(1.0, 2, {BasisId(0, 1, POS): 1.0})
        e0, e1 = sv([(0, 1.0)], 2), sv([(1, 1.0)], 2)
        assert similarity(m, e0, e1) == pytest.approx(1.0)
        assert similarity(m, e0, e0) == pytest.approx(1.0)
        assert similarity(m, sv([], 2), e1) == 0.0

    def test_paths_agree_and_match_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            dim = int(rng.integers(4, 25))
            m = random_model(rng, dim, int(rng.integers(1, 8)))
            x, y = random_vec(rng, dim), random_vec(rng, dim)
            expected = float(x.to_dense() @ dense_model(m) @ y.to_dense())
            got = similarity(m, x, y)
            assert got == pytest.approx(expected, abs=1e-10)
            # force the other evaluation path by comparing to the matrix product
            mat = to_csr_matrix(m)
            via_matrix = float(x.to_dense() @ mat.toarray() @ y.to_dense())
            assert got == pytest.approx(via_matrix, abs=1e-12)

    def test_dim_mismatch(self):
        m = Model(1.0, 4, {BasisId(0, 1, POS): 1.0})
        with pytest.raises(ValueError):
            similarity(m, sv([(0, 1.0)], 4), sv([(0, 1.0)], 5))


class TestToSparseMatrix:
    def test_single_pos_atom(self):
        m = Model(3.0, 2, {BasisId(0, 1, POS): 1.0})
        assert set(to_sparse_matrix(m)) == {(0, 0, 3.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 3.0)}

    def test_offdiagonal_cancellation(self):
        m = Model(2.0, 2, {BasisId(0, 1, POS): 0.5, BasisId(0, 1, NEG): 0.5})
        assert set(to_sparse_matrix(m)) == {(0, 0, 2.0), (1, 1, 2.0)}

    def test_single_neg_atom(self):
        m = Model(1.0, 6, {BasisId(2, 5, NEG): 1.0})
        assert set(to_sparse_matrix(m)) == {(2, 2, 1.0), (2, 5, -1.0), (5, 2, -1.0), (5, 5, 1.0)}

    def test_nnz_and_feature_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = random_model(rng, 20, int(rng.integers(1, 10)))
            entries = to_sparse_matrix(m)
            assert len(entries) <= 4 * m.n_atoms
            feats = {r for r, _, _ in entries} | {c for _, c, _ in entries}
            assert len(feats) <= 2 * m.n_atoms
            dense = dense_model(m)
            recon = np.zeros_like(dense)
            for r, c, v in entries:
                recon[r, c] = v
            np.testing.assert_allclose(recon, dense, atol=1e-12)


class TestToCsrMatrix:
    """to_csr_matrix against the dict accumulator in tests/util.py, bit for bit."""

    @staticmethod
    def assert_matches_reference(m):
        ref = reference_entries(m)
        rows = np.array([r for r, _, _ in ref], dtype=np.int64)
        mat = to_csr_matrix(m)
        assert mat.shape == (m.dim, m.dim)
        np.testing.assert_array_equal(mat.indptr, np.searchsorted(rows, np.arange(m.dim + 1)))
        np.testing.assert_array_equal(mat.indices, [c for _, c, _ in ref])
        assert mat.data.tobytes() == np.array([v for _, _, v in ref]).tobytes()
        assert to_sparse_matrix(m) == ref

    def test_random_models_with_cancelling_pairs(self):
        rng = np.random.default_rng(51)
        for trial in range(40):
            dim = int(rng.integers(2, 30))
            atoms = {}
            for _ in range(int(rng.integers(1, 12))):
                i, j = sorted(rng.choice(dim, size=2, replace=False).tolist())
                sign = POS if rng.random() < 0.5 else NEG
                atoms[BasisId(i, j, sign)] = rng.uniform(0.05, 1.0)
                if trial % 2 == 0:
                    # the opposite sign with an equal weight cancels (i, j) exactly
                    atoms[BasisId(i, j, -sign)] = atoms[BasisId(i, j, sign)]
            total = sum(atoms.values())
            m = Model(float(rng.uniform(0.1, 50)), dim, {b: a / total for b, a in atoms.items()})
            self.assert_matches_reference(m)
        m = Model(2.0, 2, {BasisId(0, 1, POS): 0.5, BasisId(0, 1, NEG): 0.5})
        assert to_csr_matrix(m).nnz == 2
        self.assert_matches_reference(m)

    def test_many_atoms_sharing_a_feature(self):
        # (0, 0) sums 12 terms, so the summation order shows in the last bits
        rng = np.random.default_rng(52)
        for _ in range(10):
            atoms = {BasisId(0, j, POS if rng.random() < 0.5 else NEG): rng.uniform(0.01, 1.0)
                     for j in rng.permutation(np.arange(1, 13)).tolist()}
            total = sum(atoms.values())
            self.assert_matches_reference(Model(7.3, 16, {b: a / total for b, a in atoms.items()}))

    def test_single_atom(self):
        self.assert_matches_reference(Model(0.7, 9, {BasisId(3, 7, NEG): 1.0}))
        self.assert_matches_reference(Model(3.0, 2, {BasisId(0, 1, POS): 1.0}))


class TestSimilarityOnePath:
    def test_exactly_symmetric_on_mixed_sign_models(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            dim = int(rng.integers(4, 30))
            m = random_model(rng, dim, int(rng.integers(1, min(40, dim * (dim - 1)) + 1)))
            x, y = random_vec(rng, dim, max_nnz=6), random_vec(rng, dim, max_nnz=6)
            assert similarity(m, x, y) == similarity(m, y, x)

    @pytest.mark.parametrize("n_atoms", [2, 60])
    def test_matches_dense_product(self, n_atoms):
        # K below and above nnz(x) * nnz(y)
        rng = np.random.default_rng(54 + n_atoms)
        for _ in range(40):
            m = random_model(rng, 20, n_atoms)
            x, y = random_vec(rng, 20, max_nnz=7), random_vec(rng, 20, max_nnz=7)
            expected = float(x.to_dense() @ dense_model(m) @ y.to_dense())
            assert abs(similarity(m, x, y) - expected) <= 1e-12

    def test_empty_vectors(self):
        m = random_model(np.random.default_rng(55), 10, 5)
        x = sv([(2, 1.5), (7, -0.5)], 10)
        assert similarity(m, sv([], 10), x) == 0.0
        assert similarity(m, x, sv([], 10)) == 0.0
        assert similarity(m, sv([], 10), sv([], 10)) == 0.0

    def test_project_equals_project_dataset_row(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            dim = int(rng.integers(5, 25))
            m = random_model(rng, dim, int(rng.integers(1, 15)))
            p = factorize(m)
            pts = [random_vec(rng, dim) for _ in range(8)]
            batch = project_dataset(p, Dataset(pts, dim=dim).to_csr())
            for r, x in enumerate(pts):
                assert project(p, x).tobytes() == batch[r].tobytes()


class TestFactorization:
    def test_pos_atom_example(self):
        m = Model(4.0, 2, {BasisId(0, 1, POS): 1.0})
        p = factorize(m)
        assert p.n_columns == 1
        assert p.coeff[0] == pytest.approx(2.0)
        ll = np.zeros((2, 2))
        col = np.zeros(2)
        col[p.i[0]] = p.coeff[0]
        col[p.j[0]] = p.sign[0] * p.coeff[0]
        ll += np.outer(col, col)
        np.testing.assert_allclose(ll, [[4, 4], [4, 4]])

    def test_neg_atom_example(self):
        m = Model(4.0, 2, {BasisId(0, 1, NEG): 0.25, BasisId(0, 1, POS): 0.75})
        p = factorize(m)
        assert p.n_columns == 2

    def test_one_column_per_atom(self):
        rng = np.random.default_rng(23)
        m = random_model(rng, 15, 7)
        assert factorize(m).n_columns == 7

    def test_llt_reconstructs_model(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_model(rng, 12, int(rng.integers(1, 8)))
            p = factorize(m)
            L = np.zeros((m.dim, p.n_columns))
            for k in range(p.n_columns):
                L[p.i[k], k] = p.coeff[k]
                L[p.j[k], k] += p.sign[k] * p.coeff[k]
            np.testing.assert_allclose(L @ L.T, dense_model(m), atol=1e-10)

    def test_projection_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            dim = int(rng.integers(4, 20))
            m = random_model(rng, dim, int(rng.integers(1, 8)))
            p = factorize(m)
            x, y = random_vec(rng, dim), random_vec(rng, dim)
            lhs = float(project(p, x) @ project(p, y))
            assert lhs == pytest.approx(similarity(m, x, y), abs=1e-10)

    def test_projection_edge_cases(self):
        m2 = Model(1.0, 2, {BasisId(0, 1, NEG): 1.0})
        p2 = factorize(m2)
        both = sv([(0, 1.0), (1, 1.0)], 2)
        np.testing.assert_allclose(project(p2, both), [0.0])
        np.testing.assert_allclose(project(p2, sv([], 2)), [0.0])

    def test_project_dataset_matches_pointwise(self):
        rng = np.random.default_rng(41)
        m = random_model(rng, 10, 4)
        pts = [random_vec(rng, 10) for _ in range(6)]
        ds = Dataset(pts, dim=10)
        p = factorize(m)
        batch = project_dataset(p, ds.to_csr())
        for r, x in enumerate(pts):
            np.testing.assert_allclose(batch[r], project(p, x), atol=1e-12)


class TestSerialization:
    def test_single_atom_is_three_lines(self):
        m = Model(2.0, 5, {BasisId(1, 3, NEG): 1.0})
        text = serialize(m)
        assert text.splitlines() == ["hdsl-model 1", "lambda 2 dim 5", "N 1 3 1"]

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = random_model(rng, 30, int(rng.integers(1, 12)))
            assert deserialize(serialize(m)) == m

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            deserialize("hdsl-model 1\nlambda 1 dim 4\nP 0 1 0.5\n")

    def test_version_mismatch(self):
        with pytest.raises(ValueError):
            deserialize("hdsl-model 2\nlambda 1 dim 4\nP 0 1 1\n")

    @pytest.mark.parametrize("text", [
        "hdsl-model 1\nlambda nan dim 4\nP 0 1 1\n",
        "hdsl-model 1\nlambda inf dim 4\nP 0 1 1\n",
        "hdsl-model 1\nlambda 1 dim 4\nP 0 1 nan\n",
        "hdsl-model 1\nlambda 1 dim 4\nP 0 1 0.5\nN 1 2 nan\n",
    ])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ValueError):
            deserialize(text)

    @pytest.mark.parametrize("atom", ["P 0 5 1", "P 0 99999999999999999999999 1", "P -99999999999999999999999 1 1"])
    def test_out_of_range_index_rejected(self, atom):
        with pytest.raises(ValueError, match="out of range"):
            deserialize(f"hdsl-model 1\nlambda 1 dim 4\n{atom}\n")

    def test_duplicate_atom_rejected(self):
        with pytest.raises(ValueError):
            deserialize("hdsl-model 1\nlambda 1 dim 4\nP 0 1 0.5\nP 0 1 0.5\n")
