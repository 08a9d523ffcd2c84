"""Shared dense oracles and random-instance builders for the test suite.

Everything here recomputes quantities from explicit dense matrices, never
through the solver's sparse accumulators, so it can serve as an independent
check of those paths.
"""

import numpy as np

from hdsl.model import NEG, POS, BasisId, Model
from hdsl.objective import ConstraintSet, smoothed_hinge_deriv
from hdsl.sparse_data import Dataset, SparseVector


def random_sparse_dataset(rng, n, dim, max_nnz=None, nonneg=True):
    max_nnz = min(max_nnz or dim, dim)
    pts = []
    for _ in range(n):
        nnz = int(rng.integers(1, max_nnz + 1))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        vals = rng.uniform(0.1, 1.0, size=nnz) if nonneg else rng.normal(size=nnz)
        vals[vals == 0] = 0.5
        pts.append(SparseVector(idx, vals, dim))
    return Dataset(pts, dim=dim)


def random_triplets(rng, n_points, T):
    trips = np.empty((T, 3), dtype=np.int64)
    trips[:, 0] = rng.integers(0, n_points, size=T)
    trips[:, 1] = rng.integers(0, n_points, size=T)
    trips[:, 2] = (trips[:, 1] + 1 + rng.integers(0, n_points - 1, size=T)) % n_points
    return trips


def random_instance(rng, dim, T, n_points=None):
    n_points = n_points or max(4, dim // 2)
    ds = random_sparse_dataset(rng, n_points, dim, max_nnz=max(2, dim // 4))
    return ConstraintSet(ds, random_triplets(rng, n_points, T))


def random_model(rng, dim, n_atoms, lam):
    atoms = {}
    while len(atoms) < n_atoms:
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        atoms[BasisId(int(i), int(j), POS if rng.random() < 0.5 else NEG)] = rng.random() + 0.05
    total = sum(atoms.values())
    return Model(lam, dim, {b: a / total for b, a in atoms.items()})


def dense_model_matrix(m: Model) -> np.ndarray:
    out = np.zeros((m.dim, m.dim))
    for b, a in m.atoms.items():
        e = np.zeros(m.dim)
        e[b.i] = 1.0
        e[b.j] = b.sign
        out += a * m.lam * np.outer(e, e)
    return out


def reference_entries(m: Model):
    """M's coordinate list from a dict accumulator: each atom adds w = alpha*lam
    at (i, i), (j, j) and s*w at (i, j), (j, i) in atom order; exact zeros
    are dropped and the list is row-major."""
    acc = {}
    for b, a in m.atoms.items():
        w = a * m.lam
        for r, c, v in ((b.i, b.i, w), (b.j, b.j, w), (b.i, b.j, b.sign * w), (b.j, b.i, b.sign * w)):
            acc[(r, c)] = acc.get((r, c), 0.0) + v
    return [(r, c, v) for (r, c), v in sorted(acc.items()) if v != 0.0]


def dense_margins(cs: ConstraintSet, m: Model) -> np.ndarray:
    M = dense_model_matrix(m)
    X = cs.X.toarray()
    D = cs.D.toarray()
    return np.einsum("ti,ij,tj->t", X, M, D)


def dense_gradient(cs: ConstraintSet, margins: np.ndarray, subset=None) -> np.ndarray:
    """grad f = (1/T) sum_t l'(m_t) x_t d_t^T as an explicit dense matrix,
    or the same mean over the constraints in `subset`."""
    rows = np.arange(len(cs)) if subset is None else np.asarray(subset)
    g = smoothed_hinge_deriv(margins)[rows]
    X = cs.X.toarray()[rows]
    D = cs.D.toarray()[rows]
    return (X * g[:, None]).T @ D / rows.size


def basis_score(grad: np.ndarray, b: BasisId, lam: float) -> float:
    return lam * (
        grad[b.i, b.i] + grad[b.j, b.j] + b.sign * (grad[b.i, b.j] + grad[b.j, b.i])
    )


def brute_force_forward(grad: np.ndarray, lam: float):
    """Enumerate all 2*C(d,2) bases; lexicographic (i, j, Pos<Neg) tie-break."""
    d = grad.shape[0]
    best_key = None
    best_basis = None
    for i in range(d):
        for j in range(i + 1, d):
            for sign in (POS, NEG):
                score = basis_score(grad, BasisId(i, j, sign), lam)
                key = (score, i, j, 0 if sign == POS else 1)
                if best_key is None or key < best_key:
                    best_key = key
                    best_basis = BasisId(i, j, sign)
    return best_basis, best_key[0]
