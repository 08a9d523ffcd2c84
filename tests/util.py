"""Shared dense oracles and random-instance builders for the test suite.

Everything here recomputes quantities from explicit dense matrices, never
through the solver's sparse accumulators, so it can serve as an independent
check of those paths.
"""

import math

import numpy as np

from hdsl.model import NEG, POS, BasisId, Model, to_csr_matrix
from hdsl.objective import ConstraintSet, MarginCache, smoothed_hinge_deriv, update_cache_sparse
from hdsl.solver import ATOM_DROP_TOL, SolverState
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


def solver_state(cs: ConstraintSet, m: Model, margins=None) -> SolverState:
    """SolverState.from_model, with the cache's margins replaced if given."""
    state = SolverState.from_model(cs, m)
    if margins is not None:
        state.cache = MarginCache(margins)
    return state


def reference_apply_step(atoms: dict, cache: MarginCache, d, gamma: float) -> None:
    """apply_step on a {basis: weight} dict, one atom at a time: scale, add
    or insert the basis, delete weights at or below ATOM_DROP_TOL, divide by
    the in-order sum when it is not exactly 1, then advance the margins."""
    scale = 1.0 - gamma if d.kind == "F" else 1.0 + gamma
    for b in atoms:
        atoms[b] *= scale
    if d.kind == "F":
        atoms[d.basis] = atoms.get(d.basis, 0.0) + gamma
    else:
        atoms[d.basis] -= gamma
    for b in [b for b, a in atoms.items() if a <= ATOM_DROP_TOL]:
        del atoms[b]
    total = sum(atoms.values())
    if total != 1.0:
        for b in atoms:
            atoms[b] /= total
    update_cache_sparse(cache, d.kind, gamma, d.inner_rows, d.inner_vals)


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


def dense_triplet_rows(cs: ConstraintSet):
    """Anchor rows x_t and difference rows d_t = x_b - x_c as dense T x d
    arrays, built from the dataset and the triplet indices."""
    points = cs.dataset.to_csr().toarray()
    a, b, c = cs.triplets.T
    return points[a], points[b] - points[c]


def dense_margins(cs: ConstraintSet, m: Model) -> np.ndarray:
    M = dense_model_matrix(m)
    X, D = dense_triplet_rows(cs)
    return np.einsum("ti,ij,tj->t", X, M, D)


def dense_gradient(cs: ConstraintSet, margins: np.ndarray, subset=None) -> np.ndarray:
    """grad f = (1/T) sum_t l'(m_t) x_t d_t^T as an explicit dense matrix,
    or the same mean over the constraints in `subset`."""
    rows = np.arange(len(cs)) if subset is None else np.asarray(subset)
    g = smoothed_hinge_deriv(margins)[rows]
    X, D = dense_triplet_rows(cs)
    return (X[rows] * g[:, None]).T @ D[rows] / rows.size


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


def _ranked(scores, a):
    """Every point but a, most similar first, ties to the lower index."""
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[order != a]


def reference_neighbors_triplets(ds, n_targets=3, n_impostors=5, sim=None):
    """Per-anchor neighbors_triplets: one X x_a product (or n sim calls) and
    one full sort per point."""
    X = ds.to_csr()
    labels = ds.labels
    triplets = []
    for a in range(len(ds)):
        if sim is None:
            scores = np.asarray((X @ X[a].T).todense()).ravel()
        else:
            scores = np.array([sim(ds[a], ds[t]) for t in range(len(ds))])
        order = _ranked(scores, a)
        same = order[labels[order] == labels[a]][:n_targets]
        impostors = order[labels[order] != labels[a]][:n_impostors]
        if same.size == n_targets and impostors.size == n_impostors:
            triplets.extend((a, int(b), int(c)) for b in same for c in impostors)
    return np.array(triplets, dtype=np.int64).reshape(-1, 3)


def reference_truth_triplets(samples, truth, alpha, count, rng):
    """Per-anchor truth_triplets: a stored (top, bottom) pool pair per unique
    anchor, then one rng.choice from each pool per triplet."""
    n = len(samples)
    t_size = math.ceil(alpha * (n - 1))
    X = samples.to_csr()
    XM = (X @ to_csr_matrix(truth)).tocsr()
    XT = X.T.tocsr()
    anchors = rng.integers(0, n, size=count)
    pools = {}
    for a in np.unique(anchors):
        order = _ranked(np.asarray((XM[a] @ XT).todense()).ravel(), a)
        pools[int(a)] = (order[:t_size], order[-t_size:])
    triplets = np.empty((count, 3), dtype=np.int64)
    triplets[:, 0] = anchors
    for t, a in enumerate(anchors):
        top, bottom = pools[int(a)]
        triplets[t, 1] = rng.choice(top)
        triplets[t, 2] = rng.choice(bottom)
    return triplets


def reference_gen_links(samples, truth, n_links, top_frac, rng):
    """gen_links from the dense n x n similarity matrix, two sorts per row."""
    n = len(samples)
    t = math.ceil(top_frac * (n - 1))
    X = samples.to_csr()
    sims = np.asarray((X @ to_csr_matrix(truth) @ X.T).todense())
    pos_pairs, neg_pairs = set(), set()
    for a in range(n):
        for table, scores in ((pos_pairs, sims[a]), (neg_pairs, -sims[a])):
            for b in _ranked(scores, a)[:t]:
                table.add((min(a, int(b)), max(a, int(b))))
    conflicts = pos_pairs & neg_pairs
    pos_sorted, neg_sorted = sorted(pos_pairs - conflicts), sorted(neg_pairs - conflicts)
    n_pos = n_links // 2
    links = [(*pos_sorted[i], 1) for i in rng.choice(len(pos_sorted), size=n_pos, replace=False)]
    links += [
        (*neg_sorted[i], -1) for i in rng.choice(len(neg_sorted), size=n_links - n_pos, replace=False)
    ]
    return [links[i] for i in rng.permutation(len(links))]
