"""Shared dense oracles and random-instance builders for the test suite.

Everything here recomputes quantities from explicit dense matrices, never
through the solver's sparse accumulators, so it can serve as an independent
check of those paths.
"""

import importlib
import math
import sys
import threading

import numpy as np
import scipy.sparse as sp

from hdsl.model import NEG, POS, BasisId, Model, to_csr_matrix
from hdsl.objective import ConstraintSet, MarginCache, smoothed_hinge_deriv, update_cache_sparse
from hdsl.solver import ATOM_DROP_TOL, SolverState
from hdsl.sparse_data import Dataset, SparseVector


# the module, not the `objective` function the package exports by that name
objective_mod = importlib.import_module("hdsl.objective")


def count_pools(monkeypatch):
    """The number of thread pools hdsl.objective makes from now on, as a
    one-item list."""
    made = [0]
    real = objective_mod.ThreadPoolExecutor

    def counting(*args, **kwargs):
        made[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(objective_mod, "ThreadPoolExecutor", counting)
    return made


def on_cpus(monkeypatch, n, fn, *args, **kwargs):
    """fn(*args, **kwargs) with usable_cpus() patched to n; asserts that no
    thread outlives the call. A short switch interval makes the workers
    interleave often, so that a block writing outside its own rows would
    show."""
    monkeypatch.setattr(objective_mod, "usable_cpus", lambda: n)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = fn(*args, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    return out


def assert_same_csr(got, want):
    """Equal shape and bit-equal data, indices and indptr, dtypes included."""
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def basis_inner(x: SparseVector, d: SparseVector, b: BasisId, lam: float) -> float:
    """<A, B> for A = x d^T, one basis at a time: lam*(x_i d_i + x_j d_j +
    s*(x_i d_j + x_j d_i)); the reference for ConstraintSet.pair_inners."""
    xi, xj = x.get(b.i), x.get(b.j)
    di, dj = d.get(b.i), d.get(b.j)
    return lam * (xi * di + xj * dj + b.sign * (xi * dj + xj * di))


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


def reference_line_search(cache: MarginCache, d) -> float:
    """The reference for line_search's gamma bits, evaluated the plain way:
    every evaluation, gamma = 0 included, builds l' from the margins, the
    quadratic mask and each row's piece (0 linear, 1 quadratic, 2 zero)
    afresh, where line_search reads l' at 0 from cache.derivs(), reuses one
    buffer and compares two masks."""
    gmax = d.gamma_max
    if gmax <= 0:
        return 0.0
    m = cache.margins
    b = np.zeros(m.size)
    b[d.inner_rows] = d.inner_vals
    u = b - m if d.kind == "F" else m - b
    u2 = u * u

    def deriv(gamma: float):
        ld = np.clip(m + gamma * u - 1.0, -1.0, 0.0)
        quad = (ld > -1.0) & (ld < 0.0)
        return float(ld @ u), float(u2 @ quad), quad + 2 * (ld == 0.0)

    dphi, curv, piece = deriv(0.0)
    if dphi >= 0.0:
        return 0.0
    if deriv(gmax)[0] <= 0.0:
        return gmax
    lo, hi, gamma = 0.0, gmax, 0.0
    while True:
        newton = gamma - dphi / curv if curv > 0.0 else hi
        nxt = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            return lo
        dphi_n, curv, piece_n = deriv(nxt)
        if dphi_n == 0.0 or (nxt == newton and np.array_equal(piece, piece_n)):
            return nxt
        if dphi_n < 0.0:
            lo = nxt
        else:
            hi = nxt
        gamma, dphi, piece = nxt, dphi_n, piece_n


def reference_partner_scores(cs: ConstraintSet, tri, g, count, lam, i, diag):
    """The partner scorer with a sign for every partner: row i of the batch
    pair matrix h = v^T P, scores lam * (diag[i] + diag - |h|) with
    scores[i] = inf, and signs Neg where h > 0, Pos elsewhere."""
    col = cs._feature_column(i)
    a, b, c = tri.T
    xi = g * col[a]
    di = g * (col[b] - col[c])
    v = np.bincount(
        np.concatenate((a, b, c)), weights=np.concatenate((di, xi, -xi)), minlength=col.size
    )
    nz = np.flatnonzero(v)
    h = cs.P[nz].T @ v[nz] / count
    scores = lam * (diag[i] + diag - np.abs(h))
    scores[i] = np.inf
    return scores, np.where(h > 0, NEG, POS)


def batch_diag(cs: ConstraintSet, g, active, count):
    """diag[f] = (1/count) * sum over the active triplets of g_t x_tf d_tf."""
    diag = np.zeros(cs.dim)
    if active.size:
        xd = cs.XD[active]
        w = np.repeat(g[active], np.diff(xd.indptr))
        diag = np.bincount(xd.indices, weights=xd.data * w, minlength=cs.dim) / count
    return diag


def reference_forward_heuristic(cs: ConstraintSet, cache: MarginCache, size, rng, lam):
    """forward_heuristic's (basis, score) through reference_partner_scores,
    drawing the batch and the start feature from rng in the same order."""
    g = cache.derivs()
    subset = np.sort(rng.choice(len(cs), size=size, replace=False))
    active = subset[g[subset] != 0.0]
    tri, g_active = cs.local[active], g[active]
    diag = batch_diag(cs, g, active, size)
    i0 = int(rng.integers(cs.dim))
    scores1, _ = reference_partner_scores(cs, tri, g_active, size, lam, i0, diag)
    j1 = int(np.argmin(scores1))
    scores2, signs2 = reference_partner_scores(cs, tri, g_active, size, lam, j1, diag)
    j2 = int(np.argmin(scores2))
    return BasisId(min(j1, j2), max(j1, j2), int(signs2[j2])), float(scores2[j2])


def reference_away_pick(cs: ConstraintSet, state: SolverState):
    """The away scan one atom at a time: each atom's <B, grad f> from its
    own pair_inners and one dot, then the argmax with ties to the smallest
    (i, j, Pos<Neg). Returns (atom index, scores)."""
    g, count = state.cache.derivs(), state.cache.count
    scores = []
    for i, j, sign in state.model.bases.tolist():
        rows, vals = cs.pair_inners(i, j, sign, state.model.lam)
        scores.append(float(g[rows] @ vals) / count if rows.size else 0.0)
    keys = [(-s, i, j, sign != POS) for s, (i, j, sign) in zip(scores, state.model.bases.tolist())]
    return keys.index(min(keys)), np.array(scores)


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


def reference_triplet_view(cs: ConstraintSet):
    """The triplet view as ConstraintSet once stored it, built with its
    former expressions: anchor rows X (T x d CSR), difference rows
    D = X_b - X_c with zeros dropped, and XD = X.multiply(D)."""
    arr, base = cs.triplets, cs.dataset.to_csr()
    X = base[arr[:, 0]].copy() if arr.size else sp.csr_matrix((0, cs.dim))
    D = (base[arr[:, 1]] - base[arr[:, 2]]).tocsr() if arr.size else sp.csr_matrix((0, cs.dim))
    D.eliminate_zeros()
    XD = X.multiply(D).tocsr()
    XD.eliminate_zeros()
    return X, D, XD


def reference_pair_statistic(cs: ConstraintSet, g, subset=None):
    """pair_statistic with W on its full pattern, explicit zeros kept: W
    (anchors x n_used) sums g_t at (a, b) and -g_t at (a, c), ab entries
    first, over the set or the subset's g_t != 0 triplets; then C = P_u^T
    (W P), densified when d*d <= DENSE_CELL_LIMIT, and C + C^T."""
    if subset is not None:
        subset = subset[g[subset] != 0.0]
    tri, g = (cs.local, g) if subset is None else (cs.local[subset], g[subset])
    n = cs.P.shape[0]
    u, row = np.unique(tri[:, 0], return_inverse=True)
    keys, slot = np.unique(np.concatenate((row * n + tri[:, 1], row * n + tri[:, 2])),
                           return_inverse=True)
    data = np.bincount(slot, weights=np.concatenate((g, -g)), minlength=keys.size)
    indptr = np.searchsorted(keys, np.arange(u.size + 1) * n)
    W = sp.csr_matrix((data, keys % n, indptr), shape=(u.size, n))
    assert W.nnz == keys.size  # the zeros stay
    Pu = cs.P[u]
    C = (Pu.T if isinstance(Pu, np.ndarray) else Pu.T.tocsr()) @ (W @ cs.P)
    if sp.issparse(C) and cs.dim * cs.dim <= cs.DENSE_CELL_LIMIT:
        C = C.toarray()
    return C + C.T


def reference_random_label_triplets(labels, per_instance, rng):
    """random_label_triplets' former loop, as a T x 3 array: for each anchor
    a, b drawn from a's class without a and c from every other class, both
    by rng.choice; anchors alone in their class are skipped."""
    by_label = {int(l): np.flatnonzero(labels == l) for l in np.unique(labels)}
    triplets = [np.zeros((0, 3), dtype=np.int64)]
    for a in range(labels.size):
        same = by_label[int(labels[a])]
        same = same[same != a]
        other = np.flatnonzero(labels != labels[a])
        if same.size == 0 or other.size == 0:
            continue
        bs = rng.choice(same, size=per_instance, replace=True)
        cs_ = rng.choice(other, size=per_instance, replace=True)
        triplets.append(np.column_stack((np.full(per_instance, a), bs, cs_)))
    return np.concatenate(triplets)


def reference_lipschitz(cs: ConstraintSet) -> float:
    """The former ConstraintSet.lipschitz_constant: (1/T) * sum_t ||x_t||^2
    ||d_t||^2 as row sums over the triplet view."""
    X, D, _ = reference_triplet_view(cs)
    xn = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    dn = np.asarray(D.multiply(D).sum(axis=1)).ravel()
    return float(np.mean(xn * dn))


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


def reference_forward_exact_dense(acc, lam):
    """forward_exact's pick on a dense H as one full-matrix pass: score all
    d x d pairs, mask the diagonal, take the row-major argmin. Returns
    (i, j, sign, score)."""
    c, H = acc.diag, acc.H
    scores = np.add.outer(c, c)
    scores -= np.abs(H)
    scores *= lam
    np.fill_diagonal(scores, np.inf)
    i, j = divmod(int(np.argmin(scores)), c.size)
    return i, j, NEG if H[i, j] > 0 else POS, scores[i, j]


def _ranked(scores, a):
    """Every point but a, most similar first, ties to the lower index."""
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[order != a]


def reference_neighbors_triplets(ds, n_targets=3, n_impostors=5):
    """Per-anchor neighbors_triplets: one X x_a product and one full sort per
    point."""
    X = ds.to_csr()
    labels = ds.labels
    triplets = []
    for a in range(len(ds)):
        scores = np.asarray((X @ X[a].T).todense()).ravel()
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
