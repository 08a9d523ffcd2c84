"""Empirical objective: smoothed hinge over triplet margins.

The margin of constraint t is m_t = <A^t, M> with A^t = x_a (x_b - x_c)^T.
Margins are cached and updated incrementally across solver steps so that
objective and gradient queries cost O(T) independent of the dimension.
All reductions here are plain numpy sums, so results are deterministic
for a fixed input order.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .model import Model
from .sparse_data import Dataset

# rows (and columns) per tile of the dense d x d passes over the pair
# statistic: a 128 x 128 float64 tile is 128 KB, and a 128-row band of a
# d = 2,000 H is 2 MB
DENSE_TILE = 128
# triplets per band of the XD build: a band's x_a, x_b - x_c and product
# rows are its only transients
TRIPLET_BAND = 4096


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (Linux; so `taskset` and cpusets count), else
    os.cpu_count(), else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bands(n: int, size: int) -> list:
    """slice(lo, lo + size) for each band of range(n), in order; one empty
    band when n is 0."""
    return [slice(lo, lo + size) for lo in range(0, max(n, 1), size)]


def map_blocks(fn, blocks, workers: Optional[int] = None) -> list:
    """[fn(block) for block in blocks], in block order: the one thread pool
    of the library. With more than one block and more than one worker
    (usable_cpus() when workers is None) the blocks run on a
    ThreadPoolExecutor of that many workers, at most one per block, made
    here and joined before the call returns; numpy's sorts and scipy's
    sparse kernels release the GIL, so the blocks overlap. Otherwise they
    run serially in the calling thread. fn must write only to what its own
    block owns, so the results hold the same bits for any worker count."""
    blocks = list(blocks)
    workers = min(len(blocks), usable_cpus() if workers is None else workers)
    if workers <= 1:
        return [fn(block) for block in blocks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, blocks))


def smoothed_hinge(m):
    """Margin penalty: 0 for m >= 1, 0.5 - m for m <= 0, 0.5*(1-m)^2 between.

    Computed as c*(z - c/2) with z = 1 - m and c = clip(z, 0, 1), which
    matches the three branches exactly with a single clip.
    """
    z = 1.0 - np.asarray(m, dtype=np.float64)
    c = np.clip(z, 0.0, 1.0)
    out = c * (z - 0.5 * c)
    return float(out) if out.ndim == 0 else out


def smoothed_hinge_deriv(m):
    """Derivative of smoothed_hinge: 0 for m >= 1, -1 for m <= 0, m - 1 between."""
    arr = np.asarray(m, dtype=np.float64)
    out = np.clip(arr - 1.0, -1.0, 0.0)
    return float(out) if out.ndim == 0 else out


class ConstraintSet:
    """Triplet constraints over a dataset, stored once, as a point view.

    `local` (T x 3) indexes each triplet's a, b, c into the n_used points
    some triplet references; those points are the rows of `P`, with `PT` =
    P^T; pair_statistic, pair_inners and the heuristic's partner scores
    work from them. The constructor builds only this view, after rejecting
    non-finite point values. `XD` (T x d CSR), the rows x_a * (x_b - x_c)
    of _triplet_rows, is built by its one reader, the heuristic oracle,
    whose diagonal is XD's column sums over the active batch: at the first
    read, in bands of TRIPLET_BAND triplets on map_blocks' pool, joined in
    band order. Every row is computed on its own, so XD holds the same bits
    for any CPU count, and only one band's transients are alive per worker.

    Form rules: P is dense when d <= DENSE_DIM_LIMIT and n_used*d <=
    DENSE_CELL_LIMIT, and CSR otherwise; the pair statistic H is a dense
    d x d array when d*d <= DENSE_CELL_LIMIT, and CSR otherwise. The set
    holds no solver state: the exact oracle's running statistic lives on
    the MarginCache of the solve. A set may be shared across threads:
    pair_statistic builds, fills and multiplies W under a per-set lock,
    which is left out of the pickled state.
    """

    DENSE_DIM_LIMIT = 512
    DENSE_CELL_LIMIT = 5_000_000

    def __init__(self, dataset: Dataset, triplets: np.ndarray):
        arr = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
        n = len(dataset)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("triplet index out of range")
            if np.any(arr[:, 1] == arr[:, 2]):
                raise ValueError("triplets must have b != c")
        self.dataset = dataset
        self.triplets = arr
        self.dim = dataset.dim

        used, local = np.unique(arr.ravel(), return_inverse=True)
        # column-major, since pair_inners gathers over whole a, b, c columns
        self.local: np.ndarray = np.asfortranarray(local.reshape(-1, 3))
        self.P = dataset.to_csr()[used]
        if not np.isfinite(self.P.data).all():
            raise ValueError("point values must be finite")
        # P is dense when d and n_used*d are small, where a BLAS product beats
        # sparse bookkeeping by a wide margin, and CSR otherwise
        if self.dim <= self.DENSE_DIM_LIMIT and used.size * self.dim <= self.DENSE_CELL_LIMIT:
            self.P = self.P.toarray()
        self.PT = _transpose(self.P)
        self._lock = threading.Lock()

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_lock"}

    def __setstate__(self, state):
        self.__dict__.update(state, _lock=threading.Lock())

    def _triplet_rows(self, rows=slice(None), P=None):
        """Anchor rows x_a and difference rows x_b - x_c (CSR, no stored
        zeros) of the triplets `rows`, from P (default self.P) as CSR rows."""
        P = sp.csr_matrix(self.P) if P is None else P
        a, b, c = self.local[rows].T
        D = P[b] - P[c]
        D.eliminate_zeros()
        return P[a], D

    @functools.cached_property
    def XD(self) -> sp.csr_matrix:
        P = sp.csr_matrix(self.P)
        parts = map_blocks(lambda rows: self._xd_band(rows, P), _bands(len(self), TRIPLET_BAND))
        return sp.vstack(parts, format="csr")

    def _xd_band(self, rows, P):
        """The rows x_a * (x_b - x_c) of XD for the triplets `rows`, no
        stored zeros; every row is computed on its own."""
        X, D = self._triplet_rows(rows, P)
        XD = X.multiply(D)
        XD.eliminate_zeros()
        return XD

    _full_pattern = functools.cached_property(lambda self: self._anchor_pattern(self.local))

    # built on each access, only for perfbench/tracer.py's pair-product counter
    X = property(lambda self: self._triplet_rows()[0])
    D = property(lambda self: self._triplet_rows()[1])

    def _feature_column(self, f: int) -> np.ndarray:
        """Feature f of every referenced point, as a dense n_used vector; a
        read-only view into P when P is dense."""
        if isinstance(self.P, np.ndarray):
            return self.P[:, f]
        lo, hi = self.PT.indptr[f], self.PT.indptr[f + 1]
        col = np.zeros(self.P.shape[0])
        col[self.PT.indices[lo:hi]] = self.PT.data[lo:hi]
        return col

    def pair_statistic(self, g: np.ndarray, subset: Optional[np.ndarray] = None):
        """sum_t g_t (x_t d_t^T + d_t x_t^T) over all constraints or a subset.

        This is C + C^T with C = P_u^T (W P): P holds the n_used referenced
        points, P_u the distinct anchors' rows of it, and W (anchors x
        n_used) has W[a,b] += g_t and W[a,c] -= g_t. Cost: O(T) to fill W,
        O(nnz(W) s) for W P and O(|u| s^2) (sparse P) or O(|u| d^2) (dense
        P) for the product with P_u^T. Without point reuse that is the work
        of the T outer products; with reuse, half that of P^T (W + W^T) P.
        The full set builds W's pattern and P_u^T at its first call
        (_full_pattern) and refills W after that; a subset builds them over
        its active (g_t != 0) triplets. W always keeps only its nonzero
        entries, so a g that is zero on most rows (a change of the loss
        derivatives) costs what its nonzero rows touch.

        The result is a dense d x d array when d*d <= DENSE_CELL_LIMIT, and
        CSR otherwise. It is exactly symmetric. The dense result is the one
        d x d array the call allocates: C comes dense from a dense P, or,
        from a CSR P, is computed in DENSE_TILE-row feature bands, each
        band's sparse product densified straight into its rows of the
        result; then _add_transpose turns C into C + C^T in place, one
        O(d^2) pass in DENSE_TILE x DENSE_TILE tile pairs. Besides it, only
        the sparse W P and one sparse band product per worker are alive.
        With a CSR P the bands and the transpose's row bands run on a
        thread pool of one worker per usable CPU (map_blocks); every row of
        a sparse product is computed on its own, so the result holds the
        same bits for any number of CPUs. A dense P and a CSR result are
        computed serially, as one product C and C + C^T.
        """
        with self._lock:
            if subset is None:
                W, indices, indptr, slot, PuT = self._full_pattern
            else:
                active = subset[g[subset] != 0.0]
                g = g[active]
                W, indices, indptr, slot, PuT = self._anchor_pattern(self.local[active])
            data = np.bincount(slot, weights=np.concatenate((g, -g)), minlength=indices.size)
            # W keeps its nonzero entries, assigned directly: a new matrix
            # would cost more in format checks than W P does
            keep = np.flatnonzero(data)
            W.data, W.indices = data[keep], indices[keep]
            W.indptr = np.searchsorted(keep, indptr).astype(indptr.dtype)
            WP = W @ self.P
        d = self.dim
        if d * d > self.DENSE_CELL_LIMIT:
            C = PuT @ WP
            return C + C.T
        if isinstance(WP, np.ndarray):
            return _add_transpose(PuT @ WP)
        workers = usable_cpus()
        C = np.empty((d, d))
        map_blocks(lambda rows: (PuT[rows] @ WP).toarray(out=C[rows]), _bands(d, DENSE_TILE), workers)
        return _add_transpose(C, workers)

    def _anchor_pattern(self, tri: np.ndarray):
        """W (distinct anchors of `tri` x n_used) as a CSR matrix, the column
        indices and row pointers of its full pattern, the slot in that
        pattern of each triplet's ab entry then of each ac entry, and P_u^T."""
        n = self.P.shape[0]
        u, row = np.unique(tri[:, 0], return_inverse=True)
        keys, slot = np.unique(np.concatenate((row * n + tri[:, 1], row * n + tri[:, 2])),
                               return_inverse=True)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=u.size))))
        W = sp.csr_matrix((np.zeros(keys.size), keys % n, indptr), shape=(u.size, n))
        return W, W.indices, W.indptr, slot, _transpose(self.P[u])

    def __len__(self) -> int:
        return self.triplets.shape[0]

    def pair_inners(self, i: int, j: int, sign: int, lam: float):
        """Per-constraint <A^t, B> for basis (i, j, sign), as sparse (rows, values).

        Nonzero only where the difference vector touches feature i or j.
        Reads features i and j of the referenced points (O(n_used)) and
        gathers them over the triplets (O(T), vectorized).
        """
        pi, pj = self._feature_column(i), self._feature_column(j)
        a, b, c = self.local.T
        di, dj = pi[b] - pi[c], pj[b] - pj[c]
        rows = np.flatnonzero((di != 0.0) | (dj != 0.0))
        anchors = a[rows]
        xi, xj, di, dj = pi[anchors], pj[anchors], di[rows], dj[rows]
        vals = lam * (xi * di + xj * dj + sign * (xi * dj + xj * di))
        keep = vals != 0.0
        return rows[keep], vals[keep]


def _transpose(P):
    """P^T: a view of a dense P, CSR of a sparse one (a column is a row slice)."""
    return P.T if isinstance(P, np.ndarray) else P.T.tocsr()


def _add_transpose(C: np.ndarray, workers: int = 1) -> np.ndarray:
    """C + C^T in place, bit-equal to the full-matrix sum, for a square C.

    Upper tile (r, c) gets C[r, c] + C[c, r]^T, and its mirror (c, r) a
    copy of that, transposed; float addition commutes, so both halves hold
    the same bits. A diagonal tile adds a copy of its own transpose, which
    at d = 64 is faster than numpy's buffering of the overlapping view.
    Row band r reads and writes only tiles (r, c >= r) and their mirrors,
    so with workers > 1 the bands run on map_blocks' pool. No other d x d
    array is made: each worker's temporaries are tile-sized.
    """
    d, tile = C.shape[0], DENSE_TILE

    def band(rows):
        diag = C[rows, rows]
        diag += diag.T.copy()
        for c in range(rows.stop, d, tile):
            cols = slice(c, c + tile)
            C[rows, cols] += C[cols, rows].T
            C[cols, rows] = C[rows, cols].T

    map_blocks(band, _bands(d, tile), workers)
    return C


class MarginCache:
    """Cached per-constraint margins m_t = <A^t, M>, updated in O(T) per step.

    derivs() and grad_inner() are computed once per update: assigning
    `margins` (`*=` too) drops both, so index writes go to a local array
    that is assigned back.
    `statistic` is the exact oracle's running full-set pair statistic,
    (constraint set, unscaled H, the derivs it was built from), which the
    solver's gradient_accumulate keeps; None until the first such call.
    """

    def __init__(self, margins: np.ndarray):
        self.margins = margins
        self.statistic = None

    @property
    def margins(self) -> np.ndarray:
        return self._margins

    @margins.setter
    def margins(self, value: np.ndarray) -> None:
        self._margins = np.asarray(value, dtype=np.float64)
        self._derivs = None
        self._grad_inner = None

    @property
    def count(self) -> int:
        return self._margins.size

    def derivs(self) -> np.ndarray:
        """l'(m_t) for every constraint, as a read-only array."""
        if self._derivs is None:
            self._derivs = smoothed_hinge_deriv(self._margins)
            self._derivs.flags.writeable = False
        return self._derivs

    def grad_inner(self) -> float:
        """<M, grad f(M)> = (1/T) * sum_t l'(m_t) * m_t (linearity in A^t)."""
        if self.count == 0:
            raise ValueError("empty margin cache")
        if self._grad_inner is None:
            self._grad_inner = float(np.mean(self.derivs() * self._margins))
        return self._grad_inner


def init_cache(cs: ConstraintSet, m: Model) -> MarginCache:
    """Margins from scratch: sum of per-atom basis inner products."""
    margins = np.zeros(len(cs))
    for (i, j, sign), a in zip(m.bases.tolist(), m.alpha.tolist()):
        rows, vals = cs.pair_inners(i, j, sign, m.lam)
        margins[rows] += a * vals
    return MarginCache(margins)


def objective(cache: MarginCache) -> float:
    """(1/T) * sum_t smoothed_hinge(m_t)."""
    if cache.count == 0:
        raise ValueError("empty margin cache")
    return float(np.mean(smoothed_hinge(cache.margins)))


def update_cache_sparse(cache: MarginCache, kind: str, gamma: float, rows: np.ndarray, vals: np.ndarray) -> None:
    """Advance margins one solver step, with the basis inners b in sparse form.

    Forward: m <- (1-gamma)*m + gamma*b. Away: m <- (1+gamma)*m - gamma*b.
    """
    if kind not in ("F", "A"):
        raise ValueError(f"unknown step kind {kind!r}")
    step = gamma if kind == "F" else -gamma
    m = cache.margins
    m *= 1.0 - step
    m[rows] += step * vals
    cache.margins = m
