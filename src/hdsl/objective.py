"""Empirical objective: smoothed hinge over triplet margins.

The margin of constraint t is m_t = <A^t, M> with A^t = x_a (x_b - x_c)^T.
Margins are cached and updated incrementally across solver steps so that
objective and gradient queries cost O(T) independent of the dimension.
All reductions here are plain numpy sums, so results are deterministic
for a fixed input order.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .model import Model
from .sparse_data import Dataset, TripletConstraint


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
    """Triplet constraints over a dataset, with precomputed sparse views.

    Builds once, in two forms. The point view is what the oracles read:
    `local` (T x 3 indices into the n_used points some triplet references),
    those points as rows of `P` and `PT` = P^T; pair_statistic (exact and
    mini-batch oracles), pair_inners and the heuristic oracle's partner
    scores work from it. The triplet view holds anchor rows X (T x d),
    difference rows D = X_b - X_c and XD = X.multiply(D). The heuristic
    oracle reads XD, whose column sums give its diagonal statistic. X and D
    are read by lipschitz_constant and, from outside the library, by the
    benchmark tracer's pair-product counter, which is why they stay.
    """

    DENSE_DIM_LIMIT = 512
    DENSE_CELL_LIMIT = 5_000_000

    def __init__(self, dataset: Dataset, triplets: Union[np.ndarray, Sequence[TripletConstraint]]):
        if isinstance(triplets, np.ndarray):
            arr = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
        else:
            arr = np.array([[t.a, t.b, t.c] for t in triplets], dtype=np.int64).reshape(-1, 3)
        n = len(dataset)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("triplet index out of range")
            if np.any(arr[:, 1] == arr[:, 2]):
                raise ValueError("triplets must have b != c")
        self.dataset = dataset
        self.triplets = arr
        self.dim = dataset.dim

        base = dataset.to_csr()
        X = base[arr[:, 0]].copy() if arr.size else sp.csr_matrix((0, self.dim))
        D = (base[arr[:, 1]] - base[arr[:, 2]]).tocsr() if arr.size else sp.csr_matrix((0, self.dim))
        D.eliminate_zeros()
        self.X: sp.csr_matrix = X
        self.D: sp.csr_matrix = D
        self.XD: sp.csr_matrix = X.multiply(D).tocsr()
        self.XD.eliminate_zeros()

        # P is dense when d and n_used*d are small, where a BLAS product beats
        # sparse bookkeeping by a wide margin, and CSR otherwise; P^T is kept
        # as CSR too, so a feature column is one row slice of it.
        used, local = np.unique(arr.ravel(), return_inverse=True)
        P = base[used]
        if self.dim <= self.DENSE_DIM_LIMIT and used.size * self.dim <= self.DENSE_CELL_LIMIT:
            P = P.toarray()
            PT = P.T
        else:
            PT = P.T.tocsr()
        # column-major, since pair_inners gathers over whole a, b, c columns
        self.local: np.ndarray = np.asfortranarray(local.reshape(-1, 3))
        self.P = P
        self.PT = PT
        self._full_pattern = None

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
        The full set builds W's pattern and P_u^T on its first call and
        refills W after that; a subset builds them over its active
        (g_t != 0) triplets, so its cost follows those.
        """
        if subset is None:
            if self._full_pattern is None:
                self._full_pattern = self._anchor_pattern(self.local)
            W, slot, PuT = self._full_pattern
        else:
            active = subset[g[subset] != 0.0]
            g = g[active]
            W, slot, PuT = self._anchor_pattern(self.local[active])
        W.data = np.bincount(slot, weights=np.concatenate((g, -g)), minlength=W.nnz)
        C = PuT @ (W @ self.P)
        return C + C.T

    def _anchor_pattern(self, tri: np.ndarray):
        """CSR pattern of W (distinct anchors of `tri` x n_used), the slot in
        it of each triplet's ab entry then of each ac entry, and P_u^T."""
        n = self.P.shape[0]
        u, row = np.unique(tri[:, 0], return_inverse=True)
        keys, slot = np.unique(np.concatenate((row * n + tri[:, 1], row * n + tri[:, 2])),
                               return_inverse=True)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=u.size))))
        W = sp.csr_matrix((np.zeros(keys.size), keys % n, indptr), shape=(u.size, n))
        Pu = self.P[u]
        return W, slot, Pu.T if isinstance(Pu, np.ndarray) else Pu.T.tocsr()

    def __len__(self) -> int:
        return self.triplets.shape[0]

    def constraint(self, t: int) -> TripletConstraint:
        a, b, c = self.triplets[t]
        return TripletConstraint(a, b, c)

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

    def lipschitz_constant(self) -> float:
        """(1/T) * sum_t ||x_t||^2 * ||d_t||^2 (squared Frobenius norms of x d^T)."""
        if len(self) == 0:
            raise ValueError("empty constraint set")
        xn = np.asarray(self.X.multiply(self.X).sum(axis=1)).ravel()
        dn = np.asarray(self.D.multiply(self.D).sum(axis=1)).ravel()
        return float(np.mean(xn * dn))


class MarginCache:
    """Cached per-constraint margins m_t = <A^t, M>, updated in O(T) per step.

    derivs() is computed once per update: assigning `margins` (`*=` too)
    drops it, so index writes go to a local array that is assigned back.
    """

    def __init__(self, margins: np.ndarray):
        self.margins = margins

    @property
    def margins(self) -> np.ndarray:
        return self._margins

    @margins.setter
    def margins(self, value: np.ndarray) -> None:
        self._margins = np.asarray(value, dtype=np.float64)
        self._derivs = None

    @property
    def count(self) -> int:
        return self._margins.size

    def derivs(self) -> np.ndarray:
        """l'(m_t) for every constraint, as a read-only array."""
        if self._derivs is None:
            self._derivs = smoothed_hinge_deriv(self._margins)
            self._derivs.flags.writeable = False
        return self._derivs


def init_cache(cs: ConstraintSet, m: Model) -> MarginCache:
    """Margins from scratch: sum of per-atom basis inner products."""
    margins = np.zeros(len(cs))
    for b, a in m.atoms.items():
        rows, vals = cs.pair_inners(b.i, b.j, b.sign, m.lam)
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
    m = cache.margins
    if kind == "F":
        m *= 1.0 - gamma
        if rows.size:
            m[rows] += gamma * vals
    elif kind == "A":
        m *= 1.0 + gamma
        if rows.size:
            m[rows] -= gamma * vals
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    cache.margins = m


def grad_inner_with_model(cache: MarginCache) -> float:
    """<M, grad f(M)> = (1/T) * sum_t l'(m_t) * m_t (linearity in A^t)."""
    if cache.count == 0:
        raise ValueError("empty margin cache")
    return float(np.mean(cache.derivs() * cache.margins))
