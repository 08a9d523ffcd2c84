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

    Builds once: anchor rows X (T x d), difference rows D = X_b - X_c,
    their CSC transposes for feature-column access, and the elementwise
    product X.multiply(D), whose column sums give the heuristic oracle's
    diagonal statistic. The exact statistic uses pair_statistic instead.
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
        self.X_csc: sp.csc_matrix = X.tocsc()
        self.D_csc: sp.csc_matrix = D.tocsc()
        self.XD: sp.csr_matrix = X.multiply(D).tocsr()
        self.XD.eliminate_zeros()
        self._work = np.zeros(len(self))
        self._points = None
        self._full_pattern = None

    def _point_view(self):
        """(local triplets, P, P^T) over the points some triplet references.

        P is dense when d and n_used*d are small, where a BLAS product beats
        sparse bookkeeping by a wide margin, and CSR otherwise; P^T is kept
        as CSR too, since a CSC left operand makes scipy convert S P.
        """
        if self._points is None:
            used, local = np.unique(self.triplets.ravel(), return_inverse=True)
            P = self.dataset.to_csr()[used]
            if self.dim <= self.DENSE_DIM_LIMIT and used.size * self.dim <= self.DENSE_CELL_LIMIT:
                P = P.toarray()
                PT = P.T
            else:
                PT = P.T.tocsr()
            self._points = (local.reshape(-1, 3), P, PT)
        return self._points

    def pair_statistic(self, g: np.ndarray, subset: Optional[np.ndarray] = None):
        """sum_t g_t (x_t d_t^T + d_t x_t^T) over all constraints or a subset.

        When the triplets reuse points (n_used < T), this is P^T S P with P
        the n_used referenced points and S = W + W^T, where W[a,b] += g_t
        and W[a,c] -= g_t: O(T) to fill S, O(nnz(S) s) for S P and
        O(n_used s^2) (sparse) or O(n_used d^2) (dense) for the rest. The
        full set builds S's CSR pattern on its first call and refills it
        after that; a subset builds S and P over its own points, so its
        cost follows the subset. Without reuse the T outer products are
        cheaper, and the active (g_t != 0) ones are summed directly.
        """
        local, P, PT = self._point_view()
        n_ref = P.shape[0]
        if subset is not None:
            local, g = local[subset], g[subset]
            pts, inv = np.unique(local, return_inverse=True)
            n_ref = pts.size
        if n_ref >= len(local):
            active = g != 0.0
            a, b, c = local[active].T
            C = (sp.diags(g[active]) @ P[a]).T @ (P[b] - P[c])
            return C + C.T
        if subset is None:
            if self._full_pattern is None:
                self._full_pattern = _pair_pattern(local, n_ref)
            S, slot = self._full_pattern
        else:
            local, P, PT = inv.reshape(-1, 3), P[pts], PT[:, pts]
            S, slot = _pair_pattern(local, n_ref)
        S.data = np.bincount(slot, weights=_pair_weights(g), minlength=S.nnz)
        return PT @ (S @ P)

    def __len__(self) -> int:
        return self.triplets.shape[0]

    def constraint(self, t: int) -> TripletConstraint:
        a, b, c = self.triplets[t]
        return TripletConstraint(a, b, c)

    def _col(self, csc: sp.csc_matrix, f: int):
        lo, hi = csc.indptr[f], csc.indptr[f + 1]
        return csc.indices[lo:hi], csc.data[lo:hi]

    def pair_inners(self, i: int, j: int, sign: int, lam: float):
        """Per-constraint <A^t, B> for basis (i, j, sign), as sparse (rows, values).

        Nonzero only where the difference vector touches feature i or j, so
        the cost is proportional to the involved column supports.
        """
        di_r, di_v = self._col(self.D_csc, i)
        dj_r, dj_v = self._col(self.D_csc, j)
        rows = np.union1d(di_r, dj_r)
        if rows.size == 0:
            return rows, np.zeros(0)
        xi_r, xi_v = self._col(self.X_csc, i)
        xj_r, xj_v = self._col(self.X_csc, j)
        w = self._work

        def gather(col_rows, col_vals):
            w[col_rows] = col_vals
            out = w[rows].copy()
            w[col_rows] = 0.0
            return out

        xi = gather(xi_r, xi_v)
        xj = gather(xj_r, xj_v)
        di = gather(di_r, di_v)
        dj = gather(dj_r, dj_v)
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


def _pair_pattern(tri: np.ndarray, n: int):
    """CSR pattern of S = W + W^T for triplets (a, b, c) over n points, and
    the slot in it of each ab, ba, ac, ca entry, in _pair_weights order."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    rows, cols = np.concatenate((a, b, a, c)), np.concatenate((b, a, c, a))
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
    return sp.csr_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n)), slot


def _pair_weights(g: np.ndarray) -> np.ndarray:
    """+g_t for the ab and ba entries of S, -g_t for ac and ca."""
    return np.concatenate((g, g, -g, -g))


class MarginCache:
    """Cached per-constraint margins m_t = <A^t, M>, updated in O(T) per step."""

    def __init__(self, margins: np.ndarray):
        self.margins = np.asarray(margins, dtype=np.float64)

    @property
    def count(self) -> int:
        return self.margins.size

    def derivs(self) -> np.ndarray:
        return smoothed_hinge_deriv(self.margins)

    def copy(self) -> "MarginCache":
        return MarginCache(self.margins.copy())


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


def update_cache(cache: MarginCache, kind: str, gamma: float, basis_inners) -> None:
    """Advance margins one solver step.

    Forward: m <- (1-gamma)*m + gamma*b. Away: m <- (1+gamma)*m - gamma*b.
    """
    b = np.asarray(basis_inners, dtype=np.float64)
    if b.shape != cache.margins.shape:
        raise ValueError("basis_inners length mismatch")
    if kind == "F":
        cache.margins *= 1.0 - gamma
        cache.margins += gamma * b
    elif kind == "A":
        cache.margins *= 1.0 + gamma
        cache.margins -= gamma * b
    else:
        raise ValueError(f"unknown step kind {kind!r}")


def update_cache_sparse(cache: MarginCache, kind: str, gamma: float, rows: np.ndarray, vals: np.ndarray) -> None:
    """Same as update_cache with the basis inners given in sparse form."""
    if kind == "F":
        cache.margins *= 1.0 - gamma
        if rows.size:
            cache.margins[rows] += gamma * vals
    elif kind == "A":
        cache.margins *= 1.0 + gamma
        if rows.size:
            cache.margins[rows] -= gamma * vals
    else:
        raise ValueError(f"unknown step kind {kind!r}")


def grad_inner_with_model(cache: MarginCache) -> float:
    """<M, grad f(M)> = (1/T) * sum_t l'(m_t) * m_t (linearity in A^t)."""
    if cache.count == 0:
        raise ValueError("empty margin cache")
    return float(np.mean(cache.derivs() * cache.margins))
