"""Empirical objective: smoothed hinge over triplet margins.

The margin of constraint t is m_t = <A^t, M> with A^t = x_a (x_b - x_c)^T.
Margins are cached and updated incrementally across solver steps so that
objective and gradient queries cost O(T) independent of the dimension.
All reductions here are plain numpy sums, so results are deterministic
for a fixed input order.
"""

from __future__ import annotations

from typing import Sequence, Union

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

    Builds once: anchor rows X (T x d), difference rows D = X_b - X_c, their
    CSC transposes for feature-column access, and the elementwise product
    X.multiply(D) whose column sums give the diagonal gradient accumulator.
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
        self._dense = None

    def dense_views(self):
        """(X, D, X*D) as dense arrays for small problems, else None.

        Gradient accumulation over a T x d problem is a plain BLAS product
        when d is small, which beats sparse bookkeeping by a wide margin.
        """
        if (
            self.dim > self.DENSE_DIM_LIMIT
            or len(self) == 0
            or len(self) * self.dim > self.DENSE_CELL_LIMIT
        ):
            return None
        if self._dense is None:
            xd = self.X.toarray()
            dd = self.D.toarray()
            self._dense = (xd, dd, xd * dd)
        return self._dense

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
