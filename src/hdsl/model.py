"""The hypothesis class: convex combinations of rank-one 4-sparse bases.

A basis is lambda * (e_i + s*e_j)(e_i + s*e_j)^T for a feature pair i < j and
sign s in {+1, -1}. A model is a convex combination of such bases scaled by a
single lambda, which keeps it symmetric PSD by construction and lets the
similarity x^T M x' be evaluated from the few active feature pairs alone.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Union

import numpy as np
import scipy.sparse as sp

from .sparse_data import SparseVector

POS = 1
NEG = -1

WEIGHT_SUM_TOL = 1e-9
WEIGHT_SUM_LOAD_TOL = 1e-6


class BasisId(NamedTuple):
    """One basis: feature pair (i < j) plus sign (+1 additive, -1 subtractive)."""

    i: int
    j: int
    sign: int


def basis_order(bases: np.ndarray) -> np.ndarray:
    """The one tie-break order of bases (K x 3 rows of i, j, sign): (i, j)
    ascending, Pos before Neg. Returns the stable sorting permutation."""
    return np.lexsort((-bases[:, 2], bases[:, 1], bases[:, 0]))


def _bases_array(rows, dim: int) -> np.ndarray:
    """Rows of (i, j, sign) as a K x 3 int64 array."""
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise ValueError(f"basis index out of range for dim={dim}") from None


class Model:
    """Convex combination of bases with a global scale lambda. The atoms are
    read-only arrays in insertion order, `bases` (K x 3 int64 rows of i, j,
    sign) and weights `alpha`; `atoms` is a new {BasisId: weight} dict."""

    def __init__(self, lam: float, dim: int, atoms: Dict[BasisId, float]):
        bases = _bases_array(list(atoms), dim)
        alpha = np.fromiter(atoms.values(), dtype=np.float64, count=len(atoms))
        self._adopt(lam, dim, bases, alpha)

    @classmethod
    def from_arrays(cls, lam: float, dim: int, bases: np.ndarray, alpha: np.ndarray) -> "Model":
        """A Model over `bases` and `alpha` themselves, not copies; they
        become read-only, so no later write can change this model."""
        model = cls.__new__(cls)
        model._adopt(lam, dim, bases, alpha)
        return model

    def _adopt(self, lam, dim, bases: np.ndarray, alpha: np.ndarray) -> None:
        self.lam, self.dim = float(lam), int(dim)
        self.bases, self.alpha = bases, alpha
        bases.flags.writeable = alpha.flags.writeable = False
        self.check_invariants()

    def check_invariants(self) -> None:
        """Raise ValueError unless lambda is positive and finite and every
        atom has 0 <= i < j < dim, sign +1 or -1 and a positive weight, no
        (i, j, sign) appears twice, and the weights sum in atom order to 1
        within WEIGHT_SUM_TOL."""
        if not (0 < self.lam < math.inf):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        alpha = self.alpha
        if self.bases.shape != (alpha.size, 3):
            raise ValueError(f"bases of shape {self.bases.shape} for {alpha.size} weights")
        i, j, sign = self.bases.T
        bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < self.dim) & (np.abs(sign) == 1)))
        if bad.size:
            k = bad[0]
            raise ValueError(f"basis ({i[k]}, {j[k]}, sign {sign[k]}) out of range for "
                             f"dim={self.dim}: needs 0 <= i < j < dim and sign +1 or -1")
        # one row sort; no packed key, which would overflow int64 at large dim
        rows = self.bases[basis_order(self.bases)]
        dup = np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1))
        if dup.size:
            i0, j0, s0 = rows[dup[0]].tolist()
            raise ValueError(f"basis ({i0}, {j0}, sign {s0}) appears more than once")
        bad = np.flatnonzero(~(alpha > 0))
        if bad.size:
            k = bad[0]
            raise ValueError(f"atom weight must be positive, got {alpha[k]} for ({i[k]}, {j[k]})")
        total = sum(alpha.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total}, expected 1")

    @property
    def atoms(self) -> Dict[BasisId, float]:
        return dict(zip(map(BasisId._make, self.bases.tolist()), self.alpha.tolist()))

    @property
    def n_atoms(self) -> int:
        return self.alpha.size

    def feature_set(self) -> set:
        return set(self.bases[:, :2].ravel().tolist())

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.lam == other.lam
            and self.dim == other.dim
            and self.atoms == other.atoms
        )


def _values_at(x: SparseVector, idx: np.ndarray) -> np.ndarray:
    """x's values at features idx (0.0 where absent); O(len(idx) log nnz)."""
    if x.nnz == 0:
        return np.zeros(idx.size)
    pos = np.minimum(np.searchsorted(x.indices, idx), x.nnz - 1)
    return np.where(x.indices[pos] == idx, x.values[pos], 0.0)


def similarity(m: Model, x: SparseVector, x2: SparseVector) -> float:
    """S_M(x, x') = x^T M x' = lam * sum_B alpha_B (x_i y_i + x_j y_j +
    s (x_i y_j + x_j y_i)), evaluated over the K atoms with a binary search
    into each vector: O(K log nnz), no d-sized array, no matrix. The formula
    is symmetric term by term, so swapping x and x' gives the same float.
    """
    if x.dim != x2.dim or x.dim != m.dim:
        raise ValueError("dimension mismatch")
    (i, j, sign), alpha = m.bases.T, m.alpha
    xi, xj = _values_at(x, i), _values_at(x, j)
    yi, yj = _values_at(x2, i), _values_at(x2, j)
    return m.lam * float(np.sum(alpha * (xi * yi + xj * yj + sign * (xi * yj + xj * yi))))


def to_csr_matrix(m: Model) -> sp.csr_matrix:
    """M = lam * sum_B alpha_B * B as a d x d CSR matrix, built from the atom
    arrays in O(K log K + d).

    Each atom adds w = alpha*lam at (i, i) and (j, j) and s*w at (i, j) and
    (j, i); duplicates are summed in atom order and entries that cancel to
    exactly zero are dropped, so at most 4*|atoms| entries survive and the
    result is symmetric with sorted indices.
    """
    d = m.dim
    i, j, sign = m.bases.T
    w = m.alpha * m.lam
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([i, j, j, i], axis=1).ravel()
    vals = np.stack([w, w, sign * w, sign * w], axis=1).ravel()
    keys, slot = np.unique(rows * d + cols, return_inverse=True)
    sums = np.bincount(slot, weights=vals, minlength=keys.size)
    keep = sums != 0.0
    keys = keys[keep]
    indptr = np.searchsorted(keys, np.arange(d + 1, dtype=np.int64) * d)
    return sp.csr_matrix((sums[keep], keys % d, indptr), shape=(d, d))


def to_sparse_matrix(m: Model):
    """Row-major coordinate list [(row, col, value)] of to_csr_matrix(m)."""
    coo = to_csr_matrix(m).tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


@dataclass
class ProjectionMap:
    """Square-root factorization M = L L^T, one column per atom.

    Column for atom (i, j, s, alpha) has coefficient sqrt(alpha*lambda) at
    row i and s*sqrt(alpha*lambda) at row j, so projected dot products
    reproduce the bilinear similarity exactly.
    """

    i: np.ndarray
    j: np.ndarray
    sign: np.ndarray
    coeff: np.ndarray
    dim: int

    @property
    def n_columns(self) -> int:
        return self.coeff.size


def factorize(m: Model) -> ProjectionMap:
    i, j, sign = m.bases.T
    order = basis_order(m.bases)
    coeff = np.sqrt(m.alpha[order] * m.lam)
    return ProjectionMap(i=i[order], j=j[order], sign=sign[order], coeff=coeff, dim=m.dim)


def project(p: ProjectionMap, x: SparseVector) -> np.ndarray:
    """L^T x: one component per column, c * (x_i + s * x_j); O(K log nnz)."""
    if x.dim != p.dim:
        raise ValueError("dimension mismatch")
    return p.coeff * (_values_at(x, p.i) + p.sign * _values_at(x, p.j))


def project_dataset(p: ProjectionMap, csr: sp.csr_matrix) -> np.ndarray:
    """Vectorized projection of a CSR row-matrix of points; rows map to columns of L."""
    if csr.shape[1] != p.dim:
        raise ValueError("dimension mismatch")
    cols_i = np.asarray(csr[:, p.i].todense())
    cols_j = np.asarray(csr[:, p.j].todense())
    return (cols_i + p.sign * cols_j) * p.coeff


MODEL_HEADER = "hdsl-model 1"


def serialize(m: Model) -> str:
    """Text format: header line, "lambda <v> dim <d>" line, one atom per
    line in basis_order."""
    lines = [MODEL_HEADER, f"lambda {m.lam:.17g} dim {m.dim}"]
    order = basis_order(m.bases)
    for (i, j, sign), a in zip(m.bases[order].tolist(), m.alpha[order].tolist()):
        lines.append(f"{'P' if sign == POS else 'N'} {i} {j} {a:.17g}")
    return "\n".join(lines) + "\n"


def deserialize(source: Union[str, io.TextIOBase]) -> Model:
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = [ln.rstrip("\n") for ln in source]
    if not lines or lines[0].strip() != MODEL_HEADER:
        raise ValueError(f"unsupported model header (expected {MODEL_HEADER!r})")
    if len(lines) < 2:
        raise ValueError("missing lambda/dim line")
    parts = lines[1].split()
    if len(parts) != 4 or parts[0] != "lambda" or parts[2] != "dim":
        raise ValueError(f"malformed lambda/dim line: {lines[1]!r}")
    lam = float(parts[1])
    dim = int(parts[3])
    rows, weights = [], []
    for ln in lines[2:]:
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split()
        if len(fields) != 4 or fields[0] not in ("P", "N"):
            raise ValueError(f"malformed atom line: {ln!r}")
        rows.append((int(fields[1]), int(fields[2]), POS if fields[0] == "P" else NEG))
        weights.append(float(fields[3]))
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_LOAD_TOL:
        raise ValueError(f"atom weights sum to {total}, expected 1 within {WEIGHT_SUM_LOAD_TOL}")
    alpha = np.array(weights, dtype=np.float64)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        # absorb sub-load-tolerance drift so the in-memory invariant holds
        alpha /= total
    # check_invariants rejects i >= j, out-of-range indices and repeated atoms
    return Model.from_arrays(lam, dim, _bases_array(rows, dim), alpha)
