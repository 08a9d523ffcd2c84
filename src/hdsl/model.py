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


def make_basis(i: int, j: int, sign: int) -> BasisId:
    """Canonicalize a basis id (i < j enforced; the pair order is symmetric)."""
    if i == j:
        raise ValueError("diagonal bases (i == j) are excluded")
    if sign not in (POS, NEG):
        raise ValueError("sign must be +1 or -1")
    if i > j:
        i, j = j, i
    return BasisId(int(i), int(j), sign)


def basis_sort_key(b: BasisId):
    """Deterministic tie-break order: lexicographic (i, j), Pos before Neg."""
    return (b.i, b.j, 0 if b.sign == POS else 1)


class Model:
    """Convex combination {basis -> weight} with a global scale lambda."""

    def __init__(self, lam: float, dim: int, atoms: Dict[BasisId, float]):
        if not (0 < lam < math.inf):
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        if not atoms:
            raise ValueError("model needs at least one atom")
        self.lam = float(lam)
        self.dim = int(dim)
        self.atoms = dict(atoms)
        self.check_invariants()

    def check_invariants(self) -> None:
        try:
            i, j, _, alpha = atom_arrays(self)
        except OverflowError:
            raise ValueError(f"basis index out of range for dim={self.dim}") from None
        check_atoms(i, j, alpha, self.dim)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def feature_set(self) -> set:
        feats = set()
        for b in self.atoms:
            feats.add(b.i)
            feats.add(b.j)
        return feats

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.lam == other.lam
            and self.dim == other.dim
            and self.atoms == other.atoms
        )


def basis_inner(x: SparseVector, d: SparseVector, b: BasisId, lam: float) -> float:
    """<A, B> for A = x d^T: lam*(x_i d_i + x_j d_j + s*(x_i d_j + x_j d_i))."""
    xi, xj = x.get(b.i), x.get(b.j)
    di, dj = d.get(b.i), d.get(b.j)
    return lam * (xi * di + xj * dj + b.sign * (xi * dj + xj * di))


def atom_arrays(m: Model):
    """Atoms as parallel arrays (i, j, sign, alpha) in insertion order."""
    n = m.n_atoms
    i = np.fromiter((b.i for b in m.atoms), dtype=np.int64, count=n)
    j = np.fromiter((b.j for b in m.atoms), dtype=np.int64, count=n)
    sign = np.fromiter((b.sign for b in m.atoms), dtype=np.int64, count=n)
    alpha = np.fromiter(m.atoms.values(), dtype=np.float64, count=n)
    return i, j, sign, alpha


def check_atoms(i: np.ndarray, j: np.ndarray, alpha: np.ndarray, dim: int) -> None:
    """Raise ValueError unless every atom has 0 <= i < j < dim and a positive
    weight, and the weights, summed in atom order, are 1 within
    WEIGHT_SUM_TOL."""
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < dim)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"basis ({i[k]}, {j[k]}) out of range for dim={dim}")
    bad = np.flatnonzero(~(alpha > 0))
    if bad.size:
        k = bad[0]
        raise ValueError(f"atom weight must be positive, got {alpha[k]} for ({i[k]}, {j[k]})")
    total = sum(alpha.tolist())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"atom weights sum to {total}, expected 1")


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
    i, j, sign, alpha = atom_arrays(m)
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
    i, j, sign, alpha = atom_arrays(m)
    w = alpha * m.lam
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
    i, j, sign, alpha = atom_arrays(m)
    order = np.lexsort((-sign, j, i))  # basis_sort_key order: (i, j), Pos before Neg
    coeff = np.sqrt(alpha[order] * m.lam)
    return ProjectionMap(i=i[order], j=j[order], sign=sign[order], coeff=coeff, dim=m.dim)


def project(p: ProjectionMap, x: SparseVector) -> np.ndarray:
    """L^T x: one component per column, c * (x_i + s * x_j); O(K log nnz)."""
    if x.dim != p.dim:
        raise ValueError("dimension mismatch")
    return p.coeff * (_values_at(x, p.i) + p.sign * _values_at(x, p.j))


def project_dataset(p: ProjectionMap, csr: sp.csr_matrix) -> np.ndarray:
    """Vectorized projection of a CSR row-matrix of points; rows map to columns of L."""
    cols_i = np.asarray(csr[:, p.i].todense())
    cols_j = np.asarray(csr[:, p.j].todense())
    return (cols_i + p.sign * cols_j) * p.coeff


MODEL_HEADER = "hdsl-model 1"


def serialize(m: Model) -> str:
    """Text format: header line, "lambda <v> dim <d>" line, one atom per line."""
    lines = [MODEL_HEADER, f"lambda {m.lam:.17g} dim {m.dim}"]
    for b, a in sorted(m.atoms.items(), key=lambda kv: basis_sort_key(kv[0])):
        tag = "P" if b.sign == POS else "N"
        lines.append(f"{tag} {b.i} {b.j} {a:.17g}")
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
    atoms: Dict[BasisId, float] = {}
    for ln in lines[2:]:
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split()
        if len(fields) != 4 or fields[0] not in ("P", "N"):
            raise ValueError(f"malformed atom line: {ln!r}")
        i, j = int(fields[1]), int(fields[2])
        if i >= j:
            raise ValueError(f"atom indices must satisfy i < j: {ln!r}")
        b = BasisId(i, j, POS if fields[0] == "P" else NEG)
        if b in atoms:
            raise ValueError(f"duplicate atom {b}")
        atoms[b] = float(fields[3])
    total = sum(atoms.values())
    if abs(total - 1.0) > WEIGHT_SUM_LOAD_TOL:
        raise ValueError(f"atom weights sum to {total}, expected 1 within {WEIGHT_SUM_LOAD_TOL}")
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        # absorb sub-load-tolerance drift so the in-memory invariant holds
        atoms = {b: a / total for b, a in atoms.items()}
    return Model(lam, dim, atoms)
