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
        total = 0.0
        for b, a in self.atoms.items():
            if not (0 <= b.i < b.j < self.dim):
                raise ValueError(f"basis {b} out of range for dim={self.dim}")
            if not a > 0:
                raise ValueError(f"atom weight must be positive, got {a} for {b}")
            total += a
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total}, expected 1")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def feature_set(self) -> set:
        feats = set()
        for b in self.atoms:
            feats.add(b.i)
            feats.add(b.j)
        return feats

    def copy(self) -> "Model":
        return Model(self.lam, self.dim, dict(self.atoms))

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


def similarity(m: Model, x: SparseVector, x2: SparseVector) -> float:
    """S_M(x, x') = x^T M x'.

    Iterates atoms when the model is smaller than the support product,
    otherwise goes through the materialized sparse matrix; the two paths
    agree to float precision.
    """
    if x.dim != x2.dim or x.dim != m.dim:
        raise ValueError("dimension mismatch")
    if m.n_atoms < x.nnz * x2.nnz:
        total = 0.0
        for b, a in m.atoms.items():
            xi, xj = x.get(b.i), x.get(b.j)
            yi, yj = x2.get(b.i), x2.get(b.j)
            total += a * (xi * yi + xj * yj + b.sign * (xi * yj + xj * yi))
        return m.lam * total
    mat = to_csr_matrix(m)
    left = mat[x.indices][:, x2.indices].toarray()
    return float(x.values @ left @ x2.values)


def to_sparse_matrix(m: Model):
    """Coordinate list of M = sum_B alpha_B * B, duplicate entries merged.

    Entries that cancel to exactly zero are dropped; at most 4*|atoms|
    entries survive and the result is symmetric.
    """
    acc: Dict[tuple, float] = {}
    for b, a in m.atoms.items():
        w = a * m.lam
        for r, c, v in (
            (b.i, b.i, w),
            (b.j, b.j, w),
            (b.i, b.j, b.sign * w),
            (b.j, b.i, b.sign * w),
        ):
            acc[(r, c)] = acc.get((r, c), 0.0) + v
    return [(r, c, v) for (r, c), v in sorted(acc.items()) if v != 0.0]


def to_csr_matrix(m: Model) -> sp.csr_matrix:
    entries = to_sparse_matrix(m)
    if entries:
        rows, cols, vals = zip(*entries)
    else:
        rows, cols, vals = (), (), ()
    return sp.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(m.dim, m.dim),
    )


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
    atoms = sorted(m.atoms.items(), key=lambda kv: basis_sort_key(kv[0]))
    i = np.array([b.i for b, _ in atoms], dtype=np.int64)
    j = np.array([b.j for b, _ in atoms], dtype=np.int64)
    sign = np.array([b.sign for b, _ in atoms], dtype=np.int64)
    coeff = np.sqrt(np.array([a for _, a in atoms]) * m.lam)
    return ProjectionMap(i=i, j=j, sign=sign, coeff=coeff, dim=m.dim)


def project(p: ProjectionMap, x: SparseVector) -> np.ndarray:
    """L^T x: one component per column, c * (x_i + s * x_j)."""
    if x.dim != p.dim:
        raise ValueError("dimension mismatch")
    dense = dict(zip(x.indices.tolist(), x.values.tolist()))
    xi = np.array([dense.get(int(k), 0.0) for k in p.i])
    xj = np.array([dense.get(int(k), 0.0) for k in p.j])
    return p.coeff * (xi + p.sign * xj)


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
