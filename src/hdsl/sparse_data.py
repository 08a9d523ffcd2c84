"""Sparse vectors, labeled datasets and LIBSVM-format I/O.

Points are stored index/value sorted, which keeps dot products and feature
lookups cheap regardless of the ambient dimension.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SparseVector:
    """A sparse point of R^dim: strictly increasing indices, no stored zeros."""

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim: int):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if indices.size:
            if np.any(np.diff(indices) <= 0):
                raise ValueError("indices must be strictly increasing")
            if indices[0] < 0 or indices[-1] >= dim:
                raise ValueError(f"index out of range for dim={dim}")
        if np.any(values == 0.0):
            raise ValueError("explicit zero values are not allowed")
        self.indices = indices
        self.values = values
        self.dim = int(dim)

    @property
    def nnz(self) -> int:
        return self.indices.size

    def get(self, i: int) -> float:
        """Value at feature i (0.0 if absent); O(log nnz)."""
        pos = np.searchsorted(self.indices, i)
        if pos < self.indices.size and self.indices[pos] == i:
            return float(self.values[pos])
        return 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @classmethod
    def from_dense(cls, arr, dim: Optional[int] = None) -> "SparseVector":
        arr = np.asarray(arr, dtype=np.float64)
        idx = np.flatnonzero(arr)
        return cls(idx, arr[idx], dim if dim is not None else arr.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        pairs = ", ".join(f"{i}:{v:g}" for i, v in zip(self.indices, self.values))
        return f"SparseVector([{pairs}], dim={self.dim})"


def diff(u: SparseVector, v: SparseVector) -> SparseVector:
    """u - v as a sparse vector (exact cancellations dropped)."""
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    idx = np.concatenate([u.indices, v.indices])
    val = np.concatenate([u.values, -v.values])
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    out_idx, inverse = np.unique(idx, return_inverse=True)
    out_val = np.zeros(out_idx.size)
    np.add.at(out_val, inverse, val)
    keep = out_val != 0.0
    return SparseVector(out_idx[keep], out_val[keep], u.dim)


def dot(u: SparseVector, v: SparseVector) -> float:
    """Sparse dot product by merging ordered entries; O(nnz(u)+nnz(v))."""
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    if u.nnz == 0 or v.nnz == 0:
        return 0.0
    common, iu, iv = np.intersect1d(
        u.indices, v.indices, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return 0.0
    return float(np.dot(u.values[iu], v.values[iv]))


class Dataset:
    """An immutable collection of SparseVectors with optional class labels."""

    def __init__(self, points: Sequence[SparseVector], labels=None, dim: Optional[int] = None):
        points = list(points)
        if dim is None:
            dim = points[0].dim if points else 0
        for p in points:
            if p.dim != dim:
                raise ValueError("all points must share the dataset dimension")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (len(points),):
                raise ValueError("labels must have one entry per point")
        self.points = points
        self.labels = labels
        self.dim = int(dim)
        self._csr: Optional[sp.csr_matrix] = None

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> SparseVector:
        return self.points[i]

    def to_csr(self) -> sp.csr_matrix:
        """Rows-as-points CSR view, built once and cached."""
        if self._csr is None:
            indptr = np.zeros(len(self.points) + 1, dtype=np.int64)
            for t, p in enumerate(self.points):
                indptr[t + 1] = indptr[t] + p.nnz
            if self.points:
                indices = np.concatenate([p.indices for p in self.points])
                data = np.concatenate([p.values for p in self.points])
            else:
                indices = np.zeros(0, dtype=np.int64)
                data = np.zeros(0)
            self._csr = sp.csr_matrix(
                (data, indices, indptr), shape=(len(self.points), self.dim)
            )
        return self._csr


def parse_libsvm(source: Union[str, io.TextIOBase], dim: Optional[int] = None) -> Dataset:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based indices).

    Blank lines and '#' comments are allowed. Indices are converted to
    0-based in memory. The ambient dimension is the maximum index seen
    unless `dim` is given explicitly (useful when a split is missing the
    highest features).
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    points_raw = []
    labels = []
    max_index = -1
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label_f = float(parts[0])
        except ValueError:
            raise ParseError(f"invalid label {parts[0]!r}", lineno) from None
        if not math.isfinite(label_f) or label_f != int(label_f):
            raise ParseError(f"non-integer label {parts[0]!r}", lineno)
        idxs = []
        vals = []
        prev = 0
        for tok in parts[1:]:
            if ":" not in tok:
                raise ParseError(f"invalid feature token {tok!r}", lineno)
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"invalid feature token {tok!r}", lineno) from None
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}", lineno)
            if idx < 1:
                raise ParseError(f"feature index {idx} must be >= 1", lineno)
            if idx <= prev:
                raise ParseError(f"non-increasing feature index {idx}", lineno)
            prev = idx
            if val != 0.0:
                idxs.append(idx - 1)
                vals.append(val)
        if idxs:
            max_index = max(max_index, idxs[-1])
        points_raw.append((np.array(idxs, dtype=np.int64), np.array(vals)))
        labels.append(int(label_f))
    inferred = max_index + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise ValueError(f"explicit dim {dim} smaller than max observed index {inferred}")
    points = [SparseVector(i, v, dim) for i, v in points_raw]
    return Dataset(points, labels if labels else None, dim=dim)


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm (1-based indices, 17-significant-digit floats)."""
    lines = []
    for t, p in enumerate(ds.points):
        label = ds.labels[t] if ds.labels is not None else 0
        feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(p.indices, p.values))
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def feature_scales(ds: Dataset) -> np.ndarray:
    """Per-feature max absolute value over the dataset (0 for unseen features)."""
    scales = np.zeros(ds.dim)
    for p in ds.points:
        np.maximum.at(scales, p.indices, np.abs(p.values))
    return scales


def scale_to_unit_range(ds: Dataset, scales: Optional[np.ndarray] = None) -> Dataset:
    """Divide each feature by its max absolute value so values land in [-1, 1].

    Features whose max is 0 are left unchanged. Pass precomputed `scales`
    (from the training split) to apply training statistics to other splits.
    """
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    if scales is None:
        scales = feature_scales(ds)
    divisor = np.where(scales > 0, scales, 1.0)
    points = [
        SparseVector(p.indices, p.values / divisor[p.indices], p.dim) for p in ds.points
    ]
    return Dataset(points, ds.labels, dim=ds.dim)


class TripletConstraint:
    """Indices (a, b, c) into a Dataset: a should be more similar to b than to c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if b == c:
            raise ValueError("similar and dissimilar indices must differ")
        self.a, self.b, self.c = int(a), int(b), int(c)

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        if not isinstance(other, TripletConstraint):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __repr__(self):
        return f"TripletConstraint(a={self.a}, b={self.b}, c={self.c})"


def write_triplets(triplets: Iterable[TripletConstraint]) -> str:
    """Triplet text format: one "<a> <b> <c>" line per constraint, 0-based."""
    return "".join(f"{t.a} {t.b} {t.c}\n" for t in triplets)


def read_triplets(source: Union[str, io.TextIOBase]) -> list:
    if isinstance(source, str):
        source = io.StringIO(source)
    out = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected three indices", lineno)
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError:
            raise ParseError("expected three integers", lineno) from None
        out.append(TripletConstraint(a, b, c))
    return out
