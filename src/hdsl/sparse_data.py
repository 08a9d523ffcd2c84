"""Sparse vectors, labeled datasets, LIBSVM-format and triplet file I/O.

A Dataset keeps its points as the rows of one index-sorted CSR matrix
with no stored zeros; a SparseVector is one point, built on demand.
"""

from __future__ import annotations

import io
import math
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_int64(value: int, what: str, line: int) -> None:
    """Parsed integers land in int64 arrays; larger ones are a ParseError."""
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"{what} {value} overflows int64", line)


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


def csr_from_rows(indices: Sequence[np.ndarray], values: Sequence[np.ndarray], dim: int) -> sp.csr_matrix:
    """Stack per-row index and value arrays, each row already sorted, into
    one len(indices) x dim CSR matrix."""
    indptr = np.concatenate(([0], np.cumsum([i.size for i in indices], dtype=np.int64)))
    cols = np.concatenate([*indices, np.zeros(0, dtype=np.int64)])
    return sp.csr_matrix((np.concatenate([*values, np.zeros(0)]), cols, indptr), shape=(len(indices), dim))


class Dataset:
    """n points of R^dim with optional integer class labels, held as one
    n x dim CSR matrix (`to_csr()`) whose rows keep SparseVector's
    invariants, plus `labels` and `dim`; `ds[i]` builds row i as a
    SparseVector on demand. Both constructors check the rows and labels."""

    def __init__(self, points: Sequence[SparseVector], labels=None, dim: Optional[int] = None):
        points = list(points)
        if dim is None:
            dim = points[0].dim if points else 0
        for p in points:
            if p.dim != dim:
                raise ValueError("all points must share the dataset dimension")
        X = csr_from_rows([p.indices for p in points], [p.values for p in points], dim)
        ds = Dataset.from_csr(X, labels)
        self._X, self.labels, self.dim = ds._X, ds.labels, ds.dim

    @classmethod
    def from_csr(cls, X, labels=None) -> "Dataset":
        """A dataset of the rows of X, anything sp.csr_matrix takes (a float64 CSR matrix
        is kept, not copied). Raises ValueError unless each row's column indices are in range
        and strictly increasing with no stored zeros, and labels, if given, are one per row."""
        X = sp.csr_matrix(X, dtype=np.float64)
        X.check_format(full_check=True)
        if not X.has_canonical_format:
            raise ValueError("column indices must be strictly increasing within each row")
        if np.any(X.data == 0.0):
            raise ValueError("explicit zero values are not allowed")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (X.shape[0],):
                raise ValueError("labels must have one entry per point")
        ds = cls.__new__(cls)
        ds._X, ds.labels, ds.dim = X, labels, int(X.shape[1])
        return ds

    def __len__(self) -> int:
        return self._X.shape[0]

    def __getitem__(self, i: int) -> SparseVector:
        """Row i (negative counts from the end) as a new SparseVector."""
        i = range(len(self))[i]
        lo, hi = self._X.indptr[i], self._X.indptr[i + 1]
        return SparseVector(self._X.indices[lo:hi].astype(np.int64), self._X.data[lo:hi].copy(), self.dim)

    def to_csr(self) -> sp.csr_matrix:
        """The stored rows-as-points CSR matrix (not a copy)."""
        return self._X


def _content_lines(source: Union[str, io.TextIOBase]) -> Iterator[Tuple[int, List[str]]]:
    """(line number from 1, whitespace-split tokens) for each line of a str
    or text stream that keeps a token once its '#' comment is cut."""
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts


def parse_libsvm(source: Union[str, io.TextIOBase], dim: Optional[int] = None) -> Dataset:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based indices).

    Blank lines and '#' comments are allowed. Indices are converted to
    0-based in memory. The ambient dimension is the maximum index seen
    unless `dim` is given explicitly (useful when a split is missing the
    highest features).
    """
    labels, indices, values, indptr = [], [], [], [0]
    max_index = -1
    for lineno, parts in _content_lines(source):
        try:
            label_f = float(parts[0])
        except ValueError:
            raise ParseError(f"invalid label {parts[0]!r}", lineno) from None
        if not math.isfinite(label_f) or label_f != int(label_f):
            raise ParseError(f"non-integer label {parts[0]!r}", lineno)
        _check_int64(int(label_f), "label", lineno)
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
            _check_int64(idx, "feature index", lineno)
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        if len(indices) > indptr[-1]:
            max_index = max(max_index, indices[-1])
        indptr.append(len(indices))
        labels.append(int(label_f))
    inferred = max_index + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise ValueError(f"explicit dim {dim} smaller than max observed index {inferred}")
    arrays = (np.array(values, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr))
    return Dataset.from_csr(sp.csr_matrix(arrays, shape=(len(labels), dim)), labels or None)


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm (1-based indices, 17-significant-digit floats)."""
    X = ds.to_csr()
    indptr, indices, values = X.indptr.tolist(), X.indices.tolist(), X.data.tolist()
    lines = []
    for t in range(len(ds)):
        label = ds.labels[t] if ds.labels is not None else 0
        row = slice(indptr[t], indptr[t + 1])
        feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(indices[row], values[row]))
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def feature_scales(ds: Dataset) -> np.ndarray:
    """Per-feature max absolute value (column max of |X|; 0 for unseen features)."""
    X = ds.to_csr()
    scales = np.zeros(ds.dim)
    np.maximum.at(scales, X.indices, np.abs(X.data))
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
    if np.shape(scales) != (ds.dim,):
        raise ValueError(f"scales of shape {np.shape(scales)} for dim={ds.dim}")
    divisor = np.where(scales > 0, scales, 1.0)
    X = ds.to_csr()
    scaled = sp.csr_matrix((X.data / divisor[X.indices], X.indices, X.indptr), shape=X.shape)
    return Dataset.from_csr(scaled, ds.labels)


def write_triplets(triplets: np.ndarray) -> str:
    """Triplet text format: one "<a> <b> <c>" line per row of a T x 3
    array, 0-based."""
    return "".join(f"{a} {b} {c}\n" for a, b, c in np.asarray(triplets).tolist())


def read_triplets(source: Union[str, io.TextIOBase]) -> np.ndarray:
    """Inverse of write_triplets: a (T, 3) int64 array. Blank lines and '#'
    comments are allowed; index ranges and b != c are checked by
    ConstraintSet against its dataset."""
    rows = []
    for lineno, parts in _content_lines(source):
        if len(parts) != 3:
            raise ParseError("expected three indices", lineno)
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ParseError("expected three integers", lineno) from None
        for i in row:
            _check_int64(i, "index", lineno)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
