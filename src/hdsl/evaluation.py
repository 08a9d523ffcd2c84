"""Metrics: k-NN error under a learned similarity, recovery and link AUCs."""

from __future__ import annotations

from typing import Iterable, Set, Tuple

import numpy as np

from . import model as model_mod  # factorize, project_dataset: looked up per call
from .constraints import link_array
from .model import Model, to_csr_matrix
from .sparse_data import Dataset


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of the 1-D x, each tie group given the mean of its ranks;
    all NaN if x holds a NaN. Bit-equal to scipy.stats.rankdata(x): the
    ranks are exact half-integers."""
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _auc_from_arrays(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC with ties counted half; O(n log n) rank-sum form."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative")
    ranks = _average_ranks(scores)
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc(scores: Iterable[Tuple[object, float]], positives: Set[object]) -> float:
    """Probability a random positive outscores a random negative (ties: 0.5)."""
    pairs = list(scores)
    items, vals = zip(*pairs) if pairs else ((), ())
    vals = np.asarray(vals, dtype=np.float64)
    mask = np.array([item in positives for item in items], dtype=bool)
    return _auc_from_arrays(vals, mask)


def knn_error(model: Model, train: Dataset, test: Dataset, k: int = 3) -> float:
    """Fraction of test points misclassified by k-NN majority vote under the
    learned similarity. Similarity ties prefer the lower train index; vote
    ties prefer the smaller label.

    Similarities are dot products of the K-dimensional projections
    (M = L L^T, one column of L per atom): O(nnz(X) K) to project and
    O(n_test n_train K) to score.
    """
    if train.labels is None or test.labels is None:
        raise ValueError("labeled datasets required")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("empty dataset")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(train):
        raise ValueError("k exceeds the number of training points")
    proj = model_mod.factorize(model)
    p_train_t = model_mod.project_dataset(proj, train.to_csr()).T
    p_test = model_mod.project_dataset(proj, test.to_csr())
    classes, label_idx = np.unique(train.labels, return_inverse=True)
    n_train = len(train)
    n_classes = classes.size
    errors = 0
    chunk = max(1, int(2e6 // max(n_train, 1)))
    for start in range(0, len(test), chunk):
        stop = min(start + chunk, len(test))
        sims = p_test[start:stop] @ p_train_t
        # a stable sort keeps tied similarities in train order
        top = np.argsort(-sims, axis=-1, kind="stable")[:, :k]
        # vote counts per (row, class); argmax's first hit is the smallest label
        row_base = np.arange(stop - start)[:, None] * n_classes
        votes = np.bincount(
            (row_base + label_idx[top]).ravel(), minlength=(stop - start) * n_classes
        ).reshape(-1, n_classes)
        pred = classes[np.argmax(votes, axis=1)]
        errors += int(np.count_nonzero(pred != test.labels[start:stop]))
    return errors / len(test)


def _row_l1_scores(model: Model) -> np.ndarray:
    coo = to_csr_matrix(model).tocoo()
    return np.bincount(coo.row, weights=np.abs(coo.data), minlength=model.dim)


def feature_recovery_auc(model: Model, truth_features: Set[int]) -> float:
    """AUC of ranking features by the L1 norm of their matrix row against the
    set of features active in the ground truth."""
    if not truth_features:
        raise ValueError("truth feature set is empty")
    if min(truth_features) < 0 or max(truth_features) >= model.dim:
        raise ValueError(f"truth feature outside [0, {model.dim})")
    if len(truth_features) >= model.dim:
        raise ValueError("truth features must be a proper subset of all features")
    scores = _row_l1_scores(model)
    mask = np.zeros(model.dim, dtype=bool)
    mask[sorted(truth_features)] = True
    return _auc_from_arrays(scores, mask)


def entry_recovery_auc(model: Model, truth_entries: Set[Tuple[int, int]]) -> float:
    """AUC of ranking off-diagonal upper-triangle pairs by |M_ij| against the
    ground-truth active entries.

    The zero-score mass (all pairs absent from the model) is handled in
    closed form, so the d*(d-1)/2 pair universe is never materialized.
    """
    if any(not (0 <= i < model.dim and 0 <= j < model.dim) for i, j in truth_entries):
        raise ValueError(f"truth entry outside [0, {model.dim})")
    truth = {(min(i, j), max(i, j)) for i, j in truth_entries if i != j}
    if not truth:
        raise ValueError("truth entry set is empty")
    total = model.dim * (model.dim - 1) // 2
    n_pos = len(truth)
    n_neg = total - n_pos
    if n_neg <= 0:
        raise ValueError("truth entries cover every pair")

    # the model's nonzero upper-triangle entries, row-major
    coo = to_csr_matrix(model).tocoo()
    upper = coo.row < coo.col
    keys = coo.row[upper].astype(np.int64) * model.dim + coo.col[upper]
    scores = np.abs(coo.data[upper])
    in_truth = np.isin(keys, [i * model.dim + j for i, j in truth])
    pos_scores, neg_scores = scores[in_truth], scores[~in_truth]
    p_s, n_s = pos_scores.size, neg_scores.size
    p_z = n_pos - p_s
    n_z = n_neg - n_s

    if p_s and n_s:
        ranks = _average_ranks(np.concatenate([pos_scores, neg_scores]))
        u_ss = float(ranks[:p_s].sum() - p_s * (p_s + 1) / 2.0)
    else:
        u_ss = 0.0
    wins = u_ss + p_s * n_z + 0.5 * p_z * n_z
    return float(wins / (n_pos * n_neg))


def link_auc(model: Model, samples: Dataset, test_links) -> float:
    """AUC of similarity scores over signed test links (positives: y = +1),
    given in any form link_array takes: a sequence of (a, b, y) triples or
    an (L, 3) integer array.

    Each link scores as the dot product of its endpoints' projections
    (M = L L^T): O(nnz(X) K) to project, O(links K) to score.
    """
    links = link_array(test_links, len(samples))
    if links.size == 0:
        raise ValueError("empty link set")
    proj = model_mod.project_dataset(model_mod.factorize(model), samples.to_csr())
    scores = np.einsum("ij,ij->i", proj[links[:, 0]], proj[links[:, 1]])
    return _auc_from_arrays(scores, links[:, 2] == 1)
