"""Build triplet constraint sets from labels, a ground-truth model, or links."""

from __future__ import annotations

import logging
import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .model import Model, to_csr_matrix
from .objective import ConstraintSet
from .sparse_data import Dataset

logger = logging.getLogger(__name__)


RANK_BLOCK = 256  # anchors per product and sort: about 2n KB per block array


def similarity_blocks(X: sp.csr_matrix, M: Optional[sp.csr_matrix] = None):
    """Callback from a block of row indices to the dense (block x n)
    similarities x_a^T M x_t (M = identity when None): one sparse product
    per block, each row bit-identical to its single-row product."""
    left = X if M is None else (X @ M).tocsr()
    XT = X.T.tocsr()
    return lambda block: (left[block] @ XT).toarray()


def ranked_blocks(
    sims_of: Callable[[np.ndarray], np.ndarray], anchors: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Rank every other point for each anchor, RANK_BLOCK anchors at a time.

    Yields (block, order): order[r] holds the n - 1 points other than
    block[r], most similar first, ties to the lower index and NaN last (a
    stable sort of the negated similarities). One sims_of call and one
    block x n sort per block; nothing is kept between blocks.
    """
    for lo in range(0, anchors.size, RANK_BLOCK):
        block = anchors[lo : lo + RANK_BLOCK]
        order = np.argsort(-np.asarray(sims_of(block), dtype=np.float64), axis=1, kind="stable")
        yield block, order[order != block[:, None]].reshape(block.size, -1)


def neighbors_triplets(ds: Dataset, n_targets: int = 3, n_impostors: int = 5) -> ConstraintSet:
    """One triplet per (target neighbor, impostor) pair for each instance.

    Target neighbors are the n_targets most similar same-label points,
    impostors the n_impostors most similar different-label points, under
    the dot product; ties go to the lower index. Instances without enough
    candidates on either side are skipped with a logged warning count. All
    n points are ranked RANK_BLOCK at a time, one X[block] X^T product and
    block x n sort each: O(nnz of the products + n^2 log n) time and
    O(RANK_BLOCK n) memory.
    """
    if ds.labels is None:
        raise ValueError("labeled dataset required")
    if n_targets < 1 or n_impostors < 1:
        raise ValueError("n_targets and n_impostors must be >= 1")
    sims_of = similarity_blocks(ds.to_csr())
    return ConstraintSet(ds, _neighbor_triplets(sims_of, ds.labels, n_targets, n_impostors))


def _neighbor_triplets(
    sims_of: Callable[[np.ndarray], np.ndarray], labels: np.ndarray, n_targets: int, n_impostors: int
) -> np.ndarray:
    """neighbors_triplets' ranking pass, as a T x 3 array; neither a block
    ranking nor the tuple list outlives it."""
    triplets: List[Tuple[int, int, int]] = []
    skipped = 0
    for block, order in ranked_blocks(sims_of, np.arange(labels.size)):
        for a, row in zip(block.tolist(), order):
            same = labels[row] == labels[a]
            targets, impostors = row[same][:n_targets], row[~same][:n_impostors]
            if targets.size < n_targets or impostors.size < n_impostors:
                skipped += 1
                continue
            triplets.extend((a, int(b), int(c)) for b in targets for c in impostors)
    if skipped:
        logger.warning("neighbors_triplets: skipped %d instances with too few candidates", skipped)
    return np.array(triplets, dtype=np.int64).reshape(-1, 3)


def random_label_triplets(
    ds: Dataset, per_instance: int = 20, rng: Optional[np.random.Generator] = None
) -> ConstraintSet:
    """per_instance random triplets per anchor: b same-label (!= a), c different-label."""
    if ds.labels is None:
        raise ValueError("labeled dataset required")
    if np.unique(ds.labels).size < 2:
        raise ValueError("need at least two classes")
    if per_instance < 1:
        raise ValueError("per_instance must be >= 1")
    rng = rng or np.random.default_rng()
    n = len(ds)
    labels = ds.labels
    by_label: Dict[int, np.ndarray] = {
        int(l): np.flatnonzero(labels == l) for l in np.unique(labels)
    }
    triplets = []
    skipped = 0
    for a in range(n):
        same = by_label[int(labels[a])]
        same = same[same != a]
        other = np.flatnonzero(labels != labels[a])
        if same.size == 0 or other.size == 0:
            skipped += 1
            continue
        bs = rng.choice(same, size=per_instance, replace=True)
        cs_ = rng.choice(other, size=per_instance, replace=True)
        triplets.extend((a, int(b), int(c)) for b, c in zip(bs, cs_))
    if skipped:
        logger.warning("random_label_triplets: skipped %d singleton-class instances", skipped)
    return ConstraintSet(ds, np.array(triplets, dtype=np.int64).reshape(-1, 3))


def truth_triplets(
    samples: Dataset,
    truth: Model,
    alpha: float,
    count: int,
    rng: Optional[np.random.Generator] = None,
) -> ConstraintSet:
    """Random anchors; b from the top alpha-fraction most similar others
    under the ground-truth model, c from the bottom alpha-fraction.

    Both pools come from one ranking per anchor (ties to the lower index),
    so they stay disjoint under ties. The unique anchors are ranked
    RANK_BLOCK at a time, one (X M)[block] X^T product and block x n sort
    each: O(nnz products + u n log n) time for u unique anchors, with
    O(RANK_BLOCK n) memory and no pools kept. The draws are the anchors,
    then one rank in each pool per triplet, so the output and the
    generator state equal those of drawing per triplet from stored pools.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng or np.random.default_rng()
    n = len(samples)
    t_size = math.ceil(alpha * (n - 1))
    if 2 * t_size > n - 1:
        raise ValueError(f"n={n} too small for alpha={alpha}")
    sims_of = similarity_blocks(samples.to_csr(), to_csr_matrix(truth))

    anchors = rng.integers(0, n, size=count)
    # positions in the anchor's ranking: the top pool is its first t_size,
    # the bottom pool its last t_size
    picks = rng.integers(0, t_size, size=(count, 2))
    picks[:, 1] += n - 1 - t_size
    uniq, inv = np.unique(anchors, return_inverse=True)
    block_of = inv // RANK_BLOCK
    triplets = np.empty((count, 3), dtype=np.int64)
    triplets[:, 0] = anchors
    for k, (_, order) in enumerate(ranked_blocks(sims_of, uniq)):
        rows = np.flatnonzero(block_of == k)
        triplets[rows, 1:] = order[inv[rows, None] - k * RANK_BLOCK, picks[rows]]
    return ConstraintSet(samples, triplets)


def link_triplets(
    samples: Dataset,
    links: Sequence[Tuple[int, int, int]],
    rng: Optional[np.random.Generator] = None,
    per_link: int = 1,
) -> ConstraintSet:
    """Triplets from signed links (a, b, y).

    A positive link (y=+1) yields (a, b, x3) with x3 drawn from a's
    negatively-linked training neighbors; a negative link yields
    (a, x3, b) with x3 from a's positively-linked neighbors. Links whose
    anchor has no usable neighbor of the needed sign are skipped.
    """
    rng = rng or np.random.default_rng()
    n = len(samples)
    pos_nbrs: Dict[int, set] = {}
    neg_nbrs: Dict[int, set] = {}
    for a, b, y in links:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError("link endpoint out of range")
        table = pos_nbrs if y == 1 else neg_nbrs
        table.setdefault(int(a), set()).add(int(b))
        table.setdefault(int(b), set()).add(int(a))
    triplets = []
    skipped = 0
    for a, b, y in links:
        pool_set = (neg_nbrs if y == 1 else pos_nbrs).get(int(a), set()) - {int(b)}
        if not pool_set:
            skipped += 1
            continue
        pool = np.array(sorted(pool_set))
        picks = rng.choice(pool, size=per_link, replace=True)
        for x3 in picks:
            if y == 1:
                triplets.append((int(a), int(b), int(x3)))
            else:
                triplets.append((int(a), int(x3), int(b)))
    if skipped:
        logger.warning("link_triplets: skipped %d links without usable neighbors", skipped)
    return ConstraintSet(samples, np.array(triplets, dtype=np.int64).reshape(-1, 3))
