"""Build triplet constraint sets from labels, a ground-truth model, or links."""

from __future__ import annotations

import logging
import math
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np
import scipy.sparse as sp

from .model import Model, to_csr_matrix
from .objective import ConstraintSet, map_blocks
from .sparse_data import Dataset

logger = logging.getLogger(__name__)


RANK_BLOCK = 256  # anchors per product and ranking; below 2**15, as block rows are int16

R = TypeVar("R")


def similarity_blocks(X: sp.csr_matrix, M: Optional[sp.csr_matrix] = None):
    """Callback from a block of row indices to the (block x n) CSR
    similarities x_a^T M x_t (M = identity when None): one sparse product
    per block, each row bit-identical to its single-row product, never
    densified."""
    left = X if M is None else (X @ M).tocsr()
    XT = X.T.tocsr()
    return lambda block: left[block] @ XT


def ranked_blocks(
    sims_of: Callable[[np.ndarray], sp.csr_matrix],
    anchors: np.ndarray,
    fn: Callable[[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]], R],
    signs: Tuple[int, ...] = (1,),
) -> List[R]:
    """Rank every other point for each anchor, RANK_BLOCK anchors at a time,
    and return [fn(block, at) for each block], in block order.

    at(rows, ranks) broadcasts block-local rows against ranks in [0, n - 1)
    and returns the point at that rank in the ranking of the n - 1 points
    other than block[row]: most similar first, ties to the lower index, NaN
    last. That is the order of a stable sort of the row's negated
    similarities with the anchor left out. signs=(1, -1) calls fn a second
    time per block, on the ranking of the negated similarities (least
    similar first, from the same product); the results then alternate
    between the two.

    sims_of(block) gives the block's similarities as a CSR matrix (or
    anything sp.csr_matrix takes). Only its stored nonzeros are sorted:
    the positives fill the first ranks, then the zero class (every column
    neither stored nor the anchor, in column order), then the negatives
    and NaN. A block costs O((nnz + queries) log nnz) time and
    O(nnz + queries) memory. More than two blocks run on
    objective.map_blocks' pool, each product, ranking and fn call in one
    worker, so sims_of and fn must be safe to call from several threads,
    and fn must write only to what its block owns. A ranking lives only
    inside its fn call: at most one per worker is alive, and none
    outlives the call.
    """

    def rank(block):
        S = sp.csr_matrix(sims_of(block))
        return [fn(block, _block_ranking(S if sign > 0 else -S, block)) for sign in signs]

    blocks = [anchors[lo : lo + RANK_BLOCK] for lo in range(0, anchors.size, RANK_BLOCK)]
    # two blocks run serially: a worker thread allocates from its own malloc
    # arena (glibc), which cannot reuse what the calling thread freed, and
    # pooling gen_links' two blocks at n = 500 saved no time but raised
    # peak RSS by a block's arrays per worker
    ranked = map_blocks(rank, blocks, None if len(blocks) > 2 else 1)
    return [out for outs in ranked for out in outs]


def _block_ranking(S: sp.csr_matrix, block: np.ndarray):
    """ranked_blocks' lookup for one block of similarities S (B x n)."""
    B, n = S.shape
    row = np.repeat(np.arange(B, dtype=np.int16), np.diff(S.indptr))
    val = np.asarray(S.data, dtype=np.float64)
    keep = (val != 0) & (S.indices != block[row])  # NaN != 0 stays
    row, col, key = row[keep], S.indices[keep], np.negative(val[keep])
    # (row, -value, column) order: a value sort, then a stable row sort;
    # a block with equal values inside a row, or with NaN, takes the exact
    # lexsort instead (about twice as slow on tie-free blocks, so not the
    # only path)
    order = np.argsort(key, kind="quicksort")
    order = order[np.argsort(row[order], kind="stable")]
    r, k = row[order], key[order]
    if np.isnan(k).any() or np.any((r[1:] == r[:-1]) & (k[1:] == k[:-1])):
        order = np.lexsort((col, key, row))
    ranked = col[order]
    count = np.bincount(row, minlength=B)
    start = np.concatenate(([0], np.cumsum(count)))
    n_pos = np.bincount(row[key < 0], minlength=B)
    n_zero = n - 1 - count
    # the zero class of row r: every column but the excluded ones, its
    # stored columns and the anchor; with those sorted, free[g] = r*n +
    # (excluded column - its place in the row) counts the zero-class columns
    # before it, so the k-th zero-class column is k + (excluded columns with
    # free <= r*n + k). free is built in place once the sort keys are gone,
    # which lowers the block's peak memory
    free = np.concatenate((row * np.int64(n), np.arange(B) * n + block))
    free[: col.size] += col
    del r, k, order, key, row, col, keep
    free.sort()
    excl_start = start[:-1] + np.arange(B)
    free -= np.arange(free.size)
    free += np.repeat(excl_start, count + 1)

    def at(rows, ranks):
        rows, ranks = np.broadcast_arrays(np.asarray(rows), np.asarray(ranks))
        r, j = rows.ravel().astype(np.int64), ranks.ravel()
        k = j - n_pos[r]
        zero = (k >= 0) & (k < n_zero[r])
        out = np.empty(r.size, dtype=np.int64)
        e = ~zero
        re, je = r[e], j[e]
        out[e] = ranked[start[re] + np.where(je < n_pos[re], je, je - n_zero[re])]
        rz, kz = r[zero], k[zero]
        out[zero] = kz + np.searchsorted(free, rz * n + kz, side="right") - excl_start[rz]
        return out.reshape(rows.shape)

    return at


def neighbors_triplets(ds: Dataset, n_targets: int = 3, n_impostors: int = 5) -> ConstraintSet:
    """One triplet per (target neighbor, impostor) pair for each instance.

    Target neighbors are the n_targets most similar same-label points,
    impostors the n_impostors most similar different-label points, under
    the dot product; ties go to the lower index, points of similarity zero
    rank in index order after the positive ones, and NaN ranks last.
    Instances without enough candidates on either side are skipped with a
    logged warning count. All n points are ranked RANK_BLOCK at a time by
    ranked_blocks, one X[block] X^T product each. Each anchor reads the
    first 4 (n_targets + n_impostors) ranks, and doubles that while it
    lacks candidates, up to all n - 1: O(nnz log nnz + n w log nnz) time
    for the nnz stored similarities and w ranks read per anchor, and
    O(nnz of a block + RANK_BLOCK w) memory per worker of the pool.
    """
    if ds.labels is None:
        raise ValueError("labeled dataset required")
    if n_targets < 1 or n_impostors < 1:
        raise ValueError("n_targets and n_impostors must be >= 1")
    sims_of = similarity_blocks(ds.to_csr())
    return ConstraintSet(ds, _neighbor_triplets(sims_of, ds.labels, n_targets, n_impostors))


def _neighbor_triplets(
    sims_of: Callable[[np.ndarray], sp.csr_matrix],
    labels: np.ndarray,
    n_targets: int,
    n_impostors: int,
) -> np.ndarray:
    """neighbors_triplets' ranking pass, as a T x 3 array; neither a block
    ranking nor the per-anchor arrays outlive it."""
    n = labels.size
    head = min(n - 1, 4 * (n_targets + n_impostors))

    def pick(a, row):
        """a's targets and impostors among the ranked points row, or None."""
        same = labels[row] == labels[a]
        targets, impostors = row[same][:n_targets], row[~same][:n_impostors]
        enough = targets.size == n_targets and impostors.size == n_impostors
        return (targets, impostors) if enough else None

    def block_triplets(block, at):
        """The block's triplets and the number of its anchors skipped."""
        triplets, skipped = [np.zeros((0, 3), dtype=np.int64)], 0
        heads = at(np.arange(block.size)[:, None], np.arange(head))
        for r, a in enumerate(block.tolist()):
            width, found = head, pick(a, heads[r])
            while found is None and width < n - 1:
                width = min(2 * width, n - 1)
                found = pick(a, at(r, np.arange(width)))
            if found is None:
                skipped += 1
                continue
            targets, impostors = found  # b in targets, then c in impostors
            bs, cs = np.repeat(targets, n_impostors), np.tile(impostors, n_targets)
            triplets.append(np.column_stack((np.full(bs.size, a), bs, cs)))
        return np.concatenate(triplets), skipped

    parts = ranked_blocks(sims_of, np.arange(n), block_triplets)
    skipped = sum(count for _, count in parts)
    if skipped:
        logger.warning("neighbors_triplets: skipped %d instances with too few candidates", skipped)
    return np.concatenate([np.zeros((0, 3), dtype=np.int64)] + [t for t, _ in parts])


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
    labels = ds.labels
    by_label = {int(l): np.flatnonzero(labels == l) for l in np.unique(labels)}
    other = {l: np.flatnonzero(labels != l) for l in by_label}
    anchors = np.flatnonzero([by_label[l].size > 1 for l in labels.tolist()])
    if anchors.size < labels.size:
        skipped = labels.size - anchors.size
        logger.warning("random_label_triplets: skipped %d singleton-class instances", skipped)
    triplets = np.empty((anchors.size, per_instance, 3), dtype=np.int64)
    triplets[:, :, 0] = anchors[:, None]
    for rows, a, l in zip(triplets, anchors.tolist(), labels[anchors].tolist()):
        same, pool = by_label[l], other[l]
        # b uniform over the class without a: a position past a's steps over
        # it; both draws make the generator calls rng.choice would
        pos = rng.integers(0, same.size - 1, size=per_instance)
        pos += pos >= np.searchsorted(same, a)
        rows[:, 1] = same[pos]
        rows[:, 2] = pool[rng.integers(0, pool.size, size=per_instance)]
    return ConstraintSet(ds, triplets.reshape(-1, 3))


def truth_triplets(
    samples: Dataset,
    truth: Model,
    alpha: float,
    count: int,
    rng: Optional[np.random.Generator] = None,
) -> ConstraintSet:
    """Random anchors; b from the top alpha-fraction most similar others
    under the ground-truth model, c from the bottom alpha-fraction.

    Both pools come from one ranking per anchor (ties to the lower index,
    the zero class in index order, NaN last, the anchor left out), so they
    stay disjoint under ties. The unique anchors are ranked RANK_BLOCK at a
    time by ranked_blocks, one (X M)[block] X^T product each, and only the
    two drawn ranks per triplet are read: O((nnz + count) log nnz) time for
    the nnz stored similarities and O(nnz of a block per worker + count)
    memory, with no dense block and no pools kept. The triplets are split
    by block in one stable sort, and each block's worker writes its
    triplets' b and c into their rows. The draws are the anchors,
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
    # the triplets split by block in one stable sort; every block has some
    block_of = inv // RANK_BLOCK
    order = np.argsort(block_of, kind="stable")
    rows_of = np.split(order, np.flatnonzero(np.diff(block_of[order])) + 1)
    triplets = np.empty((count, 3), dtype=np.int64)
    triplets[:, 0] = anchors

    def fill(block, at):
        """b and c of the block's triplets, written into their own rows."""
        lo = np.searchsorted(uniq, block[0])  # block is uniq[lo : lo + RANK_BLOCK]
        rows = rows_of[lo // RANK_BLOCK]
        triplets[rows, 1:] = at(inv[rows, None] - lo, picks[rows])

    ranked_blocks(sims_of, uniq, fill)
    return ConstraintSet(samples, triplets)


def link_array(links, n: int) -> np.ndarray:
    """Signed links as an (L, 3) int64 array of (a, b, y), from a sequence
    of (a, b, y) triples or an (L, 3) integer array. Raises ValueError
    unless both endpoints lie in [0, n) and y is +1 or -1."""
    arr = np.asarray(links) if len(links) else np.zeros((0, 3), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"links must be (a, b, y) integer triples, got shape {arr.shape}")
    if ((arr[:, :2] < 0) | (arr[:, :2] >= n)).any():
        raise ValueError("link endpoint out of range")
    if not np.isin(arr[:, 2], (1, -1)).all():
        raise ValueError("link label must be +1 or -1")
    return arr.astype(np.int64, copy=False)


def link_triplets(
    samples: Dataset,
    links,
    rng: Optional[np.random.Generator] = None,
    per_link: int = 1,
) -> ConstraintSet:
    """Triplets from signed links (a, b, y), given in any form link_array
    takes: a sequence of triples or an (L, 3) integer array.

    A positive link (y=+1) yields (a, b, x3) with x3 drawn from a's
    negatively-linked training neighbors; a negative link yields
    (a, x3, b) with x3 from a's positively-linked neighbors. Links whose
    anchor has no usable neighbor of the needed sign are skipped.
    """
    if per_link < 1:
        raise ValueError("per_link must be >= 1")
    rng = rng or np.random.default_rng()
    links = link_array(links, len(samples)).tolist()
    nbrs: Dict[int, Dict[int, set]] = {1: {}, -1: {}}  # y -> point -> its y-linked points
    for a, b, y in links:
        nbrs[y].setdefault(a, set()).add(b)
        nbrs[y].setdefault(b, set()).add(a)
    triplets = []
    skipped = 0
    for a, b, y in links:
        pool = sorted(nbrs[-y].get(a, set()) - {b})
        if not pool:
            skipped += 1
            continue
        for x3 in rng.choice(pool, size=per_link).tolist():
            triplets.append((a, b, x3) if y == 1 else (a, x3, b))
    if skipped:
        logger.warning("link_triplets: skipped %d links without usable neighbors", skipped)
    return ConstraintSet(samples, np.array(triplets, dtype=np.int64).reshape(-1, 3))
