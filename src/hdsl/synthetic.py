"""Seeded generators for recovery and link-prediction benchmarks."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constraints import ranked_blocks, similarity_blocks
from .model import NEG, POS, BasisId, Model, to_csr_matrix
from .sparse_data import Dataset, csr_from_rows


def _sample_bases(
    pools: Sequence[np.ndarray], n_bases: int, rng: np.random.Generator
) -> List[BasisId]:
    """n_bases distinct bases with both features drawn from one pool."""
    pair_counts = np.array([p.size * (p.size - 1) // 2 for p in pools], dtype=np.float64)
    available = int(2 * pair_counts.sum())
    if available < n_bases:
        raise ValueError(f"only {available} distinct bases available, need {n_bases}")
    probs = pair_counts / pair_counts.sum()
    chosen: set = set()
    attempts = 0
    while len(chosen) < n_bases:
        attempts += 1
        if attempts > 1000 * n_bases + 1000:
            raise ValueError("basis sampling did not converge; pool too small")
        pool = pools[rng.choice(len(pools), p=probs)]
        i, j = rng.choice(pool, size=2, replace=False)
        sign = POS if rng.random() < 0.5 else NEG
        chosen.add(BasisId(int(min(i, j)), int(max(i, j)), sign))
    return sorted(chosen)


def _dirichlet_weights(n: int, concentration: float, rng: np.random.Generator) -> np.ndarray:
    while True:
        w = rng.dirichlet(np.full(n, concentration))
        if np.all(w > 0):
            return w / w.sum()


def gen_truth(
    dim: int,
    n_bases: int = 100,
    block: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
    dirichlet_a: float = 9.0,
    rng: Optional[np.random.Generator] = None,
    lam: float = 1.0,
) -> Model:
    """Ground-truth model: distinct random bases with symmetric-Dirichlet weights.

    With `block` = ((lo1, hi1), (lo2, hi2)) both features of each basis are
    drawn from one of the two index ranges, which produces a visually
    block-structured matrix.
    """
    if dim < 4:
        raise ValueError("dim must be >= 4")
    if n_bases < 1:
        raise ValueError("n_bases must be >= 1")
    rng = rng or np.random.default_rng()
    if block is None:
        pools = [np.arange(dim)]
    else:
        (lo1, hi1), (lo2, hi2) = block
        if not (0 <= lo1 < hi1 <= dim and 0 <= lo2 < hi2 <= dim):
            raise ValueError("block ranges out of bounds")
        pools = [np.arange(lo1, hi1), np.arange(lo2, hi2)]
    bases = _sample_bases(pools, n_bases, rng)
    weights = _dirichlet_weights(n_bases, dirichlet_a, rng)
    return Model(lam, dim, dict(zip(bases, weights)))


def gen_truth_frequent(
    dim: int,
    n_bases: int,
    samples: Dataset,
    min_freq: float = 0.1,
    rng: Optional[np.random.Generator] = None,
    dirichlet_a: float = 9.0,
    lam: float = 1.0,
) -> Model:
    """Like gen_truth, with basis features restricted to those whose empirical
    frequency in `samples` is at least min_freq."""
    if samples.dim != dim:
        raise ValueError("samples dimension mismatch")
    rng = rng or np.random.default_rng()
    counts = samples.to_csr().getnnz(axis=0)
    freq = counts / max(len(samples), 1)
    frequent = np.flatnonzero(freq >= min_freq)
    if frequent.size < 2:
        raise ValueError(f"only {frequent.size} features with frequency >= {min_freq}")
    bases = _sample_bases([frequent], n_bases, rng)
    weights = _dirichlet_weights(n_bases, dirichlet_a, rng)
    return Model(lam, dim, dict(zip(bases, weights)))


def _uniform_values(k: int, rng: np.random.Generator) -> np.ndarray:
    vals = rng.random(k)
    while np.any(vals == 0.0):  # keep the no-stored-zeros invariant
        vals[vals == 0.0] = rng.random(int(np.sum(vals == 0.0)))
    return vals


def gen_uniform_sparse(
    n: int, dim: int, sparsity: float = 0.02, rng: Optional[np.random.Generator] = None
) -> Dataset:
    """n points, each with ceil(sparsity*dim) uniform features valued U(0,1)."""
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must be in (0, 1]")
    rng = rng or np.random.default_rng()
    k = math.ceil(sparsity * dim)
    indices, values = [], []
    for _ in range(n):
        indices.append(np.sort(rng.choice(dim, size=k, replace=False)))
        values.append(_uniform_values(k, rng))
    return Dataset.from_csr(csr_from_rows(indices, values, dim))


def powerlaw_inclusion_probs(dim: int, avg_sparsity: float, exponent: float) -> np.ndarray:
    """Per-feature inclusion probabilities p_f proportional to (f+1)^-exponent,
    scaled so the expected nonzero count per point is avg_sparsity*dim."""
    target = avg_sparsity * dim
    if target < 1:
        raise ValueError("avg_sparsity*dim must be >= 1")
    raw = np.power(np.arange(1, dim + 1, dtype=np.float64), -exponent)
    p = raw * (target / raw.sum())
    if p.max() > 1.0:
        raise ValueError(
            f"infeasible scaling: head probability {p.max():.3f} > 1; "
            "lower avg_sparsity or the exponent"
        )
    return p


def gen_powerlaw_sparse(
    n: int,
    dim: int,
    avg_sparsity: float,
    exponent: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> Dataset:
    """n points with power-law feature frequencies and U(0,1) values."""
    rng = rng or np.random.default_rng()
    p = powerlaw_inclusion_probs(dim, avg_sparsity, exponent)
    indices, values = [], []
    chunk = max(1, min(n, int(4e6 // max(dim, 1)) or 1))
    done = 0
    while done < n:
        rows = min(chunk, n - done)
        mask = rng.random((rows, dim)) < p
        for r in range(rows):
            indices.append(np.flatnonzero(mask[r]))
            values.append(_uniform_values(indices[-1].size, rng))
        done += rows
    return Dataset.from_csr(csr_from_rows(indices, values, dim))


def gen_links(
    samples: Dataset,
    truth: Model,
    n_links: int,
    top_frac: float = 0.05,
    rng: Optional[np.random.Generator] = None,
) -> List[Tuple[int, int, int]]:
    """Signed link observations (a, b, y), duplicates excluded, shuffled.

    y=+1 when the truth similarity of the pair ranks in the top fraction of
    either endpoint's neighbors, y=-1 for the bottom fraction; pairs
    qualifying for both are dropped. Positive and negative links are
    sampled in equal numbers. Ranks come from ranked_blocks, ties to the
    lower index and the zero class in index order; each block's similarity
    product is ranked both ways in one worker of its pool, and only the
    first t ranks of each row are read, t = ceil(top_frac (n - 1)).
    """
    if not 0.0 < top_frac < 0.5:
        raise ValueError("top_frac must be in (0, 0.5)")
    rng = rng or np.random.default_rng()
    n = len(samples)
    t = math.ceil(top_frac * (n - 1))
    sims_of = similarity_blocks(samples.to_csr(), to_csr_matrix(truth))

    def keys(block, at):
        """Keys a*n + b (a < b) of each anchor's t best-ranked partners."""
        a, b = block[:, None], at(np.arange(block.size)[:, None], np.arange(t))
        return (np.minimum(a, b) * n + np.maximum(a, b)).ravel()

    # ranked by S for the positives and by -S for the negatives, from one
    # CSR product S per block; ties go to the lower index in both rankings
    ranked = [np.zeros(0, dtype=np.int64)] * 2 + ranked_blocks(sims_of, np.arange(n), keys, (1, -1))
    # a sort, not np.unique's hash table
    pos_keys, neg_keys = (np.sort(np.concatenate(ranked[s::2])) for s in (0, 1))
    pos_keys, neg_keys = (k[np.diff(k, prepend=-1) != 0] for k in (pos_keys, neg_keys))
    pos_pairs = np.setdiff1d(pos_keys, neg_keys, assume_unique=True)
    neg_pairs = np.setdiff1d(neg_keys, pos_keys, assume_unique=True)

    n_pos = n_links // 2
    n_neg = n_links - n_pos
    if len(pos_pairs) < n_pos or len(neg_pairs) < n_neg:
        raise ValueError(
            f"not enough candidate links: {len(pos_pairs)} positive / "
            f"{len(neg_pairs)} negative available"
        )
    links = [
        (*divmod(key, n), y)
        for keys, size, y in ((pos_pairs, n_pos, 1), (neg_pairs, n_neg, -1))
        for key in keys[rng.choice(keys.size, size=size, replace=False)].tolist()
    ]
    order = rng.permutation(len(links))
    return [links[i] for i in order]
