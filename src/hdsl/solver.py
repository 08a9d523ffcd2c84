"""Frank-Wolfe solver with away steps over the rank-one 4-sparse basis domain.

Each iteration picks the best forward basis (exact, mini-batch estimated, or
two-stage heuristic search), compares it with the best away direction over
the active atoms, steps to the exact minimiser of the objective along the
chosen direction, and updates the model weights plus the margin cache in O(T).
An exact solve skips the oracle while a step inside the active set gains a
share of the last certified gap (lazy_direction; Braun, Pokutta & Zink 2017);
a heuristic solve skips it while the away step gains at least as much as the
best step of the last oracle iteration, and takes no lazy forward steps.
The exact oracle accumulates over constraint supports, and after its first
call only over the constraints whose loss derivative changed; it makes
passes over all d^2 feature pairs only while a dense d x d array fits
ConstraintSet.DENSE_CELL_LIMIT. The approximate oracles accumulate over a
sampled subset of constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .model import NEG, POS, BasisId, Model, basis_order
from .objective import (
    DENSE_TILE,
    ConstraintSet,
    MarginCache,
    init_cache,
    objective,
    update_cache_sparse,
)

ATOM_DROP_TOL = 1e-12
# largest tolerated |incremental - fresh| margin at a recompute, relative to
# max(1, max |m|), and the same for the exact oracle's running pair
# statistic H; float drift over a thousand steps is around 1e-13, so more
# means the step bookkeeping is wrong
MARGIN_DRIFT_TOL = 1e-8
# margins and the running H are rebuilt from scratch (and their drift
# measured) this often
RECOMPUTE_EVERY = 1000
# lazy gain floor: last certified gap / LAZY_KAPPA (4: <= 5 % faster, higher objective)
LAZY_KAPPA = 2.0


@dataclass
class SolverConfig:
    """Knobs for train(); see the README for the oracle trade-offs.

    Step sizes take no knob: line_search is exact. `eval_every` and
    `patience` must be >= 1 and `max_iters` >= 0.
    """

    lam: float
    max_iters: int = 1000
    oracle: str = "exact"  # "exact" | "minibatch" | "heuristic"
    batch_size: int = 0
    gap_tol: float = 1e-5
    seed: int = 0
    val_fn: Optional[Callable[[Model], float]] = None  # higher is better
    eval_every: int = 50
    patience: int = 10

    def __post_init__(self):
        for name in ("lam", "gap_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.oracle not in ("exact", "minibatch", "heuristic"):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.oracle in ("minibatch", "heuristic") and self.batch_size <= 0:
            raise ValueError("batch_size must be positive for sampled oracles")
        for name, low in (("eval_every", 1), ("patience", 1), ("max_iters", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass
class Direction:
    """A candidate move: toward a basis (forward) or away from an active atom.

    `score` is <B, grad f(M)>; the directional derivative follows as
    score - <M, grad f> for forward moves and <M, grad f> - score for away
    moves. `inner_rows`/`inner_vals` hold the per-constraint <A^t, B> values
    (sparse, full constraint set) used for cache updates and line search.
    `atom` is the basis's row in the atoms (and in SolverState.A) of the
    model the direction was built from, when it is an active atom
    (_atom_direction); apply_step then needs no search for it.
    """

    kind: str  # "F" | "A"
    basis: BasisId
    gamma_max: float
    score: float
    inner_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    inner_vals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    atom: Optional[int] = None


class GradientAccumulators:
    """Sufficient statistics of the gradient for basis scoring.

    H is the exactly symmetric d x d pair matrix (1/|set|) * sum_t g_t
    (x_t d_t^T + d_t x_t^T): a dense array when d*d <=
    ConstraintSet.DENSE_CELL_LIMIT, for full-set and subset statistics
    alike, and scipy sparse otherwise. diag[i] = H_ii / 2 = (1/|set|) *
    sum_t g_t x_ti d_ti. Basis scores follow as <P/N_(ij), grad f> =
    lam * (diag[i] + diag[j] +/- H_ij), read from the upper triangle
    (i < j); since H_ij and H_ji hold the same bits, so do the scores of
    (i, j) and (j, i), and a tie between them goes to the upper one.
    `rows` is the number of constraints the call folded into H: the set
    size on a fresh build, and on an update of the exact oracle's running
    statistic the number of loss derivatives that changed.

    With a dense H, a gradient_accumulate call allocates two d x d
    arrays, one after the other: pair_statistic's result (the fresh H, or
    the delta that is added into the running H and dropped) and the scaled
    copy H here. An exact solve so holds the running H on the cache and,
    only inside one oracle call, one more d x d array (the delta or the
    scaled copy): train's accumulators are made and dropped within
    _directions.
    """

    def __init__(self, H, count: int, rows: Optional[int] = None):
        self.H = H
        self.diag = 0.5 * H.diagonal()
        self.count = count
        self.rows = count if rows is None else rows


def gradient_accumulate(
    cs: ConstraintSet, cache: MarginCache, subset: Optional[np.ndarray] = None
) -> GradientAccumulators:
    """Accumulate gradient statistics over a constraint subset (default: all).

    Satisfied constraints (zero loss derivative) add nothing; the averages
    are still taken over the full subset size. The full set keeps a running
    unscaled statistic on the cache: H is linear in the loss derivatives g,
    so every call after the first adds the statistic of g - g_prev, which
    costs in proportion to the rows where g changed. The returned H is a
    scaled copy that later calls leave alone.
    """
    count = len(cs) if subset is None else subset.size
    if count == 0:
        raise ValueError("empty constraint subset")
    g = cache.derivs()
    if subset is not None:
        return GradientAccumulators(cs.pair_statistic(g, subset) / count, count)
    if cache.statistic is None or cache.statistic[0] is not cs:
        H, rows = cs.pair_statistic(g), count
    else:
        _, H, g_prev = cache.statistic
        delta = g - g_prev
        rows = int(np.count_nonzero(delta))
        if rows:
            # in place for a dense H, with C + C^T summed first: adding C and
            # then C^T would round H_ij and H_ji in different orders
            H += cs.pair_statistic(delta)
    cache.statistic = (cs, H, g)
    return GradientAccumulators(H / count, count, rows)


def _statistic_drift(cs: ConstraintSet, cache: MarginCache, k: int) -> Optional[float]:
    """Rebuild the running pair statistic from scratch at the derivatives
    it was last brought to, and replace it. Returns max|running - fresh|
    relative to max(1, max|fresh|), or None when there is none, and raises
    RuntimeError above MARGIN_DRIFT_TOL. A dense running H takes the
    difference in place, so the fresh build is the one d x d array."""
    if cache.statistic is None:
        return None
    _, H, g = cache.statistic
    fresh = cs.pair_statistic(g)
    if isinstance(H, np.ndarray):
        # H is replaced below, so the difference is taken in it
        H -= fresh
        diff, scale = np.abs(H, out=H).max(), max(fresh.max(), -fresh.min())
    else:
        diff, scale = abs(H - fresh).max(), abs(fresh).max()
    drift = float(diff) / max(1.0, float(scale))
    if drift > MARGIN_DRIFT_TOL:
        raise RuntimeError(f"pair statistic drifted by {drift:.3e} at iteration {k}")
    cache.statistic = (cs, fresh, g)
    return drift


def _lex_min_candidate(scores: np.ndarray, bases: np.ndarray) -> int:
    """Index of the lowest score, ties to the first in basis_order of
    `bases` (one row per score); a NaN minimum gives argmin's first NaN."""
    k = int(np.argmin(scores))
    ties = np.flatnonzero(scores == scores[k])
    if ties.size <= 1:
        return k
    return int(ties[basis_order(bases[ties])[0]])


def forward_exact(
    acc: GradientAccumulators,
    lam: float,
    dim: int,
    cs: Optional[ConstraintSet] = None,
) -> Direction:
    """Global argmin of <B, grad f> over all bases.

    A pair (i, j) scores lam*(c_i + c_j - |H_ij|) with the sign that
    benefits. A dense H is scored in bands of DENSE_TILE rows [lo, hi),
    each over the columns [lo, d) only, so the call reads the upper half of
    H and allocates two DENSE_TILE x d arrays (the band's scores and
    |H|), no d x d one. The pick is that of the full d x d row-major
    argmin with the diagonal masked, bit for bit. H and c_i + c_j are
    exactly symmetric, so that argmin's first hit (i, j) has i < j (a hit
    with j < i would have its equal (j, i) in an earlier row), and it is
    the lex-smallest pair. In a band, a lower entry (r, c), lo <= c < r,
    has its equal (c, r) in an earlier row of the same band, so the band's
    first hit is upper too; the running best changes only on a strict <,
    keeping the earliest band on ties, and the first NaN ends the scan, as
    argmin returns the first NaN.

    A sparse H is decomposed: (a) every pair with a nonzero cross term
    H_ij; (b) the pair of the two smallest diagonal values with sign Pos.
    Any pair with zero cross term scores at least (b)'s candidate, and the
    best pair with a nonzero cross term is already in (a), so the minimum
    over (a) and (b) is the global one. Ties go to the first in
    basis_order, and a NaN score, as in the dense scan, to the first NaN.
    """
    if dim < 2:
        raise ValueError("need at least two features")
    c = acc.diag

    if isinstance(acc.H, np.ndarray):
        H = acc.H
        best = None
        for lo in range(0, dim, DENSE_TILE):
            scores = np.add.outer(c[lo : lo + DENSE_TILE], c[lo:])
            scores -= np.abs(H[lo : lo + DENSE_TILE, lo:])
            scores *= lam
            np.fill_diagonal(scores, np.inf)
            r, col = divmod(int(np.argmin(scores)), scores.shape[1])
            score = scores[r, col]
            if best is None or score < best[0] or math.isnan(score):
                best = (score, lo + r, lo + col)
                if math.isnan(score):
                    break
        score, i, j = best
        basis = BasisId(i, j, NEG if H[i, j] > 0 else POS)
    else:
        h = acc.H.tocoo()
        mask = (h.row < h.col) & (h.data != 0.0)
        # candidate (b) joins as a pair with cross term 0, so its sign is Pos
        bi, bj = sorted(np.argsort(c, kind="stable")[:2])  # ties: first occurrences
        iu, ju = np.append(h.row[mask], bi), np.append(h.col[mask], bj)
        hu = np.append(h.data[mask], 0.0)
        cand = np.column_stack((iu, ju, np.where(hu > 0, NEG, POS)))
        cand_score = lam * (c[iu] + c[ju] - np.abs(hu))
        k = _lex_min_candidate(cand_score, cand)
        basis = BasisId._make(cand[k].tolist())
        score = cand_score[k]
    direction = Direction(kind="F", basis=basis, gamma_max=1.0, score=float(score))
    if cs is not None:
        rows, vals = cs.pair_inners(basis.i, basis.j, basis.sign, lam)
        direction.inner_rows, direction.inner_vals = rows, vals
    return direction


def _draw_batch(cs: ConstraintSet, size: int, rng: np.random.Generator) -> np.ndarray:
    """A sorted uniform sample of `size` constraints, without replacement."""
    if size <= 0 or size > len(cs):
        raise ValueError("batch size must be in [1, T]")
    return np.sort(rng.choice(len(cs), size=size, replace=False))


def forward_minibatch(
    cs: ConstraintSet,
    cache: MarginCache,
    lam: float,
    size: int,
    rng: np.random.Generator,
) -> Direction:
    """forward_exact on accumulators from a uniform without-replacement sample.

    The returned basis inner products are computed on the full constraint
    set so cache updates and line search stay exact.
    """
    acc = gradient_accumulate(cs, cache, _draw_batch(cs, size, rng))
    return forward_exact(acc, lam, cs.dim, cs=cs)


def _partner_scores(
    cs: ConstraintSet,
    tri: np.ndarray,
    g: np.ndarray,
    count: int,
    lam: float,
    i: int,
    diag: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scores of the best-signed basis (i, j) for every partner j, and h.

    Row i of the pair matrix over the active triplets `tri` (local point
    indices) with loss derivatives g is h = v^T P: triplet t adds
    g_t d_ti to v[a], g_t x_ti to v[b] and -g_t x_ti to v[c]. The sign
    of partner j is Neg where h_j > 0, Pos otherwise; callers read it at
    their pick only.
    """
    col = cs._feature_column(i)
    a, b, c = tri.T
    xi = g * col[a]
    di = g * (col[b] - col[c])
    v = np.bincount(
        np.concatenate((a, b, c)), weights=np.concatenate((di, xi, -xi)), minlength=col.size
    )
    nz = np.flatnonzero(v)
    h = cs.P[nz].T @ v[nz]
    h /= count
    scores = diag + diag[i]
    scores -= np.abs(h)
    scores *= lam
    scores[i] = np.inf
    return scores, h


def forward_heuristic(
    cs: ConstraintSet,
    cache: MarginCache,
    size: int,
    rng: np.random.Generator,
    lam: float,
    dim: int,
) -> Direction:
    """Two-stage restricted search: best partner of a random feature, then
    best partner of that partner.

    Per stage: O(M) to bin the batch's active triplets onto their points,
    O(n_used) for the feature column, O(sum of nnz of the touched point
    rows) for the partner row h, and O(d) for a scores array scaled in
    place and ranked, with no sign array; minibatch pays O(M s^2) instead.
    """
    if dim < 2:
        raise ValueError("need at least two features")
    subset = _draw_batch(cs, size, rng)
    g = cache.derivs()
    count = subset.size
    active = subset[g[subset] != 0.0]
    tri, g_active = cs.local[active], g[active]
    # the active rows of XD read from its CSR arrays, with no scipy row
    # gather, and binned by feature in row order: the sums of XD[active]^T
    # g_active, bit for bit, in O(nnz of the batch's rows), not O(T)
    XD = cs.XD
    starts = XD.indptr[active]
    lens = XD.indptr[active + 1] - starts
    at = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    diag = np.bincount(XD.indices[at], weights=XD.data[at] * np.repeat(g_active, lens),
                       minlength=cs.dim) / count

    i0 = int(rng.integers(dim))
    scores1, _ = _partner_scores(cs, tri, g_active, count, lam, i0, diag)
    j1 = int(np.argmin(scores1))
    scores2, h2 = _partner_scores(cs, tri, g_active, count, lam, j1, diag)
    j2 = int(np.argmin(scores2))
    if j2 == j1:
        # j1's own score is inf, so it is the pick only when no partner
        # scores below inf: there is no basis (i < j) to build
        raise RuntimeError(f"every partner of feature {j1} scores inf or NaN")

    basis = BasisId(min(j1, j2), max(j1, j2), NEG if h2[j2] > 0 else POS)
    rows, vals = cs.pair_inners(basis.i, basis.j, basis.sign, lam)
    return Direction("F", basis, 1.0, float(scores2[j2]), rows, vals)


def _active_scores(state: "SolverState") -> np.ndarray:
    """<B, grad f> of every active atom: one product A g / T."""
    scores = state.A @ state.cache.derivs()
    scores /= state.cache.count
    return scores


def _atom_direction(state: "SolverState", kind: str, k: int, score: float) -> Direction:
    """The move toward ("F") or away from ("A") active atom k, with A's row k
    as its inner products and k as its atom. gamma_max is 1 forward,
    alpha/(1-alpha) away, and 0 away from a single-atom model, which cannot
    take an away step."""
    m = state.model
    alpha = float(m.alpha[k])
    gamma_max = 1.0 if kind == "F" else 0.0 if m.n_atoms == 1 else alpha / (1.0 - alpha)
    row = slice(*state.A.indptr[k : k + 2])
    basis = BasisId._make(m.bases[k].tolist())
    return Direction(kind, basis, gamma_max, float(score), state.A.indices[row], state.A.data[row],
                     k)


def away_direction(state: "SolverState", acc: Optional[GradientAccumulators] = None) -> Direction:
    """Argmax of <B, grad f> over the active atoms (full constraint set).

    The scores are _active_scores, or one lookup into H when given
    full-set accumulators (exact oracle) with a dense H.
    """
    m = state.model
    ii, jj, signs = m.bases.T
    if acc is not None and isinstance(acc.H, np.ndarray):
        scores = m.lam * (acc.diag[ii] + acc.diag[jj] + signs * acc.H[ii, jj])
    else:
        scores = _active_scores(state)
    # argmax with ties to the first in basis_order
    k = _lex_min_candidate(-scores, m.bases)
    return _atom_direction(state, "A", k, scores[k])


def lazy_direction(
    state: "SolverState", threshold: float, forward: bool = True
) -> Optional[Direction]:
    """The better step inside the active set if it gains at least
    `threshold`, else None; no oracle runs.

    From one _active_scores product s, the best active forward vertex
    gains <M, grad f> - min s (only when `forward`) and the away vertex
    max s - <M, grad f> (only with K > 1); forward wins ties, as in
    choose_direction.
    """
    scores, bases, gm = _active_scores(state), state.model.bases, state.cache.grad_inner()
    a = _lex_min_candidate(-scores, bases)
    kind, k, gain = "A", a, scores[a] - gm if len(bases) > 1 else -math.inf
    if forward:
        f = _lex_min_candidate(scores, bases)
        if gm - scores[f] >= gain:
            kind, k, gain = "F", f, gm - scores[f]
    return _atom_direction(state, kind, k, scores[k]) if gain >= threshold else None


def choose_direction(fwd: Direction, away: Direction, cache: MarginCache) -> Direction:
    """Forward if <D_F, grad> <= <D_A, grad> (ties included), else away."""
    if away.gamma_max <= 0.0:
        return fwd
    gm = cache.grad_inner()
    if fwd.score - gm <= gm - away.score:
        return fwd
    return away


def line_search(cache: MarginCache, d: Direction) -> float:
    """Exact minimiser of phi(gamma) = f(M + gamma*D) on [0, gamma_max].

    With u the margin change along d, phi'(gamma) = mean(l'(m + gamma*u) * u),
    l' = clip(. - 1, -1, 0), is piecewise linear and nondecreasing, and its
    slope on a piece is mean(u^2) over the rows with 0 < m + gamma*u < 1.
    A boundary is returned when phi' does not change sign on [0, gamma_max].
    Otherwise Newton steps run inside the bracket [lo, hi] (bisecting when a
    step leaves it), and a Newton point is the root once no row changes
    piece between it and the point it came from. A bracket of adjacent
    floats returns lo. phi'(0) reads cache.derivs(), the same floats as
    clip(m + 0*u - 1); each later evaluation is O(T) into one reused buffer.
    """
    gmax = d.gamma_max
    if gmax <= 0:
        return 0.0
    m = cache.margins
    b = np.zeros(m.size)
    b[d.inner_rows] = d.inner_vals
    u = b - m if d.kind == "F" else m - b
    ld = b  # b is not read again: its buffer holds l' from here on

    def deriv(gamma: float) -> float:
        # T*phi'(gamma), leaving l'(m + gamma*u) in ld
        np.multiply(u, gamma, out=ld)
        np.add(m, ld, out=ld)
        np.subtract(ld, 1.0, out=ld)
        return float(ld.clip(-1.0, 0.0, out=ld) @ u)

    def pieces(lp: np.ndarray):
        # the rows where the loss is quadratic, and where it is zero
        return (lp > -1.0) & (lp < 0.0), lp == 0.0

    ld0 = cache.derivs()
    dphi = float(ld0 @ u)
    if dphi >= 0.0:
        return 0.0
    if deriv(gmax) <= 0.0:
        return gmax
    u2 = u * u
    quad, zero = pieces(ld0)
    curv = float(u2 @ quad)
    lo, hi, gamma = 0.0, gmax, 0.0
    while True:
        # a piece with zero curvature has no Newton point: bisect
        newton = gamma - dphi / curv if curv > 0.0 else hi
        nxt = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            return lo
        dphi_n = deriv(nxt)
        if dphi_n == 0.0:
            return nxt
        quad_n, zero_n = pieces(ld)
        if nxt == newton and np.array_equal(quad, quad_n) and np.array_equal(zero, zero_n):
            return nxt
        if dphi_n < 0.0:
            lo = nxt
        else:
            hi = nxt
        gamma, dphi, curv, quad, zero = nxt, dphi_n, float(u2 @ quad_n), quad_n, zero_n


@dataclass
class SolverState:
    """The solver's model, its atoms' inner products and the margin cache.

    Row k of the K x T CSR matrix `A` holds the per-constraint <A^t, B>
    values of the model's atom k, so that one product A g scores every atom.
    """

    model: Model
    A: sp.csr_matrix
    cache: MarginCache

    @classmethod
    def from_model(cls, cs: ConstraintSet, model: Model) -> "SolverState":
        """The state of `model`: A stacked in one CSR construction from one
        pair_inners call per atom, and the margins from init_cache."""
        rows, vals = zip(*(cs.pair_inners(*b, model.lam) for b in model.bases.tolist()))
        indptr = np.cumsum([0] + [r.size for r in rows])
        A = sp.csr_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                          shape=(model.n_atoms, len(cs)))
        return cls(model, A, init_cache(cs, model))


def _append_row(A: sp.csr_matrix, rows: np.ndarray, vals: np.ndarray) -> sp.csr_matrix:
    """A with one more row, whose entries are (rows, vals)."""
    return sp.csr_matrix(
        (np.append(A.data, vals), np.append(A.indices, rows), np.append(A.indptr, A.nnz + rows.size)),
        shape=(A.shape[0] + 1, A.shape[1]),
    )


def apply_step(state: SolverState, d: Direction, gamma: float) -> None:
    """Update the model and the margins for one accepted step.

    One signed step s (gamma forward, -gamma away) scales every weight by
    (1 - s) and adds s on the chosen basis: atom `d.atom` when the
    direction carries it, else the active atom equal to `d.basis`, found by
    search; a forward basis that is not active is appended, an away basis
    must be active. Weights at or below the drop tolerance are removed and
    the rest renormalized by their sum in atom order, into a new
    `state.model`. That model is not re-checked: i < j and the sign come
    from the oracle or the atom's own row, the search rules out a
    duplicate, the drop tolerance keeps every weight positive, and the
    renormalization makes them sum to 1.
    """
    if not 0 <= gamma <= d.gamma_max * (1 + 1e-12) + 1e-15:
        raise ValueError(f"gamma {gamma} outside [0, {d.gamma_max}]")
    m = state.model
    bases, k = m.bases, d.atom
    if k is None:
        hit = np.flatnonzero((bases == d.basis).all(axis=1))
        if d.kind == "A" and not hit.size:
            raise ValueError(f"away step from {d.basis}, which is not an active atom")
        k = int(hit[0]) if hit.size else None
    # rejects a kind other than "F" and "A" before any weight changes
    update_cache_sparse(state.cache, d.kind, gamma, d.inner_rows, d.inner_vals)
    # one signed step: s = gamma toward d.basis (forward), -gamma away from it
    s = gamma if d.kind == "F" else -gamma
    alpha = m.alpha * (1.0 - s)
    if k is not None:
        alpha[k] += s
    else:
        alpha = np.append(alpha, s)
        bases = np.vstack([bases, d.basis])
        state.A = _append_row(state.A, d.inner_rows, d.inner_vals)

    keep = alpha > ATOM_DROP_TOL
    if not keep.all():
        if not keep.any():
            raise RuntimeError("all atoms removed; step bookkeeping is inconsistent")
        alpha, bases = alpha[keep], bases[keep]
        state.A = state.A[keep]
    total = sum(alpha.tolist())
    if total != 1.0:
        alpha /= total
    state.model = Model._trusted(m.lam, m.dim, bases, alpha)


def fw_gap(state: SolverState, fwd: Direction) -> float:
    """Duality gap <M - B_F, grad f>; nonnegative up to rounding, zero at the optimum."""
    return state.cache.grad_inner() - fwd.score


def _gap_rounding(cache: MarginCache, fwd: Direction) -> float:
    """Rounding bound of fw_gap: each of its two means divides a sum of n
    products by T, and float addition can miss such a sum by up to
    n * eps * sum |product|."""
    g, rows = cache.derivs(), fwd.inner_rows
    # l' <= 0, so -g_t |y| = |g_t y|
    bound = cache.count * (g @ np.abs(cache.margins))
    bound += rows.size * (g[rows] @ np.abs(fwd.inner_vals))
    return -float(np.finfo(np.float64).eps * bound / cache.count)


def _gap_rounding_cap(cs: ConstraintSet, lam: float) -> float:
    """A bound on _gap_rounding for any model of `cs`: |l'| <= 1, and every
    margin and basis inner product is lam (x_i +/- x_j)(d_i +/- d_j), at most
    m_max = 8 lam max|P|^2, so the term is at most 2 eps m_max T. Doubled,
    so that rounding in the margins themselves cannot carry it past.
    Raises ValueError when m_max is not finite: the margins could overflow."""
    x_max = float(abs(cs.P).max())
    m_max = 8.0 * lam * (x_max * x_max)
    if not math.isfinite(m_max):
        raise ValueError(f"8 * lambda * max|x|^2 is not finite (max|x| = {x_max:.3g}): "
                         "the margins could overflow")
    return 4.0 * float(np.finfo(np.float64).eps) * m_max * len(cs)


def _directions(
    cs: ConstraintSet, state: SolverState, cfg: SolverConfig, rng: np.random.Generator
) -> Tuple[Direction, Direction, Optional[int]]:
    """One iteration's forward and away directions, and the exact oracle's
    stat_rows (None for the sampled oracles).

    The exact oracle's full-set accumulators score both directions and die
    with this call; sampled accumulators never score atoms.
    """
    cache, acc, stat_rows = state.cache, None, None
    if cfg.oracle == "exact":
        acc = gradient_accumulate(cs, cache)
        fwd, stat_rows = forward_exact(acc, cfg.lam, cs.dim, cs=cs), acc.rows
    elif cfg.oracle == "minibatch":
        fwd = forward_minibatch(cs, cache, cfg.lam, min(cfg.batch_size, len(cs)), rng)
    else:
        fwd = forward_heuristic(cs, cache, min(cfg.batch_size, len(cs)), rng, cfg.lam, cs.dim)
    # <B, grad f> over the full constraint set, from B's sparse inner products
    fwd.score = float(cache.derivs()[fwd.inner_rows] @ fwd.inner_vals) / cache.count
    return fwd, away_direction(state, acc), stat_rows


def train(cs: ConstraintSet, cfg: SolverConfig) -> Tuple[Model, List[dict]]:
    """Run the solver and return (model, per-iteration history).

    The model is initialized to the single basis chosen by one forward
    oracle call from a placeholder first atom, which is deterministic and
    at least as good as an arbitrary starting basis. History row k records
    the state at iterate k (objective, gap, atoms, features) and the step
    taken from it; a lazy row (no oracle call) has gap None and no
    stat_rows. Stops on max_iters, on an exact gap <= gap_tol or
    within its rounding error, or when the validation metric has not
    improved for `patience` evaluations; with a validation hook the
    best-scoring snapshot is returned. Steps build their models unchecked
    (apply_step); Model.check_invariants runs at each RECOMPUTE_EVERY
    recompute and on the returned model. Raises ValueError when
    8 * lam * max|x|^2 is not finite (_gap_rounding_cap).
    """
    if len(cs) == 0:
        raise ValueError("empty constraint set")
    if cs.dim < 2:
        raise ValueError("need at least two features")
    rng = np.random.default_rng(cfg.seed)
    rounding_cap = _gap_rounding_cap(cs, cfg.lam)

    state = SolverState.from_model(cs, Model(cfg.lam, cs.dim, {BasisId(0, 1, POS): 1.0}))
    apply_step(state, _directions(cs, state, cfg, rng)[0], 1.0)

    history: List[dict] = []
    best_val = -np.inf
    best_model: Optional[Model] = None
    stale_evals = 0
    # the last oracle iteration's gap (exact) or best step gain (heuristic);
    # lazy steps need a positive one
    phi = 0.0

    for k in range(cfg.max_iters):
        drift = stat_drift = None
        if k > 0 and k % RECOMPUTE_EVERY == 0:
            fresh = init_cache(cs, state.model).margins
            drift = float(np.max(np.abs(state.cache.margins - fresh)))
            if drift > MARGIN_DRIFT_TOL * max(1.0, float(np.max(np.abs(fresh)))):
                raise RuntimeError(f"margin cache drifted by {drift:.3e} at iteration {k}")
            state.cache.margins = fresh
            stat_drift = _statistic_drift(cs, state.cache, k)
            state.model.check_invariants()

        # a validating or last iteration always runs the oracle, so every
        # row that can end a run carries a gap (certified when exact)
        validates = cfg.val_fn is not None and k % cfg.eval_every == 0
        chosen = gap = stat_rows = None
        if cfg.oracle != "minibatch" and phi > 0.0 and not validates and k < cfg.max_iters - 1:
            if cfg.oracle == "exact":
                chosen = lazy_direction(state, phi / LAZY_KAPPA)
            else:
                # heuristic: away steps only, at the full gain of the last
                # oracle step; lazy forward steps to active atoms keep the
                # two-stage search from finding new ones
                chosen = lazy_direction(state, phi, forward=False)
        if chosen is None:
            fwd, away, stat_rows = _directions(cs, state, cfg, rng)
            phi = gap = fw_gap(state, fwd)
            if cfg.oracle == "heuristic" and away.gamma_max > 0.0:
                phi = max(gap, away.score - state.cache.grad_inner())
            chosen = choose_direction(fwd, away, state.cache)
        record = {"k": k, "objective": objective(state.cache), "gap": gap,
                  "atoms": state.model.n_atoms, "features": len(state.model.feature_set())}
        if drift is not None:
            record["drift"] = drift
        if stat_rows is not None:
            record["stat_rows"] = stat_rows
        if stat_drift is not None:
            record["stat_drift"] = stat_drift
        # the gap certifies optimality only when the forward basis is the
        # global argmin; sampled oracles give a noisy underestimate. A gap
        # within its rounding error is zero.
        gap_converged = cfg.oracle == "exact" and gap is not None and (
            gap <= cfg.gap_tol
            or (gap <= rounding_cap and gap <= _gap_rounding(state.cache, fwd))
        )

        if validates:
            metric = float(cfg.val_fn(state.model))
            record["val_metric"] = metric
            if metric > best_val:
                best_val = metric
                best_model = state.model
                stale_evals = 0
            else:
                stale_evals += 1

        if gap_converged:
            record.update(step="F", gamma=0.0)
            history.append(record)
            break

        gamma = line_search(state.cache, chosen)
        apply_step(state, chosen, gamma)
        record.update(step=chosen.kind, gamma=gamma)
        history.append(record)

        if cfg.val_fn is not None and stale_evals >= cfg.patience:
            break

    model = state.model
    if best_model is not None and float(cfg.val_fn(model)) <= best_val:
        model = best_model
    model.check_invariants()
    return model, history


def lipschitz_constant(cs: ConstraintSet) -> float:
    """Gradient Lipschitz constant L = (1/T) * sum_t ||A^t||_F^2 = (1/T) *
    sum_t ||x_t||^2 * ||d_t||^2, as row sums over the triplet rows."""
    if len(cs) == 0:
        raise ValueError("empty constraint set")
    X, D = cs._triplet_rows()
    xn = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    dn = np.asarray(D.multiply(D).sum(axis=1)).ravel()
    return float(np.mean(xn * dn))


def convergence_bound(lam: float, L: float, k: int) -> float:
    """Worst-case objective suboptimality after k iterations: 16*L*lam^2/(k+2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 16.0 * L * lam * lam / (k + 2)


def excess_risk_bound(
    lam: float,
    L: float,
    B_X: float,
    k: int,
    n: int,
    delta: float,
    B_dual: Optional[float] = None,
) -> float:
    """Excess risk against the expected-risk minimizer after k iterations.

    Optimization term 16*L*lam^2/(k+2), complexity term
    16*lam*B_X*sqrt(2*log(k)/floor(n/3)), deviation term
    5*B_X*B_dual*sqrt(log(4/delta)/n). B_dual defaults to 4*lam, the
    entrywise L1 bound over the feasible domain.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if B_dual is None:
        B_dual = 4.0 * lam
    opt = 16.0 * L * lam * lam / (k + 2)
    complexity = 16.0 * lam * B_X * math.sqrt(2.0 * math.log(k) / (n // 3))
    deviation = 5.0 * B_X * B_dual * math.sqrt(math.log(4.0 / delta) / n)
    return opt + complexity + deviation
