"""Frank-Wolfe solver with away steps over the rank-one 4-sparse basis domain.

Each iteration picks the best forward basis (exact, mini-batch estimated, or
two-stage heuristic search), compares it with the best away direction over
the active atoms, steps to the exact minimiser of the objective along the
chosen direction, and updates the model weights plus the margin cache in O(T).
The per-iteration cost never touches all d^2 feature pairs: the exact oracle
accumulates over constraint supports, the approximate oracles over a sampled
subset of constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model import NEG, POS, BasisId, Model, atom_arrays, check_atoms
from .objective import (
    ConstraintSet,
    MarginCache,
    grad_inner_with_model,
    init_cache,
    objective,
    update_cache_sparse,
)

ATOM_DROP_TOL = 1e-12
# largest tolerated |incremental - fresh| margin at a recompute, relative to
# max(1, max |m|); float drift over a thousand steps is around 1e-13, so
# more means the step bookkeeping is wrong
MARGIN_DRIFT_TOL = 1e-8
# margins are recomputed from scratch (and the drift measured) this often
RECOMPUTE_EVERY = 1000


@dataclass
class SolverConfig:
    """Knobs for train(); see the README for the oracle trade-offs.

    Step sizes take no knob: line_search is exact. `eval_every` must be >= 1.
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
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class Direction:
    """A candidate move: toward a basis (forward) or away from an active atom.

    `score` is <B, grad f(M)>; the directional derivative follows as
    score - <M, grad f> for forward moves and <M, grad f> - score for away
    moves. `inner_rows`/`inner_vals` hold the per-constraint <A^t, B> values
    (sparse, full constraint set) used for cache updates and line search.
    """

    kind: str  # "F" | "A"
    basis: BasisId
    gamma_max: float
    score: float
    inner_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    inner_vals: np.ndarray = field(default_factory=lambda: np.zeros(0))


class GradientAccumulators:
    """Sufficient statistics of the gradient for basis scoring.

    H is the symmetric d x d pair matrix (1/|set|) * sum_t g_t (x_t d_t^T +
    d_t x_t^T) (dense array for small problems, scipy sparse otherwise);
    diag[i] = H_ii / 2 = (1/|set|) * sum_t g_t x_ti d_ti. Basis scores
    follow as <P/N_(ij), grad f> = lam * (diag[i] + diag[j] +/- H_ij),
    read from the upper triangle (i < j).
    """

    def __init__(self, H, count: int):
        self.H = H
        self.diag = 0.5 * H.diagonal()
        self.count = count


def gradient_accumulate(
    cs: ConstraintSet, cache: MarginCache, subset: Optional[np.ndarray] = None
) -> GradientAccumulators:
    """Accumulate gradient statistics over a constraint subset (default: all).

    Satisfied constraints (zero loss derivative) add nothing; the averages
    are still taken over the full subset size.
    """
    count = len(cs) if subset is None else subset.size
    if count == 0:
        raise ValueError("empty constraint subset")
    return GradientAccumulators(cs.pair_statistic(cache.derivs(), subset) / count, count)


def _lex_min_candidate(scores, ii, jj, signs):
    """Index of the lowest-score candidate; ties to smallest (i, j, Pos<Neg)."""
    k = int(np.argmin(scores))
    ties = np.flatnonzero(scores == scores[k])
    if ties.size == 1:
        return k
    sign_rank = np.where(np.asarray(signs)[ties] == POS, 0, 1)
    order = np.lexsort((sign_rank, np.asarray(jj)[ties], np.asarray(ii)[ties]))
    return int(ties[order[0]])


def forward_exact(
    acc: GradientAccumulators,
    lam: float,
    dim: int,
    cs: Optional[ConstraintSet] = None,
) -> Direction:
    """Global argmin of <B, grad f> over all bases.

    Decomposition: (a) every pair with a nonzero cross term H_ij, scored
    lam*(c_i + c_j - |H_ij|) with the sign that benefits; (b) the pair of
    the two smallest diagonal values with sign Pos. Any pair with zero
    cross term scores at least (b)'s candidate, and the best pair with a
    nonzero cross term is already in (a), so the minimum over (a) and (b)
    is the global one.
    """
    if dim < 2:
        raise ValueError("need at least two features")
    c = acc.diag

    if isinstance(acc.H, np.ndarray):
        # small-dimension path: score every pair directly; with i >= j masked
        # out, the row-major argmin's first hit is the lex-smallest pair
        H = acc.H
        scores = lam * (c[:, None] + c[None, :] - np.abs(H))
        idx = np.arange(dim)
        scores[idx[:, None] >= idx] = np.inf
        i, j = divmod(int(np.argmin(scores)), dim)
        basis = BasisId(i, j, NEG if H[i, j] > 0 else POS)
        score = scores[i, j]
    else:
        h = acc.H.tocoo()
        mask = (h.row < h.col) & (h.data != 0.0)
        iu = h.row[mask]
        ju = h.col[mask]
        hu = h.data[mask]

        bi, bj = sorted(np.argsort(c, kind="stable")[:2])  # ties: first occurrences
        cand_i = np.append(iu, bi)
        cand_j = np.append(ju, bj)
        cand_score = np.append(lam * (c[iu] + c[ju] - np.abs(hu)), lam * (c[bi] + c[bj]))
        cand_sign = np.append(np.where(hu > 0, NEG, POS), POS)

        k = _lex_min_candidate(cand_score, cand_i, cand_j, cand_sign)
        basis = BasisId(int(cand_i[k]), int(cand_j[k]), int(cand_sign[k]))
        score = cand_score[k]
    direction = Direction(kind="F", basis=basis, gamma_max=1.0, score=float(score))
    if cs is not None:
        rows, vals = cs.pair_inners(basis.i, basis.j, basis.sign, lam)
        direction.inner_rows, direction.inner_vals = rows, vals
    return direction


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
    if size <= 0 or size > len(cs):
        raise ValueError("batch size must be in [1, T]")
    subset = np.sort(rng.choice(len(cs), size=size, replace=False))
    acc = gradient_accumulate(cs, cache, subset)
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
    """Scores of the best-signed basis (i, j) for every partner j, plus signs.

    Row i of the pair matrix over the active triplets `tri` (local point
    indices) with loss derivatives g is h = v^T P: triplet t adds
    g_t d_ti to v[a], g_t x_ti to v[b] and -g_t x_ti to v[c].
    """
    col = cs._feature_column(i)
    a, b, c = tri.T
    xi = g * col[a]
    di = g * (col[b] - col[c])
    v = np.bincount(
        np.concatenate((a, b, c)), weights=np.concatenate((di, xi, -xi)), minlength=col.size
    )
    nz = np.flatnonzero(v)
    h = cs.P[nz].T @ v[nz] / count
    scores = lam * (diag[i] + diag - np.abs(h))
    scores[i] = np.inf
    signs = np.where(h > 0, NEG, POS)
    return scores, signs


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
    rows) for the partner scores and O(d) to rank them; the mini-batch
    oracle pays O(M s^2) instead.
    """
    if dim < 2:
        raise ValueError("need at least two features")
    if size <= 0 or size > len(cs):
        raise ValueError("batch size must be in [1, T]")
    g = cache.derivs()
    subset = np.sort(rng.choice(len(cs), size=size, replace=False))
    count = subset.size
    active = subset[g[subset] != 0.0]
    tri, g_active = cs.local[active], g[active]

    diag = np.zeros(cs.dim)
    if active.size:
        xd = cs.XD[active]
        w = np.repeat(g_active, np.diff(xd.indptr))
        diag = np.bincount(xd.indices, weights=xd.data * w, minlength=cs.dim) / count

    i0 = int(rng.integers(dim))
    scores1, signs1 = _partner_scores(cs, tri, g_active, count, lam, i0, diag)
    j1 = int(np.argmin(scores1))
    scores2, signs2 = _partner_scores(cs, tri, g_active, count, lam, j1, diag)
    j2 = int(np.argmin(scores2))

    basis = BasisId(min(j1, j2), max(j1, j2), int(signs2[j2]))
    rows, vals = cs.pair_inners(basis.i, basis.j, basis.sign, lam)
    return Direction(
        kind="F",
        basis=basis,
        gamma_max=1.0,
        score=float(scores2[j2]),
        inner_rows=rows,
        inner_vals=vals,
    )


def away_direction(state: "SolverState", acc: Optional[GradientAccumulators] = None) -> Direction:
    """Argmax of <B, grad f> over the active atoms (full constraint set).

    gamma_max is alpha/(1-alpha); a single-atom model cannot take an away
    step, so its gamma_max is 0. Pass full-set accumulators (exact oracle)
    on the dense path to score all atoms with one lookup into H instead of
    one score per stored inner-product vector.
    """
    ii, jj, signs = state.bases.T
    if acc is not None and isinstance(acc.H, np.ndarray):
        scores = state.lam * (acc.diag[ii] + acc.diag[jj] + signs * acc.H[ii, jj])
    else:
        scores = np.array([_full_score(state.cache, r, v) for r, v in state.inners])
    # argmax with ties to the smallest (i, j, Pos<Neg)
    k = _lex_min_candidate(-scores, ii, jj, signs)
    rows, vals = state.inners[k]
    alpha = float(state.alpha[k])
    return Direction(
        kind="A",
        basis=BasisId._make(state.bases[k].tolist()),
        gamma_max=0.0 if state.n_atoms == 1 else alpha / (1.0 - alpha),
        score=float(scores[k]),
        inner_rows=rows,
        inner_vals=vals,
    )


def choose_direction(fwd: Direction, away: Direction, cache: MarginCache) -> Direction:
    """Forward if <D_F, grad> <= <D_A, grad> (ties included), else away."""
    if away.gamma_max <= 0.0:
        return fwd
    gm = grad_inner_with_model(cache)
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
    floats returns lo. Each evaluation is O(T).
    """
    gmax = d.gamma_max
    if gmax <= 0:
        return 0.0
    m = cache.margins
    b = np.zeros(m.size)
    b[d.inner_rows] = d.inner_vals
    u = b - m if d.kind == "F" else m - b
    u2 = u * u

    def deriv(gamma: float):
        # T*phi'(gamma), T*phi''(gamma) and each row's piece: 0 where the
        # loss is linear, 1 where quadratic, 2 where zero
        ld = np.clip(m + gamma * u - 1.0, -1.0, 0.0)
        quad = (ld > -1.0) & (ld < 0.0)
        return float(ld @ u), float(u2 @ quad), quad + 2 * (ld == 0.0)

    dphi, curv, piece = deriv(0.0)
    if dphi >= 0.0:
        return 0.0
    if deriv(gmax)[0] <= 0.0:
        return gmax
    lo, hi, gamma = 0.0, gmax, 0.0
    while True:
        # a piece with zero curvature has no Newton point: bisect
        newton = gamma - dphi / curv if curv > 0.0 else hi
        nxt = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            return lo
        dphi_n, curv, piece_n = deriv(nxt)
        if dphi_n == 0.0 or (nxt == newton and np.array_equal(piece, piece_n)):
            return nxt
        if dphi_n < 0.0:
            lo = nxt
        else:
            hi = nxt
        gamma, dphi, piece = nxt, dphi_n, piece_n


@dataclass
class SolverState:
    """The active set and the margin cache, owned by the solver.

    Atoms are parallel arrays in insertion order: `bases` (K x 3 rows of
    i, j, sign), weights `alpha` and `inners`, each atom's per-constraint
    <A^t, B> values as sparse (rows, vals). `model` builds a Model from them.
    """

    lam: float
    dim: int
    bases: np.ndarray
    alpha: np.ndarray
    inners: List[Tuple[np.ndarray, np.ndarray]]
    cache: MarginCache

    @classmethod
    def from_model(cls, cs: ConstraintSet, model: Model) -> "SolverState":
        i, j, sign, alpha = atom_arrays(model)
        bases = np.stack([i, j, sign], axis=1)
        inners = [cs.pair_inners(*b, model.lam) for b in bases.tolist()]
        return cls(model.lam, model.dim, bases, alpha, inners, init_cache(cs, model))

    @property
    def model(self) -> Model:
        """A new Model of the active set, atoms in insertion order."""
        atoms = dict(zip(map(BasisId._make, self.bases.tolist()), self.alpha.tolist()))
        return Model(self.lam, self.dim, atoms)

    @property
    def n_atoms(self) -> int:
        return self.alpha.size

    @property
    def n_features(self) -> int:
        return len(set(self.bases[:, :2].ravel().tolist()))


def apply_step(state: SolverState, d: Direction, gamma: float) -> None:
    """Update atom weights and margins for one accepted step.

    Forward scales every weight by (1-gamma) and adds gamma on the chosen
    basis (appended if new); away scales by (1+gamma) and subtracts. Weights
    at or below the drop tolerance are removed and the rest renormalized by
    their sum in atom order.
    """
    if not 0 <= gamma <= d.gamma_max * (1 + 1e-12) + 1e-15:
        raise ValueError(f"gamma {gamma} outside [0, {d.gamma_max}]")
    hit = np.flatnonzero((state.bases == d.basis).all(axis=1))
    if d.kind == "F":
        alpha = state.alpha * (1.0 - gamma)
        if hit.size:
            alpha[hit[0]] += gamma
        else:
            alpha = np.append(alpha, gamma)
            state.bases = np.vstack([state.bases, d.basis])
            state.inners.append((d.inner_rows, d.inner_vals))
    elif d.kind == "A":
        if not hit.size:
            raise ValueError(f"away step from {d.basis}, which is not an active atom")
        alpha = state.alpha * (1.0 + gamma)
        alpha[hit[0]] -= gamma
    else:
        raise ValueError(f"unknown direction kind {d.kind!r}")

    keep = alpha > ATOM_DROP_TOL
    if not keep.any():
        raise RuntimeError("all atoms removed; step bookkeeping is inconsistent")
    if not keep.all():
        alpha, state.bases = alpha[keep], state.bases[keep]
        state.inners = [x for x, k in zip(state.inners, keep) if k]
    total = sum(alpha.tolist())
    if total != 1.0:
        alpha /= total
    state.alpha = alpha
    update_cache_sparse(state.cache, d.kind, gamma, d.inner_rows, d.inner_vals)
    check_atoms(state.bases[:, 0], state.bases[:, 1], alpha, state.dim)


def fw_gap(state: SolverState, fwd: Direction) -> float:
    """Duality gap <M - B_F, grad f>; nonnegative up to rounding, zero at the optimum."""
    return grad_inner_with_model(state.cache) - fwd.score


def _gap_rounding(cache: MarginCache, fwd: Direction) -> float:
    """Rounding bound of fw_gap: each of its two means divides a sum of n
    products by T, and float addition can miss such a sum by up to
    n * eps * sum |product|."""
    g, rows = cache.derivs(), fwd.inner_rows
    # l' <= 0, so -g_t |y| = |g_t y|
    bound = cache.count * (g @ np.abs(cache.margins))
    bound += rows.size * (g[rows] @ np.abs(fwd.inner_vals))
    return -float(np.finfo(np.float64).eps * bound / cache.count)


def _full_score(cache: MarginCache, rows: np.ndarray, vals: np.ndarray) -> float:
    """<B, grad f> over the full constraint set, from B's sparse inner products."""
    return float(cache.derivs()[rows] @ vals) / cache.count if rows.size else 0.0


def _forward_direction(
    cs: ConstraintSet, cache: MarginCache, cfg: SolverConfig, rng: np.random.Generator
) -> Tuple[Direction, Optional[GradientAccumulators]]:
    acc = None
    if cfg.oracle == "exact":
        acc = gradient_accumulate(cs, cache)
        d = forward_exact(acc, cfg.lam, cs.dim, cs=cs)
    elif cfg.oracle == "minibatch":
        d = forward_minibatch(cs, cache, cfg.lam, min(cfg.batch_size, len(cs)), rng)
    else:
        d = forward_heuristic(cs, cache, min(cfg.batch_size, len(cs)), rng, cfg.lam, cs.dim)
    d.score = _full_score(cache, d.inner_rows, d.inner_vals)
    return d, acc


def train(cs: ConstraintSet, cfg: SolverConfig) -> Tuple[Model, List[dict]]:
    """Run the solver and return (model, per-iteration history).

    The model is initialized to the single basis chosen by one forward
    oracle call from a placeholder first atom, which is deterministic and
    at least as good as an arbitrary starting basis. History row k records
    the state at iterate k (objective, gap, atoms, features) and the step
    taken from it. Stops on max_iters, on an exact gap <= gap_tol or
    within its rounding error, or when the validation metric has not
    improved for `patience` evaluations; with a validation hook the
    best-scoring snapshot is returned.
    """
    if len(cs) == 0:
        raise ValueError("empty constraint set")
    if cs.dim < 2:
        raise ValueError("need at least two features")
    rng = np.random.default_rng(cfg.seed)

    state = SolverState.from_model(cs, Model(cfg.lam, cs.dim, {BasisId(0, 1, POS): 1.0}))
    d0, _ = _forward_direction(cs, state.cache, cfg, rng)
    apply_step(state, d0, 1.0)

    history: List[dict] = []
    best_val = -np.inf
    best_model: Optional[Model] = None
    stale_evals = 0

    for k in range(cfg.max_iters):
        drift = None
        if k > 0 and k % RECOMPUTE_EVERY == 0:
            fresh = init_cache(cs, state.model).margins
            drift = float(np.max(np.abs(state.cache.margins - fresh)))
            if drift > MARGIN_DRIFT_TOL * max(1.0, float(np.max(np.abs(fresh)))):
                raise RuntimeError(f"margin cache drifted by {drift:.3e} at iteration {k}")
            state.cache.margins = fresh

        fwd, acc = _forward_direction(cs, state.cache, cfg, rng)
        gap = fw_gap(state, fwd)
        obj = objective(state.cache)
        record = {
            "k": k,
            "objective": obj,
            "gap": gap,
            "atoms": state.n_atoms,
            "features": state.n_features,
        }
        if drift is not None:
            record["drift"] = drift
        # the gap certifies optimality only when the forward basis is the
        # global argmin; sampled oracles give a noisy underestimate. A gap
        # within its rounding error is zero.
        gap_converged = cfg.oracle == "exact" and (
            gap <= cfg.gap_tol or gap <= _gap_rounding(state.cache, fwd)
        )

        if cfg.val_fn is not None and k % cfg.eval_every == 0:
            model = state.model
            metric = float(cfg.val_fn(model))
            record["val_metric"] = metric
            if metric > best_val:
                best_val = metric
                best_model = model
                stale_evals = 0
            else:
                stale_evals += 1

        if gap_converged:
            record.update(step="F", gamma=0.0)
            history.append(record)
            break

        away = away_direction(state, acc)
        chosen = choose_direction(fwd, away, state.cache)
        gamma = line_search(state.cache, chosen)
        apply_step(state, chosen, gamma)
        record.update(step=chosen.kind, gamma=gamma)
        history.append(record)

        if cfg.val_fn is not None and stale_evals >= cfg.patience:
            break

    model = state.model
    if cfg.val_fn is not None and best_model is not None and float(cfg.val_fn(model)) <= best_val:
        return best_model, history
    return model, history


def lipschitz_constant(cs: ConstraintSet) -> float:
    """Gradient Lipschitz constant L = (1/T) * sum_t ||A^t||_F^2."""
    return cs.lipschitz_constant()


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
