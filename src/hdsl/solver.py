"""Frank-Wolfe solver with away steps over the rank-one 4-sparse basis domain.

Each iteration picks the best forward basis (exact, mini-batch estimated, or
two-stage heuristic search), compares it with the best away direction over
the active atoms, line-searches the step size by bisection on the directional
derivative, and updates the model weights plus the margin cache in O(T).
The per-iteration cost never touches all d^2 feature pairs: the exact oracle
accumulates over constraint supports, the approximate oracles over a sampled
subset of constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .model import NEG, POS, BasisId, Model
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


@dataclass
class SolverConfig:
    """Knobs for train(); see the README for the oracle trade-offs."""

    lam: float
    max_iters: int = 1000
    oracle: str = "exact"  # "exact" | "minibatch" | "heuristic"
    batch_size: int = 0
    ls_tol: float = 1e-6
    gap_tol: float = 1e-5
    seed: int = 0
    val_fn: Optional[Callable[[Model], float]] = None  # higher is better
    eval_every: int = 50
    patience: int = 10
    recompute_every: int = 1000

    def __post_init__(self):
        for name in ("lam", "ls_tol", "gap_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.oracle not in ("exact", "minibatch", "heuristic"):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.oracle in ("minibatch", "heuristic") and self.batch_size <= 0:
            raise ValueError("batch_size must be positive for sampled oracles")


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

    def diag_map(self) -> Dict[int, float]:
        idx = np.flatnonzero(self.diag)
        return {int(i): float(self.diag[i]) for i in idx}

    def offdiag_map(self) -> Dict[Tuple[int, int], float]:
        h = sp.coo_matrix(self.H)
        return {
            (int(r), int(c)): float(v)
            for r, c, v in zip(h.row, h.col, h.data)
            if r < c and v != 0.0
        }


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


def _filter_to_mask(rows, vals, mask):
    keep = mask[rows]
    return rows[keep], vals[keep]


def _partner_scores(
    cs: ConstraintSet,
    g: np.ndarray,
    mask: np.ndarray,
    count: int,
    lam: float,
    i: int,
    diag: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scores of the best-signed basis (i, j) for every partner j, plus signs."""
    h = np.zeros(cs.dim)
    xi_r, xi_v = _filter_to_mask(*cs._col(cs.X_csc, i), mask)
    if xi_r.size:
        dsub = cs.D[xi_r]
        w = np.repeat(g[xi_r] * xi_v, np.diff(dsub.indptr))
        h += np.bincount(dsub.indices, weights=dsub.data * w, minlength=cs.dim)
    di_r, di_v = _filter_to_mask(*cs._col(cs.D_csc, i), mask)
    if di_r.size:
        xsub = cs.X[di_r]
        w = np.repeat(g[di_r] * di_v, np.diff(xsub.indptr))
        h += np.bincount(xsub.indices, weights=xsub.data * w, minlength=cs.dim)
    h /= count
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
    best partner of that partner. Costs O(M s) per iteration instead of
    the mini-batch oracle's O(M s^2).
    """
    if dim < 2:
        raise ValueError("need at least two features")
    if size <= 0 or size > len(cs):
        raise ValueError("batch size must be in [1, T]")
    g = cache.derivs()
    subset = np.sort(rng.choice(len(cs), size=size, replace=False))
    count = subset.size
    active = subset[g[subset] != 0.0]
    mask = np.zeros(len(cs), dtype=bool)
    mask[active] = True

    diag = np.zeros(cs.dim)
    if active.size:
        xd = cs.XD[active]
        w = np.repeat(g[active], np.diff(xd.indptr))
        diag = np.bincount(xd.indices, weights=xd.data * w, minlength=cs.dim) / count

    i0 = int(rng.integers(dim))
    scores1, signs1 = _partner_scores(cs, g, mask, count, lam, i0, diag)
    j1 = int(np.argmin(scores1))
    scores2, signs2 = _partner_scores(cs, g, mask, count, lam, j1, diag)
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


def away_direction(
    model: Model,
    cs: ConstraintSet,
    cache: MarginCache,
    inners: Optional[Dict[BasisId, Tuple[np.ndarray, np.ndarray]]] = None,
    acc: Optional[GradientAccumulators] = None,
) -> Direction:
    """Argmax of <B, grad f> over the active atoms (full constraint set).

    gamma_max is alpha/(1-alpha); a single-atom model cannot take an away
    step, so its gamma_max is 0. Pass full-set accumulators (exact oracle)
    on the dense path to score all atoms with one lookup into H instead of
    per-atom inner products.
    """
    if model.n_atoms < 1:
        raise ValueError("model has no atoms")
    def inner(b):
        if inners is not None and b in inners:
            return inners[b]
        return cs.pair_inners(b.i, b.j, b.sign, model.lam)

    bases = list(model.atoms)
    ii = np.array([b.i for b in bases])
    jj = np.array([b.j for b in bases])
    signs = np.array([b.sign for b in bases])
    if acc is not None and isinstance(acc.H, np.ndarray):
        scores = model.lam * (acc.diag[ii] + acc.diag[jj] + signs * acc.H[ii, jj])
    else:
        g = cache.derivs()
        scores = np.array(
            [float(g[r] @ v) / cache.count if r.size else 0.0 for r, v in map(inner, bases)]
        )
    # argmax with ties to the smallest (i, j, Pos<Neg)
    k = _lex_min_candidate(-scores, ii, jj, signs)
    best_basis, best_score = bases[k], scores[k]
    rows, vals = inner(best_basis)
    alpha = model.atoms[best_basis]
    gamma_max = 0.0 if model.n_atoms == 1 else alpha / (1.0 - alpha)
    return Direction(
        kind="A",
        basis=best_basis,
        gamma_max=gamma_max,
        score=float(best_score),
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


def _dense_inners(cache: MarginCache, d: Direction) -> np.ndarray:
    b = np.zeros(cache.count)
    if d.inner_rows.size:
        b[d.inner_rows] = d.inner_vals
    return b


def line_search(cache: MarginCache, d: Direction, eps: float) -> float:
    """Bisection on the directional derivative of the objective along d.

    phi(gamma) averages the loss at the stepped margins. Returns a boundary
    when the derivative does not change sign on [0, gamma_max]; otherwise
    bisects until the bracket is narrower than eps or the derivative
    magnitude drops below eps (at most ~log2(gamma_max/eps) + 2 derivative
    evaluations, each O(T)). A final value check guards descent against
    the last half-bracket of imprecision.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gmax = d.gamma_max
    if gmax <= 0:
        return 0.0
    m = cache.margins
    b = _dense_inners(cache, d)
    u = b - m if d.kind == "F" else m - b
    T = m.size
    work = np.empty_like(m)

    def deriv(gamma: float) -> float:
        # phi'(gamma) = mean(l'(m + gamma*u) * u), with l' = clip(.-1, -1, 0)
        np.multiply(u, gamma, out=work)
        np.add(work, m, out=work)
        np.subtract(work, 1.0, out=work)
        np.clip(work, -1.0, 0.0, out=work)
        return float(work @ u) / T

    def value(gamma: float) -> float:
        np.multiply(u, -gamma, out=work)
        np.subtract(work, m, out=work)
        np.add(work, 1.0, out=work)  # z = 1 - (m + gamma*u)
        c = np.clip(work, 0.0, 1.0)
        np.subtract(work, 0.5 * c, out=work)
        return float(c @ work) / T

    if deriv(0.0) >= 0.0:
        return 0.0
    if deriv(gmax) <= 0.0:
        return gmax
    lo, hi = 0.0, gmax
    max_evals = int(math.ceil(math.log2(max(gmax / eps, 2.0)))) + 2
    for _ in range(max_evals):
        mid = 0.5 * (lo + hi)
        dm = deriv(mid)
        if abs(dm) <= eps:
            lo = hi = mid
            break
        if dm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= eps:
            break
    gamma = 0.5 * (lo + hi)
    if value(gamma) > value(0.0):
        gamma = lo  # phi'(lo) < 0, so phi(lo) <= phi(0)
    return gamma


@dataclass
class SolverState:
    """Single-owner mutable solver state: model, margin cache, bookkeeping."""

    model: Model
    cache: MarginCache
    iteration: int = 0
    history: List[dict] = field(default_factory=list)
    atom_inners: Dict[BasisId, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    feature_counts: Dict[int, int] = field(default_factory=dict)

    def register_atom(self, b: BasisId, rows: np.ndarray, vals: np.ndarray) -> None:
        self.atom_inners[b] = (rows, vals)
        for f in (b.i, b.j):
            self.feature_counts[f] = self.feature_counts.get(f, 0) + 1

    def drop_atom(self, b: BasisId) -> None:
        self.atom_inners.pop(b, None)
        for f in (b.i, b.j):
            self.feature_counts[f] -= 1
            if self.feature_counts[f] == 0:
                del self.feature_counts[f]

    @property
    def n_features(self) -> int:
        return len(self.feature_counts)


def apply_step(state: SolverState, d: Direction, gamma: float) -> None:
    """Update atom weights and margins for one accepted step.

    Forward scales every weight by (1-gamma) and adds gamma on the chosen
    basis; away scales by (1+gamma) and subtracts. Weights at or below the
    drop tolerance are removed and the rest renormalized to sum exactly 1.
    """
    if gamma < 0 or gamma > d.gamma_max * (1 + 1e-12) + 1e-15:
        raise ValueError(f"gamma {gamma} outside [0, {d.gamma_max}]")
    atoms = state.model.atoms
    if d.kind == "F":
        for b in atoms:
            atoms[b] *= 1.0 - gamma
        if d.basis in atoms:
            atoms[d.basis] += gamma
        else:
            atoms[d.basis] = gamma
            state.register_atom(d.basis, d.inner_rows, d.inner_vals)
    elif d.kind == "A":
        for b in atoms:
            atoms[b] *= 1.0 + gamma
        atoms[d.basis] -= gamma
    else:
        raise ValueError(f"unknown direction kind {d.kind!r}")

    dead = [b for b, a in atoms.items() if a <= ATOM_DROP_TOL]
    for b in dead:
        del atoms[b]
        state.drop_atom(b)
    if not atoms:
        raise RuntimeError("all atoms removed; step bookkeeping is inconsistent")
    total = sum(atoms.values())
    if total != 1.0:
        for b in atoms:
            atoms[b] /= total
    update_cache_sparse(state.cache, d.kind, gamma, d.inner_rows, d.inner_vals)
    state.model.check_invariants()


def fw_gap(state: SolverState, fwd: Direction) -> float:
    """Duality gap <M - B_F, grad f>; nonnegative, zero at the optimum."""
    return grad_inner_with_model(state.cache) - fwd.score


def _rescore_full(cache: MarginCache, d: Direction) -> None:
    """Replace d.score with <B, grad f> over the full constraint set."""
    g = cache.derivs()
    d.score = float(g[d.inner_rows] @ d.inner_vals) / cache.count if d.inner_rows.size else 0.0


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
    _rescore_full(cache, d)
    return d, acc


def train(cs: ConstraintSet, cfg: SolverConfig) -> Tuple[Model, List[dict]]:
    """Run the solver and return (model, per-iteration history).

    The model is initialized to the single basis chosen by one forward
    oracle call from a placeholder first atom, which is deterministic and
    at least as good as an arbitrary starting basis. History row k records
    the state at iterate k (objective, gap, atoms, features) and the step
    taken from it. Stops on max_iters, gap <= gap_tol, or when the
    validation metric has not improved for `patience` evaluations; with a
    validation hook the best-scoring snapshot is returned.
    """
    if len(cs) == 0:
        raise ValueError("empty constraint set")
    if cs.dim < 2:
        raise ValueError("need at least two features")
    rng = np.random.default_rng(cfg.seed)

    model0 = Model(cfg.lam, cs.dim, {BasisId(0, 1, POS): 1.0})
    state = SolverState(model=model0, cache=init_cache(cs, model0))
    rows, vals = cs.pair_inners(0, 1, POS, cfg.lam)
    state.register_atom(BasisId(0, 1, POS), rows, vals)
    d0, _ = _forward_direction(cs, state.cache, cfg, rng)
    apply_step(state, d0, 1.0)

    best_val = -np.inf
    best_model: Optional[Model] = None
    stale_evals = 0

    for k in range(cfg.max_iters):
        state.iteration = k
        drift = None
        if k > 0 and cfg.recompute_every > 0 and k % cfg.recompute_every == 0:
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
            "atoms": state.model.n_atoms,
            "features": state.n_features,
        }
        if drift is not None:
            record["drift"] = drift
        # the gap certifies optimality only when the forward basis is the
        # global argmin; sampled oracles give a noisy underestimate
        gap_converged = cfg.oracle == "exact" and gap <= cfg.gap_tol

        if cfg.val_fn is not None and k % cfg.eval_every == 0:
            metric = float(cfg.val_fn(state.model))
            record["val_metric"] = metric
            if metric > best_val:
                best_val = metric
                best_model = state.model.copy()
                stale_evals = 0
            else:
                stale_evals += 1

        if gap_converged:
            record.update(step="F", gamma=0.0)
            state.history.append(record)
            break

        away = away_direction(state.model, cs, state.cache, inners=state.atom_inners, acc=acc)
        chosen = choose_direction(fwd, away, state.cache)
        gamma = line_search(state.cache, chosen, cfg.ls_tol)
        apply_step(state, chosen, gamma)
        record.update(step=chosen.kind, gamma=gamma)
        state.history.append(record)

        if cfg.val_fn is not None and stale_evals >= cfg.patience:
            break

    if cfg.val_fn is not None and best_model is not None:
        final = float(cfg.val_fn(state.model))
        if final > best_val:
            best_model = state.model
        return best_model, state.history
    return state.model, state.history


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
