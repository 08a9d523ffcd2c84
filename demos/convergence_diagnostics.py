"""Solver diagnostics: duality gap, worst-case rate, and risk bound terms.

Runs the exact solver on a random instance and prints, every few hundred
iterations, the objective, the duality gap (a certificate of suboptimality),
and the worst-case bound 16*L*lambda^2/(k+2). A lazy row, a step inside
the active set taken without an oracle call, has no gap and shows `-`.
The gap and the actual suboptimality typically sit far below the bound.
The excess-risk bound at the bottom shows the optimization/complexity
trade-off in k that motivates early stopping: more iterations shrink the
first term but grow the second.
"""

import argparse

import numpy as np

from hdsl import (
    SolverConfig,
    convergence_bound,
    excess_risk_bound,
    gen_uniform_sparse,
    init_cache,
    lipschitz_constant,
    objective,
    train,
    truth_triplets,
    gen_truth,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=80)
    ap.add_argument("--triplets", type=int, default=400)
    ap.add_argument("--lambda", dest="lam", type=float, default=10.0)
    ap.add_argument("--iters", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    truth = gen_truth(args.d, n_bases=12, rng=rng)
    samples = gen_uniform_sparse(200, args.d, sparsity=0.05, rng=rng)
    cs = truth_triplets(samples, truth, alpha=0.15, count=args.triplets, rng=rng)
    L = lipschitz_constant(cs)
    print(f"instance: d={args.d}, T={len(cs)}, L={L:.3f}, lambda={args.lam}\n")

    model, history = train(cs, SolverConfig(lam=args.lam, max_iters=args.iters, gap_tol=1e-8,
                                            seed=args.seed))
    f_final = objective(init_cache(cs, model))

    print(f"{'k':>6} {'objective':>11} {'gap':>11} {'worst-case bound':>17} {'atoms':>6} {'step':>5}")
    stride = max(1, len(history) // 12)
    for h in history[::stride] + [history[-1]]:
        bound = convergence_bound(args.lam, L, max(h["k"], 1))
        gap = "-" if h["gap"] is None else f"{h['gap']:.2e}"
        print(f"{h['k']:>6} {h['objective']:>11.6f} {gap:>11} {bound:>17.3f} "
              f"{h['atoms']:>6} {h['step']:>5}")
    print(f"\nstopped after {len(history)} iterations; f(final) = {f_final:.8f}")

    print("\nexcess-risk bound vs iterations (n = number of labeled points):")
    print(f"{'k':>6} {'n=1000':>10} {'n=10000':>10} {'n=100000':>10}")
    for k in (1, 10, 100, 1000, 10000):
        row = [excess_risk_bound(args.lam, L, 1.0, k, n, delta=0.05) for n in (10**3, 10**4, 10**5)]
        print(f"{k:>6} " + " ".join(f"{v:>10.2f}" for v in row))


if __name__ == "__main__":
    main()
