"""Signed link prediction as the feature count grows.

Nodes get power-law-distributed sparse features; a planted similarity over
the frequent features defines which node pairs link positively (top of each
other's neighbor ranking) or negatively (bottom). Training sees only signed
links, never the planted model. The point of the experiment: test AUC
degrades only mildly as d grows, because the solver touches two features
per iteration no matter how many exist.
"""

import argparse
import sys
import time

import numpy as np

from hdsl import (
    SolverConfig,
    gen_links,
    gen_powerlaw_sparse,
    gen_truth_frequent,
    link_auc,
    link_triplets,
    train,
)


def run_dimension(d, n, n_links, per_link, seed):
    rng = np.random.default_rng(seed)
    # thin out the data as d grows, like real sparse corpora
    avg_sparsity = min(0.015, 375.0 / d)
    samples = gen_powerlaw_sparse(n, d, avg_sparsity=avg_sparsity, exponent=0.5, rng=rng)
    try:
        truth = gen_truth_frequent(d, n_bases=60, samples=samples, min_freq=0.1, rng=rng)
    except ValueError as exc:
        # small d or n leave too few frequent features for 60 planted bases
        print(f"error: d={d}: cannot plant the similarity: {exc}", file=sys.stderr)
        sys.exit(2)
    links = gen_links(samples, truth, n_links=n_links, top_frac=0.05, rng=rng)
    third = n_links // 3
    train_l, val_l, test_l = links[:third], links[third:2 * third], links[2 * third:]
    cs = link_triplets(samples, train_l, rng=rng, per_link=per_link)

    best = None
    for lam in (10.0, 100.0):
        model, _ = train(cs, SolverConfig(
            lam=lam, max_iters=600, oracle="heuristic", batch_size=min(1000, len(cs)),
            seed=seed,
        ))
        val = link_auc(model, samples, val_l)
        if best is None or val > best[0]:
            best = (val, lam, model)
    val, lam, model = best
    return link_auc(model, samples, test_l), lam, model.n_atoms, len(cs)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[2000, 10000, 50000])
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--links", type=int, default=1800)
    ap.add_argument("--per-link", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'d':>8} {'test AUC':>9} {'lambda':>7} {'atoms':>6} {'triplets':>9} {'time':>6}")
    for d in args.dims:
        t0 = time.time()
        auc, lam, atoms, n_trip = run_dimension(d, args.n, args.links, args.per_link, args.seed)
        print(f"{d:>8} {auc:>9.4f} {lam:>7g} {atoms:>6} {n_trip:>9} {time.time()-t0:>5.1f}s")


if __name__ == "__main__":
    main()
