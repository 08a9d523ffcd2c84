"""Command-line interface: train, eval, synth, project.

Exit codes: 0 success, 2 bad flags (argparse), 3 I/O or format errors,
4 solver precondition failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import evaluation, synthetic
from .constraints import link_triplets, neighbors_triplets, random_label_triplets, truth_triplets
from .model import deserialize, factorize, project_dataset, serialize, to_csr_matrix
from .objective import ConstraintSet
from .sparse_data import (
    Dataset,
    ParseError,
    feature_scales,
    parse_libsvm,
    read_triplets,
    scale_to_unit_range,
    serialize_libsvm,
    write_triplets,
)
from .solver import SolverConfig, train

EXIT_IO = 3
EXIT_PRECONDITION = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _check_outputs(*paths) -> None:
    """Each given output's directory exists and is writable; checked before
    any input is read, so a bad output path costs no work."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if not parent.is_dir() or not os.access(parent, os.W_OK):
            raise CliError(f"cannot write {path}: {parent} is not a writable directory", EXIT_IO)


def _check_out_dir(path: str) -> None:
    """--out-dir is a writable directory or can be made as one: its nearest
    existing ancestor is a writable directory. Checked before any work; the
    directory is made only when the files are written (_out_dir)."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK):
        raise CliError(f"cannot create {out}: {existing} is not a writable directory", EXIT_IO)


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {out}: {exc}", EXIT_IO) from exc
    return out


def _solve(cs: ConstraintSet, cfg: SolverConfig):
    try:
        return train(cs, cfg)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc


def _load_dataset(path: str, dim=None) -> Dataset:
    text = _read_text(path)
    try:
        return parse_libsvm(text, dim=dim)
    except (ParseError, ValueError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_IO) from exc


def _normalize(ds: Dataset, scales: np.ndarray, path: str) -> Dataset:
    """--normalize: ds divided by the training split's feature scales."""
    try:
        return scale_to_unit_range(ds, scales)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PRECONDITION) from exc


def _load_model(path: str):
    text = _read_text(path)
    try:
        return deserialize(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_IO) from exc


def _write_history(path: str, history) -> None:
    lines = [json.dumps(row) for row in history]
    _write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def _solver_config(args, patience=None) -> SolverConfig:
    """The checked solver settings, from the flags alone (`patience`
    overrides --patience); a validation hook is attached later with
    dataclasses.replace."""
    if args.lam is None:
        raise CliError("--lambda is required with --run", 2)
    try:
        return SolverConfig(
            lam=args.lam,
            max_iters=args.iters,
            oracle=args.oracle,
            batch_size=args.batch or 1000,
            gap_tol=args.gap_tol,
            seed=args.seed,
            eval_every=args.eval_every,
            patience=args.patience if patience is None else patience,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc


def _check_counts(args, *names) -> None:
    """Count flags must be >= 1; checked before any file is read."""
    for name in names:
        if getattr(args, name) < 1:
            raise CliError(f"--{name.replace('_', '-')} must be >= 1", EXIT_PRECONDITION)


def _build_constraints(args, ds: Dataset) -> ConstraintSet:
    rng = np.random.default_rng(args.seed)
    try:
        if args.constraints == "neighbors":
            return neighbors_triplets(ds, n_targets=args.n_targets, n_impostors=args.n_impostors)
        if args.constraints == "random-label":
            return random_label_triplets(ds, per_instance=args.per_instance, rng=rng)
        return ConstraintSet(ds, read_triplets(_read_text(args.triplets)))
    except ParseError as exc:
        raise CliError(f"{args.triplets}: {exc}", EXIT_IO) from exc
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    except MemoryError as exc:  # e.g. a huge feature index sets the dimension
        msg = f"out of memory building constraints (d = {ds.dim}): {exc}"
        raise CliError(msg, EXIT_PRECONDITION) from exc


def cmd_train(args) -> int:
    cfg = _solver_config(args)
    _check_counts(args, "n_targets", "n_impostors", "per_instance", "knn_k")
    if args.constraints == "file" and not args.triplets:
        raise CliError("--triplets FILE is required with --constraints file", EXIT_PRECONDITION)
    if args.dim is not None and args.dim < 2:
        raise CliError("--dim must be >= 2", EXIT_PRECONDITION)
    _check_outputs(args.out, args.history)
    ds = _load_dataset(args.data, dim=args.dim)
    val = _load_dataset(args.val_data, dim=ds.dim) if args.val_data else None
    if val is not None and len(val) == 0:
        raise CliError(f"{args.val_data}: dataset is empty", EXIT_PRECONDITION)
    if args.normalize:
        scales = feature_scales(ds)
        ds = _normalize(ds, scales, args.data)
        if val is not None:
            val = _normalize(val, scales, args.val_data)
    if val is not None:
        def val_fn(model, _train=ds, _val=val, _k=args.knn_k):
            return -evaluation.knn_error(model, _train, _val, k=_k)

        cfg = replace(cfg, val_fn=val_fn)
    cs = _build_constraints(args, ds)
    model, history = _solve(cs, cfg)
    _write_text(args.out, serialize(model))
    if args.history:
        _write_history(args.history, history)
    print(json.dumps({
        "iterations": len(history),
        "objective": history[-1]["objective"] if history else None,
        # the last row's gap, and the rows whose oracle ran (a lazy row's gap is None)
        "gap": history[-1]["gap"] if history else None,
        "oracle_calls": sum(row["gap"] is not None for row in history),
        "atoms": model.n_atoms,
        "features": len(model.feature_set()),
        "model": args.out,
    }))
    return 0


def cmd_eval(args) -> int:
    _check_counts(args, "k")
    model = _load_model(args.model)
    train_ds = _load_dataset(args.train, dim=model.dim)
    test_ds = _load_dataset(args.test, dim=model.dim)
    if args.normalize:
        scales = feature_scales(train_ds)
        train_ds = _normalize(train_ds, scales, args.train)
        test_ds = _normalize(test_ds, scales, args.test)
    try:
        err = evaluation.knn_error(model, train_ds, test_ds, k=args.k)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    print(json.dumps({
        "knn_error": err,
        "k": args.k,
        "atoms": model.n_atoms,
        "features": len(model.feature_set()),
        "nnz": to_csr_matrix(model).nnz,
    }))
    return 0


def cmd_project(args) -> int:
    _check_outputs(args.out)
    model = _load_model(args.model)
    ds = _load_dataset(args.data, dim=model.dim)
    proj = factorize(model)
    rows = project_dataset(proj, ds.to_csr()) if len(ds) else np.zeros((0, proj.n_columns))
    _write_text(args.out, serialize_libsvm(Dataset.from_csr(sp.csr_matrix(rows), ds.labels)))
    print(json.dumps({"points": rows.shape[0], "dimensions": rows.shape[1], "out": args.out}))
    return 0


def _run_synth(args, generate) -> int:
    """The synth protocols' one flow: check the flags and that --out-dir can
    be made, generate, write the data files, then with --run train and
    write the model, history and metrics. `generate(rng)` returns (files,
    cs, val_fn, report, summary): the data files as {name: text}, the
    constraint set, the validation hook, a callback from the trained model
    to (metrics, details), and the summary printed to stdout. The metrics
    join the summary; the details go to metrics.json only. --patience 0
    means never stop."""
    cfg = _solver_config(args, patience=args.patience or 10**9) if args.run else None
    _check_out_dir(args.out_dir)
    try:
        files, cs, val_fn, report, summary = generate(np.random.default_rng(args.seed))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    out = _out_dir(args.out_dir)
    files["triplets.txt"] = write_triplets(cs.triplets)
    for name, text in files.items():
        _write_text(out / name, text)
    if cfg is not None:
        model, history = _solve(cs, replace(cfg, val_fn=val_fn))
        _write_text(out / "model.hdsl", serialize(model))
        _write_history(out / "history.jsonl", history)
        metrics, details = report(model)
        summary.update(metrics, iterations=len(history), atoms=model.n_atoms)
        _write_text(out / "metrics.json", json.dumps({**summary, **details}, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def cmd_synth_recovery(args) -> int:
    def generate(rng):
        truth = synthetic.gen_truth(args.d, n_bases=args.bases, rng=rng, lam=1.0)
        samples = synthetic.gen_uniform_sparse(args.n, args.d, sparsity=args.sparsity, rng=rng)
        cs = truth_triplets(samples, truth, alpha=args.alpha, count=args.triplets, rng=rng)
        truth_feats = truth.feature_set()
        truth_entries = {(b.i, b.j) for b in truth.atoms}
        trajectory = []

        def aucs(model):
            return {"feature_auc": evaluation.feature_recovery_auc(model, truth_feats),
                    "entry_auc": evaluation.entry_recovery_auc(model, truth_entries)}

        def val_fn(model):
            trajectory.append(aucs(model))
            return trajectory[-1]["feature_auc"]

        files = {"samples.svm": serialize_libsvm(samples), "truth.hdsl": serialize(truth)}
        summary = {"d": args.d, "bases": args.bases, "samples": args.n, "triplets": len(cs)}
        return files, cs, val_fn, lambda m: (aucs(m), {"auc_trajectory": trajectory}), summary

    return _run_synth(args, generate)


def cmd_synth_link(args) -> int:
    def generate(rng):
        samples = synthetic.gen_powerlaw_sparse(
            args.n, args.d, avg_sparsity=args.avg_sparsity, exponent=args.exponent, rng=rng
        )
        truth = synthetic.gen_truth_frequent(
            args.d, n_bases=args.bases, samples=samples, min_freq=args.min_freq, rng=rng
        )
        links = synthetic.gen_links(samples, truth, n_links=args.links, rng=rng)
        third = len(links) // 3
        split = {"train": links[:third], "val": links[third : 2 * third], "test": links[2 * third :]}
        cs = link_triplets(samples, split["train"], rng=rng, per_link=args.per_link)

        def val_fn(model):
            return evaluation.link_auc(model, samples, split["val"])

        def report(model):
            return {"test_auc": evaluation.link_auc(model, samples, split["test"]),
                    "val_auc": val_fn(model)}, {}

        files = {"samples.svm": serialize_libsvm(samples), "truth.hdsl": serialize(truth)}
        for name, part in split.items():
            files[f"links.{name}.txt"] = "".join(f"{a} {b} {y}\n" for a, b, y in part)
        summary = {"d": args.d, "samples": args.n, "links": len(links), "triplets": len(cs)}
        return files, cs, val_fn, report, summary

    return _run_synth(args, generate)


def _add_solver_flags(p, lam_required=True):
    p.add_argument("--lambda", dest="lam", type=float, required=lam_required,
                   default=None, help="domain scale")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--oracle", choices=["exact", "minibatch", "heuristic"], default="exact")
    p.add_argument("--batch", type=int, default=0, help="constraint sample size for sampled oracles")
    p.add_argument("--gap-tol", dest="gap_tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="learn a similarity from triplet constraints")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--dim", type=int, default=None)
    p_train.add_argument("--normalize", action="store_true",
                         help="divide each feature by its max |value| in --data, into [-1, 1]")
    p_train.add_argument("--constraints", choices=["neighbors", "random-label", "file"],
                         default="neighbors")
    p_train.add_argument("--triplets", default=None, help="triplet file for --constraints file")
    p_train.add_argument("--n-targets", dest="n_targets", type=int, default=3)
    p_train.add_argument("--n-impostors", dest="n_impostors", type=int, default=5)
    p_train.add_argument("--per-instance", dest="per_instance", type=int, default=20)
    p_train.add_argument("--val-data", dest="val_data", default=None)
    p_train.add_argument("--knn-k", dest="knn_k", type=int, default=3)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--history", default=None)
    _add_solver_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="k-NN error of a trained model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--train", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--k", type=int, default=3)
    p_eval.add_argument("--normalize", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_project = sub.add_parser("project", help="project data through the model factorization")
    p_project.add_argument("--model", required=True)
    p_project.add_argument("--data", required=True)
    p_project.add_argument("--out", required=True)
    p_project.set_defaults(func=cmd_project)

    p_synth = sub.add_parser("synth", help="synthetic benchmark protocols")
    synth_sub = p_synth.add_subparsers(dest="protocol", required=True)

    p_rec = synth_sub.add_parser("recovery", help="ground-truth similarity recovery")
    p_rec.add_argument("--d", type=int, default=2000)
    p_rec.add_argument("--bases", type=int, default=100)
    p_rec.add_argument("--alpha", type=float, default=0.2)
    p_rec.add_argument("--n", type=int, default=5000)
    p_rec.add_argument("--triplets", type=int, default=30000)
    p_rec.add_argument("--sparsity", type=float, default=0.02)
    p_rec.add_argument("--out-dir", dest="out_dir", required=True)
    p_rec.add_argument("--run", action="store_true", help="also train and report recovery AUCs")
    _add_solver_flags(p_rec, lam_required=False)
    p_rec.set_defaults(func=cmd_synth_recovery)

    p_link = synth_sub.add_parser("link", help="signed link prediction")
    p_link.add_argument("--d", type=int, default=50000)
    p_link.add_argument("--n", type=int, default=500)
    p_link.add_argument("--links", type=int, default=3000)
    p_link.add_argument("--per-link", dest="per_link", type=int, default=4)
    p_link.add_argument("--bases", type=int, default=100)
    p_link.add_argument("--avg-sparsity", dest="avg_sparsity", type=float, default=0.0075)
    p_link.add_argument("--exponent", type=float, default=0.5)
    p_link.add_argument("--min-freq", dest="min_freq", type=float, default=0.1)
    p_link.add_argument("--out-dir", dest="out_dir", required=True)
    p_link.add_argument("--run", action="store_true", help="also train and report test AUC")
    _add_solver_flags(p_link, lam_required=False)
    p_link.set_defaults(func=cmd_synth_link)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
