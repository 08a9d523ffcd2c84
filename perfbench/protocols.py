"""The three benchmark workloads: inputs, solver settings, evaluation, checks.

Each protocol drives the public ``hdsl`` API the way a user does: generate
or parse data, build triplet constraints, call ``train``, then evaluate and
project. Library functions are always looked up through their module at
call time (``synthetic.gen_truth``, not a name bound at import), so the
tracer in ``tracer.py`` can swap in timed wrappers without touching the
library.

Every size lives in ``SIZES``: ``full`` is the measured instance, ``smoke``
is a tiny one that runs the same code paths (same oracle, same dense or
sparse side of ``ConstraintSet.DENSE_DIM_LIMIT``) in seconds.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import numpy as np

# ``hdsl.objective`` resolves to the re-exported function, so modules are
# fetched by name
constraints = importlib.import_module("hdsl.constraints")
evaluation = importlib.import_module("hdsl.evaluation")
model_mod = importlib.import_module("hdsl.model")
solver = importlib.import_module("hdsl.solver")
sparse_data = importlib.import_module("hdsl.sparse_data")
synthetic = importlib.import_module("hdsl.synthetic")

NEVER_STOP = 10**9  # patience no run reaches, so every run does max_iters
OBJECTIVE_RTOL = 1e-9
PSD_FLOOR = -1e-10
PROJECTION_TOL = 1e-10
PROBES = 50
LINK_AUC_FLOOR = 0.88  # acceptance criterion 8
KNN_K = 3  # the CLI's --knn-k default

SIZES = {
    "recovery-exact": {
        "full": dict(dim=2000, bases=100, n=5000, sparsity=0.02, alpha=0.1,
                     triplets=30000, lam=100.0, iters=4),
        "smoke": dict(dim=600, bases=10, n=300, sparsity=0.02, alpha=0.1,
                      triplets=1500, lam=100.0, iters=3),
    },
    "link-heuristic": {
        "full": dict(dim=50000, n=500, avg_sparsity=0.0075, exponent=0.5, bases=100,
                     min_freq=0.1, links=3000, per_link=4, lam=10.0, batch=1000,
                     iters=400, eval_every=50),
        "smoke": dict(dim=2000, n=200, avg_sparsity=0.02, exponent=0.5, bases=20,
                      min_freq=0.1, links=900, per_link=2, lam=10.0, batch=200,
                      iters=200, eval_every=50),
    },
    "knn-small": {
        "full": dict(classes=4, signature=4, carried=2, noise=6, dim=64, train=120,
                     val=60, test=120, label_noise=0.2, lam=50.0, iters=3000,
                     eval_every=50),
        "smoke": dict(classes=4, signature=4, carried=2, noise=6, dim=64, train=60,
                      val=30, test=60, label_noise=0.2, lam=50.0, iters=300,
                      eval_every=50),
    },
}


class Protocol:
    """One workload at one size and seed.

    ``prepare`` runs before the clock starts, ``setup`` is ``setup_s``,
    ``config`` plus ``solver.train`` is ``train_s`` and ``evaluate`` is
    ``eval_s``. ``setup`` must leave the constraint set in ``self.cs``.
    """

    exact = True

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.cs = None

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def config(self):
        raise NotImplementedError

    def evaluate(self, model) -> dict:
        """Quality figures; ``quality`` is the workload's headline score."""
        raise NotImplementedError

    def workload_checks(self, model, ev: dict) -> list:
        return []

    def projection_points(self):
        """Dataset whose projection the evaluation computes and checks."""
        raise NotImplementedError

    def project(self, model) -> np.ndarray:
        p = model_mod.factorize(model)
        return model_mod.project_dataset(p, self.projection_points().to_csr())


class RecoveryExact(Protocol):
    """Ground-truth recovery (d=2000, T=30k) on the sparse exact oracle."""

    def setup(self):
        s, rng = self.size, np.random.default_rng(self.seed)
        self.truth = synthetic.gen_truth(s["dim"], n_bases=s["bases"], rng=rng, lam=1.0)
        self.samples = synthetic.gen_uniform_sparse(s["n"], s["dim"], sparsity=s["sparsity"], rng=rng)
        self.cs = constraints.truth_triplets(
            self.samples, self.truth, alpha=s["alpha"], count=s["triplets"], rng=rng
        )

    def config(self):
        s = self.size
        return solver.SolverConfig(lam=s["lam"], max_iters=s["iters"], oracle="exact",
                                   gap_tol=0.0, seed=self.seed)

    def evaluate(self, model):
        f_auc = evaluation.feature_recovery_auc(model, self.truth.feature_set())
        e_auc = evaluation.entry_recovery_auc(model, {(b.i, b.j) for b in self.truth.atoms})
        return {"quality": f_auc, "feature_auc": f_auc, "entry_auc": e_auc,
                "projection": self.project(model)}

    def projection_points(self):
        return self.samples


class LinkHeuristic(Protocol):
    """Signed link prediction at d=50k, heuristic oracle, link_auc validation."""

    exact = False

    def setup(self):
        s, rng = self.size, np.random.default_rng(self.seed)
        self.samples = synthetic.gen_powerlaw_sparse(
            s["n"], s["dim"], avg_sparsity=s["avg_sparsity"], exponent=s["exponent"], rng=rng
        )
        truth = synthetic.gen_truth_frequent(
            s["dim"], n_bases=s["bases"], samples=self.samples, min_freq=s["min_freq"], rng=rng
        )
        links = synthetic.gen_links(self.samples, truth, n_links=s["links"], rng=rng)
        third = len(links) // 3
        self.train_links = links[:third]
        self.val_links = links[third:2 * third]
        self.test_links = links[2 * third:]
        self.cs = constraints.link_triplets(
            self.samples, self.train_links, rng=rng, per_link=s["per_link"]
        )

    def config(self):
        s = self.size

        def val_fn(model):
            return evaluation.link_auc(model, self.samples, self.val_links)

        return solver.SolverConfig(
            lam=s["lam"], max_iters=s["iters"], oracle="heuristic",
            batch_size=min(s["batch"], len(self.cs)), seed=self.seed, val_fn=val_fn,
            eval_every=s["eval_every"], patience=NEVER_STOP,
        )

    def evaluate(self, model):
        test_auc = evaluation.link_auc(model, self.samples, self.test_links)
        val_auc = evaluation.link_auc(model, self.samples, self.val_links)
        return {"quality": test_auc, "test_auc": test_auc, "val_auc": val_auc,
                "projection": self.project(model)}

    def workload_checks(self, model, ev):
        if ev["test_auc"] < LINK_AUC_FLOOR:
            return [f"test_auc {ev['test_auc']:.4f} < {LINK_AUC_FLOOR}"]
        return []

    def projection_points(self):
        return self.samples


def gen_labeled(size: dict, rng: np.random.Generator):
    """Train/val/test splits of the signature-feature classification data.

    Class c owns features [c*signature, (c+1)*signature). A point carries
    ``carried`` of its class's signature features plus ``noise`` features
    drawn from the non-signature ones, all valued U(0.2, 1). A
    ``label_noise`` share of the train labels is flipped to another class,
    so the training loss never reaches zero; val and test labels are clean.
    """
    k, sig, dim = size["classes"], size["signature"], size["dim"]
    non_sig = np.arange(k * sig, dim)

    def split(n, flip):
        labels = rng.integers(0, k, size=n)
        points = []
        for c in labels:
            own = rng.choice(np.arange(c * sig, (c + 1) * sig), size=size["carried"], replace=False)
            other = rng.choice(non_sig, size=size["noise"], replace=False)
            idx = np.sort(np.concatenate([own, other]))
            points.append(sparse_data.SparseVector(idx, rng.uniform(0.2, 1.0, idx.size), dim))
        if flip:
            flipped = rng.random(n) < size["label_noise"]
            labels = np.where(flipped, (labels + rng.integers(1, k, size=n)) % k, labels)
        return sparse_data.Dataset(points, labels, dim=dim)

    return split(size["train"], True), split(size["val"], False), split(size["test"], False)


def dot_knn_error(train, test, k: int) -> float:
    """k-NN error under the plain dot product, with knn_error's tie rules."""
    sims = (test.to_csr() @ train.to_csr().T).toarray()
    n_train = len(train)
    errors = 0
    for r in range(len(test)):
        order = np.lexsort((np.arange(n_train), -sims[r]))[:k]
        votes, counts = np.unique(train.labels[order], return_counts=True)
        errors += int(votes[np.argmax(counts)] != test.labels[r])
    return errors / len(test)


class KnnSmall(Protocol):
    """Labels -> neighbors triplets -> k-NN on the dense exact path (d=64)."""

    def prepare(self):
        splits = gen_labeled(self.size, np.random.default_rng(self.seed))
        self.paths = {}
        for name, ds in zip(("train", "val", "test"), splits):
            path = self.workdir / f"knn.{name}.svm"
            path.write_text(sparse_data.serialize_libsvm(ds))
            self.paths[name] = path

    def _parse(self, name):
        with open(self.paths[name]) as fh:
            return sparse_data.parse_libsvm(fh, dim=self.size["dim"])

    def setup(self):
        self.train_ds = self._parse("train")
        self.val_ds = self._parse("val")
        self.test_ds = self._parse("test")
        self.cs = constraints.neighbors_triplets(self.train_ds)

    def config(self):
        s = self.size

        def val_fn(model):
            return -evaluation.knn_error(model, self.train_ds, self.val_ds, k=KNN_K)

        return solver.SolverConfig(
            lam=s["lam"], max_iters=s["iters"], oracle="exact", gap_tol=0.0,
            seed=self.seed, val_fn=val_fn, eval_every=s["eval_every"], patience=NEVER_STOP,
        )

    def evaluate(self, model):
        err = evaluation.knn_error(model, self.train_ds, self.test_ds, k=KNN_K)
        return {"quality": 1.0 - err, "knn_error": err, "projection": self.project(model)}

    def workload_checks(self, model, ev):
        base = dot_knn_error(self.train_ds, self.test_ds, KNN_K)
        ev["dot_knn_error"] = base
        if ev["knn_error"] > base:
            return [f"knn_error {ev['knn_error']:.4f} worse than dot-product k-NN {base:.4f}"]
        return []

    def projection_points(self):
        return self.test_ds


PROTOCOLS = {
    "recovery-exact": RecoveryExact,
    "link-heuristic": LinkHeuristic,
    "knn-small": KnnSmall,
}


def model_sha256(model) -> str:
    return hashlib.sha256(model_mod.serialize(model).encode()).hexdigest()


def common_checks(proto: Protocol, model, history, ev: dict, rng: np.random.Generator) -> list:
    """Output checks every workload passes; returns failure messages."""
    failures = []
    objs = np.array([h["objective"] for h in history])
    rises = np.diff(objs) - OBJECTIVE_RTOL * np.maximum(1.0, np.abs(objs[:-1]))
    if np.any(rises > 0):
        k = int(np.argmax(rises)) + 1
        failures.append(f"objective rose at k={k}: {float(objs[k - 1])!r} -> {float(objs[k])!r}")
    if proto.exact and not history[-1]["gap"] >= 0.0:
        failures.append(f"final_gap {history[-1]['gap']!r} < 0")
    try:
        model.check_invariants()
    except ValueError as exc:
        failures.append(f"model invariants: {exc}")
    mat = model_mod.to_csr_matrix(model)
    probes = rng.normal(size=(PROBES, model.dim))
    psd = float(np.min(np.einsum("pi,pi->p", probes, (mat @ probes.T).T)))
    if psd < PSD_FLOOR:
        failures.append(f"PSD probe {psd!r} < {PSD_FLOOR}")
    points = proto.projection_points()
    proj = ev["projection"]
    worst = 0.0
    for a, b in rng.integers(0, len(points), size=(PROBES, 2)):
        sim = model_mod.similarity(model, points[int(a)], points[int(b)])
        worst = max(worst, abs(float(proj[a] @ proj[b]) - sim))
    if worst > PROJECTION_TOL:
        failures.append(f"projected dot products off by {worst!r} > {PROJECTION_TOL}")
    return failures
