"""Span tracer that wraps public ``hdsl`` functions from outside the library.

``Tracer.install`` replaces each traced function with a timed wrapper on
the object callers look it up on: the module attribute for functions (for
example ``hdsl.solver.gradient_accumulate``, which ``train`` resolves at
call time) and the class for methods (``ConstraintSet.pair_inners``).
Spans (name, start, end, parent) stay in memory; ``layer_metrics`` turns
them into per-layer totals and ``write_spans`` saves them at the end.

Counters that need extra work (operation counts, cache drift, active
share) run with the tracer clock paused, so they add nothing to the
traced timings.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); a name may cover several functions
FUNCTIONS = [
    ("hdsl.solver", "train", "solver.train"),
    ("hdsl.solver", "gradient_accumulate", "solver.gradient_accumulate"),
    ("hdsl.solver", "forward_exact", "solver.forward_exact"),
    ("hdsl.solver", "forward_heuristic", "solver.forward_heuristic"),
    ("hdsl.solver", "away_direction", "solver.away_direction"),
    ("hdsl.solver", "line_search", "solver.line_search"),
    ("hdsl.solver", "apply_step", "solver.apply_step"),
    ("hdsl.solver", "update_cache_sparse", "objective.update_cache"),
    ("hdsl.solver", "init_cache", "objective.init_cache"),
    ("hdsl.evaluation", "link_auc", "evaluation.link_auc"),
    ("hdsl.evaluation", "knn_error", "evaluation.knn_error"),
    ("hdsl.model", "factorize", "model.project"),
    ("hdsl.model", "project_dataset", "model.project"),
    ("hdsl.model", "to_csr_matrix", "model.to_csr_matrix"),
    ("hdsl.evaluation", "to_csr_matrix", "model.to_csr_matrix"),
    ("hdsl.constraints", "to_csr_matrix", "model.to_csr_matrix"),
    ("hdsl.synthetic", "to_csr_matrix", "model.to_csr_matrix"),
    ("hdsl.synthetic", "gen_truth", "synthetic.gen"),
    ("hdsl.synthetic", "gen_truth_frequent", "synthetic.gen"),
    ("hdsl.synthetic", "gen_uniform_sparse", "synthetic.gen"),
    ("hdsl.synthetic", "gen_powerlaw_sparse", "synthetic.gen"),
    ("hdsl.synthetic", "gen_links", "synthetic.gen"),
    ("hdsl.sparse_data", "parse_libsvm", "sparse_data.parse_libsvm"),
    ("hdsl.constraints", "truth_triplets", "constraints.build"),
    ("hdsl.constraints", "link_triplets", "constraints.build"),
    ("hdsl.constraints", "neighbors_triplets", "constraints.build"),
]
# (module, class, method, span name)
METHODS = [
    ("hdsl.objective", "ConstraintSet", "__init__", "objective.constraint_set"),
    ("hdsl.objective", "ConstraintSet", "pair_inners", "objective.pair_inners"),
    ("hdsl.model", "Model", "check_invariants", "model.check_invariants"),
    ("hdsl.sparse_data", "Dataset", "to_csr", "sparse_data.to_csr"),
]

TIMED = [  # span name -> reported as <name>_s (inclusive time)
    "solver.gradient_accumulate", "solver.forward_exact", "solver.forward_heuristic",
    "solver.away_direction", "solver.line_search", "solver.apply_step",
    "objective.pair_inners", "objective.update_cache", "objective.init_cache",
    "objective.constraint_set", "model.check_invariants", "model.to_csr_matrix",
    "model.project", "sparse_data.to_csr", "sparse_data.parse_libsvm",
    "evaluation.link_auc", "evaluation.knn_error", "synthetic.gen",
]
SELF_TIMED = ["solver.train", "constraints.build"]  # reported as self time
CALLED = [  # span name -> reported as <name>_calls
    "solver.gradient_accumulate", "objective.pair_inners", "objective.init_cache",
    "model.to_csr_matrix", "sparse_data.to_csr", "evaluation.link_auc",
    "evaluation.knn_error",
]

# every per-layer metric with its unit, in report order
UNITS = {f"{n}_s": "s" for n in TIMED}
UNITS.update({
    "solver.train_self_s": "s",
    "constraints.build_s": "s",
    "solver.train_s": "s",
    "trace.overhead_s": "s",
    "protocol.eval_s": "s",
})
UNITS.update({f"{n}_calls": "count" for n in CALLED})
UNITS.update({
    "solver.exact_pair_products": "count",
    "solver.iter_ms_p50": "ms",
    "solver.iter_ms_p99": "ms",
    "solver.iter_samples": "count",
    "objective.cache_drift_max": "abs",
    "solver.active_frac": "ratio",
    "constraints.triplets": "count",
    "solver.steps_forward": "count",
    "solver.steps_away": "count",
    "solver.atoms_max": "count",
    "solver.atoms_final": "count",
    "solver.final_objective": "loss",
    "solver.final_gap": "gap",
})
DRIFT_SAMPLES = 40  # cache-drift samples per run, spread over the iterations


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._paused = 0.0
        self._quiet = False  # set while sampling counters: wrappers record nothing
        self._restore = []
        self.pair_products = 0
        self.gap_calls = []  # tracer-clock time of each fw_gap call
        self.active_fracs = []
        self.drift_max = 0.0

    def now(self) -> float:
        """perf_counter minus the time spent paused for counter sampling."""
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t = time.perf_counter()
        self._quiet = True
        try:
            yield
        finally:
            self._quiet = False
            self._paused += time.perf_counter() - t

    def _wrap(self, fn, name, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._quiet:
                return fn(*args, **kwargs)
            if before is not None:
                with self.paused():
                    before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, self.now(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self.now()

        return traced

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        solver = importlib.import_module("hdsl.solver")
        self._init_cache = solver.init_cache  # untraced, for drift sampling
        hooks = {"gradient_accumulate": self._count_products}
        for mod, attr, name in FUNCTIONS:
            owner = importlib.import_module(mod)
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._wrap(fn, name, hooks.get(attr)))
        for mod, cls, meth, name in METHODS:
            owner = getattr(importlib.import_module(mod), cls)
            self._patch(owner, meth, self._wrap(getattr(owner, meth), name))
        fw_gap = solver.fw_gap

        def traced_gap(state, fwd):
            self._on_iteration(state)
            return fw_gap(state, fwd)

        self._patch(solver, "fw_gap", traced_gap)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def bind(self, cs, iters: int) -> None:
        """Constraint set the counters read, and the run's iteration budget."""
        self.cs = cs
        self.drift_every = max(1, iters // DRIFT_SAMPLES)
        self._xnnz = np.diff(cs.X.indptr)
        self._dnnz = np.diff(cs.D.indptr)

    def _count_products(self, cs, cache, subset=None):
        """Sum of nnz(x_t) * nnz(d_t) over the constraints with g_t != 0."""
        g = cache.derivs()
        rows = np.arange(len(cs)) if subset is None else subset
        active = rows[g[rows] != 0.0]
        self.pair_products += int(np.dot(self._xnnz[active], self._dnnz[active]))

    def _on_iteration(self, state):
        # fw_gap runs once per iteration, so its calls mark iteration boundaries
        self.gap_calls.append(self.now())
        with self.paused():
            margins = state.cache.margins
            self.active_fracs.append(float(np.mean(state.cache.derivs() != 0.0)))
            if (len(self.gap_calls) - 1) % self.drift_every == 0:
                fresh = self._init_cache(self.cs, state.model).margins
                self.drift_max = max(self.drift_max, float(np.max(np.abs(margins - fresh))))

    def layer_metrics(self, model, history, cs) -> dict:
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        covered = defaultdict(float)
        for idx in range(len(self.spans) - 1, -1, -1):  # children before parents
            name, start, end, parent = self.spans[idx]
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_time[name] += dur - covered[idx]
            if parent >= 0:
                covered[parent] += dur
        out = {f"{n}_s": total[n] for n in TIMED}
        out["solver.train_self_s"] = self_time["solver.train"]
        out["constraints.build_s"] = self_time["constraints.build"]
        out["solver.train_s"] = total["solver.train"]
        out.update({f"{n}_calls": calls[n] for n in CALLED})
        iters_ms = np.diff(self.gap_calls) * 1e3
        out.update({
            "solver.exact_pair_products": self.pair_products,
            "solver.iter_ms_p50": float(np.percentile(iters_ms, 50)) if iters_ms.size else 0.0,
            "solver.iter_ms_p99": float(np.percentile(iters_ms, 99)) if iters_ms.size else 0.0,
            "solver.iter_samples": int(iters_ms.size),
            "objective.cache_drift_max": self.drift_max,
            "solver.active_frac": float(np.mean(self.active_fracs)),
            "constraints.triplets": len(cs),
            "solver.steps_forward": sum(1 for h in history if h.get("step") == "F"),
            "solver.steps_away": sum(1 for h in history if h.get("step") == "A"),
            "solver.atoms_max": max(h["atoms"] for h in history),
            "solver.atoms_final": model.n_atoms,
            "solver.final_objective": history[-1]["objective"],
            "solver.final_gap": history[-1]["gap"],
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
