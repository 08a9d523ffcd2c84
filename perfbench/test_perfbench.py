"""Tests of the benchmark harness itself, on the smoke sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import protocols  # noqa: E402
import run  # noqa: E402
from tracer import UNITS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert set(run.WORKLOADS) == set(protocols.PROTOCOLS) == set(protocols.SIZES)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert {n: m["unit"] for n, m in out["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert "model_sha256" in proc.stdout and "error_rate 0.0" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    m = {n: v["value"] for n, v in last_json(proc)["metrics"].items()}
    assert {n: v["unit"] for n, v in last_json(proc)["metrics"].items()} == UNITS
    assert m["solver.train_s"] > 0 and m["solver.iter_samples"] > 0
    assert 0 < m["solver.active_frac"] <= 1
    if workload == "link-heuristic":
        assert m["solver.gradient_accumulate_calls"] == 0 and m["solver.exact_pair_products"] == 0
        assert m["evaluation.link_auc_calls"] > 0
    else:
        assert m["solver.forward_heuristic_s"] == 0 and m["solver.exact_pair_products"] > 0
    if workload == "knn-small":
        assert m["evaluation.knn_error_calls"] > 0 and m["sparse_data.parse_libsvm_s"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "knn-small", "--seconds", "1", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_bad_outputs(tmp_path):
    proto = protocols.KnnSmall(protocols.SIZES["knn-small"]["smoke"], 0, tmp_path)
    proto.prepare()
    proto.setup()
    model, history = protocols.solver.train(proto.cs, proto.config())
    ev = proto.evaluate(model)
    rng = np.random.default_rng(0)
    assert protocols.common_checks(proto, model, history, ev, rng) == []

    rising = [dict(h) for h in history]
    rising[-1]["objective"] = rising[-2]["objective"] * 1.01
    rising[-1]["gap"] = -1e-3
    bad_proj = dict(ev, projection=ev["projection"] * 1.001)
    failures = protocols.common_checks(proto, model, rising, bad_proj, rng)
    assert len(failures) == 3, failures
    assert proto.workload_checks(model, dict(ev, knn_error=1.0))
