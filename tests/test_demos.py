"""Each demo script runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    ["convergence_diagnostics.py", "--d", "20", "--triplets", "60", "--iters", "200"],
    ["knn_pipeline.py", "--dim", "60", "--per-class", "12"],
    # at --dims 500 --n 120 gen_truth_frequent finds too few distinct bases
    ["link_prediction.py", "--dims", "2000", "--n", "150", "--links", "450", "--per-link", "2"],
    ["similarity_recovery.py", "--d", "100", "--bases", "8", "--n", "200",
     "--triplets", "800", "--iters", "100"],
]


def run_demo(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("argv", DEMOS, ids=[a[0] for a in DEMOS])
def test_demo_exits_zero(argv):
    proc = run_demo(argv)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_link_demo_too_few_bases_exits_2():
    proc = run_demo(["link_prediction.py", "--dims", "500", "--n", "120", "--links", "450",
                     "--per-link", "2"])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: d=500:")
