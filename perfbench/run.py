"""hdsl protocol benchmark.

    python3 perfbench/run.py --workload recovery-exact --seed 0 --seconds 40 --trace 0

Runs one workload as a closed loop of whole protocol runs (setup, train,
evaluate), one at a time, each in a fresh process with one BLAS/OpenMP
thread, for about ``--seconds`` seconds. Prints one line per run, every
metric by name with its unit, and as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the medians of the
end-to-end metrics with ``--trace 0``, of the per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced protocol runs;
``trace.overhead_s`` is the difference of their median ``train_s``.

A protocol run fails when it crashes, when an output check fails, or when
its model differs from the first run's (same seed, same code). Any failure
makes the exit code nonzero. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("recovery-exact", "link-heuristic", "knn-small")
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "quality": "score",
}
MIN_RUNS = 2
DEADLINE_S = 170.0  # the whole command must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_once(args, index: int, traced: bool, deadline: float) -> dict:
    """One protocol run in a fresh process; returns its result or its failure."""
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--size", "smoke" if args.smoke else "full",
        "--workdir", str(OUT),
    ]
    if traced:
        cmd += ["--spans", str(OUT / f"{args.workload}-seed{args.seed}-run{index}.spans.jsonl")]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "wall_s": time.perf_counter() - start,
                "failures": ["protocol run timed out"]}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "wall_s": wall,
                "failures": [f"exit {proc.returncode}: " + " | ".join(tail)]}
    result = json.loads(lines[-1])
    result.update(traced=traced, wall_s=wall)
    return result


def median_of(runs, key, name):
    return statistics.median(r[key][name] for r in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hdsl" / "__init__.py").is_file():
        print(f"no hdsl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    runs = []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        run = run_once(args, len(runs), traced, deadline)
        runs.append(run)
        print(json.dumps({"run": len(runs), "traced": traced, "wall_s": round(run["wall_s"], 3),
                          **run.get("metrics", {}), "failures": run["failures"]}))
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in runs)
        if len(runs) >= MIN_RUNS and elapsed + longest > min(args.seconds, DEADLINE_S):
            break

    ok = [r for r in runs if not r["failures"]]
    if ok:
        sha = ok[0]["report"]["model_sha256"]
        for r in ok[1:]:
            if r["report"]["model_sha256"] != sha:
                r["failures"].append("model differs from the first run of this seed")
        ok = [r for r in ok if not r["failures"]]
    failed = len(runs) - len(ok)
    for r in runs:
        for f in r["failures"]:
            print(f"FAILED CHECK: {f}")

    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if args.trace == 0 and plain:
        metrics = {n: {"value": median_of(plain, "metrics", n), "unit": u} for n, u in END_TO_END.items()}
    elif args.trace == 1 and plain and traced:
        from tracer import UNITS

        metrics = {n: {"value": median_of(traced, "layers", n), "unit": u} for n, u in UNITS.items()
                   if n != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "metrics", "train_s") - median_of(plain, "metrics", "train_s"),
            "unit": "s",
        }
    if ok:
        for name, value in ok[0]["report"].items():
            print(f"{name} {value}")
    if plain:
        # too short (milliseconds on two workloads) to gate; total_s includes it
        print(f"eval_s {median_of(plain, 'metrics', 'eval_s')} s (not gated)")
    print(f"error_rate {failed / len(runs)} ratio ({failed} of {len(runs)} runs)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "runs": runs, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
