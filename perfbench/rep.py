"""One protocol run of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS/OpenMP pools pinned to one thread. Times setup,
train and evaluation, runs the output checks, and prints its result as one
JSON line on stdout. With ``--trace 1`` the public ``hdsl`` functions are
wrapped by ``tracer.Tracer`` and the per-layer metrics are added; the
spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    import hdsl

    if Path(hdsl.__file__).resolve().parent != SRC / "hdsl":
        print(f"hdsl imported from {hdsl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import protocols
    from tracer import Tracer

    tracer = None
    clock = time.perf_counter
    if args.trace:
        tracer = Tracer()
        tracer.install()
        clock = tracer.now

    size = protocols.SIZES[args.workload][args.size]
    proto = protocols.PROTOCOLS[args.workload](size, args.seed, args.workdir)
    proto.prepare()
    t0 = clock()
    proto.setup()
    t1 = clock()
    cfg = proto.config()
    if tracer is not None:
        tracer.bind(proto.cs, cfg.max_iters)
    t2 = clock()
    model, history = protocols.solver.train(proto.cs, cfg)
    t3 = clock()
    ev = proto.evaluate(model)
    t4 = clock()
    if tracer is not None:
        tracer.uninstall()

    rng = np.random.default_rng(args.seed)
    failures = protocols.common_checks(proto, model, history, ev, rng)
    failures += proto.workload_checks(model, ev)
    setup_s, train_s, eval_s = t1 - t0, t3 - t2, t4 - t3
    result = {
        "metrics": {
            "setup_s": setup_s,
            "train_s": train_s,
            "eval_s": eval_s,
            "total_s": setup_s + train_s + eval_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality": ev["quality"],
        },
        "report": {
            **{k: v for k, v in ev.items() if k not in ("quality", "projection")},
            "final_objective": history[-1]["objective"],
            "final_gap": history[-1]["gap"],
            "history_len": len(history),
            "model_sha256": protocols.model_sha256(model),
        },
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(model, history, proto.cs)
        result["layers"]["protocol.eval_s"] = eval_s
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
