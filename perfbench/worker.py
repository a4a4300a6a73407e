"""One pass of one workload, in a fresh interpreter (started by run.py).

Imports ising_lab from the checkout's ``src``, makes one warm-up call,
prints ``ready``, then issues the workload's operations and times them.
With ``--trace 1`` the layers are wrapped first and the per-layer metrics
of the pass are returned too.  The correctness checks run after the timed
loop.  The last stdout line is the pass as JSON.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):             # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ising_lab
    import ising_lab.cli  # noqa: F401  (not imported by the package itself)

    from layers import LAYERS, cache_counts, install, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, judge, run_ops, warm_up

    warm_up(ising_lab)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops, checks = WORKLOADS[args.workload](ising_lab, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        originals = install(tracer, ising_lab)
        cache_before = cache_counts(originals)
    # time.monotonic is the clock of the runner's speed samples too
    t0 = time.monotonic()
    results, timed = run_ops(ops, time.monotonic)
    t1 = time.monotonic()
    wall = t1 - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        cache_after = cache_counts(originals)
        tracer.unwrap()
        layers = layer_metrics(tracer, cache_before, cache_after)
        layers["trace.coverage"] = sum(layers[f"{x}.self_s"] for x in LAYERS) / wall
        layers["absent"] = sorted(tracer.absent)
    outcomes, verdicts = judge(timed, results, checks)
    print(json.dumps({
        "traced": bool(args.trace),
        "t0": t0,
        "t1": t1,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "ops": [vars(o) for o in outcomes],
        "checks": verdicts,
        "layers": layers,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
