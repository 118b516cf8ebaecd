"""cyclebench benchmark: one workload per process, end-to-end metrics from an
untraced run (--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 benchmark/run.py --workload campaign_garnet20 --seed 0 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ./src next to this
directory, never from an installed copy.  Prints a human-readable summary,
an environment line, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  Traced runs also write their spans
to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# One BLAS thread (never more than nproc): reductions keep a fixed order, so
# NNLS iteration counts repeat, and thread count made no measurable difference.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cyclebench" / "__init__.py").is_file():
        print(f"no cyclebench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Pinned here, before numpy loads, so the package is measured as is.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import cyclebench
    import tracing
    import workloads

    if Path(cyclebench.__file__).resolve().parent != SRC / "cyclebench":
        print(f"imported cyclebench from {cyclebench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ledger = workloads.Ledger()
    t0 = time.perf_counter()
    try:
        res = run(args.seed, args.seconds, ledger, tracer, workloads.load_reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    wall = time.perf_counter() - t0
    env = environment()

    if tracer is not None:
        metrics = tracer.metrics(res["overhead"])
        units = tracing.per_layer_metric_units()
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": res["setup_s"], "ops_per_s": res["ops_per_s"], "peak_rss_mb": peak}
        units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
        rate_name, latency_name = res["names"]
        # The median latency and failed fraction are printed, not gated (see README).
        print(f"{args.workload} seed={args.seed}: {res['samples']} timed operations")
        print(f"  setup_s = {res['setup_s']:.6g} s")
        print(f"  {rate_name} = {res['ops_per_s']:.6g} 1/s")
        print(f"  {latency_name} = {res['op_s.p50']:.6g} s")
        print(f"  peak_rss_mb = {peak:.6g} MB")
        print(f"  failed_frac = {ledger.failed / ledger.attempted:.6g} ratio")
    print(f"wall_s = {wall:.3f}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
