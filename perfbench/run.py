"""Benchmark for the airisk package: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload assess --seed 1 --seconds 15 --trace 0

The package is imported from the checkout's ``src`` directory.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Result and trace
files go to ``perfbench/out``.  See perfbench/README.md.
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
OUT = ROOT / "perfbench" / "out"


def _import_program():
    """Import airisk from this checkout's src; exit with an error if it is not there."""
    package = ROOT / "src" / "airisk"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no airisk package at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import airisk

    if Path(airisk.__file__).resolve().parent != package:
        sys.exit(f"run.py: imported airisk from {airisk.__file__}, not from {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("assess", "sweep", "ingest", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from measure import closed_loop, setup_seconds
    from tracing import Tracer, layer_metrics, plain_api, traced_api
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    setup_s = None if args.trace else setup_seconds(ROOT)

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.trace:
            tracer = Tracer()

            def next_op(pos):
                tracer.op += 1

            with traced_api(tracer) as api:
                result = closed_loop(
                    workload.items, workload.make_op(api), args.seconds, workload.min_rounds,
                    workload.fingerprint, next_op,
                )
        else:
            result = closed_loop(
                workload.items, workload.make_op(plain_api()), args.seconds, workload.min_rounds,
                workload.fingerprint,
            )
        if args.workload == "cli" and not args.trace:
            peak_rss_kb = workload.peak_rss_kb
        else:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems = workload.check(result.first)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    if result.unstable:
        problems.append(f"{result.unstable} outputs differ from the same input's first-round output")

    attempted = result.rounds * len(workload.items)
    ops_per_s = result.ops_per_s()
    if args.trace:
        metrics = layer_metrics(tracer, attempted)
        tag = f"{args.workload}-seed{args.seed}-trace"
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "op/s"),
            "op_p50_us": (result.latency_us(50), "us"),
            "op_tail_us": (result.latency_us(workload.tail_percentile), "us"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        }
        tag = f"{args.workload}-seed{args.seed}"
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        line,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        rounds=result.rounds,
        overall_ops_per_s=attempted / result.seconds,
        tail_percentile=workload.tail_percentile,
        best_latency_percentiles_us={p: result.latency_us(p) for p in (50, 75, 90, 95, 99, 100)},
        problems=problems[:50],
        host={"nproc": _nproc(), "python": platform.python_version(), "machine": platform.machine()},
        finished=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(
        f"{args.workload}: {attempted} attempted, {result.failed} failed, {result.rounds} rounds "
        f"in {result.seconds:.2f} s, {attempted / result.seconds:.1f} op/s overall, "
        f"{ops_per_s:.1f} op/s at each operation's fastest{' (traced)' if args.trace else ''}"
    )
    print(json.dumps(line))
    return 0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


if __name__ == "__main__":
    sys.exit(main())
