"""Closed-loop timing and the program's set-up time.

On a shared host, speed can swing by 1.3-1.9x within minutes, whatever
runs on it.  On the 2-vCPU host of the README's reference figures, six 12 s
runs of assess on one seed measured 2030-2463 op/s, and the raw p99.9
latency of assess spread 0.74 of its median over ten runs.  So the figures
of a run come from its least disturbed parts.  Every
operation's latency is the fastest it took over the run's rounds, and the
throughput is that of one round at those fastest latencies.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time


def percentile(values: list[float], p: float) -> float:
    """The nearest-rank p-th percentile (0-100) of values."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


class LoopResult:
    def __init__(self, first: list, best: list, rounds: int, failed: int, unstable: int, seconds: float):
        self.first = first  # each position's output in the first round, or its exception
        self.best = best  # each position's fastest latency over the rounds, in seconds
        self.rounds = rounds
        self.failed = failed
        self.unstable = unstable  # later outputs that differ from the first round's
        self.seconds = seconds

    def ops_per_s(self) -> float:
        """Operations a second of one round with each operation at its fastest latency."""
        return len(self.best) / sum(self.best)

    def latency_us(self, p: float) -> float:
        """The p-th percentile over positions of each position's fastest latency."""
        return percentile(self.best, p) * 1e6


def closed_loop(items: list, op, seconds: float, min_rounds: int = 1, fingerprint=None, on_op=None) -> LoopResult:
    """Run whole rounds of op over items, one after another, for at least `seconds`.

    Each operation starts when the previous one ends.  An operation that
    raises counts as failed.  Outputs of the first round are kept for the
    checks; later rounds must give the same fingerprint at each position.
    """
    fingerprint = fingerprint or (lambda out: out)
    first: list = [None] * len(items)
    marks: list = [None] * len(items)
    best = [math.inf] * len(items)
    clock = time.perf_counter
    rounds = failed = unstable = 0
    start = clock()
    deadline = start + seconds
    while True:
        for pos, item in enumerate(items):
            if on_op is not None:
                on_op(pos)
            t0 = clock()
            try:
                out = op(item)
            except Exception as e:
                elapsed = clock() - t0
                failed += 1
                out = e
                mark = ("raised", type(e).__name__)
            else:
                elapsed = clock() - t0
                mark = fingerprint(out)
            if elapsed < best[pos]:
                best[pos] = elapsed
            if rounds == 0:
                first[pos] = out
                marks[pos] = mark
            elif mark != marks[pos]:
                unstable += 1
        rounds += 1
        if rounds >= min_rounds and clock() >= deadline:
            break
    return LoopResult(first, best, rounds, failed, unstable, clock() - start)


def child_env(root) -> dict:
    """Environment for a fresh interpreter that runs the package from source.

    Bytecode is cached under the benchmark's output directory, as an
    installed package would have it cached, so start-up does not include
    compiling the sources.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / "perfbench" / "out" / "pycache")
    env["AIRISK_NO_COLOR"] = "1"
    return env


_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import airisk, airisk.cli; "
    "print(time.perf_counter() - t0)"
)


def setup_seconds(root, spawns: int = 5) -> float:
    """Median time to import airisk and airisk.cli, each in a fresh interpreter.

    One untimed spawn first fills the bytecode cache.
    """
    env = child_env(root)
    times = []
    for i in range(spawns + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=root, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)

