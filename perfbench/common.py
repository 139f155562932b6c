"""Helpers shared by the workloads: host speed, statistics, the stamp."""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

STRATEGIES = ("full", "caching", "macromodel", "sampling")

#: Front-end layer metrics; a workload whose requests never pass a front
#: end reports them as 0.
SERVICE_METRICS = ("service.queue_wait_ms", "service.run_ms",
                   "service.front_ms", "service.coalesced_ratio",
                   "service.response_bytes")
CLUSTER_METRICS = ("cluster.dispatch_ms", "cluster.run_ms",
                   "cluster.coalesced_ratio", "cluster.worker_share_max",
                   "cluster.redispatches")


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


# -- host speed ---------------------------------------------------------------
#
# On a shared host the speed of every process swings by tens of percent
# from one second to the next, which no number of repeats inside one run
# averages out.  Times are therefore reported in *reference seconds*:
# wall seconds scaled by CALIBRATION_REF_S over the mean time of a
# fixed pure-Python loop that a background thread runs every
# CALIBRATION_PERIOD_S while the timed work runs.  The loop does not
# touch the program, so a change to the program moves reference seconds
# exactly as it moves wall seconds; raw wall times are kept in the
# samples.  The thread holds the interpreter lock for about 3% of the
# time, the same on every commit.

#: Calibration-loop time on the reference host (an idle core of the
#: 2-core Xeon the benchmark was sized on).
CALIBRATION_REF_S = 0.001
CALIBRATION_LOOPS = 10_000
CALIBRATION_PERIOD_S = 0.03


def calibrate() -> float:
    """Wall seconds of the fixed calibration loop."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(CALIBRATION_LOOPS):
        key = index & 255
        table[key] = table.get(key, 0) + index
    return time.perf_counter() - started


class HostSpeed:
    """Calibrates in a background thread while the timed work runs."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.costs: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.is_set():
            cost = calibrate()
            # Costs first: readers never see a time without its cost.
            self.costs.append(cost)
            self.times.append(time.perf_counter())
            self._stop.wait(CALIBRATION_PERIOD_S)

    def reference_seconds(self, start: float, end: float,
                          margin_s: float = 0.0) -> float:
        """Reference seconds of work that ran from ``start`` to ``end``.

        Uses the calibrations that finished inside the interval widened
        by ``margin_s`` on each side, or the one nearest its end when
        there are none.
        """
        low = bisect.bisect_left(self.times, start - margin_s)
        high = bisect.bisect_right(self.times, end + margin_s)
        inside = self.costs[low:high]
        if not inside:
            if not self.times:
                raise BenchError("no host-speed calibration ran")
            nearest = min(range(len(self.times)),
                          key=lambda index: abs(self.times[index] - end))
            inside = [self.costs[nearest]]
        return (end - start) * CALIBRATION_REF_S / statistics.mean(inside)


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Where and on what a result was measured."""
    # The checkout may not be a repository, or may sit inside another.
    inside = _git("rev-parse", "--show-toplevel") == ROOT
    status = _git("status", "--porcelain") if inside else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": (_git("rev-parse", "HEAD") if inside else None) or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
    }


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the numpy default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile with ``beyond`` samples above it.

    ``None`` when even the median has fewer than ``beyond`` samples
    beyond it.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= beyond - 1e-9:
            best = pct
    return best


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return statistics.median(values)


def latency_summary(latencies_s: Sequence[float]) -> Dict:
    """p50, p95 and the tail the sample count supports, in ms."""
    if not latencies_s:
        raise BenchError("no latency samples")
    ms = [value * 1e3 for value in latencies_s]
    tail = tail_percentile(len(ms))
    return {
        "samples": len(ms),
        "p50_ms": percentile(ms, 50.0),
        "p95_ms": percentile(ms, 95.0),
        "tail_pct": tail,
        "tail_ms": percentile(ms, tail) if tail is not None else None,
    }


def read_peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one live process, in KiB."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, stack = [], [pid]
    while stack:
        current = stack.pop()
        tree.append(current)
        stack.extend(children.get(current, ()))
    return tree
