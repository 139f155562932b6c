"""The ``coest`` workload: in-process co-estimation of TCP/IP design points.

Three design points (DMA block size 2, 8 and 64 words) each get a fresh
8-packet stream derived from the benchmark seed, and every point runs
under all four strategies through ``PowerCoEstimator.estimate``.  Fresh
traffic makes the gate-level run memo miss, so ``full`` is dominated by
the gate level, while ``macromodel`` never reaches the ISS or the gate
level.  One run therefore separates gate-level, ISS, strategy and
discrete-event-master changes.

Caches are isolated: set-up caches are warmed on an untimed point, the
gate-level run memo is cleared before every strategy's share of a pass,
and the strategy order rotates from pass to pass, so no strategy replays
another's runs and no result depends on run order.

Run ``python3 perfbench/coest.py --setup`` to time one cold set-up in a
fresh interpreter; the workload does this several times and reports the
median.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (CLUSTER_METRICS, ROOT, SERVICE_METRICS, SRC, STRATEGIES,
                    BenchError, HostSpeed, latency_summary, median)
from layers import Recorder, instrument, layer_metrics, setup_metrics

DMA_SIZES = (2, 8, 64)
NUM_PACKETS = 8
SIZE_RANGE = (48, 96)
PACKET_PERIOD_NS = 150_000.0
#: Cold set-ups timed per run (in fresh interpreters) for ``setup_s``.
SETUP_PROBES = 3
#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3


def packet_sizes(seed: int, count: int = NUM_PACKETS) -> List[int]:
    """``count`` sizes spread evenly over ``SIZE_RANGE``, in seeded order.

    Every point carries the same payload volume and size mix, so its
    work changes little from seed to seed; the seed sets the order of
    the sizes, and with it every packet's payload words.
    """
    low, high = SIZE_RANGE
    sizes = [low + round(index * (high - low) / max(count - 1, 1))
             for index in range(count)]
    random.Random(seed).shuffle(sizes)
    return sizes


def packet_stimuli(sizes: List[int]):
    from repro.cfsm.events import Event

    return [Event("PACKET_IN", value=size, time=100.0 + i * PACKET_PERIOD_NS)
            for i, size in enumerate(sizes)]


def build_designs(recorder: Optional[Recorder] = None) -> Dict:
    """One warmed ``PowerCoEstimator`` per DMA size.

    Builds each system, constructs a ``SimulationMaster`` (synthesis,
    compilation, code generation) and characterizes the macro-models,
    so the timed passes pay none of it.
    """
    from repro.core import PowerCoEstimator
    from repro.master.master import SimulationMaster
    from repro.systems import tcpip

    designs = {}
    for dma in DMA_SIZES:
        if recorder is not None:
            with recorder.span("build"):
                bundle = tcpip.build_system(dma_block_words=dma,
                                            num_packets=NUM_PACKETS,
                                            size_range=SIZE_RANGE)
        else:
            bundle = tcpip.build_system(dma_block_words=dma,
                                        num_packets=NUM_PACKETS,
                                        size_range=SIZE_RANGE)
        estimator = PowerCoEstimator(bundle.network, bundle.config)
        estimator.parameter_file()
        estimator.hw_profiles()
        SimulationMaster(bundle.network, None, bundle.config)
        designs[dma] = estimator
    return designs


def probe_setup_seconds() -> Tuple[float, float]:
    """Wall and reference seconds to import the program and build every
    design, from a cold start."""
    with HostSpeed() as speed:
        started = time.perf_counter()
        sys.path.insert(0, SRC)
        build_designs()
        ended = time.perf_counter()
    return ended - started, speed.reference_seconds(started, ended)


def cold_setup_seconds() -> List[List[float]]:
    """``[wall, reference]`` seconds of ``SETUP_PROBES`` cold set-ups."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError("set-up probe failed:\n" + done.stderr[-2000:])
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Passes:
    """Timed passes over every (strategy, point), checking energies."""

    def __init__(self, designs: Dict, points: List[Tuple[int, List[int]]]):
        self.designs = designs
        self.points = points
        self.energies: Dict[Tuple[str, int], float] = {}
        self.attempted = 0
        self.failed = 0
        self.memo: Dict[str, List[int]] = {s: [0, 0] for s in STRATEGIES}
        #: Wall seconds of every pass run, beside the reference seconds.
        self.wall_passes: List[Dict[str, List[float]]] = []
        #: Points of every pass run that failed or gave a wrong energy.
        self.pass_failures: List[int] = []

    def run(self, seconds: float, recorder: Optional[Recorder] = None
            ) -> List[Dict[str, List[float]]]:
        """Passes until ``seconds`` have gone (at least ``MIN_PASSES``).

        Returns one ``{strategy: [reference seconds per point]}`` dict
        per pass.
        """
        from repro.hw.estimator import HW_RUN_MEMO_STATS, clear_hw_run_memo

        passes = []
        deadline = time.perf_counter() + seconds
        with HostSpeed() as speed:
            while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
                shift = len(passes) % len(STRATEGIES)
                order = STRATEGIES[shift:] + STRATEGIES[:shift]
                record, wall = {}, {}
                failed_before = self.failed
                for strategy in order:
                    gc.collect()
                    clear_hw_run_memo()
                    if recorder is not None:
                        recorder.label = strategy
                    wall[strategy], record[strategy] = [], []
                    for dma, sizes in self.points:
                        started, ended = self.point(strategy, dma, sizes)
                        wall[strategy].append(ended - started)
                        record[strategy].append(
                            speed.reference_seconds(started, ended))
                    self.memo[strategy][0] += HW_RUN_MEMO_STATS.hits
                    self.memo[strategy][1] += HW_RUN_MEMO_STATS.misses
                passes.append(record)
                self.wall_passes.append(wall)
                self.pass_failures.append(self.failed - failed_before)
        return passes

    def point(self, strategy: str, dma: int, sizes: List[int]
              ) -> Tuple[float, float]:
        """Estimate one point and check its energy; returns start, end."""
        stimuli = packet_stimuli(sizes)
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = self.designs[dma].estimate(stimuli, strategy=strategy)
        except Exception as exc:  # noqa: BLE001 - a failed point is data
            print("coest: %s at DMA=%d failed: %s" % (strategy, dma, exc),
                  file=sys.stderr)
            self.failed += 1
            return started, time.perf_counter()
        ended = time.perf_counter()
        energy = result.report.total_energy_j
        expected = self.energies.setdefault((strategy, dma), energy)
        if energy != expected or not energy > 0.0:
            print("coest: %s at DMA=%d gave %r, earlier %r"
                  % (strategy, dma, energy, expected), file=sys.stderr)
            self.failed += 1
        return started, ended

    def energy_errors(self) -> Dict[str, float]:
        """Max over points of |E - E_full| / E_full, in percent."""
        out = {}
        for strategy in STRATEGIES[1:]:
            out["%s_energy_err_pct" % strategy] = max(
                abs(self.energies[(strategy, dma)]
                    - self.energies[("full", dma)])
                / self.energies[("full", dma)] * 100.0
                for dma, _ in self.points
            )
        return out


def _pass_seconds(record: Dict[str, List[float]]) -> float:
    return sum(sum(latencies) for latencies in record.values())


def run(seed: int, seconds: float, trace: bool) -> Dict:
    rng = random.Random(seed)
    points = [(dma, packet_sizes(rng.getrandbits(32))) for dma in DMA_SIZES]
    warm_point = packet_sizes(rng.getrandbits(32), count=1)

    setup_samples = [] if trace else cold_setup_seconds()
    recorder = Recorder() if trace else None
    if recorder is not None:
        recorder.label = "setup"
        with instrument(recorder):
            designs = build_designs(recorder)
        setup_layers = setup_metrics(recorder)
    else:
        designs = build_designs()

    # Untimed warm-up: one short point per design and strategy fills the
    # decode and codegen caches that set-up leaves cold.
    warm = Passes(designs, [(dma, warm_point) for dma in DMA_SIZES])
    for strategy in STRATEGIES:
        for dma in DMA_SIZES:
            warm.point(strategy, dma, warm_point)
    if warm.failed:
        raise BenchError("the untimed warm-up point failed")

    bench = Passes(designs, points)
    if not trace:
        passes = bench.run(seconds)
        return _end_to_end(bench, passes, setup_samples)

    untraced = bench.run(seconds / 2.0)
    memo_before = {s: list(v) for s, v in bench.memo.items()}
    recorder = Recorder()
    with instrument(recorder):
        traced = bench.run(seconds / 2.0, recorder)
    metrics = dict(setup_layers)
    for strategy in STRATEGIES:
        hits = bench.memo[strategy][0] - memo_before[strategy][0]
        misses = bench.memo[strategy][1] - memo_before[strategy][1]
        metrics.update(layer_metrics(recorder, strategy, len(traced),
                                     hits, misses))
    traced_wall = sum(_pass_seconds(record)
                      for record in bench.wall_passes[len(untraced):])
    metrics["bench.trace_overhead_pct"] = (
        median([_pass_seconds(r) for r in traced])
        / median([_pass_seconds(r) for r in untraced]) - 1.0) * 100.0
    metrics["bench.layer_coverage"] = recorder.covered_seconds() / traced_wall
    metrics.update(bench.energy_errors())
    metrics.update(dict.fromkeys(SERVICE_METRICS + CLUSTER_METRICS, 0.0))
    return {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "samples": {"untraced_passes": untraced, "traced_passes": traced,
                    "wall_passes": bench.wall_passes},
    }


def _end_to_end(bench: Passes, passes: List[Dict[str, List[float]]],
                setup_samples: List[List[float]]) -> Dict:
    count = len(bench.points)
    rates = {
        strategy: median([count / sum(record[strategy]) for record in passes])
        for strategy in STRATEGIES
    }
    latencies = [value for record in passes for values in record.values()
                 for value in values]
    summary = latency_summary(latencies)
    metrics = {
        "setup_s": median([reference for _, reference in setup_samples]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "goodput_rps": median([
            (count * len(STRATEGIES) - failures) / _pass_seconds(record)
            for record, failures in zip(passes, bench.pass_failures)
        ]),
        "latency_p50_ms": summary["p50_ms"],
        "latency_p95_ms": summary["p95_ms"],
    }
    for strategy in STRATEGIES:
        metrics["%s_points_per_s" % strategy] = rates[strategy]
    return {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "derived": {
            "table1_caching_speedup": rates["caching"] / rates["full"],
            "table2_macromodel_speedup": rates["macromodel"] / rates["full"],
            "base": {"full_points_per_s": rates["full"],
                     "caching_points_per_s": rates["caching"],
                     "macromodel_points_per_s": rates["macromodel"]},
            "energy_err_pct": bench.energy_errors(),
            "latency": summary,
        },
        "samples": {"setup_s": setup_samples, "passes": passes,
                    "wall_passes": bench.wall_passes},
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--setup"]:
        sys.exit("usage: coest.py --setup")
    print(json.dumps(probe_setup_seconds()))
