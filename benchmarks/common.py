"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one table or figure of the paper.  Full
(unaccelerated) co-estimation runs are memoized per configuration so
that Table 1, Table 2, and Figure 6 — which share the same baselines —
do not re-simulate them.

Results are printed to the terminal (bypassing pytest capture) and
written to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md
can reference stable artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core import PowerCoEstimator
from repro.core.report import EnergyReport
from repro.estimation import Estimate, EstimationJob, EstimationStrategy
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.systems import tcpip
from repro.telemetry import Telemetry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Repository root — standardized ``BENCH_*.json`` perf snapshots land
#: here so CI can glob them as artifacts.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The DMA sizes of Tables 1 and 2.
TABLE_DMA_SIZES = (2, 4, 8, 16, 32, 64)

#: Packet workload used for the table experiments.  The paper's
#: Figure 7 caption processes 3 packets; the table experiments use a
#: longer stream so that hot paths repeat even at the largest DMA size
#: (the regime the paper's hour-long traces are in).
NUM_PACKETS = 8
PACKET_SIZE_RANGE = (48, 96)


def write_result(name: str, text: str) -> str:
    """Persist one experiment's rendered table; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    return atomic_write_text(path, text)


def emit(capsys, text: str) -> None:
    """Print ``text`` to the real terminal despite pytest capture."""
    with capsys.disabled():
        print(text)


def write_bench(name: str, payload: Dict) -> str:
    """Persist a standardized perf snapshot as ``BENCH_<name>.json``.

    The payload should carry at least ``wall_seconds`` numbers plus
    whatever rates/speedups the experiment measured; the file lands in
    the repository root where CI uploads ``BENCH_*.json`` artifacts.
    """
    path = os.path.join(REPO_ROOT, "BENCH_%s.json" % name)
    return atomic_write_json(path, payload)


def clear_process_caches() -> None:
    """Reset every process-wide co-estimation cache (and its stats).

    Running this before each design point emulates the pre-caching
    sequential code path — the baseline the ``BENCH_explorer.json``
    speedups are measured against.
    """
    from repro.cfsm.sgraph import clear_sgraph_cache
    from repro.core.macromodel import clear_characterization_memo
    from repro.hw.estimator import clear_hw_run_memo
    from repro.hw.logicsim import clear_compile_cache
    from repro.hw.synth import clear_synth_cache
    from repro.sw.codegen import clear_codegen_cache
    from repro.sw.iss import clear_decode_cache

    clear_sgraph_cache()
    clear_compile_cache()
    clear_synth_cache()
    clear_codegen_cache()
    clear_decode_cache()
    clear_hw_run_memo()
    clear_characterization_memo()


def write_metrics(name: str, snapshot: Dict) -> str:
    """Persist one run's metrics snapshot as JSON; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".metrics.json")
    return atomic_write_json(path, snapshot)


@lru_cache(maxsize=None)
def tcpip_run(dma: int, strategy: str) -> "FrozenRun":
    """Memoized co-estimation of the TCP/IP system at one DMA size.

    Every run carries a metrics-only telemetry bundle (counters and
    gauges, no span recording) so benchmarks can persist the strategy
    accounting next to the rendered tables.
    """
    bundle = tcpip.build_system(
        dma_block_words=dma,
        num_packets=NUM_PACKETS,
        size_range=PACKET_SIZE_RANGE,
    )
    estimator = PowerCoEstimator(bundle.network, bundle.config)
    telemetry = Telemetry.metrics_only()
    result = estimator.estimate(
        bundle.stimuli(), strategy=strategy, telemetry=telemetry
    )
    return FrozenRun(report=result.report, metrics=telemetry.metrics.snapshot())


@dataclass(frozen=True)
class FrozenRun:
    """Hashable wrapper so lru_cache can hold run results."""

    report: EnergyReport
    metrics: Optional[Dict] = field(default=None, compare=False)


class RecordingStrategy(EstimationStrategy):
    """Full co-estimation that logs every (path key, energy, cycles).

    Used by the Figure 4 experiment to build per-path energy
    histograms from a long co-simulation.
    """

    name = "recording"

    def __init__(self) -> None:
        self.samples: List[Tuple[Tuple, float, int]] = []

    def estimate(self, job: EstimationJob) -> Estimate:
        measured = job.run_low_level()
        self.samples.append((job.path_key, measured.energy, measured.cycles))
        return measured

    def energies_for(self, cfsm: str, transition: str) -> Dict[Tuple, List[float]]:
        """Per-path energy samples of one transition."""
        by_path: Dict[Tuple, List[float]] = {}
        for key, energy, _ in self.samples:
            if key[0] == cfsm and key[1] == transition:
                by_path.setdefault(key[2], []).append(energy)
        return by_path


def format_table(headers: List[str], rows: List[List[str]], title: str) -> str:
    """Fixed-width table rendering shared by all benches."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
