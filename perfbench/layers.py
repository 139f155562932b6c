"""Span recording around the co-estimation layers, from outside ``src/``.

The traced run patches each layer's public entry points with a timer
(:func:`instrument`), records one span per call with the span that was
open when it started as its parent, and keeps counts next to the spans
(cycles, instructions, events, hits).  A layer's *self time* is its
spans' durations minus the part of each interval covered by child
spans, so nested layers are never counted twice.

Layers are named after the ``src/repro`` packages:

========== ==============================================================
``hw``     ``HardwarePowerSimulator.run_transition`` (gate level)
``sw``     ``Iss.run`` (instruction-set simulator)
``cfsm``   ``Cfsm.react`` (behavioural reaction)
``master`` ``SimulationMaster.run`` (discrete-event kernel)
``bus``    ``SharedBus.submit`` / ``SharedBus.advance``
``cache``  ``CacheSimulator.access``
``core``   ``<Strategy>.estimate`` (the paper's section 4 strategies)
``setup``  ``SimulationMaster.__init__`` (per-run construction)
``synth``  ``HardwarePowerSimulator.__init__`` (netlist synthesis)
``codegen`` ``compile_cfsm_cached`` as the master looks it up
``characterize`` ``PowerCoEstimator.parameter_file`` / ``hw_profiles``
``build``  system construction, timed by the benchmark itself
========== ==============================================================
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    layer: str
    label: str
    start: float
    end: float = 0.0
    parent: int = -1


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are merged first, so the result never goes negative.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


class Recorder:
    """Spans and counts of one traced run, grouped by a caller label.

    The benchmark sets :attr:`label` (a strategy name, or ``setup``)
    before each phase; every span and count records the label current
    at the time.
    """

    def __init__(self) -> None:
        self.label = ""
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, self.label, time.perf_counter(),
                               parent=parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts["%s.%s" % (self.label, key)] += value

    def parent_layer(self) -> str:
        """Layer of the innermost open span ('' at top level)."""
        return self.spans[self._stack[-1]].layer if self._stack else ""

    def totals(self) -> Dict[str, float]:
        """``<label>.<layer>.self_s`` and ``.calls`` over all spans."""
        out: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            out["%s.%s.self_s" % (span.label, span.layer)] += own
            out["%s.%s.calls" % (span.label, span.layer)] += 1
        return out

    def covered_seconds(self) -> float:
        """Self time of the spans outside set-up (time in named layers)."""
        return sum(own for span, own in zip(self.spans, self_times(self.spans))
                   if span.label != "setup")


def _wrap(recorder: Recorder, owner, attr: str, layer: str,
          after: Optional[Callable] = None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        nested_in_same_layer = recorder.parent_layer() == layer
        with recorder.span(layer):
            result = original(*args, **kwargs)
        if after is not None and not nested_in_same_layer:
            after(recorder, result)
        return result

    setattr(owner, attr, timed)
    return original


def _hw_after(recorder: Recorder, result) -> None:
    recorder.count("hw.cycles", result.cycles)


def _sw_after(recorder: Recorder, result) -> None:
    recorder.count("sw.instructions", result.instruction_count)


def _master_after(recorder: Recorder, stats) -> None:
    recorder.count("master.events", stats.dispatched)


def _cache_after(recorder: Recorder, outcome) -> None:
    recorder.count("cache.accesses")
    recorder.count("cache.hits", 1.0 if outcome.hit else 0.0)


def _core_after(recorder: Recorder, estimate) -> None:
    recorder.count("core.estimates")
    recorder.count("core.low_level", 1.0 if estimate.ran_low_level else 0.0)


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Patch every layer entry point with a timer; restore on exit."""
    import repro.master.master as master_module
    from repro.bus.busmodel import SharedBus
    from repro.cache.cachesim import CacheSimulator
    from repro.cfsm.model import Cfsm
    from repro.core.caching import CachingStrategy
    from repro.core.coestimator import PowerCoEstimator
    from repro.core.macromodel import MacromodelStrategy
    from repro.core.sampling import SamplingStrategy
    from repro.estimation import FullStrategy
    from repro.hw.estimator import HardwarePowerSimulator
    from repro.master.master import SimulationMaster
    from repro.sw.iss import Iss

    targets = [
        (HardwarePowerSimulator, "run_transition", "hw", _hw_after),
        (Iss, "run", "sw", _sw_after),
        (Cfsm, "react", "cfsm", None),
        (SimulationMaster, "run", "master", _master_after),
        (SharedBus, "submit", "bus", None),
        (SharedBus, "advance", "bus", None),
        (CacheSimulator, "access", "cache", _cache_after),
        (FullStrategy, "estimate", "core", _core_after),
        (CachingStrategy, "estimate", "core", _core_after),
        (MacromodelStrategy, "estimate", "core", _core_after),
        (SamplingStrategy, "estimate", "core", _core_after),
        (SimulationMaster, "__init__", "setup", None),
        (HardwarePowerSimulator, "__init__", "synth", None),
        (master_module, "compile_cfsm_cached", "codegen", None),
        (PowerCoEstimator, "parameter_file", "characterize", None),
        (PowerCoEstimator, "hw_profiles", "characterize", None),
    ]
    originals = []
    try:
        for owner, attr, layer, after in targets:
            originals.append((owner, attr,
                              _wrap(recorder, owner, attr, layer, after)))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


SIM_LAYERS = ("hw", "sw", "cfsm", "master", "bus", "cache", "core")


def layer_metrics(recorder: Recorder, label: str, passes: int,
                  memo_hits: float, memo_misses: float) -> Dict[str, float]:
    """The per-strategy layer metrics of one label, per pass."""
    totals = recorder.totals()
    counts = recorder.counts

    def total(key: str) -> float:
        return totals.get("%s.%s" % (label, key), 0.0)

    def counted(key: str) -> float:
        return counts.get("%s.%s" % (label, key), 0.0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    per = 1.0 / max(passes, 1)
    out = {}
    for layer in SIM_LAYERS:
        out["%s.self_s" % layer] = total("%s.self_s" % layer) * per
    out["hw.calls"] = total("hw.calls") * per
    out["hw.cycles"] = counted("hw.cycles") * per
    out["hw.ns_per_cycle"] = ratio(total("hw.self_s"), counted("hw.cycles"),
                                   1e9)
    out["hw.memo_hit_ratio"] = ratio(memo_hits, memo_hits + memo_misses)
    out["sw.calls"] = total("sw.calls") * per
    out["sw.instructions"] = counted("sw.instructions") * per
    out["sw.ns_per_instruction"] = ratio(total("sw.self_s"),
                                         counted("sw.instructions"), 1e9)
    out["cfsm.reactions"] = total("cfsm.calls") * per
    out["master.events"] = counted("master.events") * per
    out["master.us_per_event"] = ratio(total("master.self_s"),
                                       counted("master.events"), 1e6)
    out["bus.calls"] = total("bus.calls") * per
    out["cache.accesses"] = counted("cache.accesses") * per
    out["cache.hit_ratio"] = ratio(counted("cache.hits"),
                                   counted("cache.accesses"))
    out["core.estimates"] = counted("core.estimates") * per
    out["core.low_level_ratio"] = ratio(counted("core.low_level"),
                                        counted("core.estimates"))
    return {"%s.%s" % (label, key): value for key, value in out.items()}


def setup_metrics(recorder: Recorder) -> Dict[str, float]:
    """``setup.*`` seconds under the ``setup`` label, children included.

    Set-up steps nest (characterization synthesizes netlists and runs
    the ISS), so each step is reported with the time it caused; a
    synthesis inside characterization counts in both.
    """
    inclusive: Dict[str, float] = defaultdict(float)
    spans = recorder.spans
    for span in spans:
        if span.label != "setup":
            continue
        if span.parent >= 0 and spans[span.parent].layer == span.layer:
            continue
        inclusive[span.layer] += span.end - span.start
    return {
        "setup.%s_s" % layer: inclusive.get(layer, 0.0)
        for layer in ("build", "synth", "codegen", "characterize")
    }
