"""Software (and hardware) power macro-modeling (Section 4.1).

**Software.**  Every POLIS macro-operation (AVV, AIVC, AEMIT, TIVAR*,
the arithmetic/relational/logical library functions, shared-memory
accesses) is pre-characterized by compiling a small template program to
the target instruction set and measuring it on the ISS — the flow of
the paper's Figure 3.  Costs are *peeled*: a template whose trace
contains several macro-operations is charged the template measurement
minus the already-characterized cost of the other operations, so the
macro-model reproduces every template measurement exactly.

The characterized costs are stored in a :class:`ParameterFile` that
serializes to the paper's text format (``.unit_energy nJ``,
``.time AVV 5`` ...).

At co-simulation time, :class:`MacromodelStrategy` sums the per-op
delay/energy over a transition's macro-operation trace without ever
invoking the ISS.  Because each statement's characterized cost includes
once-per-template overheads (pipeline fill, call/return) that a real
multi-statement path pays only once, the additive model systematically
*over-estimates* — the conservatism the paper reports in Table 2.

**Hardware.**  Hardware-mapped processes are macro-modeled with an
RTL-style aggregate model: one controller state per lowered micro-op
(a fixed cycles-per-macro-op table derived from the RTL lowering rules)
times an expected energy-per-cycle obtained from probabilistic
switching-activity analysis of the synthesized netlist.
"""

from __future__ import annotations

import io
import threading
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple
from repro.errors import ReproError

from repro.cfsm.actions import MacroOpKind, all_macro_op_names
from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.events import Event
from repro.cfsm.expr import (
    BinaryOp,
    Const,
    UnaryOp,
    Var,
    event_value,
    var,
)
from repro.cfsm.model import Cfsm
from repro.cfsm.sgraph import assign, emit, if_, loop, shared_read, shared_write
from repro.core.strategy import Estimate, EstimationJob, EstimationStrategy
from repro.sw.codegen import SHARED_MEMORY_BASE, compile_cfsm, transition_label
from repro.sw.iss import Iss
from repro.sw.power_model import InstructionPowerModel

#: Controller states per macro-operation in the RTL lowering
#: (see repro.hw.synth.RtlCompiler): one ALU transfer per assignment or
#: operator, one TEST per branch, TEST+decrement per loop iteration,
#: two cycles per shared-memory access, one per emission.
HW_MACRO_CYCLES: Dict[str, float] = {
    MacroOpKind.AVV: 1.0,
    MacroOpKind.AIVC: 1.0,
    MacroOpKind.AEMIT: 1.0,
    MacroOpKind.ADETECT: 0.0,
    MacroOpKind.TIVART: 1.0,
    MacroOpKind.TIVARF: 1.0,
    MacroOpKind.TLOOPT: 2.0,
    MacroOpKind.TLOOPF: 1.0,
    MacroOpKind.ASHRD: 2.0,
    MacroOpKind.ASHWR: 2.0,
}
#: Arithmetic/relational/logical ops are one shared-ALU state each.
for _name in all_macro_op_names():
    HW_MACRO_CYCLES.setdefault(_name, 1.0)

#: Fixed per-transition controller overhead: the go/idle handshake
#: state plus the DONE state.
HW_TRANSITION_OVERHEAD_CYCLES = 2.0


class CharacterizationError(ReproError):
    """Raised when a macro-operation cannot be characterized."""


@dataclass
class MacroCost:
    """Characterized cost of one macro-operation."""

    time_cycles: float = 0.0
    size_bytes: float = 0.0
    energy_j: float = 0.0


class ParameterFile:
    """The macro-model library, in the paper's parameter-file format."""

    UNITS = {"time": "cycle", "size": "byte", "energy": "nJ"}

    def __init__(self, costs: Optional[Dict[str, MacroCost]] = None) -> None:
        self.costs: Dict[str, MacroCost] = dict(costs or {})

    def cost(self, op_name: str) -> MacroCost:
        """Cost record for ``op_name`` (zero cost if uncharacterized)."""
        return self.costs.get(op_name, MacroCost())

    def set_cost(self, op_name: str, cost: MacroCost) -> None:
        self.costs[op_name] = cost

    def copy(self) -> "ParameterFile":
        """An independent copy (cost records included)."""
        return ParameterFile(
            {name: replace(cost) for name, cost in self.costs.items()}
        )

    def estimate_ops(self, op_names: List[str]) -> Tuple[float, float]:
        """(cycles, energy joules) for a macro-operation stream."""
        cycles = 0.0
        energy = 0.0
        for name in op_names:
            cost = self.costs.get(name)
            if cost is not None:
                cycles += cost.time_cycles
                energy += cost.energy_j
        return cycles, energy

    def serialize(self) -> str:
        """Render in the paper's ``.unit_*`` / ``.time`` / ... format."""
        out = io.StringIO()
        for metric, unit in self.UNITS.items():
            out.write(".unit_%s %s\n" % (metric, unit))
        for name in sorted(self.costs):
            out.write(".time %s %g\n" % (name, self.costs[name].time_cycles))
        for name in sorted(self.costs):
            out.write(".size %s %g\n" % (name, self.costs[name].size_bytes))
        for name in sorted(self.costs):
            out.write(".energy %s %g\n" % (name, self.costs[name].energy_j * 1e9))
        return out.getvalue()

    @classmethod
    def parse(cls, text: str) -> "ParameterFile":
        """Parse the textual format produced by :meth:`serialize`."""
        costs: Dict[str, MacroCost] = {}
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#") or line.startswith(".unit"):
                continue
            parts = line.split()
            if len(parts) != 3 or not parts[0].startswith("."):
                raise ValueError("malformed parameter line: %r" % raw_line)
            metric = parts[0][1:]
            name = parts[1]
            value = float(parts[2])
            cost = costs.setdefault(name, MacroCost())
            if metric == "time":
                cost.time_cycles = value
            elif metric == "size":
                cost.size_bytes = value
            elif metric == "energy":
                cost.energy_j = value * 1e-9
            else:
                raise ValueError("unknown metric %r" % metric)
        return cls(costs)


class _SharedStub:
    """Shared-memory stand-in used while tracing templates."""

    def read(self, address: int) -> int:
        return 11

    def write(self, address: int, value: int) -> None:
        return None


def _binary_names() -> List[str]:
    from repro.cfsm.expr import binary_operator_names

    return list(binary_operator_names())


def _unary_names() -> List[str]:
    from repro.cfsm.expr import unary_operator_names

    return list(unary_operator_names())


class MacroModelCharacterizer:
    """Builds a :class:`ParameterFile` by measuring template programs.

    The flow matches the paper's Figure 3: template program ->
    compiler -> object file -> ISS -> parameter file.
    """

    def __init__(self, power_model: Optional[InstructionPowerModel] = None) -> None:
        self.power_model = power_model or InstructionPowerModel.default_sparclite()
        self.characterization_seconds = 0.0

    # -- template construction -------------------------------------------------

    def _template_cfsm(self, body, initial_b: int = 5, initial_c: int = 3) -> Cfsm:
        builder = CfsmBuilder("tmpl")
        builder.input("T", has_value=True)
        builder.output("E", has_value=True)
        builder.var("a", 0).var("b", initial_b).var("c", initial_c)
        builder.transition("t", trigger=["T"], body=body)
        return builder.build()

    def _measure(self, cfsm: Cfsm) -> Tuple[List[str], MacroCost]:
        """Trace + measure the single transition of a template CFSM."""
        started = _time.perf_counter()
        transition = cfsm.transitions[0]
        buffer = cfsm.make_buffer()
        state = cfsm.initial_state()
        buffer.deliver(Event("T", value=9, time=0.0))
        trace = cfsm.react(transition, buffer, state, shared=_SharedStub())

        compiled = compile_cfsm(cfsm)
        memory = {
            compiled.memory_map.variables[name]: value
            for name, value in cfsm.initial_state().items()
        }
        memory[compiled.memory_map.event_mailboxes["T"]] = 9
        for address, value in trace.shared_reads:
            memory[SHARED_MEMORY_BASE + address] = value
        iss = Iss(compiled.program, self.power_model)
        result = iss.run(transition_label(cfsm.name, "t"), memory)
        self.characterization_seconds += _time.perf_counter() - started
        measured = MacroCost(
            time_cycles=float(result.cycles),
            size_bytes=float(compiled.program.size_bytes),
            energy_j=result.energy,
        )
        return trace.op_names, measured

    def _peel(
        self, costs: Dict[str, MacroCost], op_names: List[str], target: str,
        measured: MacroCost,
    ) -> MacroCost:
        """Attribute ``measured`` minus known co-occurring ops to ``target``."""
        time_cycles = measured.time_cycles
        size = measured.size_bytes
        energy = measured.energy_j
        for name in op_names:
            if name == target:
                continue
            if name not in costs:
                raise CharacterizationError(
                    "template for %s uses uncharacterized op %s" % (target, name)
                )
            time_cycles -= costs[name].time_cycles
            size -= costs[name].size_bytes
            energy -= costs[name].energy_j
        occurrences = op_names.count(target)
        if occurrences == 0:
            raise CharacterizationError(
                "template for %s does not execute it (trace: %s)"
                % (target, op_names)
            )
        return MacroCost(
            time_cycles=max(0.0, time_cycles / occurrences),
            size_bytes=max(0.0, size / occurrences),
            energy_j=max(0.0, energy / occurrences),
        )

    # -- the characterization run ------------------------------------------------

    def characterize(self) -> ParameterFile:
        """Measure every macro-operation and return the parameter file."""
        costs: Dict[str, MacroCost] = {}

        def measure_into(target: str, body) -> None:
            ops, measured = self._measure(self._template_cfsm(body))
            costs[target] = self._peel(costs, ops, target, measured)

        measure_into(MacroOpKind.AVV, [assign("a", var("b"))])
        measure_into(MacroOpKind.AIVC, [assign("a", Const(7))])
        measure_into(MacroOpKind.ADETECT, [assign("a", event_value("T"))])
        measure_into(MacroOpKind.AEMIT, [emit("E", Const(1))])

        for name in _binary_names():
            measure_into(
                name, [assign("a", BinaryOp(name, Var("b"), Var("c")))]
            )
        for name in _unary_names():
            measure_into(name, [assign("a", UnaryOp(name, Var("b")))])

        # Tests: a template whose condition is a bare variable traces
        # exactly one TIVART/TIVARF.
        ops_t, measured_t = self._measure(
            self._template_cfsm([if_(var("b"), [], [])], initial_b=1)
        )
        costs[MacroOpKind.TIVART] = self._peel(
            costs, ops_t, MacroOpKind.TIVART, measured_t
        )
        ops_f, measured_f = self._measure(
            self._template_cfsm([if_(var("b"), [], [])], initial_b=0)
        )
        costs[MacroOpKind.TIVARF] = self._peel(
            costs, ops_f, MacroOpKind.TIVARF, measured_f
        )

        # Loops: solve the (TLOOPT, TLOOPF) pair from one- and
        # two-iteration templates.
        _, measured_1 = self._measure(self._template_cfsm([loop(Const(1), [])]))
        _, measured_2 = self._measure(self._template_cfsm([loop(Const(2), [])]))
        tloopt = MacroCost(
            time_cycles=max(0.0, measured_2.time_cycles - measured_1.time_cycles),
            size_bytes=0.0,
            energy_j=max(0.0, measured_2.energy_j - measured_1.energy_j),
        )
        costs[MacroOpKind.TLOOPT] = tloopt
        costs[MacroOpKind.TLOOPF] = MacroCost(
            time_cycles=max(0.0, measured_1.time_cycles - tloopt.time_cycles),
            size_bytes=measured_1.size_bytes,
            energy_j=max(0.0, measured_1.energy_j - tloopt.energy_j),
        )

        measure_into(MacroOpKind.ASHRD, [shared_read("a", Const(4))])
        measure_into(MacroOpKind.ASHWR, [shared_write(Const(4), var("b"))])

        return ParameterFile(costs)


@dataclass
class HwMacroProfile:
    """Aggregate RTL macro-model for one hardware block."""

    energy_per_cycle_j: float
    clock_period_ns: float


def characterize_hw(cfsm: Cfsm, library=None) -> HwMacroProfile:
    """Build the probabilistic energy-per-cycle profile of one block."""
    from repro.hw.library import GateLibrary
    from repro.hw.power import probabilistic_power
    from repro.hw.synth import synthesize_cfsm

    lib = library or GateLibrary.default()
    block = synthesize_cfsm(cfsm, lib)
    period_s = cfsm.clock_period_ns * 1e-9
    power = probabilistic_power(block.netlist, period_s, lib)
    return HwMacroProfile(
        energy_per_cycle_j=power * period_s,
        clock_period_ns=cfsm.clock_period_ns,
    )


#: Characterization results, shared process-wide: parameter files keyed
#: by ``("sw", power-model signature)`` and hardware profiles keyed by
#: ``("hw", CFSM/library digest)``.  Both are pure functions of their
#: key, and every ``PowerCoEstimator`` of the same power model and
#: blocks would otherwise re-measure them per run.
_CHARACTERIZATION_MEMO: "OrderedDict[Tuple[str, object], object]" = OrderedDict()

_CHARACTERIZATION_MEMO_CAPACITY = 128

_CHARACTERIZATION_MEMO_LOCK = threading.Lock()


class CharacterizationMemoStats:
    """Process-wide hit/miss accounting for the characterization memo."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


CHARACTERIZATION_MEMO_STATS = CharacterizationMemoStats()


def clear_characterization_memo() -> None:
    """Drop all memoized characterizations (tests and benchmarks)."""
    with _CHARACTERIZATION_MEMO_LOCK:
        _CHARACTERIZATION_MEMO.clear()
        CHARACTERIZATION_MEMO_STATS.reset()


def _memoized(key: Tuple[str, object], compute: Callable):
    # Service worker threads share the memo.  Computing under the lock
    # also keeps two threads from characterizing the same key twice.
    with _CHARACTERIZATION_MEMO_LOCK:
        value = _CHARACTERIZATION_MEMO.get(key)
        if value is not None:
            _CHARACTERIZATION_MEMO.move_to_end(key)
            CHARACTERIZATION_MEMO_STATS.hits += 1
            return value
        CHARACTERIZATION_MEMO_STATS.misses += 1
        value = compute()
        _CHARACTERIZATION_MEMO[key] = value
        if len(_CHARACTERIZATION_MEMO) > _CHARACTERIZATION_MEMO_CAPACITY:
            _CHARACTERIZATION_MEMO.popitem(last=False)
            CHARACTERIZATION_MEMO_STATS.evictions += 1
        return value


def characterize_cached(
    power_model: Optional[InstructionPowerModel] = None,
) -> ParameterFile:
    """Like :meth:`MacroModelCharacterizer.characterize`, via the memo.

    Returns a private copy, so a ``set_cost`` by one caller never
    reaches another.
    """
    model = power_model or InstructionPowerModel.default_sparclite()
    memoized = _memoized(
        ("sw", model.signature()),
        lambda: MacroModelCharacterizer(model).characterize(),
    )
    return memoized.copy()


def characterize_hw_cached(cfsm: Cfsm, library=None) -> HwMacroProfile:
    """Like :func:`characterize_hw`, via the memo (shared read-only)."""
    from repro.cfsm.fingerprint import cfsm_digest
    from repro.hw.library import GateLibrary

    lib = library or GateLibrary.default()
    return _memoized(
        ("hw", cfsm_digest(cfsm, lib.signature())),
        lambda: characterize_hw(cfsm, lib),
    )


class MacromodelStrategy(EstimationStrategy):
    """Co-estimation accelerated with power macro-modeling."""

    name = "macromodel"

    def __init__(
        self,
        parameter_file: ParameterFile,
        hw_profiles: Optional[Dict[str, HwMacroProfile]] = None,
        hw_profile_factory: Optional[Callable[[Cfsm], HwMacroProfile]] = None,
    ) -> None:
        self.parameter_file = parameter_file
        self.hw_profiles: Dict[str, HwMacroProfile] = dict(hw_profiles or {})
        self.hw_profile_factory = hw_profile_factory or characterize_hw
        self.sw_estimates = 0
        self.hw_estimates = 0

    def estimate(self, job: EstimationJob) -> Estimate:
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.instant("macromodel.annotate", track="strategy",
                           args={"cfsm": job.cfsm.name,
                                 "transition": job.transition.name,
                                 "ops": len(job.op_names)})
        if job.kind == "sw":
            self.sw_estimates += 1
            cycles, energy = self.parameter_file.estimate_ops(job.op_names)
            return Estimate(
                cycles=int(round(cycles)), energy=energy, ran_low_level=False
            )
        self.hw_estimates += 1
        profile = self.hw_profiles.get(job.cfsm.name)
        if profile is None:
            profile = self.hw_profile_factory(job.cfsm)
            self.hw_profiles[job.cfsm.name] = profile
        cycles = HW_TRANSITION_OVERHEAD_CYCLES
        for name in job.op_names:
            cycles += HW_MACRO_CYCLES.get(name, 1.0)
        energy = cycles * profile.energy_per_cycle_j
        return Estimate(cycles=int(round(cycles)), energy=energy, ran_low_level=False)

    def statistics(self) -> Dict[str, float]:
        return {
            "sw_estimates": float(self.sw_estimates),
            "hw_estimates": float(self.hw_estimates),
        }

    def publish_metrics(self) -> None:
        registry = self.telemetry.metrics
        registry.gauge("strategy.macromodel.sw_estimates").set(self.sw_estimates)
        registry.gauge("strategy.macromodel.hw_estimates").set(self.hw_estimates)
        registry.gauge("strategy.macromodel.annotations").set(
            self.sw_estimates + self.hw_estimates
        )

    def reset(self) -> None:
        self.sw_estimates = 0
        self.hw_estimates = 0
