"""Hardware power simulator facade used by the simulation master.

Plays the role of the paper's modified SIS power simulator: the master
hands it one CFSM transition (plus the triggering event values) and
receives a cycle-by-cycle energy report.  Block state (the CFSM's
variable registers) persists across invocations inside the gate-level
netlist, exactly like a real hardware block between reactions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from repro.errors import ReproError

from repro.cfsm.model import Cfsm
from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.logicsim import CompiledSimulator
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.hw.synth import (
    MEM_DATA_IN,
    MEM_READ_REQ,
    MEM_WRITE_ADDR,
    MEM_WRITE_DATA,
    SynthesizedBlock,
    synthesize_cfsm_cached,
)

_INTERNAL_EVENTS = (MEM_READ_REQ, MEM_WRITE_ADDR, MEM_WRITE_DATA)


class HwEstimatorError(ReproError):
    """Raised when a transition does not complete in the netlist."""


#: Exact-state memo of gate-level transition runs, shared process-wide.
#:
#: The paper's §4.2 energy cache is *statistical*: it keys on the
#: control path and rejects entries whose energy spread exceeds the
#: variance threshold (Figure 4(b)), so data-dependent transitions are
#: re-simulated forever.  This memo is the complementary *exact* layer:
#: a gate-level run is a deterministic function of (compiled netlist,
#: architectural state, triggering input values, memory-read script),
#: so when an identical run recurs — which happens constantly during
#: design-space exploration, where neighbouring points feed the same
#: payloads through the same blocks — the recorded outcome and final
#: state can be replayed without touching the simulator.  Unlike the
#: statistical cache this is lossless: replayed runs are bit- and
#: joule-identical to re-simulation.
#:
#: Keyed by (netlist token, transition, DFF/PI state, inputs, read
#: script, cycle limit); values are (result, post-run net values,
#: toggle count).
_HW_RUN_MEMO: "OrderedDict[Tuple, Tuple[HwRunResult, List[int], int]]" = OrderedDict()

#: Bound on memo entries (LRU).  Entries are a few KB each (one net-
#: state snapshot plus the per-cycle energy trace).
_HW_RUN_MEMO_CAPACITY = 4096


class HwRunMemoStats:
    """Process-wide hit/miss accounting for the run memo."""

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


HW_RUN_MEMO_STATS = HwRunMemoStats()


def clear_hw_run_memo() -> None:
    """Drop all memoized gate-level runs (tests and benchmarks)."""
    _HW_RUN_MEMO.clear()
    HW_RUN_MEMO_STATS.reset()


@dataclass
class HwRunResult:
    """Statistics for one hardware transition execution."""

    cycles: int = 0
    energy: float = 0.0
    per_cycle_energy: List[float] = field(default_factory=list)
    emitted: List[Tuple[str, int]] = field(default_factory=list)
    mem_read_addresses: List[int] = field(default_factory=list)
    mem_writes: List[Tuple[int, int]] = field(default_factory=list)


class HardwarePowerSimulator:
    """Gate-level power estimation for one hardware-mapped CFSM."""

    def __init__(
        self,
        cfsm: Cfsm,
        library: Optional[GateLibrary] = None,
        max_cycles_per_transition: int = 2_000_000,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.cfsm = cfsm
        self.library = library or GateLibrary.default()
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.block: SynthesizedBlock = synthesize_cfsm_cached(cfsm, self.library)
        self.simulator = CompiledSimulator(
            self.block.netlist, self.library, telemetry=self.telemetry
        )
        self.max_cycles_per_transition = max_cycles_per_transition
        # Set by poke_variable: flip-flop D inputs must be re-settled
        # from the poked state before the next run keys or clocks.
        self._needs_settle = False
        self.invocations = 0
        self.total_cycles = 0
        self.total_energy = 0.0
        # Strobe/done polling happens every simulated cycle; resolve the
        # port-name -> net indirection once instead of sorting and
        # peeking per cycle (strobes and ``done`` are 1-bit ports).
        output_ports = self.block.netlist.output_ports
        self._strobe_watch: List[Tuple[str, int]] = [
            (event, output_ports[port][0])
            for event, port in sorted(self.block.strobe_ports.items())
        ]
        self._done_net: int = output_ports["done"][0]
        # Nets that fully determine a run: all flip-flop outputs plus
        # all primary-input nets (unmentioned input ports hold their
        # previous values across runs, so they are state too).  The
        # settled combinational nets are a pure function of these.
        netlist = self.block.netlist
        self._state_nets: List[int] = [dff.q for dff in netlist.dffs] + [
            net
            for _, nets in sorted(netlist.input_ports.items())
            for net in nets
        ]

    @property
    def gate_count(self) -> int:
        """Combinational cell count of the synthesized netlist."""
        return self.block.netlist.gate_count

    @property
    def dff_count(self) -> int:
        """Flip-flop count of the synthesized netlist."""
        return self.block.netlist.dff_count

    def idle_energy_per_cycle(self) -> float:
        """Clock-network energy burned per cycle while the block idles."""
        return DFF_CLOCK_ENERGY_J * self.block.netlist.dff_count

    def run_transition(
        self,
        transition_name: str,
        input_values: Optional[Dict[str, int]] = None,
        read_values: Optional[List[int]] = None,
    ) -> HwRunResult:
        """Simulate one transition at the gate level.

        Args:
            transition_name: which transition to start (the master has
                already determined that it is enabled).
            input_values: values of the triggering events, by event
                name; they are held constant on the input ports for the
                whole run, the way the master's vector exchange works in
                the paper's Figure 2(b).
            read_values: the words the block's shared-memory reads will
                return, in order.  The master knows them from behavioral
                execution and plays the bus interface on the memory
                ports (bus *timing* is charged by the master, not here).

        Returns:
            Cycle count, total and per-cycle energy, and the emitted
            (event, value) pairs observed on the strobe/value ports.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._run_memoized(transition_name, input_values, read_values)
        with telemetry.tracer.span(
            "hw.run_transition",
            track="hw",
            args={"cfsm": self.cfsm.name, "transition": transition_name},
        ) as span:
            result = self._run_memoized(transition_name, input_values, read_values)
            span.set("cycles", result.cycles)
            span.set("energy_j", result.energy)
        metrics = telemetry.metrics
        metrics.counter("hw.invocations").inc()
        metrics.counter("hw.cycles").inc(result.cycles)
        return result

    def _run_memoized(
        self,
        transition_name: str,
        input_values: Optional[Dict[str, int]] = None,
        read_values: Optional[List[int]] = None,
    ) -> HwRunResult:
        """Replay an identical previous run, or simulate and record it."""
        sim = self.simulator
        if self._needs_settle:
            # Settling is itself a pure function of the state nets, so
            # doing it before keying keeps the key canonical.
            sim.settle()
            self._needs_settle = False
        values = sim.values
        key = (
            sim.netlist_token,
            transition_name,
            tuple(map(values.__getitem__, self._state_nets)),
            tuple(sorted((input_values or {}).items())),
            tuple(read_values or ()),
            self.max_cycles_per_transition,
        )
        entry = _HW_RUN_MEMO.get(key)
        metrics = self.telemetry.metrics if self.telemetry.enabled else None
        if entry is not None:
            _HW_RUN_MEMO.move_to_end(key)
            HW_RUN_MEMO_STATS.hits += 1
            if metrics is not None:
                metrics.counter("hw.run_memo.hits").inc()
            recorded, values_after, toggles = entry
            values[:] = values_after
            sim.cycle += recorded.cycles
            sim.total_energy += recorded.energy
            sim.total_toggles += toggles
            self.invocations += 1
            self.total_cycles += recorded.cycles
            self.total_energy += recorded.energy
            return HwRunResult(
                cycles=recorded.cycles,
                energy=recorded.energy,
                per_cycle_energy=list(recorded.per_cycle_energy),
                emitted=list(recorded.emitted),
                mem_read_addresses=list(recorded.mem_read_addresses),
                mem_writes=list(recorded.mem_writes),
            )
        HW_RUN_MEMO_STATS.misses += 1
        if metrics is not None:
            metrics.counter("hw.run_memo.misses").inc()
        toggles_before = sim.total_toggles
        result = self._run_transition(transition_name, input_values, read_values)
        _HW_RUN_MEMO[key] = (
            HwRunResult(
                cycles=result.cycles,
                energy=result.energy,
                per_cycle_energy=list(result.per_cycle_energy),
                emitted=list(result.emitted),
                mem_read_addresses=list(result.mem_read_addresses),
                mem_writes=list(result.mem_writes),
            ),
            list(values),
            sim.total_toggles - toggles_before,
        )
        if len(_HW_RUN_MEMO) > _HW_RUN_MEMO_CAPACITY:
            _HW_RUN_MEMO.popitem(last=False)
            HW_RUN_MEMO_STATS.evictions += 1
        return result

    def _run_transition(
        self,
        transition_name: str,
        input_values: Optional[Dict[str, int]] = None,
        read_values: Optional[List[int]] = None,
    ) -> HwRunResult:
        if transition_name not in self.block.go_ports:
            raise KeyError(
                "CFSM %r has no transition %r" % (self.cfsm.name, transition_name)
            )
        result = HwRunResult()
        inputs: Dict[str, int] = {self.block.go_ports[transition_name]: 1}
        mask = (1 << self.cfsm.width) - 1
        for event, value in (input_values or {}).items():
            port = self.block.input_ports.get(event)
            if port is not None:
                inputs[port] = value & mask

        script = list(read_values or [])
        script_pos = 0
        pending_strobes: List[str] = []
        pending_write_addr: Optional[int] = None
        sim = self.simulator
        values = sim.values
        strobe_watch = self._strobe_watch
        done_net = self._done_net
        done = False
        while not done:
            if result.cycles >= self.max_cycles_per_transition:
                raise HwEstimatorError(
                    "transition %s.%s exceeded %d cycles"
                    % (self.cfsm.name, transition_name,
                       self.max_cycles_per_transition)
                )
            energy = sim.step(inputs)
            inputs = {self.block.go_ports[transition_name]: 0}
            result.cycles += 1
            result.per_cycle_energy.append(energy)
            result.energy += energy

            # Emission values are registered, so a strobe seen in cycle
            # k is read from the value port after cycle k+1's edge.
            for event in pending_strobes:
                value = sim.peek(self.block.value_ports[event])
                if event == MEM_READ_REQ:
                    result.mem_read_addresses.append(value)
                elif event == MEM_WRITE_ADDR:
                    pending_write_addr = value
                elif event == MEM_WRITE_DATA:
                    result.mem_writes.append((pending_write_addr or 0, value))
                    pending_write_addr = None
                else:
                    result.emitted.append((event, value))
            pending_strobes = [
                event for event, net in strobe_watch if values[net]
            ]
            if pending_strobes and MEM_READ_REQ in pending_strobes:
                if script_pos >= len(script):
                    raise HwEstimatorError(
                        "transition %s.%s issued more memory reads than "
                        "the supplied read script" % (self.cfsm.name, transition_name)
                    )
                inputs["in_%s" % MEM_DATA_IN] = script[script_pos] & mask
                script_pos += 1
            done = bool(values[done_net])

        if pending_strobes:
            # Flush emissions strobed in the final cycle (cannot happen
            # with RtlCompiler output, where DONE follows every EMIT,
            # but kept for hand-written micro-programs).
            energy = sim.step(inputs)
            result.cycles += 1
            result.per_cycle_energy.append(energy)
            result.energy += energy
            for event in pending_strobes:
                value = sim.peek(self.block.value_ports[event])
                if event not in _INTERNAL_EVENTS:
                    result.emitted.append((event, value))

        self.invocations += 1
        self.total_cycles += result.cycles
        self.total_energy += result.energy
        return result

    def read_variable(self, name: str) -> int:
        """Current value of a CFSM variable register (for checking)."""
        return self.simulator.peek(self.block.register_ports[name])

    def poke_variable(self, name: str, value: int) -> None:
        """Force a CFSM variable register to ``value``.

        Used by acceleration strategies: when a cached estimate replaces
        a gate-level run, the netlist's architectural state is brought
        back in sync with the behavioral reference so that a later
        gate-level run starts from the right values.
        """
        port = self.block.register_ports[name]
        nets = self.block.netlist.output_ports[port]
        for index, net in enumerate(nets):
            self.simulator.values[net] = (value >> index) & 1
        self._needs_settle = True
