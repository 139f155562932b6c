"""Static cost model: per-system resource and energy bounds.

Combines the three static analyses into one `CostReport` the rest of
the stack can act on *before* running anything:

* **gate-level structure** — gate/flip-flop counts and the levelized
  combinational depth from :func:`repro.hw.synth.levelize`;
* **DF5xx energy bounds** — the bit-level fixpoint's sound per-cycle
  switched-energy bound (:func:`repro.lint.absint.netlist_energy_bound`);
* **cycle and macro-op bounds** — a worst-case walk of each
  transition's s-graph mirroring the RTL compiler's one-op-per-cycle
  micro-program (hardware) and behavioral execution's macro-operation
  stream (software), with loop bounds from interval analysis.
  Hardware loop counters wrap to the datapath width, so hardware
  bounds are always finite; software loops fall back to the
  executor's per-loop iteration cap (beyond which execution raises)
  and the report marks the transition as cap-assumed;
* **Section 4.2 path counts** — the predicted energy-cache table size
  from :func:`repro.lint.paths.cacheability_report`.

The scalar :attr:`CostReport.cost_units` is a deterministic, unitless
admission weight (monotone in predicted work); the service multiplies
it by a *learned* seconds-per-unit rate, so only relative magnitudes
matter.  ``repro lint --cost`` renders the report; the service derives
``Retry-After`` quotes and shed decisions from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfsm.expr import BinaryOp, Const, EventValue, Expression, UnaryOp, Var
from repro.cfsm.model import Cfsm, Network
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    If,
    Loop,
    SharedRead,
    SharedWrite,
    Statement,
)
from repro.errors import ReproError
from repro.lint.absint import (
    AbstractEnv,
    abstract_eval,
    abstract_netlist_values,
    compute_var_intervals,
    netlist_energy_bound,
)
from repro.lint.paths import cacheability_report

__all__ = [
    "ComponentCost",
    "CostReport",
    "compute_cost_report",
    "hw_transition_cycle_bound",
    "sw_transition_op_bound",
]

_COMPARISONS = ("EQ", "NE", "LT", "LE", "GT", "GE")
_UNSYNTHESIZABLE = ("MUL", "DIV", "MOD")


class _Unbounded(Exception):
    """Internal: a hardware bound walk hit an unsynthesizable operator."""


# ---------------------------------------------------------------------------
# Hardware: micro-program cycle bounds (one micro-op == one cycle)
# ---------------------------------------------------------------------------


def _is_leaf(expression: Expression) -> bool:
    return isinstance(expression, (Const, Var, EventValue))


def _hw_ops_into(expression: Expression) -> int:
    """Micro-ops to place ``expression`` into a destination register,
    mirroring ``RtlCompiler._compile_expr_into`` exactly."""
    if _is_leaf(expression):
        return 1  # PASS
    if isinstance(expression, UnaryOp):
        return _hw_ops(expression.operand) + 1
    if isinstance(expression, BinaryOp):
        if expression.op in _UNSYNTHESIZABLE:
            raise _Unbounded(expression.op)
        if expression.op in ("LAND", "LOR"):
            return (_hw_bool_src(expression.left)
                    + _hw_bool_src(expression.right) + 1)
        return _hw_ops(expression.left) + _hw_ops(expression.right) + 1
    raise _Unbounded(type(expression).__name__)


def _hw_ops(expression: Expression) -> int:
    """Micro-ops to make ``expression`` available as an ALU source
    (leaves are free register/constant sources)."""
    return 0 if _is_leaf(expression) else _hw_ops_into(expression)


def _hw_bool_src(expression: Expression) -> int:
    if isinstance(expression, BinaryOp) and expression.op in _COMPARISONS:
        return _hw_ops(expression)
    return _hw_ops(expression) + 1  # extra NE-with-zero op


def _hw_loop_iterations(
    count: Expression, intervals: AbstractEnv, width: int
) -> int:
    """Worst-case iterations of a hardware loop.

    The synthesized loop counter holds ``count & mask``, so iterations
    never exceed the datapath mask — even a negative or unbounded
    count is finite in hardware.
    """
    mask = (1 << width) - 1
    interval = abstract_eval(count, intervals)
    if (interval.bounded and interval.lo is not None
            and interval.hi is not None
            and 0 <= interval.lo and interval.hi <= mask):
        return interval.hi
    return mask


def _hw_block(
    statements: Sequence[Statement], intervals: AbstractEnv, width: int
) -> int:
    return sum(_hw_statement(stmt, intervals, width) for stmt in statements)


def _hw_statement(
    stmt: Statement, intervals: AbstractEnv, width: int
) -> int:
    if isinstance(stmt, Assign):
        return _hw_ops_into(stmt.value)
    if isinstance(stmt, Emit):
        value_ops = 0 if stmt.value is None else _hw_ops(stmt.value)
        return value_ops + 1  # EmitOp
    if isinstance(stmt, SharedRead):
        return _hw_ops(stmt.address) + 2  # EmitOp + PASS landing
    if isinstance(stmt, SharedWrite):
        return _hw_ops(stmt.address) + _hw_ops(stmt.value) + 2
    if isinstance(stmt, If):
        then_ops = _hw_block(stmt.then, intervals, width)
        els_ops = _hw_block(stmt.els, intervals, width)
        if stmt.els:
            then_ops += 1  # join PASS on the then-path
        return _hw_ops(stmt.cond) + 1 + max(then_ops, els_ops)
    if isinstance(stmt, Loop):
        iterations = _hw_loop_iterations(stmt.count, intervals, width)
        body = _hw_block(stmt.body, intervals, width)
        # counter-init PASS, then per iteration TestOp + body + SUB,
        # then the final exiting TestOp.
        return _hw_ops(stmt.count) + 1 + iterations * (2 + body) + 1
    return 0


def hw_transition_cycle_bound(
    cfsm: Cfsm, transition_index: int,
    intervals: Optional[AbstractEnv] = None,
) -> Optional[int]:
    """Worst-case micro-program cycles for one transition (``None``
    when the body is unsynthesizable — NL300 reports that)."""
    if intervals is None:
        intervals = compute_var_intervals(cfsm)
    transition = cfsm.transitions[transition_index]
    try:
        body = _hw_block(transition.body.statements, intervals, cfsm.width)
    except _Unbounded:
        return None
    return body + 1  # DoneOp


# ---------------------------------------------------------------------------
# Software: macro-operation bounds (the behavioral trace stream)
# ---------------------------------------------------------------------------


def _sw_expr_ops(expression: Expression) -> int:
    """Macro-ops one evaluation appends: ADETECT per event-value read
    plus one operator call per tree node (no short-circuit — the
    compiled body extends the trace by the whole static op prelude)."""
    return len(expression.event_values()) + len(expression.macro_ops())


@dataclass
class _SwWalk:
    capped: bool = False


def _sw_block(
    statements: Sequence[Statement], intervals: AbstractEnv,
    iteration_cap: int, walk: _SwWalk,
) -> int:
    return sum(
        _sw_statement(stmt, intervals, iteration_cap, walk)
        for stmt in statements
    )


def _sw_statement(
    stmt: Statement, intervals: AbstractEnv,
    iteration_cap: int, walk: _SwWalk,
) -> int:
    if isinstance(stmt, Assign):
        return _sw_expr_ops(stmt.value) + 1  # AIVC/AVV
    if isinstance(stmt, Emit):
        value_ops = 0 if stmt.value is None else _sw_expr_ops(stmt.value)
        return value_ops + 1  # AEMIT
    if isinstance(stmt, SharedRead):
        return _sw_expr_ops(stmt.address) + 1  # ASHRD
    if isinstance(stmt, SharedWrite):
        return _sw_expr_ops(stmt.address) + _sw_expr_ops(stmt.value) + 1
    if isinstance(stmt, If):
        then_ops = _sw_block(stmt.then, intervals, iteration_cap, walk)
        els_ops = _sw_block(stmt.els, intervals, iteration_cap, walk)
        return _sw_expr_ops(stmt.cond) + 1 + max(then_ops, els_ops)
    if isinstance(stmt, Loop):
        interval = abstract_eval(stmt.count, intervals)
        if interval.hi is None or interval.hi > iteration_cap:
            # Beyond the cap execution raises, so capped
            # executions bound every *completed* one.
            iterations = iteration_cap
            walk.capped = True
        else:
            iterations = max(0, interval.hi)
        body = _sw_block(stmt.body, intervals, iteration_cap, walk)
        # TLOOPT per iteration plus the final TLOOPF.
        return _sw_expr_ops(stmt.count) + iterations * (1 + body) + 1
    return 0


def sw_transition_op_bound(
    cfsm: Cfsm, transition_index: int,
    intervals: Optional[AbstractEnv] = None,
) -> Tuple[int, bool]:
    """``(macro-op bound, cap_assumed)`` for one transition."""
    if intervals is None:
        intervals = compute_var_intervals(cfsm)
    transition = cfsm.transitions[transition_index]
    walk = _SwWalk()
    ops = _sw_block(
        transition.body.statements, intervals,
        transition.body.max_iterations, walk,
    )
    return ops, walk.capped


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class ComponentCost:
    """Static cost bounds for one mapped process."""

    name: str
    implementation: str  # "hw" | "sw"
    #: Worst-case reaction length: micro-program cycles (hw) or
    #: behavioral macro-operations (sw).  ``None`` when the process
    #: is unsynthesizable hardware.
    cycles_per_event_bound: Optional[int]
    #: Sound upper bound on the energy one reaction can dissipate
    #: under the matching estimator model (gate-level hw, Section 4.1
    #: macro-model sw).  ``None`` when no bound exists.
    energy_per_event_bound_j: Optional[float]
    #: Transitions whose software loop bound fell back to the
    #: executor's iteration cap.
    cap_assumed_transitions: Tuple[str, ...] = ()
    # -- hardware-only structure (zero for software) --
    gate_count: int = 0
    dff_count: int = 0
    logic_depth: int = 0
    constant_gate_outputs: int = 0
    energy_per_cycle_bound_j: float = 0.0
    dead_toggle_j: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "implementation": self.implementation,
            "cycles_per_event_bound": self.cycles_per_event_bound,
            "energy_per_event_bound_j": self.energy_per_event_bound_j,
            "cap_assumed_transitions": list(self.cap_assumed_transitions),
            "gate_count": self.gate_count,
            "dff_count": self.dff_count,
            "logic_depth": self.logic_depth,
            "constant_gate_outputs": self.constant_gate_outputs,
            "energy_per_cycle_bound_j": self.energy_per_cycle_bound_j,
            "dead_toggle_j": self.dead_toggle_j,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ComponentCost":
        return cls(
            name=str(payload["name"]),
            implementation=str(payload["implementation"]),
            cycles_per_event_bound=payload["cycles_per_event_bound"],  # type: ignore[arg-type]
            energy_per_event_bound_j=payload["energy_per_event_bound_j"],  # type: ignore[arg-type]
            cap_assumed_transitions=tuple(
                payload.get("cap_assumed_transitions", ())  # type: ignore[arg-type]
            ),
            gate_count=int(payload.get("gate_count", 0)),  # type: ignore[arg-type]
            dff_count=int(payload.get("dff_count", 0)),  # type: ignore[arg-type]
            logic_depth=int(payload.get("logic_depth", 0)),  # type: ignore[arg-type]
            constant_gate_outputs=int(
                payload.get("constant_gate_outputs", 0)  # type: ignore[arg-type]
            ),
            energy_per_cycle_bound_j=float(
                payload.get("energy_per_cycle_bound_j", 0.0)  # type: ignore[arg-type]
            ),
            dead_toggle_j=float(payload.get("dead_toggle_j", 0.0)),  # type: ignore[arg-type]
        )


@dataclass
class CostReport:
    """Static cost bounds for one whole system."""

    system: str
    components: List[ComponentCost] = field(default_factory=list)
    #: Predicted Section 4.2 per-path cache table size (static bound).
    cache_table_size: int = 0
    #: Whether any live transition's path set is unbounded.
    cache_table_unbounded: bool = False

    @property
    def cycles_per_event_bound(self) -> Optional[int]:
        """Worst single reaction across the system (``None`` if any
        component has no bound)."""
        bounds: List[int] = []
        for component in self.components:
            if component.cycles_per_event_bound is None:
                return None
            bounds.append(component.cycles_per_event_bound)
        return max(bounds) if bounds else 0

    @property
    def energy_per_event_bound_j(self) -> Optional[float]:
        bounds: List[float] = []
        for component in self.components:
            if component.energy_per_event_bound_j is None:
                return None
            bounds.append(component.energy_per_event_bound_j)
        return max(bounds) if bounds else 0.0

    @property
    def clock_energy_per_cycle_j(self) -> float:
        """The always-burning floor: sum of per-cycle hardware bounds."""
        return sum(
            component.energy_per_cycle_bound_j
            for component in self.components
        )

    @property
    def cost_units(self) -> float:
        """Deterministic, unitless admission weight.

        Monotone in predicted simulation work: gate evaluations per
        worst-case hardware reaction, software macro-operations, and
        the cache-table population the Section 4.2 strategy must warm.
        The service learns seconds-per-unit online, so only relative
        magnitudes between systems matter.
        """
        units = 1.0
        for component in self.components:
            cycles = component.cycles_per_event_bound
            if component.implementation == "hw":
                capped = min(cycles if cycles is not None else 1024, 1024)
                units += component.gate_count * capped / 50_000.0
            else:
                capped = min(cycles if cycles is not None else 4096, 4096)
                units += capped / 500.0
        units += min(self.cache_table_size, 4096) / 1024.0
        return round(units, 4)

    def component(self, name: str) -> ComponentCost:
        for entry in self.components:
            if entry.name == name:
                return entry
        raise KeyError("no cost entry for component %r" % name)

    def to_payload(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "cost_units": self.cost_units,
            "cycles_per_event_bound": self.cycles_per_event_bound,
            "energy_per_event_bound_j": self.energy_per_event_bound_j,
            "clock_energy_per_cycle_j": self.clock_energy_per_cycle_j,
            "cache_table_size": self.cache_table_size,
            "cache_table_unbounded": self.cache_table_unbounded,
            "components": [c.to_payload() for c in self.components],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CostReport":
        return cls(
            system=str(payload["system"]),
            components=[
                ComponentCost.from_payload(entry)
                for entry in payload.get("components", ())  # type: ignore[union-attr]
            ],
            cache_table_size=int(payload.get("cache_table_size", 0)),  # type: ignore[arg-type]
            cache_table_unbounded=bool(
                payload.get("cache_table_unbounded", False)
            ),
        )

    def render(self) -> str:
        lines = ["Static cost report: %s" % self.system]
        lines.append(
            "  cost units %.4f | cycles/event <= %s | energy/event <= %s J"
            % (
                self.cost_units,
                self.cycles_per_event_bound,
                "%.3g" % self.energy_per_event_bound_j
                if self.energy_per_event_bound_j is not None else "unbounded",
            )
        )
        lines.append(
            "  clock floor %.3g J/cycle | cache table %d entr%s%s"
            % (
                self.clock_energy_per_cycle_j,
                self.cache_table_size,
                "y" if self.cache_table_size == 1 else "ies",
                " (unbounded)" if self.cache_table_unbounded else "",
            )
        )
        for component in self.components:
            if component.implementation == "hw":
                lines.append(
                    "  [hw] %-12s %5d gates, %3d dffs, depth %3d, "
                    "cycles <= %s, energy <= %.3g J/event "
                    "(%d const outs, %.3g J dead)"
                    % (
                        component.name, component.gate_count,
                        component.dff_count, component.logic_depth,
                        component.cycles_per_event_bound,
                        component.energy_per_event_bound_j or 0.0,
                        component.constant_gate_outputs,
                        component.dead_toggle_j,
                    )
                )
            else:
                capped = (" (loop cap assumed: %s)"
                          % ", ".join(component.cap_assumed_transitions)
                          if component.cap_assumed_transitions else "")
                lines.append(
                    "  [sw] %-12s macro-ops <= %s, energy <= %s J/event%s"
                    % (
                        component.name,
                        component.cycles_per_event_bound,
                        "%.3g" % component.energy_per_event_bound_j
                        if component.energy_per_event_bound_j is not None
                        else "unbounded",
                        capped,
                    )
                )
        return "\n".join(lines)


def _hw_component_cost(cfsm: Cfsm) -> ComponentCost:
    from repro.hw.synth import levelize, synthesize_cfsm_cached

    intervals = compute_var_intervals(cfsm)
    cycle_bounds: List[Optional[int]] = [
        hw_transition_cycle_bound(cfsm, index, intervals)
        for index in range(len(cfsm.transitions))
    ]
    worst: Optional[int]
    if any(bound is None for bound in cycle_bounds):
        worst = None
    else:
        worst = max([bound for bound in cycle_bounds if bound is not None],
                    default=0)
    try:
        block = synthesize_cfsm_cached(cfsm)
    except ReproError:
        return ComponentCost(
            name=cfsm.name, implementation="hw",
            cycles_per_event_bound=worst,
            energy_per_event_bound_j=None,
        )
    netlist = block.netlist
    values = abstract_netlist_values(netlist)
    bound = netlist_energy_bound(netlist, values=values)
    energy: Optional[float] = None
    if worst is not None:
        energy = worst * bound.total_j
    return ComponentCost(
        name=cfsm.name, implementation="hw",
        cycles_per_event_bound=worst,
        energy_per_event_bound_j=energy,
        gate_count=netlist.gate_count,
        dff_count=netlist.dff_count,
        logic_depth=levelize(netlist).depth,
        constant_gate_outputs=bound.constant_gate_outputs,
        energy_per_cycle_bound_j=bound.total_j,
        dead_toggle_j=bound.dead_toggle_j,
    )


def _sw_component_cost(cfsm: Cfsm, max_op_energy_j: Optional[float]) -> ComponentCost:
    intervals = compute_var_intervals(cfsm)
    worst = 0
    capped: List[str] = []
    for index, transition in enumerate(cfsm.transitions):
        ops, cap_assumed = sw_transition_op_bound(cfsm, index, intervals)
        worst = max(worst, ops)
        if cap_assumed:
            capped.append(transition.name)
    energy: Optional[float] = None
    if max_op_energy_j is not None:
        energy = worst * max_op_energy_j
    return ComponentCost(
        name=cfsm.name, implementation="sw",
        cycles_per_event_bound=worst,
        energy_per_event_bound_j=energy,
        cap_assumed_transitions=tuple(capped),
    )


def compute_cost_report(
    network: Network, parameter_file=None
) -> CostReport:
    """Build the static cost report for ``network``.

    ``parameter_file`` (a characterized
    :class:`~repro.core.macromodel.ParameterFile`) prices software
    macro-operations; when omitted and the network has software
    processes, the default characterization runs (slow path, cached
    per process by the caller if needed).
    """
    report = CostReport(system=network.name)
    software = network.software_cfsms()
    max_op_energy: Optional[float] = None
    if software:
        if parameter_file is None:
            from repro.core.macromodel import MacroModelCharacterizer

            parameter_file = MacroModelCharacterizer().characterize()
        energies = [cost.energy_j for cost in parameter_file.costs.values()]
        if energies:
            max_op_energy = max(energies)
    for name in sorted(network.cfsms):
        cfsm = network.cfsms[name]
        if network.implementation(name) == "hw":
            report.components.append(_hw_component_cost(cfsm))
        else:
            report.components.append(_sw_component_cost(cfsm, max_op_energy))
    cache = cacheability_report(network)
    report.cache_table_size = cache.predicted_table_size("path")
    report.cache_table_unbounded = cache.unbounded
    return report
