"""Abstract interpretation over netlists and s-graph expressions.

Two sound abstract domains power the DF5xx dataflow diagnostics and
the static cost model (:mod:`repro.lint.cost`):

* a **bit-level ternary domain** (``0``, ``1``, ``TOP``) evaluated to
  fixpoint over the synthesized netlist.  Gates are stored in
  dependency order, so one forward sweep settles the combinational
  logic; flip-flop outputs start at their initial values and *join*
  their D inputs until nothing changes.  A net whose fixpoint value is
  still ``0`` or ``1`` provably never toggles in any concrete run —
  which yields both diagnostics (constant logic feeding live gates)
  and a sound per-cycle **upper bound on switched energy**: the
  compiled simulator charges a gate at most one ``switch_energy`` per
  cycle, and a proven-constant output charges none, ever;

* an **interval domain** over s-graph expressions mirroring the exact
  operator semantics of :mod:`repro.cfsm.expr` (including the
  32-bit unsigned SHR wrap, ``DIV``-by-zero-is-zero, and the ``& 31``
  shift-amount mask).  Per-CFSM variable intervals are computed by a
  widening fixpoint over every assignment; guards and branch
  conditions whose interval excludes (or pins) zero are decided
  *beyond* what the syntactic constant propagation of
  :mod:`repro.lint.paths` can see.

Soundness is the contract, fuzz-tested in
``tests/property/test_prop_absint.py``: for every net and every
expression, the concrete value always lies inside the abstract one.
Every transfer function below is written to over-approximate; when in
doubt it answers TOP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cfsm.expr import (
    BinaryOp,
    Const,
    EventValue,
    Expression,
    UnaryOp,
    Var,
)
from repro.cfsm.model import Cfsm
from repro.cfsm.sgraph import Assign, If, Loop, SharedRead, Statement
from repro.hw.library import DFF_CLOCK_ENERGY_J, GateLibrary
from repro.hw.netlist import CONST0, CONST1, Netlist

__all__ = [
    "Interval",
    "TOP_INTERVAL",
    "abstract_eval",
    "compute_var_intervals",
    "abstract_netlist_values",
    "NetlistEnergyBound",
    "netlist_energy_bound",
]


# ---------------------------------------------------------------------------
# Interval domain over expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds mean +/- infinity."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("empty interval [%d, %d]" % (self.lo, self.hi))

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return TOP_INTERVAL

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None \
            else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None \
            else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, previous: "Interval") -> "Interval":
        """Standard interval widening against the previous iterate."""
        lo = self.lo
        hi = self.hi
        if previous.lo is not None and (lo is None or lo < previous.lo):
            lo = None
        if previous.hi is not None and (hi is None or hi > previous.hi):
            hi = None
        return Interval(lo, hi)

    # -- truthiness (the LAND/LOR/NOT and guard questions) --------------

    @property
    def definitely_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    @property
    def definitely_nonzero(self) -> bool:
        return not self.contains(0)

    def __repr__(self) -> str:
        render = lambda b, inf: inf if b is None else str(b)  # noqa: E731
        return "[%s, %s]" % (render(self.lo, "-inf"), render(self.hi, "+inf"))


TOP_INTERVAL = Interval(None, None)
_BOOL = Interval(0, 1)
_TRUE = Interval.const(1)
_FALSE = Interval.const(0)


def _max_abs(interval: Interval) -> Optional[int]:
    if not interval.bounded:
        return None
    assert interval.lo is not None and interval.hi is not None
    return max(abs(interval.lo), abs(interval.hi))


def _signed_bits_hull(*intervals: Interval) -> Interval:
    """Smallest symmetric two's-complement range holding every operand.

    Bitwise AND/OR/XOR of k-bit two's-complement values stay k-bit
    two's-complement values (Python integers behave as infinitely
    sign-extended bit strings), so the result of any bitwise operator
    over these operands lies inside the hull.
    """
    bits = 1
    for interval in intervals:
        if not interval.bounded:
            return TOP_INTERVAL
        assert interval.lo is not None and interval.hi is not None
        for endpoint in (interval.lo, interval.hi):
            while not -(1 << (bits - 1)) <= endpoint <= (1 << (bits - 1)) - 1:
                bits += 1
    return Interval(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)


def _add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _sub(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.hi is None else a.lo - b.hi
    hi = None if a.hi is None or b.lo is None else a.hi - b.lo
    return Interval(lo, hi)


def _mul(a: Interval, b: Interval) -> Interval:
    if a == _FALSE or b == _FALSE:
        return _FALSE
    if not a.bounded or not b.bounded:
        return TOP_INTERVAL
    assert a.lo is not None and a.hi is not None
    assert b.lo is not None and b.hi is not None
    products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return Interval(min(products), max(products))


def _div(a: Interval, b: Interval) -> Interval:
    """Truncating division with the behavioral b==0 -> 0 convention."""
    if b.is_constant and b.lo not in (0, None):
        if not a.bounded:
            return TOP_INTERVAL
        assert a.lo is not None and a.hi is not None and b.lo is not None
        lo = int(a.lo / b.lo)
        hi = int(a.hi / b.lo)
        return Interval(min(lo, hi), max(lo, hi))
    # |a / b| <= |a| for any b != 0 (|b| >= 1), and b == 0 yields 0.
    magnitude = _max_abs(a)
    if magnitude is None:
        return TOP_INTERVAL
    return Interval(-magnitude, magnitude)


def _mod(a: Interval, b: Interval) -> Interval:
    """``a - trunc(a/b)*b``: same sign as ``a``; magnitude < |b| when
    b != 0, and exactly ``a`` when b == 0."""
    magnitude_a = _max_abs(a)
    magnitude_b = _max_abs(b)
    if magnitude_a is None or magnitude_b is None:
        return TOP_INTERVAL
    bound = max(magnitude_a if b.contains(0) else 0,
                max(0, magnitude_b - 1))
    assert a.lo is not None and a.hi is not None
    lo = 0 if a.lo >= 0 else -bound
    hi = 0 if a.hi <= 0 else bound
    return Interval(min(lo, hi), max(lo, hi))


def _shift_amounts(b: Interval) -> Tuple[int, int]:
    """Range of ``b & 31`` (the behavioral shift-amount mask)."""
    if b.bounded and b.lo is not None and b.hi is not None \
            and 0 <= b.lo and b.hi <= 31:
        return b.lo, b.hi
    return 0, 31


def _shl(a: Interval, b: Interval) -> Interval:
    if not a.bounded:
        return TOP_INTERVAL
    assert a.lo is not None and a.hi is not None
    smin, smax = _shift_amounts(b)
    candidates = [a.lo << smin, a.lo << smax, a.hi << smin, a.hi << smax]
    return Interval(min(candidates), max(candidates))


def _shr(a: Interval, b: Interval) -> Interval:
    smin, smax = _shift_amounts(b)
    wrap = 1 << 32
    if a.bounded and a.lo is not None and a.hi is not None \
            and 0 <= a.lo and a.hi < wrap:
        return Interval(a.lo >> smax, a.hi >> smin)
    # The operand wraps to [0, 2^32): the shifted result stays inside.
    return Interval(0, (wrap - 1) >> smin)


def _compare(op: str, a: Interval, b: Interval) -> Interval:
    if a.bounded and b.bounded:
        assert a.lo is not None and a.hi is not None
        assert b.lo is not None and b.hi is not None
        if op == "LT":
            if a.hi < b.lo:
                return _TRUE
            if a.lo >= b.hi:
                return _FALSE
        elif op == "LE":
            if a.hi <= b.lo:
                return _TRUE
            if a.lo > b.hi:
                return _FALSE
        elif op == "GT":
            if a.lo > b.hi:
                return _TRUE
            if a.hi <= b.lo:
                return _FALSE
        elif op == "GE":
            if a.lo >= b.hi:
                return _TRUE
            if a.hi < b.lo:
                return _FALSE
        elif op == "EQ":
            if a.is_constant and b.is_constant and a.lo == b.lo:
                return _TRUE
            if a.hi < b.lo or b.hi < a.lo:
                return _FALSE
        elif op == "NE":
            if a.is_constant and b.is_constant and a.lo == b.lo:
                return _FALSE
            if a.hi < b.lo or b.hi < a.lo:
                return _TRUE
    else:
        # Half-bounded operands can still decide strict comparisons.
        if op in ("LT", "LE") and a.hi is not None and b.lo is not None:
            if (a.hi < b.lo) or (op == "LE" and a.hi <= b.lo):
                return _TRUE
        if op in ("GT", "GE") and a.lo is not None and b.hi is not None:
            if (a.lo > b.hi) or (op == "GE" and a.lo >= b.hi):
                return _TRUE
    return _BOOL


def _logical(op: str, a: Interval, b: Interval) -> Interval:
    if op == "LAND":
        if a.definitely_zero or b.definitely_zero:
            return _FALSE
        if a.definitely_nonzero and b.definitely_nonzero:
            return _TRUE
    else:  # LOR
        if a.definitely_nonzero or b.definitely_nonzero:
            return _TRUE
        if a.definitely_zero and b.definitely_zero:
            return _FALSE
    return _BOOL


def _binary_interval(op: str, a: Interval, b: Interval) -> Interval:
    if op == "ADD":
        return _add(a, b)
    if op == "SUB":
        return _sub(a, b)
    if op == "MUL":
        return _mul(a, b)
    if op == "DIV":
        return _div(a, b)
    if op == "MOD":
        return _mod(a, b)
    if op in ("AND", "OR", "XOR"):
        if op == "AND" and (a == _FALSE or b == _FALSE):
            return _FALSE
        if a.is_constant and b.is_constant:
            assert a.lo is not None and b.lo is not None
            value = {"AND": a.lo & b.lo, "OR": a.lo | b.lo,
                     "XOR": a.lo ^ b.lo}[op]
            return Interval.const(value)
        hull = _signed_bits_hull(a, b)
        if op == "AND" and a.lo is not None and a.lo >= 0 \
                and b.lo is not None and b.lo >= 0:
            # Both operands non-negative: 0 <= a & b <= min(a, b).
            ceiling = hull.hi
            if a.hi is not None and b.hi is not None:
                ceiling = min(a.hi, b.hi)
            return Interval(0, ceiling)
        if a.lo is not None and a.lo >= 0 and b.lo is not None \
                and b.lo >= 0 and hull.hi is not None:
            return Interval(0, hull.hi)
        return hull
    if op == "SHL":
        return _shl(a, b)
    if op == "SHR":
        return _shr(a, b)
    if op in ("EQ", "NE", "LT", "LE", "GT", "GE"):
        return _compare(op, a, b)
    if op in ("LAND", "LOR"):
        return _logical(op, a, b)
    return TOP_INTERVAL


def _unary_interval(op: str, a: Interval) -> Interval:
    if op == "NEG":
        lo = None if a.hi is None else -a.hi
        hi = None if a.lo is None else -a.lo
        return Interval(lo, hi)
    if op == "BNOT":  # ~a == -a - 1
        lo = None if a.hi is None else -a.hi - 1
        hi = None if a.lo is None else -a.lo - 1
        return Interval(lo, hi)
    if op == "NOT":
        if a.definitely_zero:
            return _TRUE
        if a.definitely_nonzero:
            return _FALSE
        return _BOOL
    return TOP_INTERVAL


#: Abstract environment: variable name (or ``@event`` key) -> interval.
AbstractEnv = Mapping[str, Interval]


def abstract_eval(expression: Expression, env: AbstractEnv) -> Interval:
    """Sound interval for ``expression`` under ``env``.

    Unbound variables and event values are TOP (they arrive from other
    processes or shared memory and can hold anything).
    """
    if isinstance(expression, Const):
        return Interval.const(expression.value)
    if isinstance(expression, Var):
        return env.get(expression.name, TOP_INTERVAL)
    if isinstance(expression, EventValue):
        return env.get(expression.env_key, TOP_INTERVAL)
    if isinstance(expression, BinaryOp):
        return _binary_interval(
            expression.op,
            abstract_eval(expression.left, env),
            abstract_eval(expression.right, env),
        )
    if isinstance(expression, UnaryOp):
        return _unary_interval(
            expression.op, abstract_eval(expression.operand, env)
        )
    return TOP_INTERVAL


# ---------------------------------------------------------------------------
# Per-CFSM variable intervals (widening fixpoint)
# ---------------------------------------------------------------------------

#: Fixpoint rounds before widening kicks in.  Small: the flow-
#: insensitive system converges in a handful of rounds for real
#: designs, and widening guarantees termination for counters.
_WIDEN_AFTER = 3
_MAX_ROUNDS = 32


def compute_var_intervals(cfsm: Cfsm) -> Dict[str, Interval]:
    """Flow-insensitive interval per variable, over-approximating every
    value the variable can hold at any point of any transition.

    Starts from the initial values, joins the abstract value of every
    assignment's RHS (shared-memory reads are TOP), and widens any
    still-growing bound to infinity after a few rounds.
    """
    intervals: Dict[str, Interval] = {
        name: Interval.const(initial)
        for name, initial in cfsm.variables.items()
    }
    assigns: List[Assign] = []
    for transition in cfsm.transitions:
        for stmt in transition.body.nodes():
            if isinstance(stmt, Assign):
                assigns.append(stmt)
            elif isinstance(stmt, SharedRead):
                intervals[stmt.target] = TOP_INTERVAL
    for round_index in range(_MAX_ROUNDS):
        changed = False
        for stmt in assigns:
            current = intervals.get(stmt.target, TOP_INTERVAL)
            if current == TOP_INTERVAL:
                continue
            value = abstract_eval(stmt.value, intervals)
            joined = current.join(value)
            if round_index >= _WIDEN_AFTER:
                joined = joined.widen(current)
            if joined != current:
                intervals[stmt.target] = joined
                changed = True
        if not changed:
            break
    return intervals


def decided_branches(
    statements: Sequence[Statement], intervals: AbstractEnv
) -> List[Tuple[If, bool]]:
    """``(if_statement, taken)`` for every If whose condition's
    interval pins the outcome.  The caller filters out branches the
    syntactic constant propagation already decided."""
    decided: List[Tuple[If, bool]] = []

    def walk(stmts: Sequence[Statement]) -> None:
        for stmt in stmts:
            if isinstance(stmt, If):
                cond = abstract_eval(stmt.cond, intervals)
                if cond.definitely_nonzero:
                    decided.append((stmt, True))
                elif cond.definitely_zero:
                    decided.append((stmt, False))
                walk(stmt.then)
                walk(stmt.els)
            elif isinstance(stmt, Loop):
                walk(stmt.body)

    walk(statements)
    return decided


# ---------------------------------------------------------------------------
# Bit-level ternary domain over netlists
# ---------------------------------------------------------------------------

#: Abstract bit: 0, 1, or None (TOP / unknown).
AbstractBit = Optional[int]


def _join_bit(a: AbstractBit, b: AbstractBit) -> AbstractBit:
    return a if a == b else None


def _gate_transfer(cell: str, ins: List[AbstractBit]) -> AbstractBit:
    """Ternary semantics of one gate, mirroring the compiled simulator's
    generated expressions exactly."""
    if cell == "BUF":
        return ins[0]
    if cell == "INV":
        return None if ins[0] is None else ins[0] ^ 1
    a, b = (ins[0], ins[1]) if len(ins) > 1 else (ins[0], None)
    if cell == "AND2":
        if a == 0 or b == 0:
            return 0
        if a == 1 and b == 1:
            return 1
        return None
    if cell == "NAND2":
        if a == 0 or b == 0:
            return 1
        if a == 1 and b == 1:
            return 0
        return None
    if cell == "OR2":
        if a == 1 or b == 1:
            return 1
        if a == 0 and b == 0:
            return 0
        return None
    if cell == "NOR2":
        if a == 1 or b == 1:
            return 0
        if a == 0 and b == 0:
            return 1
        return None
    if cell == "XOR2":
        if a is None or b is None:
            return None
        return a ^ b
    if cell == "XNOR2":
        if a is None or b is None:
            return None
        return (a ^ b) ^ 1
    if cell == "MUX2":
        sel, if0, if1 = ins[0], ins[1], ins[2]
        if sel == 1:
            return if1
        if sel == 0:
            return if0
        return _join_bit(if0, if1)
    return None


def abstract_netlist_values(netlist: Netlist) -> List[AbstractBit]:
    """Fixpoint abstract value per net (0, 1, or TOP).

    Primary inputs are TOP (externally driven), flip-flop outputs start
    at their initial values and join their D fixpoints — so a ``0`` or
    ``1`` in the result is a proof the net holds that value at every
    settled cycle of every concrete run.
    """
    values: List[AbstractBit] = [None] * netlist.num_nets
    values[CONST0] = 0
    values[CONST1] = 1
    for dff in netlist.dffs:
        values[dff.q] = dff.init
    # Each iteration either reaches the fixpoint or widens at least one
    # flip-flop output to TOP, so the loop ends within dff_count + 1
    # rounds; the range() is a belt-and-suspenders backstop.
    for _ in range(len(netlist.dffs) + 2):
        for gate in netlist.gates:
            values[gate.output] = _gate_transfer(
                gate.cell, [values[net] for net in gate.inputs]
            )
        changed = False
        for dff in netlist.dffs:
            joined = _join_bit(values[dff.q], values[dff.d])
            if joined != values[dff.q]:
                values[dff.q] = joined
                changed = True
        if not changed:
            break
    return values


@dataclass(frozen=True)
class NetlistEnergyBound:
    """Sound per-cycle switched-energy bound for one netlist.

    ``total_j`` is an upper bound on what
    :meth:`repro.hw.logicsim.CompiledSimulator.step` can return for any
    inputs in any cycle: the clock tree charges every flip-flop each
    cycle, and every net that is not proven constant is charged one
    full toggle.
    """

    netlist: str
    total_j: float
    clock_j: float
    dff_switch_j: float
    input_j: float
    gate_switch_j: float
    gate_outputs: int
    constant_gate_outputs: int
    constant_dff_outputs: int
    #: Energy the constant nets can never dissipate — the headroom a
    #: constant-folding resynthesis would reclaim from the bound.
    dead_toggle_j: float

    def to_payload(self) -> Dict[str, object]:
        return {
            "netlist": self.netlist,
            "total_j": self.total_j,
            "clock_j": self.clock_j,
            "dff_switch_j": self.dff_switch_j,
            "input_j": self.input_j,
            "gate_switch_j": self.gate_switch_j,
            "gate_outputs": self.gate_outputs,
            "constant_gate_outputs": self.constant_gate_outputs,
            "constant_dff_outputs": self.constant_dff_outputs,
            "dead_toggle_j": self.dead_toggle_j,
        }


def netlist_energy_bound(
    netlist: Netlist,
    library: Optional[GateLibrary] = None,
    values: Optional[List[AbstractBit]] = None,
    pi_energy_j: Optional[float] = None,
) -> NetlistEnergyBound:
    """Per-cycle energy upper bound from the ternary fixpoint.

    Mirrors the compiled simulator's charging scheme term by term: a
    gate or flip-flop output toggles at most once per cycle (each is
    written exactly once per ``step``), primary-input bits are driven
    externally and must all be assumed to toggle, and the clock tree
    charges every flip-flop unconditionally.
    """
    lib = library or GateLibrary.default()
    if values is None:
        values = abstract_netlist_values(netlist)
    if pi_energy_j is None:
        pi_energy_j = lib.cell("BUF").switch_energy(lib.vdd)
    clock_j = DFF_CLOCK_ENERGY_J * netlist.dff_count
    dff_energy = lib.cell("DFF").switch_energy(lib.vdd)
    dff_switch_j = 0.0
    constant_dffs = 0
    for dff in netlist.dffs:
        if values[dff.q] is None:
            dff_switch_j += dff_energy
        else:
            constant_dffs += 1
    input_bits = sum(len(nets) for nets in netlist.input_ports.values())
    input_j = input_bits * pi_energy_j
    gate_switch_j = 0.0
    dead_toggle_j = 0.0
    constant_gates = 0
    for gate in netlist.gates:
        energy = lib.cell(gate.cell).switch_energy(lib.vdd)
        if values[gate.output] is None:
            gate_switch_j += energy
        else:
            constant_gates += 1
            dead_toggle_j += energy
    return NetlistEnergyBound(
        netlist=netlist.name,
        total_j=clock_j + dff_switch_j + input_j + gate_switch_j,
        clock_j=clock_j,
        dff_switch_j=dff_switch_j,
        input_j=input_j,
        gate_switch_j=gate_switch_j,
        gate_outputs=len(netlist.gates),
        constant_gate_outputs=constant_gates,
        constant_dff_outputs=constant_dffs,
        dead_toggle_j=dead_toggle_j,
    )
