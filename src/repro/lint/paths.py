"""S-graph reachability, path enumeration, and §4.2 cacheability.

The energy cache (Section 4.2) is keyed on the *path signature* of a
transition execution — the sequence of test outcomes.  Its steady-state
table size is therefore exactly the number of feasible control paths.
This module predicts that number statically:

* a flow-insensitive value-set analysis over each CFSM's variables
  (all constant assignments collected; anything data-dependent widens
  to TOP) lets statically-decided branches be pruned, so the predicted
  count matches what a simulation can actually exercise;
* counted loops with a statically-known bound multiply the body's path
  choices per iteration (``k^C`` signatures); a *data-dependent* bound
  around a branching body makes the table unbounded (``SG204``), the
  paper's Figure 4(b) spread-histogram case;
* transitions that can never fire — shadowed by a higher-priority
  unguarded transition (``SG201``) or carrying a statically-false guard
  (``SG202``) — are reported and excluded from the prediction.

The same walk powers the §4.1 coverage check (``MM401``): the macro-ops
a body can emit are extracted statically and compared against the
characterized parameter file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cfsm.actions import MacroOpKind
from repro.cfsm.expr import Const, Expression
from repro.cfsm.model import Cfsm, Network, Transition
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    If,
    Loop,
    SharedRead,
    SharedWrite,
    Statement,
)
from repro.lint.diagnostics import Diagnostic, Location, make

#: Above this many distinct signatures the enumerator stops tracking
#: the exact set and keeps only the arithmetic count (``capped``).
SIGNATURE_CAP = 4096

#: Per-transition path count above which ``SG205`` flags the table as
#: disproportionate to a one-place-buffer reactive process.
BLOWUP_THRESHOLD = 512

#: Value set meaning "statically unknown" (TOP).
TOP = None

ValueSets = Dict[str, Optional[FrozenSet[int]]]


def compute_value_sets(cfsm: Cfsm) -> ValueSets:
    """Flow-insensitive constant sets per variable.

    A variable's set is its initial value plus every constant ever
    assigned to it anywhere in the process; one non-constant assignment
    (or any shared-memory read) widens it to TOP.
    """
    values: ValueSets = {
        name: frozenset((initial,))
        for name, initial in cfsm.variables.items()
    }
    for transition in cfsm.transitions:
        for stmt in transition.body.nodes():
            if isinstance(stmt, Assign):
                current = values.get(stmt.target, frozenset())
                if current is TOP:
                    continue
                if isinstance(stmt.value, Const):
                    values[stmt.target] = current | {stmt.value.value}
                else:
                    values[stmt.target] = TOP
            elif isinstance(stmt, SharedRead):
                values[stmt.target] = TOP
    return values


def static_value(expression: Expression,
                 values: ValueSets) -> Optional[int]:
    """Evaluate ``expression`` if every input is statically a
    singleton; ``None`` when any leaf is unknown (event values always
    are — they arrive from other processes)."""
    if expression.event_values():
        return None
    env: Dict[str, int] = {}
    for name in expression.variables():
        value_set = values.get(name, TOP)
        if value_set is TOP or len(value_set) != 1:
            return None
        env[name] = next(iter(value_set))
    return expression.evaluate(env)


# -- path enumeration --------------------------------------------------------


@dataclass
class PathSet:
    """The feasible path signatures of a statement sequence.

    ``signatures`` is the exact set while it stays under
    :data:`SIGNATURE_CAP` (``None`` once capped — ``count`` stays
    exact).  ``unbounded`` marks a data-dependent loop around a
    branching body: the signature population is then input-dependent
    and no finite table holds it.
    """

    count: int = 1
    signatures: Optional[Tuple[Tuple[Tuple[int, str], ...], ...]] = ((),)
    unbounded: bool = False

    @property
    def capped(self) -> bool:
        return self.signatures is None

    def sequence(self, other: "PathSet") -> "PathSet":
        count = self.count * other.count
        signatures = None
        if self.signatures is not None and other.signatures is not None \
                and count <= SIGNATURE_CAP:
            signatures = tuple(
                head + tail
                for head in self.signatures
                for tail in other.signatures
            )
        return PathSet(count=count, signatures=signatures,
                       unbounded=self.unbounded or other.unbounded)

    def prefixed(self, node_id: int, outcome: str) -> "PathSet":
        signatures = None
        if self.signatures is not None:
            signatures = tuple(
                ((node_id, outcome),) + tail for tail in self.signatures
            )
        return PathSet(count=self.count, signatures=signatures,
                       unbounded=self.unbounded)

    def union(self, other: "PathSet") -> "PathSet":
        count = self.count + other.count
        signatures = None
        if self.signatures is not None and other.signatures is not None \
                and count <= SIGNATURE_CAP:
            signatures = self.signatures + other.signatures
        return PathSet(count=count, signatures=signatures,
                       unbounded=self.unbounded or other.unbounded)

    def power(self, exponent: int) -> "PathSet":
        count = self.count ** exponent
        signatures = None
        if self.signatures is not None and count <= SIGNATURE_CAP:
            result = PathSet()
            for _ in range(exponent):
                result = result.sequence(self)
            signatures = result.signatures
        return PathSet(count=count, signatures=signatures,
                       unbounded=self.unbounded)


@dataclass
class PathEnumeration:
    """Result of enumerating one transition body."""

    paths: PathSet
    constant_branches: List[Tuple[int, bool]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return self.paths.count


def enumerate_paths(body_statements: Sequence[Statement],
                    values: ValueSets) -> PathEnumeration:
    """Enumerate the feasible path signatures of a statement list."""
    constant_branches: List[Tuple[int, bool]] = []

    def walk(stmts: Sequence[Statement]) -> PathSet:
        result = PathSet()
        for stmt in stmts:
            result = result.sequence(_paths_of(stmt))
        return result

    def _paths_of(stmt: Statement) -> PathSet:
        if isinstance(stmt, If):
            decided = static_value(stmt.cond, values)
            if decided is not None:
                taken = bool(decided)
                constant_branches.append((stmt.node_id, taken))
                branch = walk(stmt.then if taken else stmt.els)
                return branch.prefixed(stmt.node_id, "T" if taken else "F")
            then_paths = walk(stmt.then).prefixed(stmt.node_id, "T")
            else_paths = walk(stmt.els).prefixed(stmt.node_id, "F")
            return then_paths.union(else_paths)
        if isinstance(stmt, Loop):
            body = walk(stmt.body)
            bound = static_value(stmt.count, values)
            if bound is not None:
                return body.power(max(0, bound))
            if body.count == 1 and not body.unbounded:
                # The body never branches: iteration count does not
                # touch the signature (TLOOPT/TLOOPF are not recorded).
                return PathSet()
            return PathSet(count=body.count, signatures=None,
                           unbounded=True)
        return PathSet()

    return PathEnumeration(paths=walk(body_statements),
                           constant_branches=constant_branches)


# -- transition liveness -----------------------------------------------------


def shadowing_transition(cfsm: Cfsm, index: int,
                         values: ValueSets) -> Optional[Transition]:
    """Higher-priority transition that always wins over number ``index``.

    Transitions are tried in order and the first enabled one fires; an
    earlier transition with a trigger *subset* and no guard (or a
    statically-true guard) is enabled whenever the later one is, so the
    later transition is dead code.
    """
    candidate = cfsm.transitions[index]
    for earlier in cfsm.transitions[:index]:
        if not set(earlier.trigger) <= set(candidate.trigger):
            continue
        if earlier.guard is None:
            return earlier
        decided = static_value(earlier.guard, values)
        if decided is not None and bool(decided):
            return earlier
    return None


# -- §4.2 cacheability report ------------------------------------------------


@dataclass(frozen=True)
class TransitionPathReport:
    """Static path prediction for one transition."""

    cfsm: str
    transition: str
    path_count: int
    unbounded: bool
    capped: bool
    dead: bool


@dataclass
class CacheabilityReport:
    """Predicted §4.2 energy-cache population for one system.

    ``predicted_table_size("path")`` is the steady-state entry count of
    an :class:`~repro.core.caching.EnergyCache` keyed per path;
    ``"transition"`` gives the coarser per-transition granularity.
    Dead transitions contribute nothing — the simulator can never
    insert their keys.
    """

    system: str
    rows: List[TransitionPathReport] = field(default_factory=list)

    @property
    def unbounded(self) -> bool:
        return any(row.unbounded for row in self.rows if not row.dead)

    def predicted_table_size(self, granularity: str = "path") -> int:
        live = [row for row in self.rows if not row.dead]
        if granularity == "path":
            return sum(row.path_count for row in live)
        if granularity == "transition":
            return len(live)
        raise ValueError("unknown granularity %r" % granularity)

    def row_for(self, cfsm: str, transition: str) -> TransitionPathReport:
        for row in self.rows:
            if row.cfsm == cfsm and row.transition == transition:
                return row
        raise KeyError("no report row for %s.%s" % (cfsm, transition))


def cacheability_report(network: Network) -> CacheabilityReport:
    """Build the §4.2 cacheability report for every process."""
    report = CacheabilityReport(system=network.name)
    for name, cfsm in sorted(network.cfsms.items()):
        values = compute_value_sets(cfsm)
        for index, transition in enumerate(cfsm.transitions):
            enumeration = enumerate_paths(
                transition.body.statements, values
            )
            guard_value = (
                static_value(transition.guard, values)
                if transition.guard is not None else None
            )
            dead = (
                shadowing_transition(cfsm, index, values) is not None
                or (guard_value is not None and not guard_value)
            )
            report.rows.append(TransitionPathReport(
                cfsm=name,
                transition=transition.name,
                path_count=enumeration.count,
                unbounded=enumeration.paths.unbounded,
                capped=enumeration.paths.capped,
                dead=dead,
            ))
    return report


# -- lint rules over the above ----------------------------------------------


def check_paths(network: Network) -> List[Diagnostic]:
    """Reachability and cacheability rules (SG201-SG205)."""
    diagnostics: List[Diagnostic] = []
    for name, cfsm in sorted(network.cfsms.items()):
        values = compute_value_sets(cfsm)
        for index, transition in enumerate(cfsm.transitions):
            where = Location(system=network.name, cfsm=name,
                             transition=transition.name)
            shadow = shadowing_transition(cfsm, index, values)
            if shadow is not None:
                diagnostics.append(make(
                    "SG201",
                    "dead transition: higher-priority transition %r "
                    "fires on a subset of its trigger (%s) with no "
                    "guard to yield" % (
                        shadow.name, ", ".join(sorted(shadow.trigger)),
                    ),
                    where, data={"shadowed_by": shadow.name},
                ))
            if transition.guard is not None:
                decided = static_value(transition.guard, values)
                if decided is not None and not decided:
                    diagnostics.append(make(
                        "SG202",
                        "dead transition: guard is statically false "
                        "for every reachable variable valuation",
                        where,
                    ))
            enumeration = enumerate_paths(
                transition.body.statements, values
            )
            for node_id, taken in enumeration.constant_branches:
                diagnostics.append(make(
                    "SG203",
                    "branch at node %d always takes the %s arm under "
                    "every reachable variable valuation" % (
                        node_id, "then" if taken else "else",
                    ),
                    Location(system=network.name, cfsm=name,
                             transition=transition.name, node=node_id),
                    data={"taken": taken},
                ))
            if enumeration.paths.unbounded:
                diagnostics.append(make(
                    "SG204",
                    "unbounded energy-cache table: a data-dependent "
                    "loop bound encloses a branching body, so the path "
                    "signature population grows with the input "
                    "(Fig. 4(b) spread-histogram case)",
                    where,
                ))
            elif enumeration.count > BLOWUP_THRESHOLD:
                diagnostics.append(make(
                    "SG205",
                    "path-table blowup: %d statically-feasible paths "
                    "(threshold %d); per-path caching will mostly miss"
                    % (enumeration.count, BLOWUP_THRESHOLD),
                    where, data={"paths": enumeration.count},
                ))
    return diagnostics


# -- §4.1 macro-model coverage ----------------------------------------------


def static_macro_ops(transition: Transition) -> Set[str]:
    """Macro-op names the body can emit, mirroring behavioral execution."""
    ops: Set[str] = set()

    def expression_ops(expression: Expression) -> None:
        if expression.event_values():
            ops.add(MacroOpKind.ADETECT)
        ops.update(expression.macro_ops())

    for stmt in transition.body.nodes():
        if isinstance(stmt, Assign):
            ops.add(MacroOpKind.AIVC if isinstance(stmt.value, Const)
                    else MacroOpKind.AVV)
            expression_ops(stmt.value)
        elif isinstance(stmt, Emit):
            ops.add(MacroOpKind.AEMIT)
            if stmt.value is not None:
                expression_ops(stmt.value)
        elif isinstance(stmt, SharedRead):
            ops.add(MacroOpKind.ASHRD)
            expression_ops(stmt.address)
        elif isinstance(stmt, SharedWrite):
            ops.add(MacroOpKind.ASHWR)
            expression_ops(stmt.address)
            expression_ops(stmt.value)
        elif isinstance(stmt, If):
            ops.add(MacroOpKind.TIVART)
            ops.add(MacroOpKind.TIVARF)
            expression_ops(stmt.cond)
        elif isinstance(stmt, Loop):
            ops.add(MacroOpKind.TLOOPT)
            ops.add(MacroOpKind.TLOOPF)
            expression_ops(stmt.count)
    if transition.guard is not None:
        expression_ops(transition.guard)
    return ops


def check_macro_coverage(network: Network,
                         parameter_file) -> List[Diagnostic]:
    """MM401: ops a SW process can emit but the table does not price."""
    characterized = set(parameter_file.costs)
    diagnostics: List[Diagnostic] = []
    for cfsm in network.software_cfsms():
        used: Dict[str, List[str]] = {}
        for transition in cfsm.transitions:
            for op in static_macro_ops(transition):
                used.setdefault(op, []).append(transition.name)
        for op in sorted(set(used) - characterized):
            diagnostics.append(make(
                "MM401",
                "macro-op %s is emitted by software process %r "
                "(transitions: %s) but absent from the "
                "characterization table; estimation falls back to the "
                "ISS or silently prices it at zero" % (
                    op, cfsm.name, ", ".join(sorted(used[op])),
                ),
                Location(system=network.name, cfsm=cfsm.name),
                data={"op": op, "transitions": sorted(used[op])},
            ))
    return diagnostics
