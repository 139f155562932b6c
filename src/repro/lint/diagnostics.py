"""Core types of the static-analysis diagnostic framework.

The framework mirrors what production linters (clang-tidy, ruff,
Verilator) converge on: every finding is a :class:`Diagnostic` carrying
a *stable rule code* (the contract with baselines, CI greps, and SARIF
consumers), a :class:`Severity`, a structured :class:`Location` into
the design hierarchy, and a deterministic fingerprint used for
baseline suppression.

Rules are declared once in the :data:`RULES` registry; analyses look
their descriptors up by code so that severity, title, and rationale
live in exactly one place (the same table renders the docs catalog and
the SARIF ``tool.driver.rules`` array).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


class Severity:
    """Diagnostic severities, ordered ``NOTE < WARNING < ERROR``."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    ORDER: Tuple[str, ...] = (NOTE, WARNING, ERROR)

    @staticmethod
    def rank(severity: str) -> int:
        """Position in the ordering (higher is more severe)."""
        try:
            return Severity.ORDER.index(severity)
        except ValueError:
            raise ValueError("unknown severity %r" % (severity,)) from None

    @staticmethod
    def max(severities: List[str]) -> Optional[str]:
        """The most severe of ``severities`` (``None`` when empty)."""
        if not severities:
            return None
        return max(severities, key=Severity.rank)


@dataclass(frozen=True)
class Location:
    """A position in the design hierarchy a diagnostic points at.

    All fields are optional; analyses fill in what they know.  The
    rendered form is stable (it participates in fingerprints), so field
    rendering order must never change.
    """

    system: Optional[str] = None
    cfsm: Optional[str] = None
    transition: Optional[str] = None
    node: Optional[int] = None
    event: Optional[str] = None
    variable: Optional[str] = None
    netlist: Optional[str] = None
    net: Optional[int] = None
    port: Optional[str] = None
    #: Expression-level anchor (rendered source of the sub-expression a
    #: dataflow or translation-validation finding is about).  Rendered
    #: last so that adding it did not move any pre-existing fingerprint.
    expr: Optional[str] = None

    def qualified_name(self) -> str:
        """Hierarchical path, e.g. ``tcpip_nic/ip_check/block_done@n3``."""
        parts: List[str] = []
        for value in (self.system, self.cfsm, self.transition):
            if value is not None:
                parts.append(value)
        if self.netlist is not None:
            parts.append("netlist:%s" % self.netlist)
        rendered = "/".join(parts) if parts else "<design>"
        if self.node is not None:
            rendered += "@n%d" % self.node
        if self.net is not None:
            rendered += "@net%d" % self.net
        if self.port is not None:
            rendered += "@port:%s" % self.port
        if self.event is not None:
            rendered += "[event:%s]" % self.event
        if self.variable is not None:
            rendered += "[var:%s]" % self.variable
        if self.expr is not None:
            rendered += "{expr:%s}" % self.expr
        return rendered


@dataclass(frozen=True)
class Rule:
    """Descriptor of one lint rule.

    Attributes:
        code: stable identifier (``CFSM001`` ...); never reused or
            renumbered once released — baselines and CI configs key
            on it.
        title: short kebab-ish name for listings.
        severity: default severity of findings.
        rationale: one-line justification (rendered in the docs
            catalog and SARIF rule metadata).
        in_validate: whether the rule is part of the historical
            :func:`repro.cfsm.validate.validate_network` contract
            (those findings raise in strict builds).
        fast: whether the rule runs in the pre-flight subset used by
            ``estimate``/``explore`` (no synthesis, no
            characterization).
    """

    code: str
    title: str
    severity: str
    rationale: str
    in_validate: bool = False
    fast: bool = True


@dataclass
class Diagnostic:
    """One finding of one rule at one location."""

    code: str
    severity: str
    message: str
    location: Location = field(default_factory=Location)
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """Deterministic identity for baseline suppression.

        Derived from the rule code, the rendered location, and the
        message — stable across runs and machines, independent of
        finding order.
        """
        payload = "%s|%s|%s" % (
            self.code,
            self.location.qualified_name(),
            self.message,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    def render(self) -> str:
        """One-line human-readable form."""
        return "%s [%s] %s: %s" % (
            self.severity,
            self.code,
            self.location.qualified_name(),
            self.message,
        )


def _rules(entries: List[Rule]) -> Mapping[str, Rule]:
    table: Dict[str, Rule] = {}
    for rule in entries:
        if rule.code in table:
            raise ValueError("duplicate rule code %r" % rule.code)
        table[rule.code] = rule
    return table


#: The rule catalog.  Codes are append-only: removing or renumbering a
#: code breaks checked-in baselines, so retired rules keep their row
#: (documented as retired) and new rules take fresh numbers.
RULES: Mapping[str, Rule] = _rules([
    # -- per-CFSM structural checks (the historical validate.py set) --
    Rule("CFSM001", "duplicate-transition-name", Severity.ERROR,
         "Two transitions with one name make priority order ambiguous.",
         in_validate=True),
    Rule("CFSM002", "transition-without-trigger", Severity.ERROR,
         "A transition with no trigger events can never fire.",
         in_validate=True),
    Rule("CFSM003", "undeclared-trigger-input", Severity.ERROR,
         "Triggering on an event the process does not declare as an "
         "input means the buffer can never hold it.",
         in_validate=True),
    Rule("CFSM004", "assigns-undeclared-variable", Severity.ERROR,
         "Stores to undeclared variables have no persistent home and "
         "silently vanish between reactions.",
         in_validate=True),
    Rule("CFSM005", "emits-undeclared-output", Severity.ERROR,
         "Emitting an event that is not a declared output bypasses the "
         "network wiring and the bus model.",
         in_validate=True),
    Rule("CFSM006", "value-on-pure-event", Severity.ERROR,
         "Pure events carry no value; the emitted value is dropped.",
         in_validate=True),
    Rule("CFSM007", "reads-undeclared-variable", Severity.ERROR,
         "Reads of undeclared variables crash behavioral execution at "
         "simulation time; catch them before the run.",
         in_validate=True),
    Rule("CFSM008", "reads-undeclared-event-value", Severity.ERROR,
         "Reading the value of an event the process does not consume "
         "can never be satisfied by the buffer.",
         in_validate=True),
    Rule("CFSM009", "reads-pure-event-value", Severity.ERROR,
         "Pure events carry no value to read.",
         in_validate=True),
    Rule("CFSM010", "undeclared-shared-variable", Severity.ERROR,
         "A shared-memory mapping for a variable that does not exist "
         "maps nothing onto the bus.",
         in_validate=True),
    Rule("CFSM011", "guard-reads-undeclared-variable", Severity.ERROR,
         "Guards over undeclared variables crash enabled-transition "
         "evaluation at simulation time.",
         in_validate=True),
    Rule("CFSM012", "valueless-emit-on-valued-event", Severity.WARNING,
         "Emitting a valued event without a value delivers 0 to every "
         "consumer; almost always a forgotten payload."),
    Rule("CFSM013", "consumes-undeclared-event", Severity.ERROR,
         "A consume list naming an event outside the declared inputs "
         "silently consumes nothing."),
    # -- network-scope wiring analysis --
    Rule("NET101", "unmapped-cfsm", Severity.ERROR,
         "Every process needs a HW/SW mapping before the partition-"
         "aware estimators can be dispatched.",
         in_validate=True),
    Rule("NET102", "undriven-input", Severity.ERROR,
         "An input no process emits and no testbench drives stalls "
         "every transition triggering on it.",
         in_validate=True),
    Rule("NET103", "unknown-bus-event", Severity.ERROR,
         "Mapping an undeclared event onto the bus charges traffic "
         "that can never occur.",
         in_validate=True),
    Rule("NET104", "unwatched-reset-event", Severity.ERROR,
         "A reset event with no watching process re-initializes "
         "nothing.",
         in_validate=True),
    Rule("NET105", "trigger-on-reset-event", Severity.ERROR,
         "Reset delivery pre-empts normal reaction, so a transition "
         "triggering on a reset event can never fire.",
         in_validate=True),
    Rule("NET106", "event-type-conflict", Severity.ERROR,
         "Emitter and consumer disagreeing on an event's value-ness or "
         "width corrupts every delivery.",
         in_validate=True),
    Rule("NET107", "multi-producer-event", Severity.WARNING,
         "Two processes emitting one event race in the consumer's "
         "one-place buffer under nondeterministic discrete-event "
         "ordering; the surviving value is schedule-dependent."),
    Rule("NET108", "shared-write-race", Severity.WARNING,
         "Two processes writing the same shared-memory word without an "
         "event-ordered handshake make the final contents (and the "
         "cached path energies) schedule-dependent."),
    Rule("NET109", "unconsumed-output", Severity.NOTE,
         "An output no process consumes is either a primary output of "
         "the system or a wiring mistake; listed so reviewers decide."),
    # -- s-graph reachability and path analysis --
    Rule("SG201", "shadowed-transition", Severity.WARNING,
         "An earlier unguarded transition with a subset trigger always "
         "wins, so this transition is dead code and its paths inflate "
         "the static path count."),
    Rule("SG202", "statically-false-guard", Severity.WARNING,
         "The guard can never evaluate non-zero for any reachable "
         "variable values; the transition is dead."),
    Rule("SG203", "constant-branch", Severity.NOTE,
         "A test with a statically constant outcome leaves one branch "
         "unreachable (dead states in the s-graph)."),
    Rule("SG204", "unbounded-path-table", Severity.NOTE,
         "A data-dependent loop containing tests makes the set of "
         "execution-path signatures unbounded, so the Section 4.2 "
         "energy-cache table grows without limit for this transition."),
    Rule("SG205", "path-table-blowup", Severity.NOTE,
         "The statically enumerated path count is large; the Section "
         "4.2 energy cache will key that many entries for one "
         "transition and rarely converge."),
    # -- macro-model coverage (Section 4.1) --
    Rule("MM401", "uncharacterized-macro-op", Severity.WARNING,
         "A macro-operation absent from the characterization table "
         "forces ISS fallbacks (or silently costs zero) under the "
         "Section 4.1 macro-model strategy.", fast=False),
    # -- netlist structural lint --
    Rule("NL300", "synthesis-failed", Severity.ERROR,
         "The hardware synthesizer rejected the process; gate-level "
         "estimation cannot run.", fast=False),
    Rule("NL301", "combinational-loop", Severity.ERROR,
         "A combinational cycle has no valid evaluation order; the "
         "compiled simulator would never settle.", fast=False),
    Rule("NL302", "undriven-net", Severity.ERROR,
         "A net read by logic but driven by nothing floats; its "
         "simulated value is undefined.", fast=False),
    Rule("NL303", "multiple-net-drivers", Severity.ERROR,
         "Two drivers shorted onto one net contend every cycle.",
         fast=False),
    Rule("NL304", "dead-gate", Severity.NOTE,
         "A gate whose output reaches no output port or register is "
         "dead logic: it burns estimated power for nothing.",
         fast=False),
    Rule("NL305", "port-width-mismatch", Severity.WARNING,
         "Emitter and consumer value ports of one event differ in "
         "width; high bits are silently truncated or zero-padded.",
         fast=False),
    Rule("NL306", "invalid-dff-init", Severity.WARNING,
         "A flip-flop initial value outside {0, 1} cannot be loaded "
         "into a single-bit register.", fast=False),
    # -- dataflow / abstract interpretation (bit-level + intervals) --
    Rule("DF501", "constant-net-feeds-logic", Severity.NOTE,
         "Abstract interpretation proves this gate output constant in "
         "every reachable cycle, yet it still feeds live logic: the "
         "cone below it is re-synthesizable to wires.", fast=False),
    Rule("DF502", "provably-dead-toggles", Severity.NOTE,
         "A fraction of this netlist's gates can never toggle (bit-"
         "level fixpoint); their switching energy is pure bound "
         "slack a constant-folding resynthesis would reclaim.",
         fast=False),
    Rule("DF503", "interval-false-guard", Severity.WARNING,
         "Interval analysis over the reachable variable ranges proves "
         "the guard always zero — the transition is dead even though "
         "syntactic constant propagation could not decide it."),
    Rule("DF504", "interval-decided-branch", Severity.NOTE,
         "Interval analysis pins this branch condition's outcome, so "
         "one arm is unreachable beyond what the syntactic SG203 "
         "check can see."),
    # -- optimizer translation validation --
    Rule("TV601", "unsound-rewrite-rule", Severity.ERROR,
         "A registered optimizer rewrite changed the meaning of a "
         "template expression: optimized designs silently diverge "
         "from their source semantics."),
    Rule("TV602", "unexercised-rewrite-rule", Severity.WARNING,
         "A registered rewrite rule fired on none of its declared "
         "templates; unexercised rules rot into unsound ones "
         "unnoticed."),
    Rule("TV603", "rewrite-validation-crash", Severity.ERROR,
         "A rewrite rule (or its rewritten expression) raised during "
         "validation; the optimizer would crash on designs matching "
         "the template."),
])


def rule(code: str) -> Rule:
    """Look up a rule descriptor by code."""
    try:
        return RULES[code]
    except KeyError:
        raise KeyError("unknown lint rule code %r" % (code,)) from None


def make(code: str, message: str, location: Optional[Location] = None,
         severity: Optional[str] = None,
         data: Optional[Dict[str, object]] = None) -> Diagnostic:
    """Build a diagnostic for ``code`` with the rule's default severity."""
    descriptor = rule(code)
    return Diagnostic(
        code=code,
        severity=severity or descriptor.severity,
        message=message,
        location=location or Location(),
        data=dict(data or {}),
    )


def max_severity(diagnostics: List[Diagnostic]) -> Optional[str]:
    """Most severe severity present (``None`` for a clean run)."""
    return Severity.max([d.severity for d in diagnostics])


def exit_code(diagnostics: List[Diagnostic]) -> int:
    """CLI exit status: 0 clean/notes, 1 warnings, 2 errors."""
    worst = max_severity(diagnostics)
    if worst == Severity.ERROR:
        return 2
    if worst == Severity.WARNING:
        return 1
    return 0


def sort_diagnostics(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """Stable report order: severity (desc), code, location, message."""
    return sorted(
        diagnostics,
        key=lambda d: (
            -Severity.rank(d.severity),
            d.code,
            d.location.qualified_name(),
            d.message,
        ),
    )
