"""S-graph optimization passes.

POLIS-style behavioral descriptions are written for clarity, not
efficiency; these classic transformations tighten them *before* code
generation and hardware synthesis, with behaviour preserved by
construction (and checked by property tests against behavioral
execution):

* **constant folding** — operator applications over constants collapse
  to constants, including algebraic identities (``x+0``, ``x*1``,
  ``x&0``, ``x|0``, ``x^0``);
* **strength reduction** — multiplication/division by a power of two
  becomes a shift, and multiplication by small constants becomes
  shift/add forms.  Besides saving the 4-/12-cycle multiply and divide
  units in software, this makes otherwise-unsynthesizable
  multiply-by-constant processes mappable to the shared-ALU hardware
  datapath;
* **dead-branch elimination** — ``if`` statements with constant
  conditions keep only the live branch; loops with constant bound 0
  disappear;
* **loop unrolling** (optional) — loops with small constant bounds are
  replaced by repeated bodies, removing per-iteration test/decrement
  overhead (and controller states, in hardware).

The optimizer is deliberately conservative: anything it does not
recognize passes through untouched.

Every expression rewrite lives in a declarative :class:`RewriteRule`
registered in :data:`REWRITE_RULES`.  The registry is the single
source of truth for both the optimizer (which applies the rules in
order) and the translation validator
(:mod:`repro.lint.transvalidate`, which proves each rule semantically
equivalent by exhaustive small-bit-width evaluation plus corner
vectors).  Adding a rule here without templates, or with unsound
semantics, is a CI failure — the ``SHR(x, 0) -> x`` bug class cannot
reach the optimizer silently anymore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cfsm.expr import BinaryOp, Const, Expression, UnaryOp, Var
from repro.cfsm.model import Cfsm, Transition
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    If,
    Loop,
    SGraph,
    SharedRead,
    SharedWrite,
    Statement,
)


@dataclass
class OptimizationReport:
    """What the passes changed (for logs and tests)."""

    folded_constants: int = 0
    strength_reduced: int = 0
    dead_branches: int = 0
    dead_loops: int = 0
    unrolled_loops: int = 0

    @property
    def total(self) -> int:
        return (self.folded_constants + self.strength_reduced
                + self.dead_branches + self.dead_loops + self.unrolled_loops)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


# ---------------------------------------------------------------------------
# Declarative rewrite rules
# ---------------------------------------------------------------------------

#: A binary-expression rewriter: ``(op, left, right)`` of an already
#: recursively-optimized node; returns the replacement expression or
#: ``None`` when the rule does not apply.
Rewriter = Callable[[str, Expression, Expression], Optional[Expression]]


@dataclass(frozen=True)
class RewriteRule:
    """One named, independently-validated expression rewrite.

    ``templates`` are concrete LHS instances (over :class:`Var` leaves)
    that the rule is expected to fire on; the translation validator
    instantiates them, applies the rule, and proves
    ``lhs.evaluate(env) == rhs.evaluate(env)`` over exhaustive
    small-bit-width environments plus corner/random full-width
    vectors.  A rule whose templates never fire is flagged (TV602) —
    dead rules rot into unsound ones unnoticed.
    """

    name: str
    #: ``identity`` rewrites count as folded constants in the report;
    #: ``strength`` rewrites count as strength reductions.
    category: str
    description: str
    rewrite: Rewriter
    templates: Tuple[BinaryOp, ...] = field(default=())

    def apply(self, op: str, left: Expression,
              right: Expression) -> Optional[Expression]:
        return self.rewrite(op, left, right)


def _const_of(expr: Expression) -> Optional[int]:
    return expr.value if isinstance(expr, Const) else None


def _make_neutral_rule(rule_op: str, value: int, *, left_side: bool,
                       name: str) -> RewriteRule:
    """``op(x, value) -> x`` (or the mirrored ``op(value, x) -> x``)."""

    def rewrite(op: str, left: Expression,
                right: Expression) -> Optional[Expression]:
        if op != rule_op:
            return None
        if left_side:
            if _const_of(left) == value:
                return right
            return None
        if _const_of(right) == value:
            return left
        return None

    template = (BinaryOp(rule_op, Const(value), Var("a")) if left_side
                else BinaryOp(rule_op, Var("a"), Const(value)))
    side = "left" if left_side else "right"
    return RewriteRule(
        name=name,
        category="identity",
        description="%s neutral element %d on the %s collapses"
                    % (rule_op, value, side),
        rewrite=rewrite,
        templates=(template,),
    )


def _annihilator_rewrite(op: str, left: Expression,
                         right: Expression) -> Optional[Expression]:
    """``MUL``/``AND`` by constant zero annihilate to zero."""
    if op not in ("MUL", "AND"):
        return None
    if _const_of(left) == 0 or _const_of(right) == 0:
        return Const(0)
    return None


def _strength_reduce_mul(op: str, left: Expression,
                         right: Expression) -> Optional[Expression]:
    """x*2^k -> x<<k;  x*(2^j+1)*2^k -> ((x<<j)+x)<<k;  x*(2^j-1)*2^k
    -> ((x<<j)-x)<<k.  Division is only reducible for powers of two
    when the operand is known non-negative — which we cannot prove
    here, so only the multiply family is rewritten (its semantics are
    exact for all integers)."""
    if op != "MUL":
        return None
    const_side = None
    var_side: Expression = left
    if isinstance(right, Const):
        const_side, var_side = right.value, left
    elif isinstance(left, Const):
        const_side, var_side = left.value, right
    if const_side is None or const_side < 2:
        return None

    # Factor the constant as odd * 2^k; the 2^k part is a final
    # shift, and odd parts of the form 2^j (+/-) 1 become
    # shift-and-add/subtract.
    even_shift = 0
    odd = const_side
    while odd % 2 == 0:
        odd //= 2
        even_shift += 1
    if even_shift > 31:
        return None

    if odd == 1:
        core: Optional[Expression] = var_side
    elif (_is_power_of_two(odd - 1) and odd - 1 >= 2
          and (odd - 1).bit_length() - 1 <= 31):
        shift = (odd - 1).bit_length() - 1
        core = BinaryOp(
            "ADD", BinaryOp("SHL", var_side, Const(shift)), var_side
        )
    elif _is_power_of_two(odd + 1) and (odd + 1).bit_length() - 1 <= 31:
        shift = (odd + 1).bit_length() - 1
        core = BinaryOp(
            "SUB", BinaryOp("SHL", var_side, Const(shift)), var_side
        )
    else:
        return None
    if even_shift == 0:
        return core
    return BinaryOp("SHL", core, Const(even_shift))


#: The ordered rewrite registry.  Order is semantics-relevant only in
#: that identities are tried before strength reduction (matching the
#: historical pass structure); within a category the patterns are
#: disjoint.  ``SHR(x, 0) -> x`` is deliberately absent: the
#: behavioral SHR wraps its operand to 32-bit unsigned, so
#: ``SHR(x, 0) != x`` for negative x — exactly the kind of fact the
#: translation validator exists to enforce.
REWRITE_RULES: Tuple[RewriteRule, ...] = (
    _make_neutral_rule("ADD", 0, left_side=False, name="add-zero-right"),
    _make_neutral_rule("ADD", 0, left_side=True, name="add-zero-left"),
    _make_neutral_rule("SUB", 0, left_side=False, name="sub-zero-right"),
    _make_neutral_rule("MUL", 1, left_side=False, name="mul-one-right"),
    _make_neutral_rule("MUL", 1, left_side=True, name="mul-one-left"),
    RewriteRule(
        name="mul-and-zero-annihilate",
        category="identity",
        description="MUL/AND with a constant zero operand is zero",
        rewrite=_annihilator_rewrite,
        templates=(
            BinaryOp("MUL", Var("a"), Const(0)),
            BinaryOp("MUL", Const(0), Var("a")),
            BinaryOp("AND", Var("a"), Const(0)),
            BinaryOp("AND", Const(0), Var("a")),
        ),
    ),
    _make_neutral_rule("DIV", 1, left_side=False, name="div-one-right"),
    _make_neutral_rule("OR", 0, left_side=False, name="or-zero-right"),
    _make_neutral_rule("OR", 0, left_side=True, name="or-zero-left"),
    _make_neutral_rule("XOR", 0, left_side=False, name="xor-zero-right"),
    _make_neutral_rule("XOR", 0, left_side=True, name="xor-zero-left"),
    _make_neutral_rule("SHL", 0, left_side=False, name="shl-zero-right"),
    RewriteRule(
        name="mul-const-to-shifts",
        category="strength",
        description="multiplication by odd*2^k constants becomes "
                    "shift / shift-add / shift-subtract forms",
        rewrite=_strength_reduce_mul,
        templates=(
            BinaryOp("MUL", Var("a"), Const(2)),
            BinaryOp("MUL", Var("a"), Const(3)),
            BinaryOp("MUL", Var("a"), Const(5)),
            BinaryOp("MUL", Var("a"), Const(7)),
            BinaryOp("MUL", Var("a"), Const(8)),
            BinaryOp("MUL", Var("a"), Const(12)),
            BinaryOp("MUL", Var("a"), Const(24)),
            BinaryOp("MUL", Var("a"), Const(31)),
            BinaryOp("MUL", Var("a"), Const(96)),
            BinaryOp("MUL", Const(6), Var("a")),
            BinaryOp("MUL", Var("a"), Const(1 << 31)),
        ),
    ),
)


def rewrite_rule_names() -> Tuple[str, ...]:
    """Stable names of every registered rewrite rule (in order)."""
    return tuple(rule.name for rule in REWRITE_RULES)


class SGraphOptimizer:
    """Applies the optimization passes to expressions and statements."""

    def __init__(self, unroll_limit: int = 0) -> None:
        """``unroll_limit``: loops with a constant bound of at most this
        many iterations are fully unrolled (0 disables unrolling)."""
        self.unroll_limit = unroll_limit
        self.report = OptimizationReport()

    # -- expressions -----------------------------------------------------------

    def expression(self, expr: Expression) -> Expression:
        """Optimized copy of ``expr``."""
        if isinstance(expr, BinaryOp):
            left = self.expression(expr.left)
            right = self.expression(expr.right)
            return self._binary(expr.op, left, right)
        if isinstance(expr, UnaryOp):
            operand = self.expression(expr.operand)
            if isinstance(operand, Const):
                self.report.folded_constants += 1
                return Const(UnaryOp(expr.op, operand).evaluate({}))
            return UnaryOp(expr.op, operand)
        return expr

    def _binary(self, op: str, left: Expression, right: Expression) -> Expression:
        if isinstance(left, Const) and isinstance(right, Const):
            self.report.folded_constants += 1
            return Const(BinaryOp(op, left, right).evaluate({}))

        for rule in REWRITE_RULES:
            rewritten = rule.apply(op, left, right)
            if rewritten is not None:
                if rule.category == "identity":
                    self.report.folded_constants += 1
                else:
                    self.report.strength_reduced += 1
                return rewritten
        return BinaryOp(op, left, right)

    # -- statements -----------------------------------------------------------

    def block(self, statements: Sequence[Statement]) -> List[Statement]:
        """Optimized copy of a statement block."""
        result: List[Statement] = []
        for statement in statements:
            result.extend(self.statement(statement))
        return result

    def statement(self, statement: Statement) -> List[Statement]:
        """Optimized replacement statements (possibly empty or many)."""
        if isinstance(statement, Assign):
            return [Assign(statement.target, self.expression(statement.value))]
        if isinstance(statement, Emit):
            value = (None if statement.value is None
                     else self.expression(statement.value))
            return [Emit(statement.event, value)]
        if isinstance(statement, SharedRead):
            return [SharedRead(statement.target,
                               self.expression(statement.address))]
        if isinstance(statement, SharedWrite):
            return [SharedWrite(self.expression(statement.address),
                                self.expression(statement.value))]
        if isinstance(statement, If):
            return self._if(statement)
        if isinstance(statement, Loop):
            return self._loop(statement)
        return [statement]

    def _if(self, statement: If) -> List[Statement]:
        cond = self.expression(statement.cond)
        if isinstance(cond, Const):
            self.report.dead_branches += 1
            live = statement.then if cond.value else statement.els
            return self.block(live)
        return [If(cond, self.block(statement.then), self.block(statement.els))]

    def _loop(self, statement: Loop) -> List[Statement]:
        count = self.expression(statement.count)
        body = self.block(statement.body)
        if isinstance(count, Const):
            if count.value <= 0:
                self.report.dead_loops += 1
                return []
            if 0 < count.value <= self.unroll_limit:
                self.report.unrolled_loops += 1
                unrolled: List[Statement] = []
                for _ in range(count.value):
                    # Bodies must be fresh objects: node ids are
                    # assigned per occurrence.
                    unrolled.extend(self.block(statement.body))
                return unrolled
        return [Loop(count, body)]


def optimize_sgraph(
    graph: SGraph, unroll_limit: int = 0
) -> "tuple[SGraph, OptimizationReport]":
    """Optimized copy of one s-graph plus the change report."""
    optimizer = SGraphOptimizer(unroll_limit=unroll_limit)
    statements = optimizer.block(graph.statements)
    return SGraph(statements, max_iterations=graph.max_iterations), optimizer.report


def optimize_network(network, unroll_limit: int = 0):
    """Optimized copy of a whole network (mappings preserved).

    Returns ``(network, {cfsm name: OptimizationReport})``.
    """
    from repro.cfsm.model import Network

    optimized = Network(
        name=network.name,
        bus_events=set(network.bus_events),
        environment_inputs=set(network.environment_inputs),
        reset_events=set(network.reset_events),
    )
    reports = {}
    for name in sorted(network.cfsms):
        cfsm, report = optimize_cfsm(network.cfsms[name], unroll_limit)
        optimized.add(cfsm, network.implementation(name))
        reports[name] = report
    return optimized, reports


def optimize_cfsm(cfsm: Cfsm, unroll_limit: int = 0) -> "tuple[Cfsm, OptimizationReport]":
    """Optimized copy of a CFSM (all transitions)."""
    total = OptimizationReport()
    optimized = Cfsm(
        name=cfsm.name,
        inputs=dict(cfsm.inputs),
        outputs=dict(cfsm.outputs),
        variables=dict(cfsm.variables),
        shared_variables=set(cfsm.shared_variables),
        width=cfsm.width,
        clock_period_ns=cfsm.clock_period_ns,
    )
    for transition in cfsm.transitions:
        graph, report = optimize_sgraph(transition.body, unroll_limit)
        for field_name in ("folded_constants", "strength_reduced",
                           "dead_branches", "dead_loops", "unrolled_loops"):
            setattr(total, field_name,
                    getattr(total, field_name) + getattr(report, field_name))
        optimizer = SGraphOptimizer()
        guard = (None if transition.guard is None
                 else optimizer.expression(transition.guard))
        optimized.transitions.append(
            Transition(
                name=transition.name,
                trigger=transition.trigger,
                body=graph,
                guard=guard,
                consumes=transition.consumes,
            )
        )
    return optimized, total
