"""Expression AST used in s-graph statements.

Expressions are integer-valued and side-effect free.  They are the
shared intermediate form consumed by

* the s-graph compiler (:mod:`repro.cfsm.sgraph`),
* the software code generator (:mod:`repro.sw.codegen`),
* the hardware synthesizer (:mod:`repro.hw.synth`), and
* the macro-operation extractor (:mod:`repro.cfsm.actions`).

Only the operators that the POLIS software library pre-characterizes
(ADD, SUB, MUL, DIV, MOD, bitwise ops, shifts, comparisons, logical
connectives, negation) are provided.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

#: Evaluation environment: variable and event-value bindings.
Env = Mapping[str, int]

# Binary operator tables.  ``_BINOP_FUNCS`` maps the operator mnemonic to
# its Python semantics; ``BINOP_MACRO`` maps it to the POLIS library
# function name used for macro-modeling and characterization.
_BINOP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "ADD": operator.add,
    "SUB": operator.sub,
    "MUL": operator.mul,
    # Division truncates toward zero; division by zero yields 0 and the
    # corresponding MOD yields the dividend.  These conventions are shared
    # verbatim by the ISS and the hardware datapath so that all three
    # execution engines agree on every input.
    "DIV": lambda a, b: int(a / b) if b != 0 else 0,
    "MOD": lambda a, b: a - (int(a / b) if b != 0 else 0) * b,
    "AND": operator.and_,
    "OR": operator.or_,
    "XOR": operator.xor,
    "SHL": lambda a, b: a << (b & 31),
    "SHR": lambda a, b: (a % (1 << 32)) >> (b & 31),
    "EQ": lambda a, b: int(a == b),
    "NE": lambda a, b: int(a != b),
    "LT": lambda a, b: int(a < b),
    "LE": lambda a, b: int(a <= b),
    "GT": lambda a, b: int(a > b),
    "GE": lambda a, b: int(a >= b),
    "LAND": lambda a, b: int(bool(a) and bool(b)),
    "LOR": lambda a, b: int(bool(a) or bool(b)),
}

_UNOP_FUNCS: Dict[str, Callable[[int], int]] = {
    "NEG": operator.neg,
    "NOT": lambda a: int(not a),
    "BNOT": lambda a: ~a,
}


class Expression:
    """Base class for expression nodes."""

    def evaluate(self, env: Env) -> int:
        """Evaluate under variable/event bindings ``env``."""
        raise NotImplementedError

    def variables(self) -> List[str]:
        """Names of CFSM variables read by this expression (in order)."""
        return []

    def event_values(self) -> List[str]:
        """Names of event values read by this expression (in order)."""
        return []

    def macro_ops(self) -> List[str]:
        """POLIS library function names this expression expands to."""
        return []

    def depth(self) -> int:
        """Height of the expression tree (1 for leaves)."""
        return 1

    # Operator overloading keeps system descriptions readable.
    def __add__(self, other: "Expression") -> "Expression":
        return BinaryOp("ADD", self, _coerce(other))

    def __sub__(self, other: "Expression") -> "Expression":
        return BinaryOp("SUB", self, _coerce(other))

    def __mul__(self, other: "Expression") -> "Expression":
        return BinaryOp("MUL", self, _coerce(other))


def _coerce(value) -> "Expression":
    """Turn plain ints into :class:`Const` nodes."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, int):
        return Const(value)
    raise TypeError("cannot use %r in an expression" % (value,))


@dataclass(frozen=True)
class Const(Expression):
    """Integer literal."""

    value: int

    def evaluate(self, env: Env) -> int:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expression):
    """Read of a CFSM variable."""

    name: str

    def evaluate(self, env: Env) -> int:
        if self.name not in env:
            raise KeyError("variable %r is unbound" % self.name)
        return env[self.name]

    def variables(self) -> List[str]:
        return [self.name]

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class EventValue(Expression):
    """Read of the value carried by a triggering input event.

    Event values are injected into the environment under the key
    ``"@<event name>"`` by the transition executor, so that they can
    never collide with variable names.
    """

    event: str

    @property
    def env_key(self) -> str:
        return "@" + self.event

    def evaluate(self, env: Env) -> int:
        if self.env_key not in env:
            raise KeyError(
                "value of event %r is not available in this transition" % self.event
            )
        return env[self.env_key]

    def event_values(self) -> List[str]:
        return [self.event]

    def __repr__(self) -> str:
        return "value(%s)" % self.event


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator application.

    The structural queries (variables, event values, macro-ops) are
    memoized on first use: expression trees are immutable, and the
    s-graph compiler, the code generator and the static analyzer all
    ask for them.  The operator function is looked up in the table on
    each ``evaluate`` rather than stored on the node, so expression
    trees (and the CFSMs holding them) pickle.
    """

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BINOP_FUNCS:
            raise ValueError("unknown binary operator %r" % self.op)

    def evaluate(self, env: Env) -> int:
        return _BINOP_FUNCS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def variables(self) -> List[str]:
        cached = self.__dict__.get("_vars")
        if cached is None:
            cached = list(self.left.variables()) + list(self.right.variables())
            object.__setattr__(self, "_vars", cached)
        return cached

    def event_values(self) -> List[str]:
        cached = self.__dict__.get("_events")
        if cached is None:
            cached = (list(self.left.event_values())
                      + list(self.right.event_values()))
            object.__setattr__(self, "_events", cached)
        return cached

    def macro_ops(self) -> List[str]:
        cached = self.__dict__.get("_ops")
        if cached is None:
            cached = (list(self.left.macro_ops())
                      + list(self.right.macro_ops()) + [self.op])
            object.__setattr__(self, "_ops", cached)
        return cached

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())

    def __repr__(self) -> str:
        return "%s(%r, %r)" % (self.op, self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator application."""

    op: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.op not in _UNOP_FUNCS:
            raise ValueError("unknown unary operator %r" % self.op)

    def evaluate(self, env: Env) -> int:
        return _UNOP_FUNCS[self.op](self.operand.evaluate(env))

    def variables(self) -> List[str]:
        return self.operand.variables()

    def event_values(self) -> List[str]:
        return self.operand.event_values()

    def macro_ops(self) -> List[str]:
        cached = self.__dict__.get("_ops")
        if cached is None:
            cached = list(self.operand.macro_ops()) + [self.op]
            object.__setattr__(self, "_ops", cached)
        return cached

    def depth(self) -> int:
        return 1 + self.operand.depth()

    def __repr__(self) -> str:
        return "%s(%r)" % (self.op, self.operand)


# ---------------------------------------------------------------------------
# Construction helpers.  These keep system descriptions terse:
#     assign("n", add(var("n"), const(1)))
# ---------------------------------------------------------------------------


def const(value: int) -> Const:
    """Integer literal node."""
    return Const(value)


def var(name: str) -> Var:
    """Variable read node."""
    return Var(name)


def event_value(event: str) -> EventValue:
    """Event-value read node."""
    return EventValue(event)


def _binop(op: str) -> Callable[..., BinaryOp]:
    def make(left, right) -> BinaryOp:
        return BinaryOp(op, _coerce(left), _coerce(right))

    make.__name__ = op.lower()
    make.__doc__ = "Build a %s expression node." % op
    return make


add = _binop("ADD")
sub = _binop("SUB")
mul = _binop("MUL")
div = _binop("DIV")
mod = _binop("MOD")
band = _binop("AND")
bor = _binop("OR")
bxor = _binop("XOR")
shl = _binop("SHL")
shr = _binop("SHR")
eq = _binop("EQ")
ne = _binop("NE")
lt = _binop("LT")
le = _binop("LE")
gt = _binop("GT")
ge = _binop("GE")
land = _binop("LAND")
lor = _binop("LOR")


def lnot(operand) -> UnaryOp:
    """Logical negation node."""
    return UnaryOp("NOT", _coerce(operand))


def neg(operand) -> UnaryOp:
    """Arithmetic negation node."""
    return UnaryOp("NEG", _coerce(operand))


def binary_operator_names() -> Tuple[str, ...]:
    """All supported binary operator mnemonics."""
    return tuple(sorted(_BINOP_FUNCS))


def unary_operator_names() -> Tuple[str, ...]:
    """All supported unary operator mnemonics."""
    return tuple(sorted(_UNOP_FUNCS))
