"""S-graphs: the structured bodies of CFSM transitions.

An s-graph is a small structured program (assignments, event emissions,
two-way tests, and counted loops) executed atomically when a transition
fires.  Executing it with :meth:`SGraph.execute` is the *reference
semantics* used by the simulation master; the software code generator
and the hardware synthesizer must agree with it (this is checked by
property-based tests).  ``execute`` compiles each body, once per
structure, to one straight-line Python function; the tree-walking
interpreter it replaced lives on as a test oracle
(``tests/sgraph_oracle.py``) that the compiled code is checked against.

Executing an s-graph produces an :class:`ExecutionTrace` that records

* the macro-operation stream (consumed by software macro-modeling),
* the *path signature* — the sequence of test outcomes — which is the
  lookup key used by energy/delay caching (Section 4.2),
* the memory references performed (fed to the cache simulator by the
  master, exactly as in the paper where the ISS assumes 100% hits and
  the cache simulator is attached directly to PTOLEMY),
* the events emitted, and
* the visited node sequence (the hardware estimator maps one s-graph
  node to one controller state / clock cycle).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cfsm.actions import MacroOp, MacroOpKind, interned_macro_op
from repro.cfsm.expr import (
    _BINOP_FUNCS,
    _UNOP_FUNCS,
    BinaryOp,
    Const,
    EventValue,
    Expression,
    UnaryOp,
    Var,
    _coerce,
)
from repro.errors import ReproError

#: Safety bound on loop iterations; a behavioral model that exceeds it
#: almost certainly encodes a non-terminating reaction.
DEFAULT_MAX_ITERATIONS = 1_000_000


class SGraphError(ReproError):
    """Raised for malformed s-graphs or runaway executions."""


@dataclass(frozen=True)
class MemoryReference:
    """One variable access performed during execution.

    Attributes:
        name: variable name (or ``"@event"`` for an event mailbox read).
        is_write: ``True`` for stores, ``False`` for loads.
    """

    name: str
    is_write: bool


_REF_CACHE: Dict[Tuple[str, bool], MemoryReference] = {}


def _memory_ref(name: str, is_write: bool) -> MemoryReference:
    """Interned reference instances shared by every compiled body."""
    key = (name, is_write)
    ref = _REF_CACHE.get(key)
    if ref is None:
        ref = MemoryReference(name, is_write)
        _REF_CACHE[key] = ref
    return ref


class Statement:
    """Base class for s-graph statements.

    ``node_id`` is assigned by :class:`SGraph` in depth-first order and
    mirrors the node numbering of the paper's Figure 4(a).
    """

    node_id: int = -1

    def _assign_ids(self, next_id: int) -> int:
        self.node_id = next_id
        return next_id + 1


class Assign(Statement):
    """``var := expr`` — an AVV/AIVC macro-operation plus operator calls."""

    def __init__(self, target: str, value) -> None:
        if not target:
            raise SGraphError("assignment requires a target variable name")
        self.target = target
        self.value: Expression = _coerce(value)

    def __repr__(self) -> str:
        return "Assign(%s := %r)" % (self.target, self.value)


class Emit(Statement):
    """``emit(event[, value])`` — an AEMIT macro-operation."""

    def __init__(self, event: str, value=None) -> None:
        if not event:
            raise SGraphError("emit requires an event name")
        self.event = event
        self.value: Optional[Expression] = None if value is None else _coerce(value)

    def __repr__(self) -> str:
        return "Emit(%s)" % self.event


class If(Statement):
    """Two-way test: TIVART when the condition holds, TIVARF otherwise."""

    def __init__(self, cond, then: Sequence[Statement], els: Sequence[Statement] = ()) -> None:
        self.cond: Expression = _coerce(cond)
        self.then = list(then)
        self.els = list(els)

    def _assign_ids(self, next_id: int) -> int:
        next_id = Statement._assign_ids(self, next_id)
        for stmt in self.then:
            next_id = stmt._assign_ids(next_id)
        for stmt in self.els:
            next_id = stmt._assign_ids(next_id)
        return next_id

    def __repr__(self) -> str:
        return "If(%r, then=%d stmts, else=%d stmts)" % (
            self.cond,
            len(self.then),
            len(self.els),
        )


class SharedRead(Statement):
    """``var := shared_memory[address]`` — a word read over the bus.

    Shared-memory accesses are the bus traffic of the system: the
    master groups the reads of one transition into DMA bursts and
    charges them to the shared-bus model instead of the local cache.
    """

    def __init__(self, target: str, address) -> None:
        if not target:
            raise SGraphError("shared read requires a target variable")
        self.target = target
        self.address: Expression = _coerce(address)

    def __repr__(self) -> str:
        return "SharedRead(%s := M[%r])" % (self.target, self.address)


class SharedWrite(Statement):
    """``shared_memory[address] := value`` — a word write over the bus."""

    def __init__(self, address, value) -> None:
        self.address: Expression = _coerce(address)
        self.value: Expression = _coerce(value)

    def __repr__(self) -> str:
        return "SharedWrite(M[%r] := %r)" % (self.address, self.value)


class Loop(Statement):
    """Counted loop: the body runs ``count`` times (0 if negative).

    The iteration count is *not* part of the path signature: the paper's
    energy-caching technique keys on the control path, so a path whose
    loop bound is data-dependent shows a spread-out energy histogram
    (Figure 4(b)) and is filtered out by the variance threshold.
    """

    def __init__(self, count, body: Sequence[Statement]) -> None:
        self.count: Expression = _coerce(count)
        self.body = list(body)

    def _assign_ids(self, next_id: int) -> int:
        next_id = Statement._assign_ids(self, next_id)
        for stmt in self.body:
            next_id = stmt._assign_ids(next_id)
        return next_id

    def __repr__(self) -> str:
        return "Loop(%r, body=%d stmts)" % (self.count, len(self.body))


@dataclass
class ExecutionTrace:
    """Everything observed while executing an s-graph once."""

    ops: List[MacroOp] = field(default_factory=list)
    path: Tuple = ()
    emitted: List[Tuple[str, int]] = field(default_factory=list)
    memory_refs: List[MemoryReference] = field(default_factory=list)
    var_updates: Dict[str, int] = field(default_factory=dict)
    visited: List[int] = field(default_factory=list)
    loop_iterations: int = 0
    shared_reads: List[Tuple[int, int]] = field(default_factory=list)
    shared_writes: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def op_names(self) -> List[str]:
        """Macro-operation names in execution order."""
        return [op.name for op in self.ops]


class SGraph:
    """A transition body: an ordered list of statements.

    The constructor assigns node ids depth-first so that path
    signatures and hardware controller states are stable.
    """

    def __init__(self, statements: Sequence[Statement], max_iterations: int = DEFAULT_MAX_ITERATIONS) -> None:
        self.statements = list(statements)
        self.max_iterations = max_iterations
        #: Key of the compiled body in the process-wide cache, computed
        #: on the first run (the compiled function itself is not kept
        #: here, so graphs pickle and deep-copy as plain data).
        self._code_key: Optional[str] = None
        next_id = 1
        for stmt in self.statements:
            next_id = stmt._assign_ids(next_id)
        self.node_count = next_id - 1

    def nodes(self) -> List[Statement]:
        """All statements in node-id order."""
        found: List[Statement] = []

        def collect(stmts: Sequence[Statement]) -> None:
            for stmt in stmts:
                found.append(stmt)
                if isinstance(stmt, If):
                    collect(stmt.then)
                    collect(stmt.els)
                elif isinstance(stmt, Loop):
                    collect(stmt.body)

        collect(self.statements)
        return sorted(found, key=lambda s: s.node_id)

    def variables_read(self) -> List[str]:
        """Variables possibly read anywhere in the body (sorted)."""
        names = set()
        for stmt in self.nodes():
            for expression in _expressions_of(stmt):
                names.update(expression.variables())
        return sorted(names)

    def variables_written(self) -> List[str]:
        """Variables possibly written anywhere in the body (sorted)."""
        return sorted(
            {
                stmt.target
                for stmt in self.nodes()
                if isinstance(stmt, (Assign, SharedRead))
            }
        )

    def uses_shared_memory(self) -> bool:
        """Whether the body contains shared-memory accesses."""
        return any(
            isinstance(stmt, (SharedRead, SharedWrite)) for stmt in self.nodes()
        )

    def events_emitted(self) -> List[str]:
        """Events possibly emitted anywhere in the body (sorted)."""
        return sorted({stmt.event for stmt in self.nodes() if isinstance(stmt, Emit)})

    def event_values_read(self) -> List[str]:
        """Event values possibly read anywhere in the body (sorted)."""
        names = set()
        for stmt in self.nodes():
            for expression in _expressions_of(stmt):
                names.update(expression.event_values())
        return sorted(names)

    def execute(self, env: Dict[str, int], shared=None) -> ExecutionTrace:
        """Run the body once under ``env`` and return the trace.

        ``env`` holds variable bindings plus ``"@event"`` keys for the
        values of the triggering events.  The environment is updated in
        place with assignments (mirroring the CFSM's persistent state).
        ``shared`` must provide ``read(addr)``/``write(addr, value)``
        when the body contains shared-memory statements.

        The first run compiles the body (see :func:`_compile_body`);
        the statements must not be edited after that.  Every run after
        the first, of this graph or of any structurally equal one, reuses
        the compiled function from the process-wide cache.  Nothing is
        stored on the graph but the cache key, so concurrent runs of one
        graph are independent.
        """
        key = self._code_key
        if key is None:
            key = self._code_key = "body:" + repr((
                tuple(statement_signature(stmt) for stmt in self.statements),
                self.max_iterations,
            ))
        body = _cached(key, _compile_body, self.statements, self.max_iterations)
        return body(env, shared)


def statement_signature(stmt: Statement) -> tuple:
    """Recursive structural signature of one s-graph statement.

    ``repr`` alone is not enough — ``If``/``Loop`` statements summarize
    their bodies as statement counts, so two bodies that differ only
    inside a nested block would compare equal.  Expression reprs are
    already fully recursive.
    """
    if isinstance(stmt, If):
        return (
            "if",
            repr(stmt.cond),
            tuple(statement_signature(child) for child in stmt.then),
            tuple(statement_signature(child) for child in stmt.els),
        )
    if isinstance(stmt, Loop):
        return (
            "loop",
            repr(stmt.count),
            tuple(statement_signature(child) for child in stmt.body),
        )
    if isinstance(stmt, Emit):
        # Emit's repr shows only the event name, not the value
        # expression — spell the value out explicitly.
        return (
            "emit",
            stmt.event,
            None if stmt.value is None else repr(stmt.value),
        )
    # Remaining leaves (Assign/SharedRead/SharedWrite) embed their
    # expressions in repr, and expression reprs are fully recursive.
    return (type(stmt).__name__, repr(stmt))


# ---------------------------------------------------------------------------
# Compiled execution.
#
# POLIS compiles each s-graph to C; here each transition body becomes one
# generated Python function.  A body's macro-operations, memory
# references and visited nodes are static between two control-flow
# points, so the generated code extends the trace lists from
# precomputed tuples instead of recording statement by statement, and
# expressions become inline Python instead of a recursive ``evaluate``.
# ---------------------------------------------------------------------------

#: Compiled functions (transition bodies and guards) keyed by structure:
#: the statement signatures plus ``max_iterations`` for a body, the
#: expression repr for a guard.  Every served request and every design
#: point rebuilds its system, so keying on structure instead of on the
#: objects lets those rebuilt graphs reuse the compiled code.
_SGRAPH_CACHE: "OrderedDict[str, Callable]" = OrderedDict()

#: Bound on distinct bodies and guards kept compiled (LRU eviction).
_SGRAPH_CACHE_CAPACITY = 512


class SGraphCacheStats:
    """Process-wide hit/miss accounting for the compiled-body cache."""

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


SGRAPH_CACHE_STATS = SGraphCacheStats()


def clear_sgraph_cache() -> None:
    """Drop all compiled bodies and guards (tests and benchmarks)."""
    _SGRAPH_CACHE.clear()
    SGRAPH_CACHE_STATS.reset()


def _cached(key: str, build: Callable, *args) -> Callable:
    """The compiled function under ``key``; ``build(*args)`` on a miss.

    Runs on every reaction, so it takes no lock: each ``OrderedDict``
    call is atomic under the interpreter lock, two threads that miss
    together both compile and store the same code, and a racing
    eviction is tolerated.  Only the stats counters can lose an update
    then, which skews the accounting, never a result.
    """
    function = _SGRAPH_CACHE.get(key)
    if function is not None:
        SGRAPH_CACHE_STATS.hits += 1
        try:
            _SGRAPH_CACHE.move_to_end(key)
        except KeyError:  # another thread evicted it since the get
            pass
        return function
    SGRAPH_CACHE_STATS.misses += 1
    function = build(*args)
    _SGRAPH_CACHE[key] = function
    if len(_SGRAPH_CACHE) > _SGRAPH_CACHE_CAPACITY:
        try:
            _SGRAPH_CACHE.popitem(last=False)
        except KeyError:  # another thread emptied it meanwhile
            return function
        SGRAPH_CACHE_STATS.evictions += 1
    return function


def guard_code_key(guard: Expression) -> str:
    """Cache key of a compiled guard (callers may keep it to skip the repr)."""
    return "guard:" + repr(guard)


def compiled_guard(guard: Expression, key: str) -> Callable:
    """``guard`` compiled to ``function(state, buffer) -> value``.

    The function returns ``False`` when an event whose value the guard
    reads is not pending, and the guard's value otherwise; variables
    are read from ``state`` directly.  ``key`` is
    :func:`guard_code_key` of ``guard``.
    """
    return _cached(key, _compile_guard, guard)


#: Binary operators compiled to the Python operator itself.  Every other
#: operator calls its ``_BINOP_FUNCS`` entry, so the conventions of
#: DIV/MOD/shifts/comparisons/logical ops live in one place only.
_INLINE_BINOPS = {"ADD": "+", "SUB": "-", "MUL": "*", "AND": "&", "OR": "|", "XOR": "^"}

#: Expression nesting depth past which a subtree is computed into a
#: temporary, well inside the Python parser's nesting limit.
_MAX_EXPR_DEPTH = 32

#: Statement nesting depth past which a nested If/Loop is compiled into
#: a helper function, well inside CPython's limits on indentation and
#: on statically nested loops.
_MAX_BLOCK_DEPTH = 12

#: Locals the generated functions share with their helpers.
_TRACE_LISTS = "ops, refs, visited, path, vu, emitted, sr, sw"


def _raise_unbound(exc: KeyError, env: Dict[str, int], missing: Dict[str, str]) -> None:
    """Re-raise a failed ``env`` read with the message the AST gives.

    Generated code reads ``env[name]`` directly, so an unbound name
    surfaces as a bare ``KeyError(name)``.  This gives it the message of
    ``Var``/``EventValue.evaluate``.  Only a read by the generated frame
    itself is rewritten: its traceback ends in that frame, and the key
    is one the frame reads and ``env`` lacks.  Any other ``KeyError``
    (from inside a shared-memory call, say) passes through unchanged.
    """
    traceback = exc.__traceback__
    if traceback is not None and traceback.tb_next is None and len(exc.args) == 1:
        key = exc.args[0]
        if isinstance(key, str) and key in missing and key not in env:
            raise KeyError(missing[key]) from None


class _Unit:
    """One generated module: its namespace and shared counters."""

    def __init__(self) -> None:
        self.namespace: Dict[str, object] = {
            "_Trace": ExecutionTrace,
            "_SGraphError": SGraphError,
            "_unbound": _raise_unbound,
        }
        #: ``env`` key -> message of the KeyError an unbound read raises.
        self.missing: Dict[str, str] = {}
        self._consts: Dict[Tuple[type, object], str] = {}
        self._temps = 0

    def const(self, value) -> str:
        """Name of a module global bound to ``value``."""
        key = (type(value), value)
        name = self._consts.get(key)
        if name is None:
            name = "_k%d" % len(self._consts)
            self._consts[key] = name
            self.namespace[name] = value
        return name

    def literal(self, value) -> str:
        """Source for an integer constant."""
        if type(value) is int or type(value) is bool:
            return repr(value)
        return self.const(value)

    def temp(self, prefix: str = "_t") -> str:
        self._temps += 1
        return "%s%d" % (prefix, self._temps)

    def env_read(self, key: str, message: str) -> str:
        self.missing.setdefault(key, message)
        return "env[%r]" % key

    def expr(self, expression: Expression, pre: List[str], event_code: Callable) -> str:
        """Inline source for ``expression``.

        Lines that must run first (temporaries of very deep trees) are
        appended to ``pre``; operands still evaluate left to right.
        ``event_code(node)`` gives the source of an event-value read.
        """
        return self._expr(expression, pre, event_code)[0]

    def _expr(self, e: Expression, pre: List[str], event_code: Callable) -> Tuple[str, int]:
        if isinstance(e, Const):
            return self.literal(e.value), 1
        if isinstance(e, Var):
            return self.env_read(e.name, "variable %r is unbound" % e.name), 1
        if isinstance(e, EventValue):
            return event_code(e), 1
        if isinstance(e, BinaryOp):
            left, left_depth = self._expr(e.left, pre, event_code)
            mark = len(pre)
            right, right_depth = self._expr(e.right, pre, event_code)
            if len(pre) > mark:
                # The right operand spilled temporaries: compute the
                # left one before them to keep left-to-right order.
                name = self.temp()
                pre.insert(mark, "%s = %s" % (name, left))
                left = name
            symbol = _INLINE_BINOPS.get(e.op)
            if symbol is not None:
                code = "(%s %s %s)" % (left, symbol, right)
            else:
                code = "%s(%s, %s)" % (self._function("_BINOP_", e.op), left, right)
            depth = max(left_depth, right_depth) + 1
        elif isinstance(e, UnaryOp):
            operand, depth = self._expr(e.operand, pre, event_code)
            code = "%s(%s)" % (self._function("_UNOP_", e.op), operand)
            depth += 1
        else:
            raise SGraphError("unknown expression type %r" % type(e).__name__)
        if depth > _MAX_EXPR_DEPTH:
            name = self.temp()
            pre.append("%s = %s" % (name, code))
            return name, 1
        return code, depth

    def _function(self, prefix: str, op: str) -> str:
        name = prefix + op
        if name not in self.namespace:
            table = _BINOP_FUNCS if prefix == "_BINOP_" else _UNOP_FUNCS
            self.namespace[name] = table[op]
        return name

    def build(self, functions: List[Tuple[str, str, List[str], List[str], str]], entry: str) -> Callable:
        """Compile ``(name, params, prologue, block, result)`` functions."""
        self.namespace["_missing"] = self.missing
        source: List[str] = []
        for name, params, prologue, block, result in functions:
            source.append("def %s(%s):" % (name, params))
            source.extend("    " + line for line in prologue)
            block = block or ["pass"]
            if self.missing:
                source.append("    try:")
                source.extend("        " + line for line in block)
                source.append("    except KeyError as exc:")
                source.append("        _unbound(exc, env, _missing)")
                source.append("        raise")
            else:
                source.extend("    " + line for line in block)
            source.append("    return " + result)
        exec(compile("\n".join(source) + "\n", "<s-graph>", "exec"), self.namespace)
        return self.namespace[entry]  # type: ignore[return-value]


class _Pending:
    """Static trace items recorded since the last control-flow point."""

    __slots__ = ("visited", "refs", "ops", "path")

    def __init__(self) -> None:
        self.visited: List[int] = []
        self.refs: List[MemoryReference] = []
        self.ops: List[MacroOp] = []
        self.path: List[Tuple[int, str]] = []

    def items(self) -> Tuple[Tuple[str, list], ...]:
        return (("visited", self.visited), ("refs", self.refs),
                ("ops", self.ops), ("path", self.path))


class _BodyCompiler:
    """Generates the function for one transition body.

    Node ids are numbered here, depth first from 1, exactly as the
    ``SGraph`` constructor numbers them: the generated code is then a
    function of the body's structure alone, which is what the cache is
    keyed on.
    """

    def __init__(self, max_iterations: int) -> None:
        self.max_iterations = max_iterations
        self.unit = _Unit()
        self.functions: List[Tuple[str, str, List[str], List[str], str]] = []
        self.next_id = 1
        self.helpers = 0
        self.has_branches = False
        self.lines: List[str] = []
        self.depth = 0
        self.pending = _Pending()
        #: Whether every path to the current point has already checked
        #: that a shared memory was given (later checks are dead code).
        self.shared_checked = False

    def compile(self, statements: Sequence[Statement]) -> Callable:
        block = self._function_block(statements)
        path = "tuple(path)" if self.has_branches else "()"
        self.functions.append((
            "_body", "env, shared",
            ["ops = []", "refs = []", "visited = []", "path = []", "vu = {}",
             "emitted = []", "sr = []", "sw = []", "li = 0"],
            block,
            "_Trace(ops, %s, emitted, refs, vu, visited, li, sr, sw)" % path,
        ))
        return self.unit.build(self.functions, "_body")

    # -- code emission ------------------------------------------------------

    def _emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def _flush(self) -> None:
        """Extend the trace lists by the pending static items."""
        for target, items in self.pending.items():
            if items:
                self._emit("%s += %s" % (target, self.unit.const(tuple(items))))
        self.pending = _Pending()

    def _function_block(self, statements: Sequence[Statement]) -> List[str]:
        saved = (self.lines, self.depth, self.pending, self.shared_checked)
        self.lines, self.depth, self.pending = [], 0, _Pending()
        self.shared_checked = False
        for stmt in statements:
            self._statement(stmt)
        self._flush()
        block = self.lines
        self.lines, self.depth, self.pending, self.shared_checked = saved
        return block

    def _nested(self, statements: Sequence[Statement], flush: bool) -> None:
        """Compile a branch or loop body one level deeper.

        A shared-memory check inside it does not cover the code after
        it (the other branch, or zero iterations, skip it).
        """
        checked = self.shared_checked
        self.depth += 1
        for stmt in statements:
            self._statement(stmt)
        if flush:
            self._flush()
        self.depth -= 1
        self.shared_checked = checked

    def _event_read(self, node: EventValue) -> str:
        return self.unit.env_read(
            node.env_key,
            "value of event %r is not available in this transition" % node.event,
        )

    def _value(self, expression: Expression) -> str:
        """Record ``expression``'s static trace items; return its source."""
        pending = self.pending
        pending.refs.extend(_memory_ref(name, False) for name in expression.variables())
        for event in expression.event_values():
            pending.ops.append(interned_macro_op(MacroOpKind.ADETECT, event))
            pending.refs.append(_memory_ref("@" + event, False))
        pending.ops.extend(interned_macro_op(op_name) for op_name in expression.macro_ops())
        pre: List[str] = []
        code = self.unit.expr(expression, pre, self._event_read)
        for line in pre:
            self._emit(line)
        return code

    # -- statements ---------------------------------------------------------

    def _statement(self, stmt: Statement) -> None:
        if isinstance(stmt, (If, Loop)) and self.depth >= _MAX_BLOCK_DEPTH:
            self._helper(stmt)
            return
        node = self.next_id
        self.next_id += 1
        self.pending.visited.append(node)
        if isinstance(stmt, Assign):
            code = self._value(stmt.value)
            self._emit("env[%r] = vu[%r] = %s" % (stmt.target, stmt.target, code))
            kind = MacroOpKind.AIVC if isinstance(stmt.value, Const) else MacroOpKind.AVV
            self.pending.refs.append(_memory_ref(stmt.target, True))
            self.pending.ops.append(interned_macro_op(kind, stmt.target))
        elif isinstance(stmt, Emit):
            if stmt.value is None:
                self._emit("emitted.append(%s)" % self.unit.const((stmt.event, 0)))
            else:
                code = self._value(stmt.value)
                self._emit("emitted.append((%r, %s))" % (stmt.event, code))
            self.pending.ops.append(interned_macro_op(MacroOpKind.AEMIT, stmt.event))
        elif isinstance(stmt, SharedRead):
            self._require_shared("read", node)
            self._emit("_a = %s" % self._value(stmt.address))
            self._emit("_v = shared.read(_a)")
            self._emit("env[%r] = vu[%r] = _v" % (stmt.target, stmt.target))
            self._emit("sr.append((_a, _v))")
            self.pending.refs.append(_memory_ref(stmt.target, True))
            self.pending.ops.append(interned_macro_op(MacroOpKind.ASHRD, stmt.target))
        elif isinstance(stmt, SharedWrite):
            self._require_shared("write", node)
            self._emit("_a = %s" % self._value(stmt.address))
            self._emit("_v = %s" % self._value(stmt.value))
            self._emit("shared.write(_a, _v)")
            self._emit("sw.append((_a, _v))")
            self.pending.ops.append(interned_macro_op(MacroOpKind.ASHWR, "n%d" % node))
        elif isinstance(stmt, If):
            self._if(stmt, node)
        elif isinstance(stmt, Loop):
            self._loop(stmt, node)
        else:
            self._emit("raise _SGraphError(%r)"
                       % ("unknown statement type %r" % type(stmt).__name__))

    def _require_shared(self, access: str, node: int) -> None:
        if self.shared_checked:
            return
        self.shared_checked = True
        self._emit("if shared is None:")
        self._emit("    raise _SGraphError(%r)"
                   % ("shared %s at node %d without a shared memory" % (access, node)))

    def _if(self, stmt: If, node: int) -> None:
        self.has_branches = True
        code = self._value(stmt.cond)
        self._flush()
        self._emit("if %s:" % code)
        self._branch(stmt.then, node, "T", MacroOpKind.TIVART)
        self._emit("else:")
        self._branch(stmt.els, node, "F", MacroOpKind.TIVARF)

    def _branch(self, statements: Sequence[Statement], node: int, outcome: str,
                kind: str) -> None:
        self.pending.path.append((node, outcome))
        self.pending.ops.append(interned_macro_op(kind, "n%d" % node))
        self._nested(statements, flush=True)

    def _loop(self, stmt: Loop, node: int) -> None:
        count = self.unit.temp("_c")
        self._emit("%s = %s" % (count, self._value(stmt.count)))
        self._flush()
        limit = self.unit.literal(self.max_iterations)
        self._emit("if %s < 0:" % count)
        self._emit("    %s = 0" % count)
        self._emit("if %s > %s:" % (count, limit))
        self._emit("    raise _SGraphError(%r %% (%s, %s))" % (
            "loop at node %d requested %%d iterations (max %%d)" % node, count, limit))
        self._emit("li += %s" % count)
        # A body without nested control flow records the same static
        # items on every iteration: extend by them once, repeated.
        hoist = not any(isinstance(child, (If, Loop)) for child in stmt.body)
        header = len(self.lines)
        self._emit("for _ in range(%s):" % count)
        self.pending.ops.append(interned_macro_op(MacroOpKind.TLOOPT, "n%d" % node))
        self._nested(stmt.body, flush=not hoist)
        if hoist:
            statics, self.pending = self.pending, _Pending()
        if len(self.lines) == header + 1:
            self.lines.pop()  # nothing runs per iteration
        if hoist:
            for target, items in statics.items():
                if items:
                    self._emit("%s += %s * %s" % (target, self.unit.const(tuple(items)), count))
        self.pending.ops.append(interned_macro_op(MacroOpKind.TLOOPF, "n%d" % node))

    def _helper(self, stmt: Statement) -> None:
        """Compile a deeply nested ``stmt`` as a function of its own."""
        self._flush()
        self.helpers += 1
        name = "_h%d" % self.helpers
        block = self._function_block([stmt])
        params = "env, shared, " + _TRACE_LISTS
        self.functions.append((name, params, ["li = 0"], block, "li"))
        self._emit("li += %s(%s)" % (name, params))


def _compile_body(statements: Sequence[Statement], max_iterations: int) -> Callable:
    """``function(env, shared) -> ExecutionTrace`` for a transition body."""
    return _BodyCompiler(max_iterations).compile(statements)


def _compile_guard(guard: Expression) -> Callable:
    unit = _Unit()
    events: List[str] = []
    for event in guard.event_values():
        if event not in events:
            events.append(event)
    local = {event: "_e%d" % index for index, event in enumerate(events)}
    prologue = [line for event in events for line in (
        "if not buffer.present(%r):" % event, "    return False")]
    prologue += ["%s = buffer.value(%r)" % (local[event], event) for event in events]
    pre: List[str] = []
    code = unit.expr(guard, pre, lambda node: local[node.event])
    pre.append("result = %s" % code)
    return unit.build([("_guard", "env, buffer", prologue, pre, "result")], "_guard")


# ---------------------------------------------------------------------------
# Construction helpers mirroring repro.cfsm.expr's lower-case builders.
# ---------------------------------------------------------------------------


def assign(target: str, value) -> Assign:
    """``target := value`` statement."""
    return Assign(target, value)


def emit(event: str, value=None) -> Emit:
    """``emit(event[, value])`` statement."""
    return Emit(event, value)


def if_(cond, then: Sequence[Statement], els: Sequence[Statement] = ()) -> If:
    """Two-way test statement."""
    return If(cond, then, els)


def loop(count, body: Sequence[Statement]) -> Loop:
    """Counted-loop statement."""
    return Loop(count, body)


def shared_read(target: str, address) -> SharedRead:
    """``target := shared_memory[address]`` statement."""
    return SharedRead(target, address)


def shared_write(address, value) -> SharedWrite:
    """``shared_memory[address] := value`` statement."""
    return SharedWrite(address, value)


def _expressions_of(stmt: Statement) -> List[Expression]:
    """All expression roots contained directly in ``stmt``."""
    if isinstance(stmt, Assign):
        return [stmt.value]
    if isinstance(stmt, Emit):
        return [] if stmt.value is None else [stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, Loop):
        return [stmt.count]
    if isinstance(stmt, SharedRead):
        return [stmt.address]
    if isinstance(stmt, SharedWrite):
        return [stmt.address, stmt.value]
    return []
