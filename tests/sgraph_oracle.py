"""Tree-walking s-graph interpreter, kept as a test oracle.

This is the behavioral interpreter that ``SGraph.execute`` used before
transition bodies were compiled to straight-line Python.  It walks the
statement tree on every run, so it is slow, but it is small enough to
read at a glance.  The differential tests run it beside the compiled
executor and require identical traces, environments and errors.

Node ids come from ``stmt.node_id`` (assigned by the ``SGraph``
constructor), exactly as before.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cfsm.actions import MacroOpKind, interned_macro_op
from repro.cfsm.expr import Const, Expression
from repro.cfsm.sgraph import (
    Assign,
    Emit,
    ExecutionTrace,
    If,
    Loop,
    MemoryReference,
    SGraph,
    SGraphError,
    SharedRead,
    SharedWrite,
    Statement,
)


def oracle_execute(graph: SGraph, env: Dict[str, int], shared=None) -> ExecutionTrace:
    """Run ``graph`` once under ``env`` with the reference interpreter."""
    return _Interpreter(graph.max_iterations, shared).execute(graph.statements, env)


def _memory_ref(name: str, is_write: bool) -> MemoryReference:
    return MemoryReference(name, is_write)


def isinstance_const(expression: Expression) -> bool:
    """Whether ``expression`` is a plain constant (AIVC vs. AVV)."""
    return isinstance(expression, Const)


class _Interpreter:
    def __init__(self, max_iterations: int, shared) -> None:
        self.max_iterations = max_iterations
        self._shared = shared

    def execute(self, statements: Sequence[Statement], env: Dict[str, int]) -> ExecutionTrace:
        trace = ExecutionTrace()
        path: List[Tuple[int, str]] = []
        self._run_block(statements, env, trace, path)
        trace.path = tuple(path)
        return trace

    def _run_block(
        self,
        stmts: Sequence[Statement],
        env: Dict[str, int],
        trace: ExecutionTrace,
        path: List[Tuple[int, str]],
    ) -> None:
        for stmt in stmts:
            self._run_statement(stmt, env, trace, path)

    def _run_statement(
        self,
        stmt: Statement,
        env: Dict[str, int],
        trace: ExecutionTrace,
        path: List[Tuple[int, str]],
    ) -> None:
        trace.visited.append(stmt.node_id)
        if isinstance(stmt, Assign):
            value = self._eval(stmt.value, env, trace)
            env[stmt.target] = value
            trace.var_updates[stmt.target] = value
            trace.memory_refs.append(_memory_ref(stmt.target, True))
            if isinstance_const(stmt.value):
                trace.ops.append(interned_macro_op(MacroOpKind.AIVC, stmt.target))
            else:
                trace.ops.append(interned_macro_op(MacroOpKind.AVV, stmt.target))
        elif isinstance(stmt, Emit):
            value = 0
            if stmt.value is not None:
                value = self._eval(stmt.value, env, trace)
            trace.emitted.append((stmt.event, value))
            trace.ops.append(interned_macro_op(MacroOpKind.AEMIT, stmt.event))
        elif isinstance(stmt, SharedRead):
            if self._shared is None:
                raise SGraphError(
                    "shared read at node %d without a shared memory" % stmt.node_id
                )
            address = self._eval(stmt.address, env, trace)
            value = self._shared.read(address)
            env[stmt.target] = value
            trace.var_updates[stmt.target] = value
            trace.shared_reads.append((address, value))
            trace.memory_refs.append(_memory_ref(stmt.target, True))
            trace.ops.append(interned_macro_op(MacroOpKind.ASHRD, stmt.target))
        elif isinstance(stmt, SharedWrite):
            if self._shared is None:
                raise SGraphError(
                    "shared write at node %d without a shared memory" % stmt.node_id
                )
            address = self._eval(stmt.address, env, trace)
            value = self._eval(stmt.value, env, trace)
            self._shared.write(address, value)
            trace.shared_writes.append((address, value))
            trace.ops.append(interned_macro_op(MacroOpKind.ASHWR, "n%d" % stmt.node_id))
        elif isinstance(stmt, If):
            taken = bool(self._eval(stmt.cond, env, trace))
            outcome = "T" if taken else "F"
            path.append((stmt.node_id, outcome))
            kind = MacroOpKind.TIVART if taken else MacroOpKind.TIVARF
            trace.ops.append(interned_macro_op(kind, "n%d" % stmt.node_id))
            self._run_block(stmt.then if taken else stmt.els, env, trace, path)
        elif isinstance(stmt, Loop):
            count = self._eval(stmt.count, env, trace)
            count = max(0, count)
            if count > self.max_iterations:
                raise SGraphError(
                    "loop at node %d requested %d iterations (max %d)"
                    % (stmt.node_id, count, self.max_iterations)
                )
            for _ in range(count):
                trace.ops.append(interned_macro_op(MacroOpKind.TLOOPT, "n%d" % stmt.node_id))
                trace.loop_iterations += 1
                self._run_block(stmt.body, env, trace, path)
            trace.ops.append(interned_macro_op(MacroOpKind.TLOOPF, "n%d" % stmt.node_id))
        else:
            raise SGraphError("unknown statement type %r" % type(stmt).__name__)

    def _eval(self, expression: Expression, env: Dict[str, int], trace: ExecutionTrace) -> int:
        refs = [_memory_ref(name, False) for name in expression.variables()]
        ops = []
        for event in expression.event_values():
            ops.append(interned_macro_op(MacroOpKind.ADETECT, event))
            refs.append(_memory_ref("@" + event, False))
        ops.extend(interned_macro_op(op_name) for op_name in expression.macro_ops())
        trace.memory_refs.extend(refs)
        trace.ops.extend(ops)
        return expression.evaluate(env)


def oracle_enabled_transition(cfsm, buffer, state):
    """First enabled transition, guards evaluated by tree walking."""
    for transition in cfsm.transitions:
        if all(buffer.present(event) for event in transition.trigger):
            if transition.guard is None:
                return transition
            env = dict(state)
            for event in transition.guard.event_values():
                if not buffer.present(event):
                    break
                env["@" + event] = buffer.value(event)
            else:
                if transition.guard.evaluate(env):
                    return transition
    return None
