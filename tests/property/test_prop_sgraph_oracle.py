"""Differential tests: compiled s-graph execution against the oracle.

``SGraph.execute`` runs each transition body as generated Python.  The
tree-walking interpreter it replaced is kept in ``tests/sgraph_oracle``;
on random bodies, bindings, event values and shared memories both must
give the same trace (every field, ``var_updates`` key order included),
leave the same environment and shared memory behind, and raise the same
exception with the same message — for unbound variables, a missing
event value, a missing shared memory and a loop over its bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfsm.builder import CfsmBuilder
from repro.cfsm.events import Event
from repro.cfsm.sgraph import SGraph

from tests.generators import (
    EVENT_IN,
    VAR_NAMES,
    hw_bodies,
    hw_values,
    sw_bodies,
    sw_exprs,
    sw_values,
)
from tests.sgraph_oracle import oracle_enabled_transition, oracle_execute


class DictShared:
    """Shared memory whose every access is logged."""

    def __init__(self):
        self.words = {address: address * 37 + 5 for address in range(16)}
        self.log = []

    def read(self, address):
        self.log.append(("read", address))
        return self.words.get(address, 0)

    def write(self, address, value):
        self.log.append(("write", address, value))
        self.words[address] = value


def _outcome(run, graph, env, shared):
    try:
        trace = run(graph, env, shared)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    return (
        "trace",
        trace,
        list(trace.var_updates.items()),
    )


def _compiled(graph, env, shared):
    return graph.execute(env, shared=shared)


def assert_same_behaviour(statements, env, with_shared, max_iterations):
    graph = SGraph(statements, max_iterations=max_iterations)
    oracle_env, compiled_env = dict(env), dict(env)
    oracle_shared = DictShared() if with_shared else None
    compiled_shared = DictShared() if with_shared else None

    expected = _outcome(oracle_execute, graph, oracle_env, oracle_shared)
    actual = _outcome(_compiled, graph, compiled_env, compiled_shared)

    assert actual == expected
    assert list(compiled_env.items()) == list(oracle_env.items())
    if with_shared:
        assert compiled_shared.log == oracle_shared.log
        assert compiled_shared.words == oracle_shared.words
    return expected[0]


def _environment(values, bound, event_value):
    env = {name: value for name, value in values.items() if name in bound}
    if event_value is not None:
        env["@" + EVENT_IN] = event_value
    return env


bindings = st.fixed_dictionaries({name: sw_values() for name in VAR_NAMES})


@given(sw_bodies(), bindings, sw_values())
@settings(max_examples=150)
def test_sw_bodies_match_oracle(body, values, event_value):
    env = _environment(values, VAR_NAMES, event_value)
    assert_same_behaviour(list(body), env, True, 1_000_000)


@given(
    hw_bodies(),
    st.fixed_dictionaries({name: hw_values() for name in VAR_NAMES}),
    hw_values(),
)
@settings(max_examples=100)
def test_hw_bodies_match_oracle(body, values, event_value):
    env = _environment(values, VAR_NAMES, event_value)
    assert_same_behaviour(list(body), env, True, 1_000_000)


@given(
    sw_bodies(),
    bindings,
    st.sets(st.sampled_from(VAR_NAMES)),
    st.one_of(st.none(), sw_values()),
    st.booleans(),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=200)
def test_errors_and_partial_effects_match_oracle(
    body, values, bound, event_value, with_shared, max_iterations
):
    """Unbound variables, a missing event value, no shared memory and
    loops over ``max_iterations``: same exception, same message, same
    side effects before it."""
    env = _environment(values, bound, event_value)
    assert_same_behaviour(list(body), env, with_shared, max_iterations)


def test_each_error_kind_is_reached():
    """The generated cases above are not all clean runs: each error the
    oracle raises is produced and matched at least once here."""
    from repro.cfsm.expr import Const, EventValue, Var
    from repro.cfsm.sgraph import Assign, Loop, SharedRead

    cases = {
        "variable 'a' is unbound": ([Assign("b", Var("a"))], {}, True, 10),
        "value of event 'IN' is not available in this transition": (
            [Assign("b", EventValue(EVENT_IN))], {}, True, 10),
        "shared read at node 2 without a shared memory": (
            [Assign("b", Const(1)), SharedRead("a", Const(0))], {}, False, 10),
        "loop at node 1 requested 5 iterations (max 4)": (
            [Loop(Const(5), [Assign("b", Const(1))])], {}, True, 4),
    }
    for message, (statements, env, with_shared, bound) in cases.items():
        graph = SGraph(statements, max_iterations=bound)
        outcome = _outcome(oracle_execute, graph, dict(env),
                           DictShared() if with_shared else None)
        assert outcome[0] == "raised" and message in outcome[2], outcome
        assert_same_behaviour(statements, env, with_shared, bound)


def _guarded_cfsm(guards):
    builder = CfsmBuilder("guarded")
    builder.input(EVENT_IN, has_value=True)
    builder.input("GO")
    for name in VAR_NAMES:
        builder.var(name, 0)
    for index, guard in enumerate(guards):
        builder.transition("t%d" % index, trigger=["GO"], guard=guard,
                           body=[])
    return builder.build()


@given(
    st.lists(sw_exprs(2), min_size=1, max_size=3),
    bindings,
    st.sets(st.sampled_from(VAR_NAMES)),
    st.one_of(st.none(), sw_values()),
)
@settings(max_examples=150)
def test_compiled_guards_match_oracle(guards, values, bound, event_value):
    cfsm = _guarded_cfsm(guards)
    state = {name: value for name, value in values.items() if name in bound}
    buffer = cfsm.make_buffer()
    buffer.deliver(Event("GO", time=0.0))
    if event_value is not None:
        buffer.deliver(Event(EVENT_IN, value=event_value, time=0.0))

    def outcome(select):
        try:
            chosen = select(cfsm, buffer, dict(state))
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return ("raised", type(exc), str(exc))
        return ("chose", None if chosen is None else chosen.name)

    assert outcome(lambda c, b, s: c.enabled_transition(b, s)) == outcome(
        oracle_enabled_transition
    )


def _deep_expression(depth, leaves):
    """A left- and right-leaning tree ``depth`` levels deep."""
    from repro.cfsm.expr import BinaryOp, UnaryOp

    ops = ("ADD", "SUB", "DIV", "XOR", "SHR", "LT")
    expression = leaves[0]
    for level in range(depth):
        leaf = leaves[(level + 1) % len(leaves)]
        if level % 3 == 0:
            expression = BinaryOp(ops[level % len(ops)], leaf, expression)
        elif level % 3 == 1:
            expression = BinaryOp(ops[level % len(ops)], expression, leaf)
        else:
            expression = UnaryOp("NEG", expression)
    return expression


def test_deep_nesting_matches_oracle():
    """Bodies nested past the compiler's helper-function and temporary
    thresholds (and past Python's own block and parser limits) run
    exactly like the oracle, errors included."""
    from repro.cfsm.expr import Const, EventValue, Var
    from repro.cfsm.sgraph import Assign, Emit, If, Loop, SharedRead, SharedWrite

    leaves = [Var("a"), Const(3), EventValue(EVENT_IN), Var("b"), Const(-7)]
    deep = _deep_expression(120, leaves)

    def nest(level):
        if level == 0:
            return [Assign("c", deep), SharedWrite(Var("c"), Var("a")),
                    Emit("OUT", Var("c"))]
        inner = nest(level - 1)
        if level % 2:
            return [Assign("a", Var("a") + Const(1)),
                    If(Var("a"), inner, [SharedRead("b", Const(level))])]
        return [Loop(Const(1), inner + [Assign("b", Var("b") + Const(1))])]

    statements = nest(40)
    env = {"a": 1, "b": 2, "c": 0, "@" + EVENT_IN: 5}
    assert assert_same_behaviour(statements, env, True, 10) == "trace"
    assert assert_same_behaviour(statements, env, False, 10) == "raised"
    # Two keys missing: the first read in left-to-right order names it.
    for missing in (("a",), ("b",), ("@" + EVENT_IN,), ("b", "@" + EVENT_IN)):
        partial = {k: v for k, v in env.items() if k not in missing}
        assert assert_same_behaviour(statements, partial, True, 10) == "raised"

    # A shallow left operand beside a right operand deep enough to be
    # computed ahead into temporaries still reads first.
    shallow_left = [Assign("d", Var("x") - _deep_expression(90, [Var("y"), Const(2)]))]
    for env in ({}, {"x": 1}, {"y": 1}, {"x": 1, "y": 1}):
        assert_same_behaviour(shallow_left, env, True, 10)


def test_loop_counts_from_variables_match_oracle():
    """The generated bodies loop a constant 0-4 times; counts read from
    variables can also be negative (zero iterations) or over the bound."""
    from repro.cfsm.expr import Const, Var
    from repro.cfsm.sgraph import Assign, Emit, If, Loop

    statements = [
        Loop(Var("n"), [Assign("a", Var("a") + Const(1)), Emit("OUT", Var("a"))]),
        Loop(Var("n") - Const(1), [If(Var("a"), [Assign("a", Var("a") - Const(1))])]),
    ]
    for n in (-3, -1, 0, 1, 2, 5, 6):
        assert_same_behaviour(statements, {"n": n, "a": 0}, True, 5)
