"""Unit tests: s-graph statements, interpretation, and traces."""

import pytest

from repro.cfsm.actions import MacroOpKind
from repro.cfsm.expr import add, const, eq, event_value, gt, var
from repro.cfsm.sgraph import (
    SGraph,
    SGraphError,
    assign,
    clear_sgraph_cache,
    emit,
    if_,
    loop,
    shared_read,
    shared_write,
)


class DictShared:
    def __init__(self):
        self.words = {}

    def read(self, address):
        return self.words.get(address, 0)

    def write(self, address, value):
        self.words[address] = value


class TestNodeNumbering:
    def test_depth_first_ids(self):
        graph = SGraph([
            assign("a", const(1)),                   # node 1
            if_(gt(var("a"), const(0)), [            # node 2
                assign("b", const(2)),               # node 3
            ], [
                assign("b", const(3)),               # node 4
            ]),
            loop(const(2), [assign("c", const(4))]),  # nodes 5, 6
        ])
        ids = [node.node_id for node in graph.nodes()]
        assert ids == [1, 2, 3, 4, 5, 6]
        assert graph.node_count == 6


class TestExecution:
    def test_assign_and_macro_ops(self):
        graph = SGraph([assign("a", add(var("b"), const(1)))])
        env = {"a": 0, "b": 4}
        trace = graph.execute(env)
        assert env["a"] == 5
        assert trace.op_names == ["ADD", "AVV"]
        assert trace.var_updates == {"a": 5}

    def test_constant_assign_is_aivc(self):
        graph = SGraph([assign("a", const(9))])
        trace = graph.execute({"a": 0})
        assert trace.op_names == [MacroOpKind.AIVC]

    def test_branch_outcomes_recorded_in_path(self):
        graph = SGraph([
            if_(eq(var("a"), const(1)), [emit("T")], [emit("F")]),
        ])
        taken = graph.execute({"a": 1})
        untaken = graph.execute({"a": 0})
        assert taken.path != untaken.path
        assert taken.emitted == [("T", 0)]
        assert untaken.emitted == [("F", 0)]
        assert MacroOpKind.TIVART in taken.op_names
        assert MacroOpKind.TIVARF in untaken.op_names

    def test_loop_count_not_in_path(self):
        """The cache key ignores loop trip counts (Section 4.2)."""
        graph = SGraph([loop(var("n"), [assign("a", add(var("a"), const(1)))])])
        short = graph.execute({"n": 1, "a": 0})
        long = graph.execute({"n": 5, "a": 0})
        assert short.path == long.path
        assert short.loop_iterations == 1
        assert long.loop_iterations == 5

    def test_negative_loop_count_runs_zero_times(self):
        graph = SGraph([loop(var("n"), [assign("a", const(1))])])
        env = {"n": -3, "a": 0}
        graph.execute(env)
        assert env["a"] == 0

    def test_loop_bound_guard(self):
        graph = SGraph([loop(var("n"), [assign("a", const(1))])],
                       max_iterations=10)
        with pytest.raises(SGraphError):
            graph.execute({"n": 11, "a": 0})

    def test_event_value_reads_tagged_env(self):
        graph = SGraph([assign("a", event_value("E"))])
        env = {"a": 0, "@E": 42}
        trace = graph.execute(env)
        assert env["a"] == 42
        assert MacroOpKind.ADETECT in trace.op_names

    def test_memory_refs_order(self):
        graph = SGraph([assign("a", add(var("b"), var("c")))])
        trace = graph.execute({"a": 0, "b": 1, "c": 2})
        names = [(ref.name, ref.is_write) for ref in trace.memory_refs]
        assert names == [("b", False), ("c", False), ("a", True)]


class TestSharedMemory:
    def test_read_write_roundtrip(self):
        shared = DictShared()
        graph = SGraph([
            shared_write(const(4), const(77)),
            shared_read("a", const(4)),
        ])
        env = {"a": 0}
        trace = graph.execute(env, shared=shared)
        assert env["a"] == 77
        assert trace.shared_writes == [(4, 77)]
        assert trace.shared_reads == [(4, 77)]

    def test_shared_without_memory_raises(self):
        graph = SGraph([shared_read("a", const(0))])
        with pytest.raises(SGraphError):
            graph.execute({"a": 0})

    def test_uses_shared_memory_detection(self):
        assert SGraph([shared_write(const(0), const(1))]).uses_shared_memory()
        assert not SGraph([assign("a", const(1))]).uses_shared_memory()


class TestIntrospection:
    def test_variable_sets(self):
        graph = SGraph([
            assign("a", var("b")),
            shared_read("c", var("d")),
        ])
        assert graph.variables_read() == ["b", "d"]
        assert graph.variables_written() == ["a", "c"]

    def test_events_emitted(self):
        graph = SGraph([emit("X"), emit("Y", const(1))])
        assert graph.events_emitted() == ["X", "Y"]

    def test_event_values_read(self):
        graph = SGraph([assign("a", event_value("E"))])
        assert graph.event_values_read() == ["E"]


class TestReentrancy:
    def test_two_threads_running_one_graph_keep_their_own_memory(self):
        """``execute`` keeps no per-run state on the graph: two threads
        running one graph, each with its own shared memory, never see
        the other's memory nor lose their own."""
        import sys
        import threading

        class ThreadShared:
            def __init__(self, word):
                self.word = word

            def read(self, address):
                return self.word

            def write(self, address, value):
                pass

        graph = SGraph([
            assign("a", const(1)),
            shared_read("b", const(0)),
            assign("c", add(var("b"), const(0))),
            shared_read("d", const(1)),
        ])
        runs = 3000
        problems = {1: [], 2: []}

        def worker(word):
            shared = ThreadShared(word)
            for _ in range(runs):
                try:
                    trace = graph.execute({"a": 0}, shared=shared)
                except Exception as exc:  # noqa: BLE001 - recorded, then asserted
                    problems[word].append(repr(exc))
                    continue
                if trace.shared_reads != [(0, word), (1, word)]:
                    problems[word].append(trace.shared_reads)

        clear_sgraph_cache()  # both threads race to compile the body too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(word,))
                       for word in problems]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == {1: [], 2: []}


class TestCopies:
    def test_executed_graph_pickles_and_deep_copies(self):
        """The compiled function lives in the process-wide cache, not on
        the graph, so a graph that has run still copies as plain data."""
        import copy
        import pickle

        graph = SGraph([
            assign("a", add(var("a"), const(1))),
            if_(gt(var("a"), const(1)), [emit("BIG", var("a"))]),
        ])
        expected = graph.execute({"a": 1})
        for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert clone.execute({"a": 1}) == expected

    def test_bundled_network_pickles_after_a_run(self):
        import copy
        import pickle

        from repro.core import PowerCoEstimator
        from repro.systems import build_bundle

        bundle = build_bundle("fig1")
        PowerCoEstimator(bundle.network, bundle.config).estimate(
            bundle.stimuli(), strategy="macromodel")
        for clone in (pickle.loads(pickle.dumps(bundle.network)),
                      copy.deepcopy(bundle.network)):
            assert sorted(clone.cfsms) == sorted(bundle.network.cfsms)
