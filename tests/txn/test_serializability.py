"""Tests for the conflict-serializability checker."""

import sys
import time

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.txn.schedule import History, Operation
from repro.txn.serializability import (
    conflicts,
    equivalent_to_commit_order,
    find_cycle,
    is_conflict_serializable,
    precedence_graph,
    serialization_orders,
)


def h(*ops):
    return History(ops)


def r(t, o):
    return Operation(t, "r", o)


def w(t, o):
    return Operation(t, "w", o)


def c(t):
    return Operation(t, "c")


class TestConflicts:
    def test_read_read_never_conflicts(self):
        assert not conflicts(r("t1", "q"), r("t2", "q"))

    def test_read_write_conflicts(self):
        assert conflicts(r("t1", "q"), w("t2", "q"))
        assert conflicts(w("t1", "q"), r("t2", "q"))

    def test_write_write_conflicts(self):
        assert conflicts(w("t1", "q"), w("t2", "q"))

    def test_same_transaction_never_conflicts(self):
        assert not conflicts(r("t1", "q"), w("t1", "q"))

    def test_different_objects_never_conflict(self):
        assert not conflicts(w("t1", "q"), w("t2", "p"))

    def test_commits_never_conflict(self):
        assert not conflicts(c("t1"), w("t2", "q"))


class TestPrecedenceGraph:
    def test_serial_history_is_serializable(self):
        history = h(r("t1", "q"), w("t1", "q"), c("t1"),
                    r("t2", "q"), w("t2", "q"), c("t2"))
        assert is_conflict_serializable(history)
        assert precedence_graph(history)["t1"] == {"t2"}

    def test_classic_nonserializable_interleaving(self):
        # r1(q) w2(q) c2 w1(q) c1: t1 -> t2 (rw) and t2 -> t1 (ww)
        history = h(r("t1", "q"), w("t2", "q"), c("t2"),
                    w("t1", "q"), c("t1"))
        assert not is_conflict_serializable(history)
        assert find_cycle(history) is not None

    def test_aborted_transactions_excluded_by_default(self):
        history = h(r("t1", "q"), w("t2", "q"), c("t2"),
                    w("t1", "q"), Operation("t1", "a"))
        assert is_conflict_serializable(history)
        assert not is_conflict_serializable(history, committed_only=False)

    def test_disjoint_transactions_fully_parallel(self):
        history = h(w("t1", "a"), w("t2", "b"), c("t1"), c("t2"))
        graph = precedence_graph(history)
        assert graph == {"t1": set(), "t2": set()}


class TestSerializationOrders:
    def test_orders_of_conflict_free_history(self):
        history = h(w("t1", "a"), w("t2", "b"), c("t1"), c("t2"))
        orders = serialization_orders(history)
        assert set(orders) == {("t1", "t2"), ("t2", "t1")}

    def test_orders_respect_edges(self):
        history = h(w("t1", "q"), c("t1"), r("t2", "q"), c("t2"))
        assert serialization_orders(history) == [("t1", "t2")]

    def test_nonserializable_has_no_orders(self):
        history = h(r("t1", "q"), w("t2", "q"), c("t2"),
                    w("t1", "q"), c("t1"))
        assert serialization_orders(history) == []

    def test_limit_respected(self):
        ops = []
        for i in range(6):
            ops.append(w(f"t{i}", f"obj{i}"))
            ops.append(c(f"t{i}"))
        orders = serialization_orders(h(*ops), limit=10)
        assert len(orders) == 10


class TestCommitOrderEquivalence:
    def test_strict_schedule_matches_commit_order(self):
        history = h(w("t1", "q"), c("t1"), r("t2", "q"), c("t2"))
        assert equivalent_to_commit_order(history)

    def test_violating_schedule_detected(self):
        # t1 reads q before t2 writes it, but t2 commits first:
        # precedence t1 -> t2 contradicts commit order (t2, t1).
        history = h(r("t1", "q"), w("t2", "q"), c("t2"), c("t1"))
        assert not equivalent_to_commit_order(history)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3"]),
            st.sampled_from(["r", "w"]),
            st.sampled_from(["x", "y"]),
        ),
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_serial_executions_always_serializable(steps):
    """Property: grouping each transaction's operations contiguously
    (a serial history) is always conflict-serializable."""
    history = History()
    for txn in ("t1", "t2", "t3"):
        for step_txn, kind, obj in steps:
            if step_txn == txn:
                (history.read if kind == "r" else history.write)(txn, obj)
        history.commit(txn)
    assert is_conflict_serializable(history)
    assert equivalent_to_commit_order(history)


def all_pairs_precedence_graph(history, committed_only=True):
    """The definition, as the oracle: compare every pair of operations
    with :func:`conflicts` (quadratic; the checker groups per object)."""
    source = history.committed_projection() if committed_only else history
    ops = source.operations()
    graph = {txn_id: set() for txn_id in source.transactions()}
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            if conflicts(earlier, later):
                graph[earlier.txn_id].add(later.txn_id)
    return graph


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3", "t4"]),
            st.sampled_from(["r", "w", "c", "a"]),
            st.sampled_from(["x", "y", "z"]),
        ),
        max_size=24,
    ),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_grouped_graph_equals_all_pairs_definition(steps, committed_only):
    history = History(
        Operation(txn, kind, obj if kind in "rw" else None)
        for txn, kind, obj in steps
    )
    graph = precedence_graph(history, committed_only)
    assert graph == all_pairs_precedence_graph(history, committed_only)
    assert list(graph) == list(
        all_pairs_precedence_graph(history, committed_only)
    )


class TestLongHistories:
    """Regression: the cycle search was recursive (``RecursionError``
    on a 2048-transaction engine history) and the graph compared every
    pair of operations (14.6 s for 16 309 of them)."""

    N = 5_000

    def chain(self):
        # t0 -> t1 -> ... : each transaction reads its predecessor's
        # object and writes its own, so the graph is one path N deep.
        history = History()
        for i in range(self.N):
            txn = f"t{i:05d}"
            if i:
                history.read(txn, f"obj{i - 1}")
            history.write(txn, f"obj{i}")
            history.commit(txn)
        return history

    def test_chain_checked_at_default_recursion_limit(self):
        assert sys.getrecursionlimit() < self.N
        history = self.chain()
        start = time.perf_counter()
        assert is_conflict_serializable(history)
        assert equivalent_to_commit_order(history)
        assert time.perf_counter() - start < 2.0

    def test_cycle_closing_a_long_chain_is_reported_in_path_order(self):
        # The last transaction reads obj0 before t0 writes it: the edge
        # last -> t0 closes the chain t0 -> ... -> last.
        last = f"t{self.N - 1:05d}"
        ops = [Operation(last, "r", "obj0"), *self.chain().operations()]
        cycle = find_cycle(History(ops))
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert len(cycle) == self.N + 1
