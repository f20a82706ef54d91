"""Conflict-serializability over histories ([PAPA86]).

Two operations *conflict* when they belong to different transactions,
touch the same data object, and at least one is a write — the exact
criterion the paper reuses for interference (footnote 4: the
interference criteria "are identical to detecting conflicting database
operations [PAPA 86]").

A history is conflict-serializable iff its precedence graph is acyclic;
:func:`serialization_orders` enumerates the equivalent serial orders
(topological sorts), which the semantic-consistency tests intersect
with ``ES_single``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from repro.txn.schedule import History, Operation, READ, WRITE

Node = TypeVar("Node", bound=Hashable)


def conflicts(first: Operation, second: Operation) -> bool:
    """True when the two operations conflict (same object, ≥1 write)."""
    if first.txn_id == second.txn_id:
        return False
    if first.kind not in (READ, WRITE) or second.kind not in (READ, WRITE):
        return False
    if first.obj != second.obj:
        return False
    return first.kind == WRITE or second.kind == WRITE


def precedence_graph(
    history: History, committed_only: bool = True
) -> dict[str, set[str]]:
    """Build the precedence (serialization) graph of ``history``.

    Edge ``a -> b`` when some operation of ``a`` conflicts with and
    precedes some operation of ``b``.  By default only committed
    transactions participate (the committed projection).

    Operations on different objects never conflict, so the history is
    walked once with, per object, the transactions that have read and
    written it so far: a read follows every earlier writer, a write
    every earlier reader and writer.
    """
    source = history.committed_projection() if committed_only else history
    graph: dict[str, set[str]] = {
        txn_id: set() for txn_id in source.transactions()
    }
    readers: dict[object, set[str]] = defaultdict(set)
    writers: dict[object, set[str]] = defaultdict(set)
    for op in source.operations():
        if op.kind == READ:
            earlier = writers[op.obj]
            readers[op.obj].add(op.txn_id)
        elif op.kind == WRITE:
            earlier = writers[op.obj] | readers[op.obj]
            writers[op.obj].add(op.txn_id)
        else:
            continue
        for txn_id in earlier:
            if txn_id != op.txn_id:
                graph[txn_id].add(op.txn_id)
    return graph


def graph_cycle(
    graph: Mapping[Node, Iterable[Node]],
    key: Callable[[Node], object] | None = None,
) -> tuple[Node, ...] | None:
    """One cycle of a directed graph, closed (its first node repeated
    at the end), or ``None`` when the graph is acyclic.

    ``graph`` maps a node to its successors; a successor need not be a
    key.  Depth-first from the roots through the successors, both
    sorted by ``key``, on an explicit stack: a serial history of *n*
    transactions is a path *n* deep.  The precedence graph, the lock
    manager's waits-for graph and the lock simulator's all use it.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for root in sorted(graph, key=key):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [iter(sorted(graph[root], key=key))]
        while path:
            for successor in pending[-1]:
                state = color.get(successor, WHITE)
                if state == GRAY:
                    start = path.index(successor)
                    return tuple(path[start:] + [successor])
                if state == WHITE:
                    color[successor] = GRAY
                    path.append(successor)
                    pending.append(
                        iter(sorted(graph.get(successor, ()), key=key))
                    )
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def is_conflict_serializable(
    history: History, committed_only: bool = True
) -> bool:
    """True when the (committed projection of the) history is
    conflict-serializable."""
    return graph_cycle(precedence_graph(history, committed_only)) is None


def find_cycle(
    history: History, committed_only: bool = True
) -> tuple[str, ...] | None:
    """The first precedence-graph cycle found, or ``None``."""
    return graph_cycle(precedence_graph(history, committed_only))


def serialization_orders(
    history: History, limit: int = 1000
) -> list[tuple[str, ...]]:
    """Enumerate serial orders conflict-equivalent to ``history``.

    Returns all topological sorts of the precedence graph of the
    committed projection, up to ``limit`` (guarding against the n!
    blow-up of a conflict-free history).  Empty when the history is not
    serializable.
    """
    graph = precedence_graph(history, committed_only=True)
    if graph_cycle(graph) is not None:
        return []
    indegree: dict[str, int] = {node: 0 for node in graph}
    for successors in graph.values():
        for successor in successors:
            indegree[successor] += 1
    orders: list[tuple[str, ...]] = []

    def backtrack(prefix: list[str]) -> None:
        if len(orders) >= limit:
            return
        if len(prefix) == len(graph):
            orders.append(tuple(prefix))
            return
        for node in sorted(graph):
            if node in prefix or indegree[node] != 0:
                continue
            for successor in graph[node]:
                indegree[successor] -= 1
            prefix.append(node)
            backtrack(prefix)
            prefix.pop()
            for successor in graph[node]:
                indegree[successor] += 1

    backtrack([])
    return orders


def equivalent_to_commit_order(history: History) -> bool:
    """True when the commit order itself is an equivalent serial order.

    Strict two-phase disciplines (all locks held to commit, as in both
    of the paper's schemes — Figures 4.1 and 4.2) guarantee this
    stronger property: the commit sequence *is* a serialization order,
    which is what lets Theorem 2 map commit sequences onto execution-
    graph paths directly.
    """
    graph = precedence_graph(history, committed_only=True)
    order = history.commit_order()
    position = {txn: i for i, txn in enumerate(order)}
    for node, successors in graph.items():
        for successor in successors:
            if node not in position or successor not in position:
                continue
            if position[node] > position[successor]:
                return False
    return True
