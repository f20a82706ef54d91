"""Deadlock detection and victim selection.

Section 4.3 notes that "the non-exclusive nature of the new Rc lock
does not introduce new kinds of deadlocks.  Thus, the deadlock
prevention, avoidance, detection or resolution schemes for standard
2-phase locking can be applied to our scheme as well."  We implement
the detection-and-victim approach: build the waits-for graph from the
manager, find cycles, abort the youngest transaction on the cycle.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.locks.manager import LockManager
from repro.txn.serializability import graph_cycle
from repro.txn.transaction import Transaction


def youngest_victim(cycle: Sequence[Transaction]) -> Transaction:
    """Abort the most recently started transaction (least work lost)."""
    return max(cycle, key=lambda t: t.start_order)


class DeadlockDetector:
    """Cycle detection over a lock manager's waits-for graph."""

    def __init__(self, manager: LockManager) -> None:
        self.manager = manager
        #: Cycles found so far, exposed for tests/benchmarks.
        self.detected: list[tuple[str, ...]] = []

    def build_graph(self) -> dict[Transaction, set[Transaction]]:
        """Materialize the waits-for graph from the manager."""
        graph: dict[Transaction, set[Transaction]] = defaultdict(set)
        for waiter, holder in self.manager.waits_for_edges():
            if waiter is not holder:
                graph[waiter].add(holder)
        return dict(graph)

    def find_cycle(self) -> list[Transaction] | None:
        """Return one waits-for cycle (as a transaction list), or None."""
        cycle = graph_cycle(self.build_graph(), key=lambda t: t.txn_id)
        return None if cycle is None else list(cycle[:-1])

    def choose_victim(self) -> Transaction | None:
        """Detect one cycle, record it in :attr:`detected`, and pick
        (but do not abort) its youngest transaction.

        Returns ``None`` when the graph is acyclic.  The caller — the
        executing scheme — performs the abort so rollback and lock
        release happen through the normal abort path.
        """
        cycle = self.find_cycle()
        if cycle is None:
            return None
        self.detected.append(tuple(t.txn_id for t in cycle))
        return youngest_victim(cycle)
