"""Deadlock detection and victim selection.

Section 4.3 notes that "the non-exclusive nature of the new Rc lock
does not introduce new kinds of deadlocks.  Thus, the deadlock
prevention, avoidance, detection or resolution schemes for standard
2-phase locking can be applied to our scheme as well."  We implement
the detection-and-victim approach: build the waits-for graph from the
manager, find cycles, abort a victim chosen by a pluggable policy.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.locks.manager import LockManager
from repro.txn.serializability import graph_cycle
from repro.txn.transaction import Transaction

#: Given the transactions on a cycle, pick the one to abort.
VictimPolicy = Callable[[Sequence[Transaction]], Transaction]


def youngest_victim(cycle: Sequence[Transaction]) -> Transaction:
    """Abort the most recently started transaction (least work lost)."""
    return max(cycle, key=lambda t: t.start_order)


def oldest_victim(cycle: Sequence[Transaction]) -> Transaction:
    """Abort the oldest transaction (wound-wait flavored)."""
    return min(cycle, key=lambda t: t.start_order)


def make_most_locks_victim(manager: LockManager) -> VictimPolicy:
    """Abort the transaction holding the most locks (frees the most)."""

    def policy(cycle: Sequence[Transaction]) -> Transaction:
        return max(
            cycle,
            key=lambda t: (len(manager.locked_objects(t)), t.start_order),
        )

    return policy


def make_fewest_locks_victim(manager: LockManager) -> VictimPolicy:
    """Abort the transaction holding the fewest locks (least work redone).

    Ties break toward the youngest transaction, so the policy is total
    and deterministic.
    """

    def policy(cycle: Sequence[Transaction]) -> Transaction:
        return min(
            cycle,
            key=lambda t: (len(manager.locked_objects(t)), -t.start_order),
        )

    return policy


#: Alias kept for the public API listing in ``repro.locks``.
most_locks_victim = make_most_locks_victim


def resolve_victim_policy(
    name: "str | VictimPolicy", manager: LockManager
) -> VictimPolicy:
    """Victim policy by name (``youngest`` / ``oldest`` /
    ``fewest-locks`` / ``most-locks``), or pass a policy through."""
    if callable(name):
        return name
    policies = {
        "youngest": lambda: youngest_victim,
        "oldest": lambda: oldest_victim,
        "fewest-locks": lambda: make_fewest_locks_victim(manager),
        "most-locks": lambda: make_most_locks_victim(manager),
    }
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(
            f"unknown victim policy {name!r}; "
            f"expected one of {sorted(policies)}"
        ) from None


class DeadlockDetector:
    """Cycle detection over a lock manager's waits-for graph."""

    def __init__(
        self,
        manager: LockManager,
        policy: VictimPolicy = youngest_victim,
    ) -> None:
        self.manager = manager
        self.policy = policy
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
        """Detect one cycle and pick (but do not abort) the victim.

        Returns ``None`` when the graph is acyclic.  The caller — the
        executing scheme — performs the abort so rollback and lock
        release happen through the normal abort path.
        """
        cycle = self.find_cycle()
        if cycle is None:
            return None
        self.detected.append(tuple(t.txn_id for t in cycle))
        return self.policy(cycle)
