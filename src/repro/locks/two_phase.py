"""Standard strict two-phase locking (Section 4.2, Figure 4.1).

Protocol per production firing:

1. acquire **read** locks for every object referenced during condition
   evaluation ("condition evaluation does not require write locks");
2. if the condition is false, release everything and stop;
3. otherwise execute the RHS, acquiring additional read and write
   locks as needed;
4. hold *all* locks until the RHS completes (commits); a commit event
   triggers the match mechanism;
5. release everything.

Theorem 2 proves this semantically consistent.  Its "serious
performance drawback" — condition read locks block writers for the
whole (potentially long) action — is exactly what the Rc scheme fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import repro.obs as obs_module
from repro.locks.manager import GrantOutcome, LockManager
from repro.locks.modes import LockMode
from repro.locks.request import LockRequest
from repro.txn.schedule import History
from repro.txn.transaction import DataObject, Transaction


@dataclass
class CommitOutcome:
    """Result of a scheme-level commit.

    ``victims`` lists transactions the scheme force-aborted as part of
    this commit — always empty for 2PL, possibly non-empty for the Rc
    scheme (rule (ii) of Section 4.3).
    """

    committed: bool
    victims: list[Transaction] = field(default_factory=list)


class TwoPhaseScheme:
    """Strict 2PL over a :class:`LockManager` with ``R``/``W`` modes."""

    name = "2pl"
    #: Mode used while evaluating the LHS.
    condition_mode = LockMode.R
    #: Modes used while executing the RHS.
    action_read_mode = LockMode.R
    action_write_mode = LockMode.W

    def __init__(
        self,
        history: History | None = None,
        audit: bool = True,
        observer=None,
        *,
        stripes: int = 1,
        stripe_fn=None,
    ) -> None:
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self.manager = LockManager(
            history=history, audit=audit, observer=self.obs,
            stripes=stripes, stripe_fn=stripe_fn,
        )

    # -- acquisition entry points --------------------------------------------------------

    def lock_condition(
        self, txn: Transaction, obj: DataObject, blocking: bool = False
    ) -> LockRequest:
        """Read lock for condition evaluation."""
        return self.manager.acquire(
            txn, obj, self.condition_mode, blocking=blocking
        )

    def try_lock_condition(self, txn: Transaction, obj: DataObject) -> bool:
        return self.manager.try_acquire(txn, obj, self.condition_mode)

    def lock_action(
        self,
        txn: Transaction,
        reads: Iterable[DataObject] = (),
        writes: Iterable[DataObject] = (),
        blocking: bool = False,
    ) -> list[LockRequest]:
        """Acquire the RHS read/write locks.

        Objects are requested in sorted order, the textbook static
        deadlock-avoidance aid; the detector still covers dynamic
        interleavings in the threaded engine.
        """
        requests: list[LockRequest] = []
        todo = sorted(
            [(obj, self.action_read_mode) for obj in reads]
            + [(obj, self.action_write_mode) for obj in writes],
            key=lambda pair: (repr(pair[0]), str(pair[1])),
        )
        for obj, mode in todo:
            requests.append(
                self.manager.acquire(txn, obj, mode, blocking=blocking)
            )
        return requests

    def try_lock_action(
        self,
        txn: Transaction,
        reads: Iterable[DataObject] = (),
        writes: Iterable[DataObject] = (),
    ) -> bool:
        """All-or-nothing non-blocking action lock acquisition.

        On any failure, locks acquired by this call are NOT rolled back
        (the caller owns abort policy); returns False so the caller can
        abort or retry.

        Already-held modes are detected by the manager's
        ``try_acquire_held`` instead of being redundantly re-granted.
        """
        try_acquire_held = self.manager.try_acquire_held
        for objects, mode in (
            (reads, self.action_read_mode),
            (writes, self.action_write_mode),
        ):
            for obj in sorted(objects, key=repr):
                if try_acquire_held(txn, obj, mode) is GrantOutcome.DENIED:
                    return False
        return True

    # -- lifecycle ---------------------------------------------------------------------------

    def commit(self, txn: Transaction) -> CommitOutcome:
        """Commit: mark the transaction and release everything."""
        txn.commit()
        if self.manager.history is not None:
            self.manager.history.commit(txn.txn_id)
        self.manager.release_all(txn)
        if self.obs.enabled:
            self.obs.txn_committed(txn.txn_id, self.name)
        return CommitOutcome(committed=True)

    def abort(self, txn: Transaction, reason: str = "") -> None:
        """Abort: mark the transaction and release everything."""
        txn.abort(reason)
        if self.manager.history is not None:
            self.manager.history.abort(txn.txn_id)
        self.manager.release_all(txn)
        if self.obs.enabled:
            self.obs.txn_aborted(txn.txn_id, self.name, reason)

    def release_condition_locks(self, txn: Transaction) -> None:
        """Release after a false condition (step 2 of Figure 4.1)."""
        self.manager.release_all(txn)


class ConservativeTwoPhaseScheme(TwoPhaseScheme):
    """Conservative (static/preclaiming) 2PL — deadlock *avoidance*.

    Section 4.3 notes that standard 2PL's "prevention, avoidance,
    detection or resolution schemes" all apply.  Conservative 2PL is
    the classical avoidance discipline: a transaction atomically
    acquires **every** lock it will ever need — condition reads *and*
    action writes — before doing any work.  No lock is ever requested
    while holding another, so the waits-for graph has no edges out of
    lock-holders and deadlock is impossible.

    The price is parallelism: write locks are held across the whole
    condition-evaluation phase too, which is even more conservative
    than Figure 4.1 — the lock-level benchmark quantifies the ordering
    ``c2pl ≤ 2pl ≤ rc`` in attainable concurrency.

    The class only changes the *discipline marker* (``preclaims``);
    the executing engine/simulator is responsible for requesting the
    full footprint up front, all-or-nothing via
    :meth:`try_preclaim`.
    """

    name = "c2pl"
    #: Engines/simulators check this to preclaim the full footprint.
    preclaims = True

    def try_preclaim(
        self,
        txn: Transaction,
        reads: Iterable[DataObject] = (),
        writes: Iterable[DataObject] = (),
    ) -> bool:
        """Atomically acquire the whole footprint, or nothing.

        Returns False — with every partial grant rolled back — when any
        lock is unavailable, so the caller can retry later without
        holding anything (the property that guarantees no deadlock).
        """
        acquired_any = False
        ok = True
        for obj in sorted(reads, key=repr):
            if self.manager.try_acquire(txn, obj, LockMode.R):
                acquired_any = True
            else:
                ok = False
                break
        if ok:
            for obj in sorted(writes, key=repr):
                if self.manager.try_acquire(txn, obj, LockMode.W):
                    acquired_any = True
                else:
                    ok = False
                    break
        if not ok and acquired_any:
            self.manager.release_all(txn)
        return ok
