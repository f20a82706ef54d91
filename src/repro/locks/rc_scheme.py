"""The improved Rc/Ra/Wa locking scheme (Section 4.3, Figures 4.2-4.4).

The observation driving the scheme::

    (i)   LHS of a production must be executed before its RHS.
    (ii)  Data access in LHS is read only.
    (iii) Data access in RHS is read-write.

So condition-evaluation reads get their own mode, ``Rc``, which a
``Wa`` write lock is *allowed to bypass* (Table 4.1) — "the key to
enhanced parallelism".  Correctness is restored at commit time:

* rule (i): if the ``Rc`` holder P_j commits first, it commits
  untouched and the serial order is P_j P_i;
* rule (ii): if the ``Wa`` holder P_i commits first, "the lock manager
  finds all productions holding Rc lock on q and forces them to
  abort" — serial order P_i alone (P_j restarts from match).

The paper also offers an alternative to rule (ii): "reevaluate P_j's
condition to see if abort is necessary, at the expense of increased
overhead".  That is the ``revalidator`` hook; the ablation benchmark
``bench_abort_revalidation.py`` measures the trade.

Figure 4.4's circular conflict (P_i: Rc(q), Wa(r); P_j: Rc(r), Wa(q))
needs no special case: whichever commits first kills the other via
rule (ii), so exactly one survives — which the tests verify.
"""

from __future__ import annotations

from typing import Callable, Iterable

import repro.obs as obs_module
from repro.locks.manager import GrantOutcome, LockManager
from repro.locks.modes import SCHEME_MODES, LockMode
from repro.locks.request import LockRequest
from repro.locks.two_phase import ConservativeTwoPhaseScheme, TwoPhaseScheme
from repro.txn.schedule import History
from repro.txn.transaction import CommitOutcome, DataObject, Transaction

#: Decides whether an Rc holder's condition still holds after the
#: committing writer's update; ``True`` means "still valid, spare it".
Revalidator = Callable[[Transaction, DataObject], bool]


class RcScheme:
    """The Rc/Ra/Wa discipline over a :class:`LockManager`.

    Parameters
    ----------
    history:
        Optional operation history for the serializability checker.
    revalidator:
        When ``None`` (the default), rule (ii) aborts every conflicting
        ``Rc`` holder.  When provided, each conflicting holder is
        spared iff the callback returns True for every conflicting
        object — the paper's re-evaluation alternative.
    audit:
        Runtime compatibility auditing (see :class:`LockManager`).
    observer:
        Observability sink (rule-(ii) aborts, commits/aborts); shared
        with the underlying manager.  Defaults to the module-level
        observer from :mod:`repro.obs`.
    """

    name = "rc"
    condition_mode, action_write_mode, preclaims = SCHEME_MODES[name]
    action_read_mode = LockMode.RA

    def __init__(
        self,
        history: History | None = None,
        revalidator: Revalidator | None = None,
        audit: bool = True,
        observer=None,
    ) -> None:
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self.manager = LockManager(
            history=history, audit=audit, observer=self.obs
        )
        self.revalidator = revalidator
        #: Forced aborts performed by rule (ii), for benchmarks.
        self.forced_aborts = 0
        #: Rc holders spared by revalidation, for benchmarks.
        self.revalidated = 0

    # -- acquisition entry points ---------------------------------------------------------

    def lock_condition(
        self, txn: Transaction, obj: DataObject, blocking: bool = False
    ) -> LockRequest:
        """``Rc`` lock for condition evaluation.

        Granted "as long as no production has already placed a Wa lock
        on the same data item".
        """
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
        """Acquire the RHS ``Ra``/``Wa`` locks.

        "When a production begins executing its RHS, it first obtains
        the corresponding Ra and Wa locks" — all up front, which is
        also why a production whose match begins after this point can
        never slip into the conflict set unseen (Section 4.3).
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
        """Non-blocking all-or-nothing variant of :meth:`lock_action`.

        On any failure the ``Ra``/``Wa`` locks acquired *by this call*
        are released before returning False — condition-phase ``Rc``
        locks (and any modes held before the call) are untouched, so
        the caller can still retry or abort through the normal path.
        """
        todo = sorted(
            [(obj, self.action_read_mode) for obj in reads]
            + [(obj, self.action_write_mode) for obj in writes],
            key=lambda pair: (repr(pair[0]), str(pair[1])),
        )
        newly_acquired: list[tuple[DataObject, LockMode]] = []
        for obj, mode in todo:
            outcome = self.manager.try_acquire_held(txn, obj, mode)
            if outcome is GrantOutcome.HELD:
                continue  # held before this call: not ours to undo
            if outcome is GrantOutcome.GRANTED:
                newly_acquired.append((obj, mode))
                continue
            for held_obj, held_mode in newly_acquired:
                self.manager.release(txn, held_obj, held_mode)
            return False
        return True

    # -- commit-time rule ---------------------------------------------------------------------

    def conflicting_rc_holders(
        self, txn: Transaction
    ) -> dict[Transaction, list[DataObject]]:
        """Rc holders conflicting with ``txn``'s Wa locks, per rule (ii).

        Maps each would-be victim to the objects on which the conflict
        exists (a victim can conflict on several objects, Figure 4.4).
        """
        # The write set is a superset of the objects currently holding
        # Wa (every Wa grant records a write), so it narrows the scan
        # to those objects; the manager re-checks actual holds.
        return self.manager.write_read_conflicts(
            txn, LockMode.WA, LockMode.RC, candidates=txn.write_set
        )

    def commit(self, txn: Transaction) -> CommitOutcome:
        """Commit ``txn`` and apply rule (ii) to conflicting Rc holders.

        The returned :class:`CommitOutcome` carries the victims; the
        *caller* (the engine) rolls back their working-memory effects
        and releases their locks via :meth:`abort` — keeping rollback
        policy out of the lock layer.

        Uses :meth:`Transaction.try_abort`, so a victim that manages to
        commit concurrently (threaded engine) is spared: rule (i) says
        whoever reaches the commit point first wins.
        """
        victims: list[Transaction] = []
        for holder, objs in self.conflicting_rc_holders(txn).items():
            if self.revalidator is not None:
                still_valid = all(
                    self.revalidator(holder, obj) for obj in objs
                )
                if still_valid:
                    self.revalidated += 1
                    if self.obs.enabled:
                        self.obs.event(
                            "rc.revalidated", txn=holder.txn_id,
                            committer=txn.txn_id,
                        )
                    continue
            if holder.try_abort(
                f"Rc-Wa conflict with committing {txn.txn_id}"
            ):
                victims.append(holder)
                self.forced_aborts += 1
                if self.obs.enabled:
                    self.obs.event(
                        "rc.rule_ii_abort", txn=txn.txn_id,
                        victim=holder.txn_id,
                        objs=tuple(repr(obj) for obj in objs),
                    )
        txn.commit()
        if self.manager.history is not None:
            self.manager.history.commit(txn.txn_id)
        self.manager.release_all(txn)
        if self.obs.enabled:
            self.obs.event("txn.commit", txn=txn.txn_id, scheme=self.name)
        return CommitOutcome(committed=True, victims=victims)

    def abort(self, txn: Transaction, reason: str = "") -> None:
        """Abort ``txn`` (voluntary, deadlock victim, or rule (ii))."""
        if txn.is_active:
            txn.abort(reason)
        if self.manager.history is not None:
            self.manager.history.abort(txn.txn_id)
        self.manager.release_all(txn)
        if self.obs.enabled:
            self.obs.event("txn.abort", txn=txn.txn_id, reason=reason)

    def release_condition_locks(self, txn: Transaction) -> None:
        """Release after a false condition (Figure 4.2)."""
        self.manager.release_all(txn)


#: The lock schemes by name, in :data:`~repro.locks.modes.SCHEME_MODES`
#: order — the registry the threaded executor and the lock simulator
#: build a scheme from (and that the CLI's ``choices`` are pinned to).
SCHEMES: dict[str, type[TwoPhaseScheme] | type[RcScheme]] = {
    cls.name: cls
    for cls in (RcScheme, TwoPhaseScheme, ConservativeTwoPhaseScheme)
}
