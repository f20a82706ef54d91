"""Table 4.1's grants decided from a deterministic wave's footprints.

:class:`~repro.engine.parallel.ParallelEngine` acts one firing at a
time, and a firing releases everything when it commits or settles, so
the only locks held across slots are the condition locks of the slots
that have not acted yet (and, under ``c2pl``, their preclaimed
writes).  Every grant is therefore a function of the footprints, and
no lock manager is needed to make it (``docs/architecture.md``,
"Grants from footprints").
"""

from __future__ import annotations

from repro.locks.modes import compatible
from repro.locks.two_phase import CommitOutcome
from repro.txn.transaction import Transaction

#: A footprint commit aborts nobody: admission put every reader first.
_NO_VICTIMS = CommitOutcome(committed=True)


class FootprintScheme:
    """A lock scheme whose table is the wave's footprints, for a driver
    that acts one firing at a time.

    It takes the calls :class:`~repro.engine.parallel.ParallelEngine`
    makes of ``scheme`` and keeps only what a refusal needs: a read
    count per object under 2PL and the preclaimed writes under
    ``c2pl``; under ``Rc`` nothing.
    :meth:`grant_table` shows what unsettled slots hold, and the scheme
    is its own ``manager``, so a teardown check finds a leaked entry.
    """

    def __init__(self, scheme: type, observer) -> None:
        self.name = scheme.name
        self.condition_mode = scheme.condition_mode
        self.action_write_mode = scheme.action_write_mode
        self.preclaims = getattr(scheme, "preclaims", False)
        #: Wa over Rc: a condition reader never refuses a writer.
        self.admits = compatible(self.action_write_mode, self.condition_mode)
        self.obs = observer
        self.manager = self
        #: object -> how many unsettled slots read it.
        self._reading: dict = {}
        #: The objects unsettled slots preclaimed for writing.
        self._preclaimed: set = set()
        #: slot -> (the objects it reads, the objects it preclaimed).
        self._holding: dict[Transaction, tuple[list, tuple]] = {}

    def try_lock_condition(self, txn: Transaction, obj) -> bool:
        """Never refused: no unsettled slot holds a write lock."""
        if not self.admits:
            reading = self._reading
            reading[obj] = reading.get(obj, 0) + 1
            held = self._holding.get(txn)
            if held is None:
                held = self._holding[txn] = ([], ())
            held[0].append(obj)
        if self.obs.enabled:
            self._granted(txn, (obj,), self.condition_mode)
        return True

    def try_lock_action(
        self, txn: Transaction, reads=(), writes=()
    ) -> bool:
        """Refused under 2PL when another unsettled slot reads an object
        ``txn`` writes.  (Its own read is the upgrade ``R -> W``.)"""
        if not self.admits:
            reading = self._reading
            own = self._holding.get(txn, ((),))[0]
            for obj in writes:
                count = reading.get(obj)
                if count and (count > 1 or obj not in own):
                    return self._refuse(txn, obj, self.action_write_mode)
        if self.obs.enabled:
            self._granted(txn, writes, self.action_write_mode)
        return True

    def try_preclaim(self, txn: Transaction, reads=(), writes=()) -> bool:
        """The whole footprint at once (``c2pl``), refused when it
        writes what an unsettled slot reads or preclaimed, or reads
        what one preclaimed."""
        reading, preclaimed = self._reading, self._preclaimed
        for obj in writes:
            if obj in preclaimed or obj in reading:
                return self._refuse(txn, obj, self.action_write_mode)
        for obj in reads:
            if obj in preclaimed:
                return self._refuse(txn, obj, self.condition_mode)
        preclaimed.update(writes)
        for obj in reads:
            reading[obj] = reading.get(obj, 0) + 1
        self._holding[txn] = (list(reads), tuple(writes))
        if self.obs.enabled:
            self._granted(txn, reads, self.condition_mode)
            self._granted(txn, writes, self.action_write_mode)
        return True

    def commit(self, txn: Transaction) -> CommitOutcome:
        txn.commit()
        self._release(txn)
        if self.obs.enabled:
            self.obs.txn_committed(txn.txn_id, self.name)
        return _NO_VICTIMS

    def abort(self, txn: Transaction, reason: str = "") -> None:
        if txn.is_active:
            txn.abort(reason)
        self._release(txn)
        if self.obs.enabled:
            self.obs.txn_aborted(txn.txn_id, self.name, reason)

    def grant_table(self) -> dict:
        """``{obj: {txn_id: modes}}`` held by unsettled slots, in
        :meth:`~repro.locks.manager.LockManager.grant_table`'s shape."""
        table: dict = {}
        for txn, (reads, writes) in self._holding.items():
            for objs, mode in ((reads, self.condition_mode),
                               (writes, self.action_write_mode)):
                for obj in objs:
                    held = table.setdefault(obj, {})
                    held[txn.txn_id] = held.get(txn.txn_id, ()) + (str(mode),)
        return table

    def waiting_requests(self) -> list:
        """Nothing ever waits for a footprint."""
        return []

    def _release(self, txn: Transaction) -> None:
        held = self._holding.pop(txn, None)
        if held is None:
            return
        reading = self._reading
        for obj in held[0]:
            count = reading[obj] - 1
            if count:
                reading[obj] = count
            else:
                del reading[obj]
        self._preclaimed.difference_update(held[1])

    def _granted(self, txn: Transaction, objects, mode) -> None:
        for obj in objects:
            self.obs.lock_granted(
                txn.txn_id, obj, str(mode), waited=0.0, queued=False
            )

    def _refuse(self, txn: Transaction, obj, mode) -> bool:
        if self.obs.enabled:
            self.obs.lock_denied(txn.txn_id, obj, str(mode), reason="busy")
        return False
