"""The lock manager: one grant table with per-object mode counts.

Implements the machinery both schemes share (Section 4.2 introduces it:
"below is an example of such a scheme, using a centralized lock
manager"): a grant table, FIFO wait queues with a no-barging policy,
lock upgrades, release-time queue processing, optional history
recording for the serializability checker, and a runtime *auditor*
asserting that no two incompatible locks are ever simultaneously held —
the safety invariant the property tests lean on.

The manager is deliberately scheme-agnostic: it enforces whatever
:func:`repro.locks.modes.compatible` says.  The 2PL discipline and the
Rc/Ra/Wa commit-time abort rule live in :mod:`repro.locks.two_phase`
and :mod:`repro.locks.rc_scheme`.

The table
---------
One table guarded by one mutex: Section 4.2's centralized lock
manager.  The mutex is what lets the threaded wave executor share the
manager between threads, and it makes every whole-table read
(``waits_for_edges``, ``grant_table``, ``stats_snapshot``...) a
consistent cut, which keeps the deadlock detector and the auditor
sound.

Each locked object has one entry: the holder map (transaction -> held
modes), a count of holders per mode, and its FIFO queue.  A grant is
decided from the counts — "is any mode that blocks the requested one
held by somebody else?" — so it costs a few dictionary probes however
many transactions hold the object, which is what lets Section 4.3 hand
an ``Rc`` lock to every candidate of a wave.  The blocker sets are
derived once, at import, from ``compatible()``: Table 4.1 stays the
single source of the rules.

The auditor never trusts the counts.  On every grant it compares the
new (transaction, mode) with every other holder in the holder map —
by induction the same invariant as re-checking all pairs, at O(holders)
instead of O(holders²) — and :meth:`LockManager.audit_now` still sweeps
every pair of every object and recounts the modes.

``tests/locks/reference_manager.py`` keeps a count-free table (every
decision a walk over the holders through ``compatible()``) as the model
the hypothesis schedule test compares this one against.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from typing import Callable, Iterable, Iterator

import repro.obs as obs_module
from repro.errors import LockError, TransactionError
from repro.locks.modes import LockMode, compatible, is_upgrade
from repro.locks.request import LockRequest, RequestStatus
from repro.txn.schedule import History
from repro.txn.transaction import DataObject, Transaction


def _compatible_or_none(requested: LockMode, held: LockMode) -> bool | None:
    """``compatible()``, with ``None`` where the two modes belong to
    different schemes (``compatible`` raises there, deliberately)."""
    try:
        return compatible(requested, held)
    except KeyError:
        return None


#: requested mode -> the modes that refuse it while another transaction
#: holds them: ``compatible`` is false, or undefined (see ``_MIXED``).
_BLOCKERS: dict[LockMode, frozenset[LockMode]] = {
    requested: frozenset(
        held for held in LockMode
        if not _compatible_or_none(requested, held)
    )
    for requested in LockMode
}
#: (requested, held) pairs from different schemes.  They never meet in
#: one manager; a request that would make them meet raises ``KeyError``
#: as ``compatible`` would.
_MIXED: frozenset[tuple[LockMode, LockMode]] = frozenset(
    (requested, held)
    for requested in LockMode
    for held in LockMode
    if _compatible_or_none(requested, held) is None
)
#: mode -> the modes two *different* transactions may never hold
#: together with it, whichever was granted first.  What the per-grant
#: auditor checks; empty for ``Rc`` (``Ra`` joins it and a ``Wa`` may
#: be granted over it — the deliberate conflict of Section 4.3).
_CLASHES: dict[LockMode, frozenset[LockMode]] = {
    mode: frozenset(
        other for other in LockMode
        if _compatible_or_none(mode, other) is False
        and _compatible_or_none(other, mode) is False
    )
    for mode in LockMode
}
#: requested mode -> the held modes it strictly strengthens.
_UPGRADES_FROM: dict[LockMode, frozenset[LockMode]] = {
    requested: frozenset(
        held for held in LockMode if is_upgrade(held, requested)
    )
    for requested in LockMode
}
_READ_MODES = frozenset(mode for mode in LockMode if mode.is_read)


class GrantOutcome(enum.Enum):
    """Result of :meth:`LockManager.try_acquire_held`."""

    #: The transaction already held the mode; nothing was acquired.
    HELD = "held"
    #: The mode was granted by this call.
    GRANTED = "granted"
    #: The mode is unavailable; nothing was acquired or queued.
    DENIED = "denied"


class _Entry:
    """One locked object's row of the table.

    ``counts[mode]`` is the number of transactions in ``holders`` whose
    mode set contains ``mode`` (absent, never zero).  An entry exists
    only while it has a holder or a queued request.
    """

    __slots__ = ("holders", "counts", "queue")

    def __init__(self) -> None:
        self.holders: dict[Transaction, set[LockMode]] = {}
        self.counts: dict[LockMode, int] = {}
        #: FIFO; resolved requests may linger until the next queue pass.
        self.queue: list[LockRequest] = []


def _blocked(entry: _Entry, txn: Transaction, mode: LockMode) -> bool:
    """The grant rule (classic no-barging), from the counts.

    * ``mode`` is refused while a mode that blocks it is held by a
      transaction other than ``txn``;
    * a transaction already holding the object is *upgrading*: it is
      checked only against the other holders and bypasses the queue
      (prevents self-deadlock);
    * anyone else also waits behind an incompatible request queued
      ahead of it.
    """
    blockers = _BLOCKERS[mode]
    own = entry.holders.get(txn)
    counts = entry.counts
    for blocker in blockers:
        holding = counts.get(blocker)
        if holding and (holding > 1 or own is None or blocker not in own):
            if (mode, blocker) in _MIXED:
                raise KeyError(mode)
            return True
    if own is None:
        for ahead in entry.queue:
            if (
                ahead.is_waiting
                and ahead.txn is not txn
                and ahead.mode in blockers
            ):
                return True
    return False


def _uncount(counts: dict[LockMode, int], modes: Iterable[LockMode]) -> None:
    """One holder of each of ``modes`` is gone."""
    for mode in modes:
        left = counts[mode] - 1
        if left:
            counts[mode] = left
        else:
            del counts[mode]


def _check_audit_pairs(obj: DataObject, holders: dict) -> None:
    """Raise :class:`LockError` when two held modes are incompatible
    (every pair of holders, through ``compatible()``)."""
    pairs = [(t, m) for t, modes in holders.items() for m in modes]
    for i, (txn_a, mode_a) in enumerate(pairs):
        for txn_b, mode_b in pairs[i + 1:]:
            if txn_a is txn_b:
                continue
            if not compatible(mode_a, mode_b) and not compatible(
                mode_b, mode_a
            ):
                raise LockError(
                    f"compatibility invariant violated on {obj!r}: "
                    f"{txn_a.txn_id}:{mode_a} with {txn_b.txn_id}:{mode_b}"
                )


class LockManager:
    """Grant table + wait queues for any set of lock modes.

    Parameters
    ----------
    history:
        Optional :class:`~repro.txn.schedule.History`; when given,
        every grant is recorded as a read (``R``/``Rc``/``Ra``) or
        write (``W``/``Wa``) operation, feeding the serializability
        checker.
    audit:
        When true (the default), every grant checks the new lock
        against every other holder of the object and raises
        :class:`LockError` on an incompatible pair.
    observer:
        Observability sink for lock events (grant/wait/deny/cancel)
        and metrics; defaults to the module-level observer from
        :mod:`repro.obs` (inert unless enabled).
    """

    def __init__(
        self,
        history: History | None = None,
        audit: bool = True,
        observer=None,
    ) -> None:
        self.history = history
        self.audit = audit
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        #: Guards every field below.
        self._mutex = threading.Lock()
        self._entries: dict[DataObject, _Entry] = {}
        #: txn -> objects it holds grants on — makes release_all
        #: O(held) instead of O(table).
        self._held: dict[Transaction, set[DataObject]] = {}
        #: txn -> its waiting requests — makes commit/abort-time
        #: cancellation O(waiting) instead of a scan over every queue.
        self._pending: dict[Transaction, set[LockRequest]] = {}
        self._grants_n = 0
        self._waits_n = 0
        self._denials_n = 0
        self._upgrades_n = 0
        self._queue_visits = 0

    # -- queries ---------------------------------------------------------------------

    def holders(
        self, obj: DataObject, mode: LockMode | None = None
    ) -> list[Transaction]:
        """Transactions holding a lock on ``obj`` (optionally filtered
        to one mode)."""
        with self._mutex:
            entry = self._entries.get(obj)
            if entry is None:
                return []
            if mode is None:
                return list(entry.holders)
            return [t for t, modes in entry.holders.items() if mode in modes]

    def held_modes(self, txn: Transaction, obj: DataObject) -> set[LockMode]:
        """Modes ``txn`` currently holds on ``obj``."""
        with self._mutex:
            entry = self._entries.get(obj)
            if entry is None:
                return set()
            return set(entry.holders.get(txn, ()))

    def holds(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> bool:
        """True when ``txn`` holds ``mode`` on ``obj``."""
        return mode in self.held_modes(txn, obj)

    def locked_objects(self, txn: Transaction) -> frozenset[DataObject]:
        """Objects on which ``txn`` holds at least one lock."""
        with self._mutex:
            return frozenset(self._held.get(txn, ()))

    def waiting_requests(self, obj: DataObject | None = None) -> list[LockRequest]:
        """Waiting requests, globally or for one object (FIFO order)."""
        with self._mutex:
            if obj is None:
                entries = self._entries.values()
            else:
                entry = self._entries.get(obj)
                entries = [] if entry is None else [entry]
            return [r for e in entries for r in e.queue if r.is_waiting]

    def waits_for_edges(self) -> Iterator[tuple[Transaction, Transaction]]:
        """Edges ``waiter -> holder`` of the waits-for graph.

        A waiter waits for every transaction holding an incompatible
        lock on the requested object, and for incompatible waiters
        queued ahead of it (they will be granted first under FIFO).
        One consistent cut of the whole table.
        """
        edges: list[tuple[Transaction, Transaction]] = []
        with self._mutex:
            for entry in self._entries.values():
                waiting = [r for r in entry.queue if r.is_waiting]
                for position, request in enumerate(waiting):
                    blockers = _BLOCKERS[request.mode]
                    for holder, modes in entry.holders.items():
                        if (
                            holder is not request.txn
                            and not blockers.isdisjoint(modes)
                        ):
                            edges.append((request.txn, holder))
                    for ahead in waiting[:position]:
                        if (
                            ahead.txn is not request.txn
                            and ahead.mode in blockers
                        ):
                            edges.append((request.txn, ahead.txn))
        return iter(edges)

    def write_read_conflicts(
        self,
        txn: Transaction,
        write_mode: LockMode,
        read_mode: LockMode,
        candidates: Iterable[DataObject] | None = None,
    ) -> dict[Transaction, list[DataObject]]:
        """Holders of ``read_mode`` on objects where ``txn`` holds
        ``write_mode``, in one consistent pass.

        The commit-time rule (ii) scan.  ``candidates`` narrows the
        scan to a superset of the objects ``txn`` may hold
        ``write_mode`` on (e.g. its write set); objects where it
        doesn't actually hold the mode are filtered here, so a stale
        superset is safe.
        """
        victims: dict[Transaction, list[DataObject]] = {}
        with self._mutex:
            if candidates is None:
                candidates = self._held.get(txn, ())
            for obj in candidates:
                entry = self._entries.get(obj)
                if entry is None:
                    continue
                own = entry.holders.get(txn)
                if own is None or write_mode not in own:
                    continue
                if entry.counts.get(read_mode, 0) == (read_mode in own):
                    continue  # nobody else holds read_mode
                for holder, modes in entry.holders.items():
                    if holder is not txn and read_mode in modes:
                        victims.setdefault(holder, []).append(obj)
        return victims

    def can_grant(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> bool:
        """Would a request for ``mode`` on ``obj`` be granted right now?

        Pure probe: no state changes, no queueing.  Used by the
        discrete-event simulator for all-or-nothing acquisition.
        """
        with self._mutex:
            entry = self._entries.get(obj)
            return entry is None or not _blocked(entry, txn, mode)

    # -- acquisition --------------------------------------------------------------------

    def _grant(
        self,
        entry: _Entry | None,
        txn: Transaction,
        obj: DataObject,
        mode: LockMode,
        enqueued_at: float | None = None,
    ) -> None:
        """Record a grant and its side effects; the caller holds the
        mutex and has already applied the grant rule."""
        if entry is None:
            entry = self._entries[obj] = _Entry()
        holders = entry.holders
        own = holders.get(txn)
        if own is None:
            holders[txn] = {mode}
            entry.counts[mode] = entry.counts.get(mode, 0) + 1
            held = self._held.get(txn)
            if held is None:
                self._held[txn] = {obj}
            else:
                held.add(obj)
        else:
            if not _UPGRADES_FROM[mode].isdisjoint(own):
                self._upgrades_n += 1
            if mode not in own:
                own.add(mode)
                entry.counts[mode] = entry.counts.get(mode, 0) + 1
        self._grants_n += 1
        if self.obs.enabled:
            waited = (
                self.obs.clock() - enqueued_at
                if enqueued_at is not None
                else 0.0
            )
            self.obs.lock_granted(
                txn.txn_id, obj, str(mode), waited=waited,
                queued=enqueued_at is not None,
            )
        if mode in _READ_MODES:
            txn.record_read(obj)
            if self.history is not None:
                self.history.read(txn.txn_id, obj)
        else:
            txn.record_write(obj)
            if self.history is not None:
                self.history.write(txn.txn_id, obj)
        if self.audit:
            # Incremental: the holders were pairwise compatible before
            # this grant, so only pairs with the new lock can be wrong.
            # Walks the holder map; the counts decided the grant and
            # are exactly what is being checked.
            clashes = _CLASHES[mode]
            if clashes:
                for holder, modes in holders.items():
                    if holder is not txn and not clashes.isdisjoint(modes):
                        raise LockError(
                            f"compatibility invariant violated on {obj!r}: "
                            f"{txn.txn_id}:{mode} with {holder.txn_id}:"
                            f"{'/'.join(sorted(map(str, modes)))}"
                        )

    def acquire(
        self,
        txn: Transaction,
        obj: DataObject,
        mode: LockMode,
        blocking: bool = False,
        timeout: float | None = None,
        on_block: Callable[[LockRequest], None] | None = None,
    ) -> LockRequest:
        """Request ``mode`` on ``obj`` for ``txn``; queue if refused.

        The grant rule is :func:`_blocked`'s.  When ``blocking`` is
        true the call waits until granted, denied or ``timeout``;
        ``on_block`` (if given) runs once after the request is queued —
        the deadlock detector hooks in there.  A blocking request whose
        timeout expires is cancelled and counts as a denial in
        :meth:`stats_snapshot`.
        """
        request = LockRequest(txn, obj, mode)
        with self._mutex:
            entry = self._entries.get(obj)
            if entry is None or not _blocked(entry, txn, mode):
                self._grant(entry, txn, obj, mode)
                request.resolve(RequestStatus.GRANTED)
                return request
            entry.queue.append(request)
            self._pending.setdefault(txn, set()).add(request)
            self._waits_n += 1
            if self.obs.enabled:
                request.enqueued_at = self.obs.clock()
                self.obs.lock_queued(
                    txn.txn_id, obj, str(mode), depth=len(entry.queue),
                )
        if on_block is not None:
            on_block(request)
        if blocking:
            status = request.wait(timeout)
            if status is RequestStatus.WAITING:
                self.cancel(request)
                if request.status is RequestStatus.CANCELLED:
                    # The wait timed out (nobody granted concurrently):
                    # the caller was refused the lock, which is a
                    # denial for accounting purposes.
                    with self._mutex:
                        self._denials_n += 1
                    if self.obs.enabled:
                        self.obs.lock_denied(
                            txn.txn_id, obj, str(mode), reason="timeout"
                        )
        return request

    def try_acquire(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> bool:
        """Non-queuing attempt: grant now or report False untouched.

        The hottest call in the system (one per candidate per object
        per wave): no request object, no allocation on a refusal.
        """
        with self._mutex:
            entry = self._entries.get(obj)
            if entry is not None and _blocked(entry, txn, mode):
                self._denials_n += 1
                if self.obs.enabled:
                    self.obs.lock_denied(
                        txn.txn_id, obj, str(mode), reason="busy"
                    )
                return False
            self._grant(entry, txn, obj, mode)
            return True

    def try_acquire_held(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> GrantOutcome:
        """Held-check and non-queuing grant in one call.

        Equivalent to ``holds(...) or try_acquire(...)`` with the
        already-held case distinguished, so scheme-level all-or-nothing
        acquisition can tell "not ours to undo" from "newly acquired".
        """
        entry = self._entries.get(obj)
        if entry is not None:
            own = entry.holders.get(txn)
            # Sound without the mutex: only txn's own thread (or its
            # aborter, which cannot race a live call) grants or
            # releases txn's modes, and CPython dict/set reads are
            # atomic under the GIL.
            if own is not None and mode in own:
                return GrantOutcome.HELD
        if self.try_acquire(txn, obj, mode):
            return GrantOutcome.GRANTED
        return GrantOutcome.DENIED

    # -- release ---------------------------------------------------------------------------

    def release(
        self, txn: Transaction, obj: DataObject, mode: LockMode | None = None
    ) -> None:
        """Release one mode (or all modes) ``txn`` holds on ``obj``."""
        with self._mutex:
            entry = self._entries.get(obj)
            own = entry.holders.get(txn) if entry is not None else None
            if own is None:
                return
            if mode is None:
                _uncount(entry.counts, own)
                own.clear()
            elif mode in own:
                _uncount(entry.counts, (mode,))
                own.remove(mode)
            if not own:
                del entry.holders[txn]
                held = self._held[txn]
                held.discard(obj)
                if not held:
                    del self._held[txn]
            self._process_queue(obj, entry)

    def release_all(self, txn: Transaction) -> None:
        """Release every lock ``txn`` holds and cancel its waiting
        requests (commit/abort epilogue — both schemes hold all locks
        to the end, Figures 4.1/4.2) in O(held + waiting).

        The transaction is looked up in the held/pending indexes
        *under the mutex*.  The indexes, not the transaction's
        read/write sets, are the authoritative record of what to
        release: a rule-(ii) force abort can land between a grant's
        bookkeeping and ``record_read``, leaving a granted object
        outside the read set, and a deadlock victim's waiting request
        can be granted by a concurrent release while this runs.  Only
        queues the transaction held or waited on are processed.
        """
        cancelled: list[LockRequest] = []
        with self._mutex:
            held = self._held.pop(txn, None)
            pending = self._pending.pop(txn, None)
            entries = self._entries
            wake: dict[DataObject, _Entry] = {}
            for obj in held or ():
                entry = entries[obj]
                _uncount(entry.counts, entry.holders.pop(txn))
                if entry.queue:
                    wake[obj] = entry
                elif not entry.holders:
                    del entries[obj]
            for request in pending or ():
                if request.is_waiting:
                    request.resolve(RequestStatus.CANCELLED)
                    cancelled.append(request)
                entry = entries.get(request.obj)
                if entry is not None:
                    if request in entry.queue:
                        entry.queue.remove(request)
                    wake[request.obj] = entry
            for obj, entry in wake.items():
                self._process_queue(obj, entry)
        if self.obs.enabled:
            for request in cancelled:
                self.obs.lock_cancelled(
                    txn.txn_id, request.obj, str(request.mode)
                )

    def cancel(self, request: LockRequest) -> None:
        """Withdraw a waiting request (timeout or deadlock victim)."""
        with self._mutex:
            self._forget_pending(request)
            if request.is_waiting:
                request.resolve(RequestStatus.CANCELLED)
                if self.obs.enabled:
                    self.obs.lock_cancelled(
                        request.txn.txn_id, request.obj, str(request.mode)
                    )
            entry = self._entries.get(request.obj)
            if entry is not None:
                if request in entry.queue:
                    entry.queue.remove(request)
                self._process_queue(request.obj, entry)

    def _forget_pending(self, request: LockRequest) -> None:
        """``request`` no longer waits: drop it from the pending index;
        the caller holds the mutex."""
        pending = self._pending.get(request.txn)
        if pending is not None:
            pending.discard(request)
            if not pending:
                del self._pending[request.txn]

    def _process_queue(self, obj: DataObject, entry: _Entry) -> None:
        """Grant ``obj``'s queued requests in FIFO order while the
        grant rule allows, then drop the entry if nothing holds or
        waits on it; the caller holds the mutex."""
        self._queue_visits += 1
        queue = entry.queue
        if queue:
            # No barging: while a request is probed the entry's queue
            # holds only the still-waiting requests ahead of it.
            ahead = entry.queue = []
            for request in queue:
                if not request.is_waiting:
                    continue
                if _blocked(entry, request.txn, request.mode):
                    ahead.append(request)
                    continue
                status = RequestStatus.GRANTED
                try:
                    self._grant(
                        entry, request.txn, obj, request.mode,
                        request.enqueued_at,
                    )
                except TransactionError:
                    # The waiter was aborted from outside while queued
                    # (a rule-(ii) or deadlock victim): that must not
                    # raise in whoever is releasing.  Wake it refused;
                    # its own release_all drops the unrecorded grant.
                    status = RequestStatus.CANCELLED
                self._forget_pending(request)
                request.resolve(status)
        if not entry.holders and not entry.queue:
            del self._entries[obj]

    # -- diagnostics ----------------------------------------------------------------------------

    def grant_table(self) -> dict[DataObject, dict[str, tuple[str, ...]]]:
        """A printable snapshot of the grant table."""
        with self._mutex:
            return {
                obj: {
                    txn.txn_id: tuple(sorted(map(str, modes)))
                    for txn, modes in entry.holders.items()
                }
                for obj, entry in self._entries.items()
                if entry.holders
            }

    def stats_snapshot(self) -> dict[str, int]:
        """The grant/wait/denial/upgrade totals — a consistent cut."""
        with self._mutex:
            return {
                "grants": self._grants_n,
                "waits": self._waits_n,
                "denials": self._denials_n,
                "upgrades": self._upgrades_n,
            }

    @property
    def queue_visits(self) -> int:
        """Queue-processing passes performed — the regression counter
        for the commit cost (see :meth:`release_all`)."""
        return self._queue_visits

    def audit_now(self) -> None:
        """Verify the whole table: every pair of holders of every
        object against ``compatible()``, and every mode count against
        a recount of the holder map.

        Raises :class:`LockError` on violation; used by tests as a
        post-run safety sweep (the per-grant auditor covers the
        incremental case).
        """
        with self._mutex:
            for obj, entry in self._entries.items():
                _check_audit_pairs(obj, entry.holders)
                recount = Counter(
                    mode
                    for modes in entry.holders.values()
                    for mode in modes
                )
                if recount != entry.counts:
                    raise LockError(
                        f"mode counts out of step on {obj!r}: "
                        f"{entry.counts} for holders {dict(recount)}"
                    )
