"""Reference model of the lock manager: the seed's centralized table.

This is the original single-table ``LockManager`` (Section 4.2's
"centralized lock manager", taken literally) moved out of ``src/``:
every grant decision walks the object's holders and queue through
:func:`repro.locks.modes.compatible`, and every grant re-audits all
pairs of holders.  It is slow on purpose and keeps no derived state —
no mode counts, no per-transaction indexes beyond ``_txn_objects``, no
stripes — so it is the oracle the hypothesis schedule test in
``test_striping.py`` compares ``repro.locks.LockManager`` against.

Single-threaded: the mutex, the observer hooks and the blocking wait of
the seed are gone (a schedule is a deterministic list of calls), and so
is its never-pruned table (entries are dropped when empty, so
``grant_table()`` compares directly).  The decisions are the seed's.
"""

from __future__ import annotations

from repro.errors import LockError
from repro.locks.modes import LockMode, compatible, is_upgrade
from repro.locks.request import LockRequest, RequestStatus
from repro.txn.transaction import DataObject, Transaction


class ReferenceLockManager:
    """Grant table + FIFO queues; decisions by walking, not counting."""

    def __init__(self) -> None:
        self._grants: dict[DataObject, dict[Transaction, set[LockMode]]] = {}
        self._queues: dict[DataObject, list[LockRequest]] = {}
        self.stats = {"grants": 0, "waits": 0, "denials": 0, "upgrades": 0}

    # -- the grant rule -----------------------------------------------------------------

    def can_grant(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> bool:
        grants = self._grants.get(obj, {})
        for holder, modes in grants.items():
            if holder is txn:
                continue
            if any(not compatible(mode, held) for held in modes):
                return False
        if txn not in grants:  # not an upgrade: no barging
            for ahead in self._queues.get(obj, []):
                if not ahead.is_waiting or ahead.txn is txn:
                    continue
                if not compatible(mode, ahead.mode):
                    return False
        return True

    def _try_grant(self, request: LockRequest) -> bool:
        obj, txn, mode = request.obj, request.txn, request.mode
        if not self.can_grant(txn, obj, mode):
            return False
        grants = self._grants.setdefault(obj, {})
        own = set(grants.get(txn, ()))
        grants.setdefault(txn, set()).add(mode)
        request.resolve(RequestStatus.GRANTED)
        self.stats["grants"] += 1
        if any(is_upgrade(held, mode) for held in own):
            self.stats["upgrades"] += 1
        if mode.is_read:
            txn.record_read(obj)
        else:
            txn.record_write(obj)
        self._audit_object(obj)
        return True

    # -- acquisition --------------------------------------------------------------------

    def acquire(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> LockRequest:
        request = LockRequest(txn, obj, mode)
        if not self._try_grant(request):
            self._queues.setdefault(obj, []).append(request)
            self.stats["waits"] += 1
        return request

    def try_acquire(
        self, txn: Transaction, obj: DataObject, mode: LockMode
    ) -> bool:
        request = LockRequest(txn, obj, mode)
        if self._try_grant(request):
            return True
        request.resolve(RequestStatus.DENIED)
        self.stats["denials"] += 1
        return False

    # -- release ------------------------------------------------------------------------

    def release(
        self, txn: Transaction, obj: DataObject, mode: LockMode | None = None
    ) -> None:
        grants = self._grants.get(obj)
        if not grants or txn not in grants:
            return
        if mode is None:
            del grants[txn]
        else:
            grants[txn].discard(mode)
            if not grants[txn]:
                del grants[txn]
        self._process_queue(obj)

    def release_all(self, txn: Transaction) -> None:
        for obj, grants in list(self._grants.items()):
            if grants.pop(txn, None) is not None:
                self._process_queue(obj)
        # The seed's epilogue: scan every queue for the transaction's
        # own waiting requests.
        for obj, queue in list(self._queues.items()):
            for request in [r for r in queue if r.txn is txn]:
                queue.remove(request)
                if request.is_waiting:
                    request.resolve(RequestStatus.CANCELLED)
            self._process_queue(obj)

    def cancel(self, request: LockRequest) -> None:
        queue = self._queues.get(request.obj, [])
        if request in queue:
            queue.remove(request)
        if request.is_waiting:
            request.resolve(RequestStatus.CANCELLED)
        self._process_queue(request.obj)

    def _process_queue(self, obj: DataObject) -> None:
        """Grant queued requests in FIFO order while compatible."""
        still_waiting: list[LockRequest] = []
        for request in self._queues.get(obj, []):
            if not request.is_waiting:
                continue
            # The queue view holds only the requests ahead of this one
            # while it is probed (no barging).
            self._queues[obj] = still_waiting
            if not self._try_grant(request):
                still_waiting.append(request)
        self._queues[obj] = still_waiting
        if not still_waiting:
            del self._queues[obj]
        if not self._grants.get(obj, True):
            del self._grants[obj]

    # -- diagnostics --------------------------------------------------------------------

    def waiting_requests(self) -> list[LockRequest]:
        return [
            r for queue in self._queues.values() for r in queue
            if r.is_waiting
        ]

    def grant_table(self) -> dict[DataObject, dict[str, tuple[str, ...]]]:
        return {
            obj: {
                txn.txn_id: tuple(sorted(map(str, modes)))
                for txn, modes in grants.items()
            }
            for obj, grants in self._grants.items()
            if grants
        }

    def stats_snapshot(self) -> dict[str, int]:
        return dict(self.stats)

    def _audit_object(self, obj: DataObject) -> None:
        """Every pair of holders, through ``compatible()``."""
        grants = self._grants.get(obj, {})
        pairs = [(t, m) for t, modes in grants.items() for m in modes]
        for i, (txn_a, mode_a) in enumerate(pairs):
            for txn_b, mode_b in pairs[i + 1:]:
                if txn_a is txn_b:
                    continue
                if not compatible(mode_a, mode_b) and not compatible(
                    mode_b, mode_a
                ):
                    raise LockError(
                        f"compatibility invariant violated on {obj!r}: "
                        f"{txn_a.txn_id}:{mode_a} with "
                        f"{txn_b.txn_id}:{mode_b}"
                    )
