"""Transactions: a production firing's unit of atomicity.

A :class:`Transaction` tracks the data objects read and written, the
locks held (as opaque tags owned by the lock manager), and its state.
The Rc/Ra/Wa scheme needs transactions to support *abort with rollback*
(a committing ``Wa`` holder forces conflicting ``Rc`` holders to
abort), which the engine implements by pairing each transaction with a
:class:`~repro.wm.undo.UndoLog`.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Any, Hashable

from repro.errors import TransactionError
from repro.wm.element import Record

#: A lockable data object (see :func:`repro.wm.element.data_object_key`).
DataObject = Hashable

_txn_counter = itertools.count(1)


class TxnState(enum.Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction(Record):
    """One production firing as a transaction.

    Parameters
    ----------
    txn_id:
        Unique identifier; auto-assigned when omitted.
    rule_name:
        The production being fired, for diagnostics and the semantic-
        consistency checker.
    """

    txn_id: str
    rule_name: str
    state: TxnState
    read_set: set[DataObject]
    write_set: set[DataObject]
    #: Monotonic start order; the deadlock victim is the youngest.
    start_order: int
    abort_reason: str

    def __init__(
        self,
        txn_id: str = "",
        rule_name: str = "",
        state: TxnState = TxnState.ACTIVE,
        read_set: set[DataObject] | None = None,
        write_set: set[DataObject] | None = None,
        start_order: int = 0,
        abort_reason: str = "",
    ) -> None:
        number = next(_txn_counter)
        self.txn_id = txn_id or f"t{number}"
        self.rule_name = rule_name
        self.state = state
        self.read_set = set() if read_set is None else read_set
        self.write_set = set() if write_set is None else write_set
        self.start_order = start_order or number
        self.abort_reason = abort_reason
        self._mutex = threading.Lock()
        # Transactions key every grant map and held-object index; the
        # id never changes after init, so hash once instead of
        # rehashing the string on each table operation.
        self._hash = hash(self.txn_id)

    # -- access tracking --------------------------------------------------------

    def record_read(self, obj: DataObject) -> None:
        """Record that ``obj`` was read."""
        self._require_active()
        self.read_set.add(obj)

    def record_write(self, obj: DataObject) -> None:
        """Record that ``obj`` was written."""
        self._require_active()
        self.write_set.add(obj)

    def footprint(self) -> frozenset[DataObject]:
        """All objects touched, read or write."""
        return frozenset(self.read_set | self.write_set)

    # -- lifecycle ------------------------------------------------------------------

    def commit(self) -> None:
        """Transition to COMMITTED; idempotent, illegal after abort."""
        with self._mutex:
            if self.state is TxnState.ABORTED:
                raise TransactionError(
                    f"{self.txn_id}: cannot commit an aborted transaction"
                )
            self.state = TxnState.COMMITTED

    def abort(self, reason: str = "") -> None:
        """Transition to ABORTED; idempotent, illegal after commit."""
        with self._mutex:
            if self.state is TxnState.COMMITTED:
                raise TransactionError(
                    f"{self.txn_id}: cannot abort a committed transaction"
                )
            self.state = TxnState.ABORTED
            if reason and not self.abort_reason:
                self.abort_reason = reason

    def try_abort(self, reason: str = "") -> bool:
        """Abort unless already committed; returns whether it aborted.

        This is the lock manager's entry point for rule (ii) of
        Section 4.3: the race between a committing Wa holder and the Rc
        holders it must kill is resolved under the transaction's mutex,
        so "commits first" is well-defined even in the threaded engine.
        """
        with self._mutex:
            if self.state is not TxnState.ACTIVE:
                return self.state is TxnState.ABORTED
            self.state = TxnState.ABORTED
            if reason:
                self.abort_reason = reason
            return True

    # -- predicates --------------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def is_committed(self) -> bool:
        return self.state is TxnState.COMMITTED

    @property
    def is_aborted(self) -> bool:
        return self.state is TxnState.ABORTED

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"{self.txn_id}: operation on {self.state.value} transaction"
            )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.txn_id == other.txn_id

    def __str__(self) -> str:
        rule = f"/{self.rule_name}" if self.rule_name else ""
        return f"{self.txn_id}{rule}({self.state.value})"


class CommitOutcome(Record):
    """Result of a scheme-level commit.

    ``victims`` lists transactions the scheme force-aborted as part of
    this commit — always empty for 2PL, possibly non-empty for the Rc
    scheme (rule (ii) of Section 4.3).
    """

    committed: bool
    victims: list[Transaction]

    def __init__(
        self, committed: bool, victims: list[Transaction] | None = None
    ) -> None:
        self.committed = committed
        self.victims = [] if victims is None else victims
