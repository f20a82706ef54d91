"""Histories: interleaved sequences of transactional operations.

A :class:`History` is the standard concurrency-control object of study
([PAPA86], which the paper cites for serializability): a sequence of
read/write/commit/abort operations tagged with their transaction.  The
lock managers append to a shared history as they grant operations, and
:func:`history_of` rebuilds one from a certified commit sequence; the
serializability checker consumes it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import NotSerializable
from repro.txn.transaction import DataObject

#: Operation kinds.
READ = "r"
WRITE = "w"
COMMIT = "c"
ABORT = "a"

_KINDS = (READ, WRITE, COMMIT, ABORT)


@dataclass(frozen=True)
class Operation:
    """One step of a history.

    ``obj`` is ``None`` for commit/abort operations.
    """

    txn_id: str
    kind: str
    obj: DataObject | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown operation kind {self.kind!r}; expected {_KINDS}"
            )
        if self.kind in (READ, WRITE) and self.obj is None:
            raise ValueError(f"{self.kind!r} operation requires an object")

    def __str__(self) -> str:
        if self.kind in (COMMIT, ABORT):
            return f"{self.kind}[{self.txn_id}]"
        return f"{self.kind}[{self.txn_id},{self.obj!r}]"


class History:
    """An append-only, thread-safe operation sequence."""

    def __init__(self, operations: Iterable[Operation] = ()) -> None:
        self._operations: list[Operation] = list(operations)
        self._mutex = threading.Lock()

    # -- recording -------------------------------------------------------------------

    def append(self, operation: Operation) -> None:
        with self._mutex:
            self._operations.append(operation)

    def read(self, txn_id: str, obj: DataObject) -> None:
        """Record a read."""
        self.append(Operation(txn_id, READ, obj))

    def write(self, txn_id: str, obj: DataObject) -> None:
        """Record a write."""
        self.append(Operation(txn_id, WRITE, obj))

    def commit(self, txn_id: str) -> None:
        """Record a commit."""
        self.append(Operation(txn_id, COMMIT))

    def abort(self, txn_id: str) -> None:
        """Record an abort."""
        self.append(Operation(txn_id, ABORT))

    # -- views -------------------------------------------------------------------------

    def operations(self) -> tuple[Operation, ...]:
        with self._mutex:
            return tuple(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations())

    def __len__(self) -> int:
        with self._mutex:
            return len(self._operations)

    def transactions(self) -> tuple[str, ...]:
        """Transaction ids in order of first appearance."""
        seen: dict[str, None] = {}
        for op in self.operations():
            seen.setdefault(op.txn_id, None)
        return tuple(seen)

    def committed(self) -> frozenset[str]:
        """Ids of transactions with a commit operation."""
        return frozenset(
            op.txn_id for op in self.operations() if op.kind == COMMIT
        )

    def aborted(self) -> frozenset[str]:
        """Ids of transactions with an abort operation."""
        return frozenset(
            op.txn_id for op in self.operations() if op.kind == ABORT
        )

    def committed_projection(self) -> "History":
        """The history restricted to committed transactions.

        Serializability is judged on the committed projection: aborted
        transactions' effects were rolled back, so they are outside the
        equivalence claim (exactly how Section 4.3 treats Rc aborts).
        """
        committed = self.committed()
        return History(
            op for op in self.operations() if op.txn_id in committed
        )

    def commit_order(self) -> tuple[str, ...]:
        """Transaction ids in commit order.

        This is the paper's "commit sequence ...p_i p_j p_k...": the
        string the semantic-consistency condition constrains.
        """
        return tuple(
            op.txn_id for op in self.operations() if op.kind == COMMIT
        )

    def __str__(self) -> str:
        return " ".join(str(op) for op in self.operations())


class Certifier:
    """Online check that commit order is a serial order.

    Definition 3.2 constrains the *commit sequence*: it must be a
    single-thread execution.  That holds iff no firing commits after a
    firing that overwrote something it read — every other conflicting
    pair is ordered by the one-at-a-time commit itself.  So the
    certifier keeps, per object, the number of the last commit that
    wrote it, and each firing brings the commit count at which it took
    its reads.  Constant work per object of a footprint, and a raise at
    the offending commit (:meth:`check`, before the firing's changes
    are made durable; :meth:`commit` after).  It keeps no log: the
    commit sequence itself is one, and :func:`history_of` turns it into
    a :class:`History`.
    """

    __slots__ = ("commits", "_written")

    def __init__(self) -> None:
        #: Commits certified so far.
        self.commits = 0
        #: object -> (commit number, name) of its last writer.
        self._written: dict[DataObject, tuple[int, str]] = {}

    def check(
        self, name: str, read_at: int, reads: Iterable[DataObject]
    ) -> None:
        """May ``name``, whose reads were taken when :attr:`commits`
        was ``read_at``, commit now?  Raises
        :class:`~repro.errors.NotSerializable`, naming both firings and
        the object, when a later commit wrote one of ``reads``."""
        written = self._written
        for obj in reads:
            last = written.get(obj)
            if last is not None and last[0] > read_at:
                raise NotSerializable(
                    f"{name} read {obj!r} before commit {last[0]} "
                    f"({last[1]}) wrote it, and commits after it"
                )

    def commit(self, name: str, writes: Iterable[DataObject]) -> None:
        """Count one checked commit of ``name``, which wrote ``writes``."""
        self.commits = number = self.commits + 1
        entry = (number, name)
        for obj in writes:
            self._written[obj] = entry


def history_of(commits: Sequence) -> History:
    """A certified commit sequence as a history: each firing's reads
    after the ``read_at`` commits before them, its writes and commit
    where it committed — the operations a lock manager would have
    recorded for the committed firings, in an order it could have
    recorded them.  Reads each commit's ``txn_id``, ``read_at``,
    ``reads`` and ``writes``."""
    by_read = sorted(commits, key=lambda commit: commit.read_at)
    operations: list[Operation] = []
    taken = 0
    for number, commit in enumerate(commits):
        while taken < len(by_read) and by_read[taken].read_at <= number:
            reader, taken = by_read[taken], taken + 1
            txn_id = reader.txn_id
            operations += (Operation(txn_id, READ, o) for o in reader.reads)
        txn_id = commit.txn_id
        operations += (Operation(txn_id, WRITE, o) for o in commit.writes)
        operations.append(Operation(txn_id, COMMIT))
    return History(operations)
