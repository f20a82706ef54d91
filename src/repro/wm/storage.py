"""Durable working memory: a segmented WAL + checkpoint storage subsystem.

The paper's opening motivation (Section 1): "expert system users are
asking for knowledge sharing and knowledge *persistence*, features
found currently in databases."  This module supplies the persistence
half as a small storage engine: a :class:`DurableStore` journals every
*unit* of working-memory change (:meth:`WorkingMemory.atomic`: one
production execution, one ``modify``, one bare mutation) as **one commit
record** of an append-only, *segmented* write-ahead log, periodically
checkpoints the full contents, compacts sealed segments, and recovers by
*checkpoint + log replay* — hardened so that a crash at any window lands
on exactly one admissible state: the database after some prefix of the
commit sequence, a node of the execution graph (Definition 3.1's states
are reached by whole production executions).

On-disk layout
--------------
``checkpoint.jsonl``
    A header line carrying the checkpoint's log sequence number (LSN),
    then one element per line (:func:`serialize_wme`).  Replaced
    atomically (tmp + rename + directory fsync).
``wal-<first-lsn 16 digits>.jsonl``
    One WAL segment per file, named by the first LSN it may contain so
    lexicographic filename order **is** LSN order.  Exactly one segment
    (the highest-named) is *active*; the rest are sealed and immutable.
    A record is one committed unit's *net* change, ``{"lsn": n, "rule":
    name|null, "remove": [timetag, ...], "add": [element, ...]}``,
    removes applying first; a removed element's body is already in the
    log or the checkpoint, so only its timetag is written.  A compacted
    range that nets to nothing leaves a ``{"lsn": n, "kind": "noop"}``
    marker, which advances the replay LSN without mutating state.
``wal.jsonl``, ``add`` / ``remove`` records
    The single-file log of the pre-segment format and the one-record-
    per-delta kinds are not read.  A directory holding either is
    refused with :class:`StorageError`, untouched: journalled data is
    never skipped silently.

Durability modes
----------------
Per record means per commit: one unit, one record, one ``flush``.

``"always"``
    ``flush`` + ``fsync`` after every record; directory fsync after
    every file creation, rename, and deletion.  Survives power loss up
    to the last acknowledged commit.
``"batch"``
    ``flush`` per record; ``fsync`` only when a segment is sealed, at
    checkpoint/compaction boundaries, and on close.  Survives process
    crash up to the last commit, power loss up to the last boundary.
``"none"``
    ``flush`` per record, no fsync ever.  For benchmarks and bulk
    loads.

Crash-safety invariants
-----------------------
* A unit is journalled whole or not at all, before its locks are
  released: the store folds the open unit's deltas into a net change
  (:func:`_fold`; a rolled-back firing folds to nothing) and appends it
  at the unit's commit point, which the engines place ahead of the lock
  scheme's commit — log order is commit order.  A unit left by an
  exception is abandoned: nothing of it reaches the log.
* A record is written *after* its fault site (``wal:commit``) and
  *after* the LSN is reserved, under the store mutex — LSNs are strictly
  increasing within a segment, and recovery asserts it.
* ``checkpoint()`` captures (elements, LSN) and seals the active
  segment between units, under the working memory's lock and then the
  store mutex (the commit path's order), so every record with ``lsn <=
  checkpoint_lsn`` lives in sealed segments and every later commit in
  the fresh active one: truncation deletes *only covered* segments.
* ``compact()`` merges the sealed segments past the checkpoint into one
  record by the same fold, carrying the range's maximum LSN.  The merge
  commits by renaming over the *first* merged segment, so old segments
  a crash leaves behind are fully *shadowed* (every LSN already
  replayed) and recovery skips, then deletes, them.
* Recovery applies whole records only, drops a torn final log line
  (that commit, whole), and only then deletes ``*.tmp`` leftovers and
  covered segments — a directory it refuses is left as found.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator

import repro.obs as obs_module
from repro.errors import StorageError, WorkingMemoryError
from repro.wm.element import WME, ensure_timetag_floor
from repro.wm.memory import WMDelta, WorkingMemory
from repro.wm.schema import Catalog

_CHECKPOINT = "checkpoint.jsonl"
_UNSUPPORTED_WAL = "wal.jsonl"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"
_TMP_SUFFIX = ".tmp"

#: Supported fsync disciplines, strongest first.
DURABILITY_MODES = ("always", "batch", "none")

#: Every ``storage_fail`` fault site the store exposes.  The chaos
#: sweep (:mod:`repro.fault.storage_chaos`) crashes at each one and
#: proves recovery lands on a commit-sequence prefix.
STORAGE_FAULT_SITES = (
    "wal:commit",
    "rotate:open",
    "checkpoint:tmp-write",
    "checkpoint:rename",
    "checkpoint:dirsync",
    "checkpoint:truncate",
    "compact:tmp-write",
    "compact:rename",
    "compact:truncate",
)


def serialize_wme(wme: WME) -> list:
    """JSON-safe flat form of a WME, timetag-preserving:
    ``[timetag, relation, name, value, ...]`` — the element shape of
    WAL records and checkpoint lines alike."""
    return [wme.timetag, wme.relation, *chain.from_iterable(wme.items)]


def deserialize_wme(payload: list) -> WME:
    """Rebuild a WME from :func:`serialize_wme` output."""
    try:
        timetag, relation, *flat = payload
        if len(flat) % 2:
            raise ValueError("attribute without a value")
        return WME(relation, tuple(zip(flat[::2], flat[1::2])), timetag)
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkingMemoryError(f"corrupt WME record: {payload!r}") from exc


def _fold(removes: dict, adds: dict, kind: str, timetag: int, body) -> None:
    """Fold one delta into a net change: ``removes`` and ``adds`` map
    timetag -> element body (``None`` where a remove's is not at hand).

    An add then a remove of one timetag cancel.  A remove then an add
    cancel only when the add restores the same body (an undo's re-add);
    otherwise both stay, and the remove applies first.
    """
    if kind == "remove":
        if adds.pop(timetag, None) is None:
            removes[timetag] = body
    elif timetag in removes and removes[timetag] == body:
        del removes[timetag]
    else:
        adds[timetag] = body


def _commit_line(lsn: int, rule: str | None, removes, adds: list) -> str:
    """One commit record — the only WAL record that mutates state."""
    return json.dumps(
        {"lsn": lsn, "rule": rule, "remove": list(removes), "add": adds}
    ) + "\n"


def _net_change(record: dict, source: str) -> tuple[Iterable, Iterable]:
    """``(timetags to remove, elements to add)`` of one WAL record: the
    one reader of the record shape, shared by recovery and compaction.
    """
    kind = record.get("kind")
    if kind is None:
        return record["remove"], record["add"]
    if kind == "noop":
        return (), ()
    raise StorageError(
        f"{source}: WAL record kind {kind!r} of the per-delta format is "
        "not supported; replaying only the commit records would skip it"
    )


def _segment_filename(first_lsn: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_lsn:016d}{_SEGMENT_SUFFIX}"


def _segment_first_lsn(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WorkingMemoryError(
            f"malformed WAL segment name: {path.name}"
        ) from exc


def _refuse_unsupported_wal(directory: Path) -> None:
    """Raise before anything in ``directory`` is read or changed when
    it holds a log this store would not replay."""
    path = directory / _UNSUPPORTED_WAL
    if path.exists():
        raise StorageError(
            f"{path}: single-file WAL of the pre-segment format is not "
            "supported; replaying only the segments would skip its "
            "records"
        )


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so entry creations/renames/unlinks are durable
    (best-effort: platforms without directory fds, e.g. Windows, skip)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class SegmentInfo:
    """Bookkeeping for one sealed (immutable) WAL segment."""

    path: Path
    first_lsn: int
    last_lsn: int
    records: int
    bytes: int


@dataclass
class RecoveryReport:
    """What :meth:`DurableStore.open` did, for inspection and benches."""

    elements: int = 0
    checkpoint_lsn: int = 0
    replayed: int = 0
    shadowed: int = 0
    segments: int = 0
    torn_lines: int = 0
    cleaned: list[str] = field(default_factory=list)
    seconds: float = 0.0


class DurableStore:
    """Attaches persistence to a :class:`WorkingMemory`.

    Usage::

        wm = WorkingMemory()
        store = DurableStore(wm, "plant-state")   # journals from now on
        ... mutate wm: one record per unit (wm.atomic) ...
        store.checkpoint()                         # snapshot + truncate
        store.compact()                            # shrink sealed WAL
        store.close()

        wm2, store2 = DurableStore.open("plant-state")   # recover

    Parameters
    ----------
    memory:
        The working memory to journal.
    directory:
        Storage directory (created if missing).
    fault_injector:
        Optional :class:`repro.fault.FaultInjector`; its
        ``storage_fail`` faults raise :class:`StorageFailure` at the
        sites in :data:`STORAGE_FAULT_SITES`, each *before* the
        corresponding filesystem effect, simulating a crash there.
    durability:
        One of :data:`DURABILITY_MODES` (default ``"always"``).
    segment_max_records / segment_max_bytes:
        Rotation thresholds for the active WAL segment.
    observer:
        Observability sink; defaults to the module-level observer.
    """

    def __init__(
        self,
        memory: WorkingMemory,
        directory: str | Path,
        fault_injector=None,
        *,
        durability: str = "always",
        segment_max_records: int = 10_000,
        segment_max_bytes: int = 1 << 20,
        observer=None,
    ) -> None:
        _refuse_unsupported_wal(Path(directory))
        self._init_runtime(
            memory,
            directory,
            fault_injector,
            durability=durability,
            segment_max_records=segment_max_records,
            segment_max_bytes=segment_max_bytes,
            observer=observer,
        )

    def _init_runtime(
        self,
        memory: WorkingMemory,
        directory: str | Path,
        fault_injector,
        *,
        durability: str = "always",
        segment_max_records: int = 10_000,
        segment_max_bytes: int = 1 << 20,
        observer=None,
        start_lsn: int = 0,
        checkpoint_lsn: int = 0,
        sealed: Iterable[SegmentInfo] = (),
    ) -> None:
        """Shared constructor body for ``__init__`` and :meth:`open`
        (which resumes at the recovered position)."""
        if durability not in DURABILITY_MODES:
            raise WorkingMemoryError(
                f"unknown durability mode {durability!r}; "
                f"expected one of {DURABILITY_MODES}"
            )
        if segment_max_records < 1 or segment_max_bytes < 1:
            raise WorkingMemoryError("segment thresholds must be >= 1")
        self.memory = memory
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fault = fault_injector
        self.durability = durability
        self.segment_max_records = segment_max_records
        self.segment_max_bytes = segment_max_bytes
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self._lsn = start_lsn
        self._checkpoint_lsn = checkpoint_lsn
        #: The open unit: its label and the net change folded so far
        #: (timetag -> element).  Guarded by the memory's lock.
        self._rule: str | None = None
        self._removes: dict[int, WME] = {}
        self._adds: dict[int, WME] = {}
        self._mutex = threading.Lock()
        self._maint_mutex = threading.Lock()  # serializes ckpt/compact
        self._sealed: list[SegmentInfo] = list(sealed)
        self.last_recovery: RecoveryReport | None = None
        self._open_active_segment()
        self.memory.subscribe(self._on_delta)
        self.memory.subscribe_units(self._on_unit_open, self._on_commit)
        self._attached = True

    # -- journalling -------------------------------------------------------------

    @property
    def lsn(self) -> int:
        """The last log sequence number written."""
        return self._lsn

    @property
    def active_segment_path(self) -> Path:
        """The segment file currently receiving records."""
        return self._segment_path

    def sealed_segments(self) -> list[SegmentInfo]:
        """Sealed (immutable) segments, oldest first."""
        with self._mutex:
            return list(self._sealed)

    def wal_bytes(self) -> int:
        """Total bytes across sealed segments plus the active one."""
        with self._mutex:
            return sum(s.bytes for s in self._sealed) + self._segment_bytes

    def _open_active_segment(self) -> None:
        """Open a fresh active segment named by the next LSN (with the
        mutex held, or before the store is shared)."""
        path = self.directory / _segment_filename(self._lsn + 1)
        #: The active segment's handle; None once the store is closed.
        self._wal: IO[str] | None = open(path, "a", encoding="utf-8")
        self._segment_path = path
        self._segment_records = 0
        self._segment_bytes = 0
        if self.durability == "always":
            _fsync_dir(self.directory)

    def _seal_active_segment(self) -> None:
        """Rotate: seal the active segment and open a successor.

        Called with the mutex held.  A segment with zero records is
        reused, not rotated.  The ``rotate:open`` fault site fires
        *before* any handle is touched, so an injected crash here
        leaves the active segment intact and writable.
        """
        if self._segment_records == 0:
            return
        if self.fault is not None:
            self.fault.storage_fault(site="rotate:open")
        self._wal.flush()
        if self.durability != "none":
            os.fsync(self._wal.fileno())
        self._wal.close()
        sealed = SegmentInfo(
            path=self._segment_path,
            first_lsn=_segment_first_lsn(self._segment_path),
            last_lsn=self._lsn,
            records=self._segment_records,
            bytes=self._segment_bytes,
        )
        self._sealed.append(sealed)
        self._open_active_segment()
        if self.obs.enabled:
            self.obs.segment_rotated(
                sealed.path.name, sealed.records, sealed.bytes
            )

    def _on_unit_open(self, rule: str | None) -> None:
        # Whatever an abandoned unit left folded is not this unit's.
        self._rule = rule
        self._removes.clear()
        self._adds.clear()

    def _on_delta(self, delta: WMDelta) -> None:
        wme = delta.wme
        _fold(self._removes, self._adds, delta.kind, wme.timetag, wme)

    def _on_commit(self) -> None:
        """Append the open unit's net change as one record; nothing
        when it nets to nothing (a rolled-back firing)."""
        removes, adds = self._removes, self._adds
        if not removes and not adds:
            return
        with self._mutex:
            if self._wal is None:
                raise WorkingMemoryError("durable store is closed")
            if (
                self._segment_records >= self.segment_max_records
                or self._segment_bytes >= self.segment_max_bytes
            ):
                self._seal_active_segment()
            if self.fault is not None:
                # Fails *before* the LSN advances or the record is
                # written: the WAL stays well-formed and the unit stays
                # open and folded — undone inside it, it nets to nothing.
                self.fault.storage_fault(site="wal:commit")
            lsn = self._lsn + 1
            line = _commit_line(
                lsn, self._rule, removes,
                [serialize_wme(wme) for wme in adds.values()],
            )
            self._wal.write(line)
            self._lsn = lsn
            self._segment_records += 1
            self._segment_bytes += len(line)
            self._wal.flush()
            if self.durability == "always":
                os.fsync(self._wal.fileno())
        removes.clear()
        adds.clear()

    @contextmanager
    def _between_units(self) -> Iterator[None]:
        """Hold the memory lock, then the store mutex — the commit
        path's order, so maintenance cannot deadlock with writers —
        on an open store with no unit open: a snapshot or a seal taken
        inside a unit would split it."""
        with self.memory.locked():
            if self.memory.in_unit:
                raise StorageError(
                    "checkpoint/compact inside an open atomic unit"
                )
            with self._mutex:
                if self._wal is None:
                    raise WorkingMemoryError("durable store is closed")
                yield

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a full snapshot and truncate covered WAL segments.

        Returns the number of elements checkpointed.  The capture
        (elements + LSN + sealing the active segment) is atomic between
        units, so anything journalled after it has ``lsn >
        checkpoint_lsn`` and lives in the new active segment, which is
        never truncated.  The snapshot itself is written outside the
        locks, so writers keep journalling while the checkpoint lands.
        """
        start = time.perf_counter()
        with self._maint_mutex:
            with self._between_units():
                elements = sorted(self.memory, key=lambda w: w.timetag)
                checkpoint_lsn = self._lsn
                self._seal_active_segment()
            self._write_snapshot(elements, checkpoint_lsn)
            dropped = self._truncate(checkpoint_lsn)
        if self.obs.enabled:
            self.obs.checkpoint_completed(
                len(elements), checkpoint_lsn, dropped,
                time.perf_counter() - start,
            )
        return len(elements)

    def _write_snapshot(
        self, elements: list[WME], checkpoint_lsn: int
    ) -> None:
        """Atomically replace the checkpoint file (tmp, rename, dir
        fsync), with a fault site before each filesystem effect."""
        header = json.dumps({"checkpoint_lsn": checkpoint_lsn}) + "\n"
        self._replace(
            self.directory / _CHECKPOINT,
            chain(
                [header],
                (json.dumps(serialize_wme(w)) + "\n" for w in elements),
            ),
            "checkpoint:tmp-write",
            "checkpoint:rename",
        )
        self._checkpoint_lsn = checkpoint_lsn
        # Without this directory fsync a crash can resurrect the *old*
        # checkpoint after the WAL was truncated — the lost-update
        # window the recovery chaos sweep aims at.
        if self.fault is not None:
            self.fault.storage_fault(site="checkpoint:dirsync")
        self._sync_dir()

    def _replace(
        self, target: Path, lines: Iterable[str], write_site: str,
        rename_site: str,
    ) -> None:
        """Replace ``target`` by ``lines`` atomically (tmp + fsync +
        rename), with a fault site before each filesystem effect."""
        temp_path = Path(str(target) + _TMP_SUFFIX)
        if self.fault is not None:
            self.fault.storage_fault(site=write_site)
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
            handle.flush()
            if self.durability != "none":
                os.fsync(handle.fileno())
        if self.fault is not None:
            self.fault.storage_fault(site=rename_site)
        os.replace(temp_path, target)

    def _sync_dir(self) -> None:
        """Make entry creations, renames and unlinks durable."""
        if self.durability != "none":
            _fsync_dir(self.directory)

    def _truncate(self, checkpoint_lsn: int) -> int:
        """Delete the sealed segments whose *last* LSN is ``<=
        checkpoint_lsn``; returns how many.  The active segment
        (post-capture commits) is untouched."""
        if self.fault is not None:
            self.fault.storage_fault(site="checkpoint:truncate")
        with self._mutex:
            covered = [
                s for s in self._sealed if s.last_lsn <= checkpoint_lsn
            ]
            self._sealed = [
                s for s in self._sealed if s.last_lsn > checkpoint_lsn
            ]
        for segment in covered:
            segment.path.unlink(missing_ok=True)
        if covered:
            self._sync_dir()
        return len(covered)

    # -- compaction --------------------------------------------------------------

    def compact(self) -> dict:
        """Merge the sealed segments into one record: their net change.

        Background-free: the caller decides when; cost is proportional
        to the sealed WAL.  The records are folded exactly as an open
        unit's deltas are (:func:`_fold`): an add and the later remove
        of the same timetag cancel when **both** lie in the merged
        range; a change whose partner is outside it (in the checkpoint
        or the active segment) is kept.  Segments the checkpoint covers
        (an interrupted truncation left them) stay out: folded in,
        their changes would replay over the snapshot.

        The merged record carries the range's maximum LSN (a ``noop``
        marker does when the range nets to nothing), so the old
        segments a crash strands are shadowed.  Returns a summary dict
        (records/bytes before and after, segments merged, deltas
        cancelled).
        """
        start = time.perf_counter()
        with self._maint_mutex:
            with self._between_units():
                self._seal_active_segment()
                sealed = [
                    s for s in self._sealed
                    if s.last_lsn > self._checkpoint_lsn
                ]
            if not sealed:
                return dict.fromkeys(
                    ("segments_merged", "records_before", "records_after",
                     "bytes_before", "bytes_after", "dropped"), 0,
                )
            records = deltas = 0
            removes: dict[int, None] = {}
            adds: dict[int, list] = {}
            for segment in sealed:
                for record in _read_segment(segment.path):
                    records += 1
                    remove, add = _net_change(record, segment.path.name)
                    deltas += len(remove) + len(add)
                    for timetag in remove:
                        _fold(removes, adds, "remove", timetag, None)
                    for element in add:
                        _fold(removes, adds, "add", element[0], element)
            max_covered = sealed[-1].last_lsn
            if removes or adds:
                line = _commit_line(
                    max_covered, None, removes, list(adds.values())
                )
            else:
                line = json.dumps({"lsn": max_covered, "kind": "noop"}) + "\n"

            first = sealed[0]
            self._replace(
                first.path, [line], "compact:tmp-write", "compact:rename"
            )
            self._sync_dir()
            merged = SegmentInfo(
                path=first.path,
                first_lsn=first.first_lsn,
                last_lsn=max_covered,
                records=1,
                bytes=len(line),
            )
            with self._mutex:
                self._sealed = [
                    merged if s is first else s
                    for s in self._sealed
                    if s is first or s not in sealed
                ]
            if self.fault is not None:
                self.fault.storage_fault(site="compact:truncate")
            for segment in sealed[1:]:
                segment.path.unlink(missing_ok=True)
            if len(sealed) > 1:
                self._sync_dir()
        summary = {
            "segments_merged": len(sealed),
            "records_before": records,
            "records_after": 1,
            "bytes_before": sum(s.bytes for s in sealed),
            "bytes_after": len(line),
            "dropped": deltas - len(removes) - len(adds),
        }
        if self.obs.enabled:
            self.obs.compaction_completed(
                summary["records_before"],
                summary["records_after"],
                summary["segments_merged"],
                time.perf_counter() - start,
            )
        return summary

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop journalling and close the log file."""
        if self._attached:
            self.memory.unsubscribe(self._on_delta)
            self.memory.unsubscribe_units(self._on_unit_open, self._on_commit)
            self._attached = False
        with self._mutex:
            if self._wal is not None:
                self._wal.flush()
                if self.durability != "none":
                    os.fsync(self._wal.fileno())
                self._wal.close()
                self._wal = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- recovery ----------------------------------------------------------------

    @staticmethod
    def open(
        directory: str | Path,
        catalog: Catalog | None = None,
        thread_safe: bool = False,
        fault_injector=None,
        **config,
    ) -> tuple[WorkingMemory, "DurableStore"]:
        """Recover a working memory from ``directory``.

        Loads the checkpoint (if any) and replays every WAL segment in
        LSN order (= filename order), whole commit records only:
        records covered by the checkpoint or shadowed by an interrupted
        compaction are skipped, and a torn final line per file drops
        that commit whole — the recovered database is the state after a
        prefix of the commit sequence.  Then deletes ``*.tmp`` leftovers
        and fully-covered segments (completing any interrupted
        truncation).  LSNs must be strictly increasing within each
        segment — a duplicate or regression is corruption (the
        unsynchronized-writer bug) and raises.

        The returned store keeps the caller's configuration:
        ``fault_injector`` and ``config`` — the constructor's keywords
        (``durability``, segment thresholds, ``observer``) — so a
        recovered store is chaos-testable like a fresh one.
        """
        start = time.perf_counter()
        directory = Path(directory)
        _refuse_unsupported_wal(directory)
        directory.mkdir(parents=True, exist_ok=True)
        report = RecoveryReport()
        memory = WorkingMemory(catalog=catalog, thread_safe=thread_safe)

        checkpoint_lsn = 0
        max_timetag = 0
        checkpoint_path = directory / _CHECKPOINT
        if checkpoint_path.exists():
            lines = _json_lines(checkpoint_path)
            checkpoint_lsn = int(next(lines)[1].get("checkpoint_lsn", 0))
            for _, payload in lines:
                if payload is None:
                    report.torn_lines += 1
                    break
                wme = memory.add(deserialize_wme(payload))
                max_timetag = max(max_timetag, wme.timetag)
        report.checkpoint_lsn = checkpoint_lsn

        sources = DurableStore.segment_paths(directory)
        last_lsn = checkpoint_lsn
        sealed: list[SegmentInfo] = []
        fully_covered: list[Path] = []
        for source in sources:
            info = SegmentInfo(
                source, first_lsn=0, last_lsn=0, records=0, bytes=0
            )
            applied = 0
            torn = False
            for line, record in _json_lines(source):
                if record is None:
                    torn = True
                    report.torn_lines += 1
                    break
                lsn = int(record["lsn"])
                if lsn <= info.last_lsn:
                    raise WorkingMemoryError(
                        f"{source.name}: non-monotonic LSN {lsn} "
                        f"after {info.last_lsn} — the log was written "
                        "by an unsynchronized store"
                    )
                info.first_lsn = info.first_lsn or lsn
                info.last_lsn = lsn
                info.records += 1
                info.bytes += len(line.encode("utf-8"))
                remove, add = _net_change(record, str(source))
                if lsn <= last_lsn:
                    # Covered by the checkpoint, or shadowed by a
                    # compacted segment after an interrupted merge.
                    report.shadowed += 1
                    continue
                for timetag in remove:
                    memory.remove(timetag)
                for element in add:
                    wme = memory.add(deserialize_wme(element))
                    max_timetag = max(max_timetag, wme.timetag)
                last_lsn = lsn
                applied += 1
            report.replayed += applied
            if info.records and (applied or torn):
                sealed.append(info)
            else:
                # Every record already covered (an interrupted
                # truncation left the segment behind: finish the job),
                # or none at all (an active segment that never received
                # a whole write).
                fully_covered.append(source)

        # Interrupted checkpoint/compaction leftovers are dead weight.
        # Nothing changes on disk before this point: a directory the
        # replay above refuses is left as found.
        for path in [*directory.glob("*" + _TMP_SUFFIX), *fully_covered]:
            path.unlink(missing_ok=True)
            report.cleaned.append(path.name)

        ensure_timetag_floor(max_timetag)
        store = DurableStore.__new__(DurableStore)
        store._init_runtime(
            memory,
            directory,
            fault_injector,
            start_lsn=last_lsn,
            checkpoint_lsn=checkpoint_lsn,
            sealed=sealed,
            **config,
        )
        if report.cleaned:
            store._sync_dir()
        report.elements = len(memory)
        report.segments = len(sources)
        report.seconds = time.perf_counter() - start
        store.last_recovery = report
        if store.obs.enabled:
            store.obs.recovery_completed(
                report.elements,
                report.replayed,
                report.shadowed,
                report.segments,
                report.seconds,
            )
        return memory, store

    # -- inspection --------------------------------------------------------------

    @staticmethod
    def inspect(directory: str | Path) -> dict:
        """Describe on-disk state without opening a store.

        Returns checkpoint LSN/element count plus per-segment LSN
        ranges, record and byte counts — the ``repro storage inspect``
        payload.
        """
        directory = Path(directory)
        checkpoint = None
        checkpoint_path = directory / _CHECKPOINT
        if checkpoint_path.exists():
            with open(checkpoint_path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                elements = sum(1 for line in handle if line.strip())
            checkpoint = {
                "checkpoint_lsn": int(header.get("checkpoint_lsn", 0)),
                "elements": elements,
                "bytes": checkpoint_path.stat().st_size,
            }
        segments = []
        for source in DurableStore.segment_paths(directory):
            records = _read_segment(source)
            segments.append({
                "name": source.name,
                "records": len(records),
                "bytes": source.stat().st_size,
                "first_lsn": records[0]["lsn"] if records else None,
                "last_lsn": records[-1]["lsn"] if records else None,
            })
        return {
            "directory": str(directory),
            "checkpoint": checkpoint,
            "segments": segments,
            "total_wal_records": sum(s["records"] for s in segments),
            "total_wal_bytes": sum(s["bytes"] for s in segments),
        }

    @staticmethod
    def segment_paths(directory: str | Path) -> list[Path]:
        """All WAL segments in replay (LSN) order."""
        return sorted(
            Path(directory).glob(_SEGMENT_PREFIX + "*" + _SEGMENT_SUFFIX),
            key=_segment_first_lsn,
        )


def _json_lines(path: Path) -> Iterator[tuple[str, object]]:
    """``(raw line, parsed value)`` for each non-blank line of a
    JSON-lines file.  A line that does not parse — the torn tail of a
    crash mid-write — ends the iteration, as ``(raw line, None)``."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                value = None
            yield line, value
            if value is None:
                return


def _read_segment(path: Path) -> list[dict]:
    """All records of one WAL file, tolerating a torn final line."""
    return [record for _, record in _json_lines(path) if record is not None]
