"""Durable working memory: a segmented WAL + checkpoint storage subsystem.

The paper's opening motivation (Section 1): "expert system users are
asking for knowledge sharing and knowledge *persistence*, features
found currently in databases."  This module supplies the persistence
half as a small storage engine: a :class:`DurableStore` journals every
working-memory delta to an append-only, *segmented* write-ahead log,
periodically checkpoints the full contents, compacts sealed segments,
and recovers by *checkpoint + log replay* — the classical recipe,
hardened so that a crash at any window lands on exactly one admissible
state (the journalled prefix).

On-disk layout
--------------
``checkpoint.jsonl``
    One serialized WME per line after a header line carrying the
    checkpoint's log sequence number (LSN).  Replaced atomically
    (tmp + rename + directory fsync).
``wal-<first-lsn 16 digits>.jsonl``
    One WAL segment per file, named by the first LSN it may contain so
    lexicographic filename order **is** LSN order.  Exactly one segment
    (the highest-named) is *active*; the rest are sealed and immutable.
    A record is ``{"lsn": n, "kind": "add"|"remove", "wme": ...}``;
    compaction may also write ``{"lsn": n, "kind": "noop"}`` markers
    that advance the replay LSN without mutating state.
``wal.jsonl``
    The single-file log of the pre-segment format is not read.  A
    directory holding one is refused with :class:`StorageError`,
    untouched: journalled data is never skipped silently.

Durability modes
----------------
``"always"``
    ``flush`` + ``fsync`` after every record; directory fsync after
    every file creation, rename, and deletion.  Survives power loss up
    to the last acknowledged delta.
``"batch"``
    ``flush`` per record; ``fsync`` only when a segment is sealed, at
    checkpoint/compaction boundaries, and on close.  Survives process
    crash up to the last delta, power loss up to the last boundary.
``"none"``
    ``flush`` per record, no fsync ever.  For benchmarks and bulk
    loads.

Crash-safety invariants
-----------------------
* A WAL record is written *after* its fault site and *after* the LSN
  is reserved, under the store mutex — LSNs are strictly increasing
  within a segment, and recovery asserts it.
* ``checkpoint()`` captures (elements, LSN) and seals the active
  segment under the store mutex (taking the working memory's lock
  first, mirroring the delta path's lock order), so every record with
  ``lsn <= checkpoint_lsn`` lives in sealed segments and every later
  delta lands in the fresh active segment: truncation deletes *only
  covered* segments and can never erase a post-capture delta.
* ``compact()`` merges sealed segments into one, dropping add/remove
  pairs that cancel (both records inside the merged range).  The merge
  commits by renaming over the *first* merged segment; a trailing noop
  marker pins the merged range's maximum LSN, so leftover old segments
  after a crash are fully *shadowed* (every LSN already replayed) and
  recovery skips, then deletes, them.
* Recovery tolerates a torn final log line, ignores ``*.tmp``
  leftovers, and completes any interrupted truncation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

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
#: proves recovery lands on the journalled prefix.
STORAGE_FAULT_SITES = (
    "wal:add",
    "wal:remove",
    "rotate:open",
    "checkpoint:tmp-write",
    "checkpoint:rename",
    "checkpoint:dirsync",
    "checkpoint:truncate",
    "compact:tmp-write",
    "compact:rename",
    "compact:truncate",
)


def serialize_wme(wme: WME) -> dict:
    """JSON-safe representation of a WME (timetag-preserving)."""
    return {
        "relation": wme.relation,
        "items": [[name, value] for name, value in wme.items],
        "timetag": wme.timetag,
    }


def deserialize_wme(payload: dict) -> WME:
    """Rebuild a WME from :func:`serialize_wme` output."""
    try:
        return WME(
            payload["relation"],
            tuple((name, value) for name, value in payload["items"]),
            payload["timetag"],
        )
    except (KeyError, TypeError) as exc:
        raise WorkingMemoryError(f"corrupt WME record: {payload!r}") from exc


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
    """fsync a directory so entry creations/renames/unlinks are durable.

    Best-effort: platforms without directory fds (e.g. Windows) skip.
    """
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
        ... mutate wm ...
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
            Path(directory),
            fault_injector,
            durability=durability,
            segment_max_records=segment_max_records,
            segment_max_bytes=segment_max_bytes,
            observer=observer,
            start_lsn=0,
            sealed=(),
        )

    def _init_runtime(
        self,
        memory: WorkingMemory,
        directory: Path,
        fault_injector,
        *,
        durability: str,
        segment_max_records: int,
        segment_max_bytes: int,
        observer,
        start_lsn: int,
        sealed: Iterable[SegmentInfo],
    ) -> None:
        """Shared constructor body for ``__init__`` and :meth:`open`."""
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
        self._mutex = threading.Lock()
        self._maint_mutex = threading.Lock()  # serializes ckpt/compact
        self._sealed: list[SegmentInfo] = list(sealed)
        self._wal: IO[str] | None = None
        self._segment_path: Path | None = None
        self._segment_first = 0
        self._segment_records = 0
        self._segment_bytes = 0
        self.last_recovery: RecoveryReport | None = None
        self._open_active_segment()
        self.memory.subscribe(self._on_delta)
        self._attached = True

    # -- journalling -------------------------------------------------------------

    @property
    def lsn(self) -> int:
        """The last log sequence number written."""
        return self._lsn

    @property
    def active_segment_path(self) -> Path | None:
        """The segment file currently receiving records."""
        return self._segment_path

    def sealed_segments(self) -> list[SegmentInfo]:
        """Sealed (immutable) segments, oldest first."""
        with self._mutex:
            return list(self._sealed)

    def wal_bytes(self) -> int:
        """Total bytes across sealed segments plus the active one."""
        with self._mutex:
            return (
                sum(s.bytes for s in self._sealed) + self._segment_bytes
            )

    def _open_active_segment(self) -> None:
        """Open a fresh active segment named by the next LSN.

        Called with the mutex held (or before the store is shared).
        """
        path = self.directory / _segment_filename(self._lsn + 1)
        self._wal = open(path, "a", encoding="utf-8")
        self._segment_path = path
        self._segment_first = self._lsn + 1
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
        assert self._wal is not None
        self._wal.flush()
        if self.durability in ("always", "batch"):
            os.fsync(self._wal.fileno())
        self._wal.close()
        sealed = SegmentInfo(
            path=self._segment_path,
            first_lsn=self._segment_first,
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

    def _on_delta(self, delta: WMDelta) -> None:
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
                # written: the WAL stays well-formed and recovery sees
                # a store that simply never journalled this delta.
                self.fault.storage_fault(site=f"wal:{delta.kind}")
            lsn = self._lsn + 1
            line = json.dumps(
                {
                    "lsn": lsn,
                    "kind": delta.kind,
                    "wme": serialize_wme(delta.wme),
                }
            ) + "\n"
            self._wal.write(line)
            self._lsn = lsn
            self._segment_records += 1
            self._segment_bytes += len(line)
            if self.durability == "always":
                self._wal.flush()
                os.fsync(self._wal.fileno())
            elif self.durability == "batch":
                self._wal.flush()
            else:
                self._wal.flush()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> int:
        """Write a full snapshot and truncate covered WAL segments.

        Returns the number of elements checkpointed.  The capture
        (elements + LSN + sealing the active segment) happens under the
        working-memory lock and the store mutex — the same order the
        delta path takes — so no delta can slip between the snapshot
        and the truncation: anything journalled after the capture has
        ``lsn > checkpoint_lsn`` and lives in the new active segment,
        which is never truncated.  The snapshot itself is written
        outside the locks (tmp + fsync + rename + directory fsync), so
        writers keep journalling while the checkpoint lands.
        """
        start = time.perf_counter()
        with self._maint_mutex:
            elements, checkpoint_lsn = self._capture()
            self._write_snapshot(elements, checkpoint_lsn)
            dropped = self._truncate(checkpoint_lsn)
        if self.obs.enabled:
            self.obs.checkpoint_completed(
                len(elements),
                checkpoint_lsn,
                dropped,
                time.perf_counter() - start,
            )
        return len(elements)

    def _capture(self) -> tuple[list[WME], int]:
        """Atomically snapshot (elements, LSN) and seal the active
        segment.  Lock order: memory lock, then store mutex — the same
        order ``_on_delta`` observes (the memory lock is held across
        delta publication), so capture cannot deadlock with writers."""
        with self.memory.locked():
            with self._mutex:
                if self._wal is None:
                    raise WorkingMemoryError("durable store is closed")
                elements = sorted(self.memory, key=lambda w: w.timetag)
                checkpoint_lsn = self._lsn
                self._seal_active_segment()
        return elements, checkpoint_lsn

    def _write_snapshot(
        self, elements: list[WME], checkpoint_lsn: int
    ) -> None:
        """Atomically replace the checkpoint file (tmp, rename, dir
        fsync), with a fault site before each filesystem effect."""
        temp_path = self.directory / (_CHECKPOINT + _TMP_SUFFIX)
        if self.fault is not None:
            self.fault.storage_fault(site="checkpoint:tmp-write")
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"checkpoint_lsn": checkpoint_lsn}) + "\n"
            )
            for wme in elements:
                handle.write(json.dumps(serialize_wme(wme)) + "\n")
            handle.flush()
            if self.durability in ("always", "batch"):
                os.fsync(handle.fileno())
        if self.fault is not None:
            self.fault.storage_fault(site="checkpoint:rename")
        os.replace(temp_path, self.directory / _CHECKPOINT)
        # Without this directory fsync a crash can resurrect the *old*
        # checkpoint after the WAL was truncated — the lost-update
        # window the recovery chaos sweep aims at.
        if self.fault is not None:
            self.fault.storage_fault(site="checkpoint:dirsync")
        if self.durability in ("always", "batch"):
            _fsync_dir(self.directory)

    def _truncate(self, checkpoint_lsn: int) -> int:
        """Delete sealed segments fully covered by the checkpoint.

        Only segments whose *last* LSN is ``<= checkpoint_lsn`` are
        removed; the active segment (post-capture deltas) is untouched.
        Returns the number of segments dropped.
        """
        if self.fault is not None:
            self.fault.storage_fault(site="checkpoint:truncate")
        with self._mutex:
            covered = [
                s for s in self._sealed if s.last_lsn <= checkpoint_lsn
            ]
            self._sealed = [
                s for s in self._sealed if s.last_lsn > checkpoint_lsn
            ]
        dropped = 0
        for segment in covered:
            segment.path.unlink(missing_ok=True)
            dropped += 1
        if dropped and self.durability in ("always", "batch"):
            _fsync_dir(self.directory)
        return dropped

    # -- compaction --------------------------------------------------------------

    def compact(self) -> dict:
        """Merge sealed segments, dropping add/remove pairs that cancel.

        Background-free: the caller decides when; cost is proportional
        to the sealed WAL.  An ``add`` at LSN *a* and the ``remove`` of
        the same timetag at LSN *b* cancel when **both** lie in the
        merged (sealed) range — replaying neither yields the same
        state.  Records whose partner is outside the range (the add
        lives in the checkpoint or the active segment) are kept.

        The merged segment is committed by renaming over the *first*
        merged segment's name; when the last retained LSN is smaller
        than the range's maximum, a ``noop`` marker pins the maximum so
        that, if a crash strands the other old segments, every one of
        their LSNs is already shadowed and recovery skips them.

        Returns a summary dict (records/bytes before and after,
        segments merged).
        """
        start = time.perf_counter()
        with self._maint_mutex:
            with self._mutex:
                if self._wal is None:
                    raise WorkingMemoryError("durable store is closed")
                self._seal_active_segment()
                sealed = list(self._sealed)
            if len(sealed) == 0:
                return {
                    "segments_merged": 0,
                    "records_before": 0,
                    "records_after": 0,
                    "bytes_before": 0,
                    "bytes_after": 0,
                    "dropped": 0,
                }
            records: list[dict] = []
            for segment in sealed:
                records.extend(_read_segment(segment.path))
            retained, dropped = _cancel_pairs(records)
            max_covered = sealed[-1].last_lsn
            if not retained or retained[-1]["lsn"] < max_covered:
                retained.append({"lsn": max_covered, "kind": "noop"})

            first = sealed[0]
            temp_path = Path(str(first.path) + _TMP_SUFFIX)
            if self.fault is not None:
                self.fault.storage_fault(site="compact:tmp-write")
            total_bytes = 0
            with open(temp_path, "w", encoding="utf-8") as handle:
                for record in retained:
                    line = json.dumps(record) + "\n"
                    handle.write(line)
                    total_bytes += len(line)
                handle.flush()
                if self.durability in ("always", "batch"):
                    os.fsync(handle.fileno())
            if self.fault is not None:
                self.fault.storage_fault(site="compact:rename")
            os.replace(temp_path, first.path)
            if self.durability in ("always", "batch"):
                _fsync_dir(self.directory)
            merged = SegmentInfo(
                path=first.path,
                first_lsn=first.first_lsn,
                last_lsn=max_covered,
                records=len(retained),
                bytes=total_bytes,
            )
            with self._mutex:
                self._sealed = [merged] + [
                    s for s in self._sealed if s not in sealed
                ]
            if self.fault is not None:
                self.fault.storage_fault(site="compact:truncate")
            for segment in sealed[1:]:
                segment.path.unlink(missing_ok=True)
            if len(sealed) > 1 and self.durability in ("always", "batch"):
                _fsync_dir(self.directory)
        summary = {
            "segments_merged": len(sealed),
            "records_before": len(records),
            "records_after": len(retained),
            "bytes_before": sum(s.bytes for s in sealed),
            "bytes_after": total_bytes,
            "dropped": dropped,
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
            self._attached = False
        with self._mutex:
            if self._wal is not None:
                self._wal.flush()
                if self.durability in ("always", "batch"):
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
        *,
        durability: str = "always",
        segment_max_records: int = 10_000,
        segment_max_bytes: int = 1 << 20,
        observer=None,
    ) -> tuple[WorkingMemory, "DurableStore"]:
        """Recover a working memory from ``directory``.

        Loads the checkpoint (if any), replays every WAL segment in
        LSN order (= filename order), skipping records already covered
        by the checkpoint and records shadowed by an interrupted
        compaction, tolerating a torn final line per file, and
        deleting ``*.tmp`` leftovers and fully-covered segments
        (completing any interrupted truncation).  LSNs must be strictly increasing within each
        segment — a duplicate or regression is corruption (the
        unsynchronized-writer bug) and raises.

        Unlike the seed's recovery path, the returned store keeps the
        caller's configuration: ``fault_injector``, ``durability``,
        segment thresholds and ``observer`` are all threaded through,
        so a recovered store is chaos-testable like a fresh one.
        """
        start = time.perf_counter()
        directory = Path(directory)
        _refuse_unsupported_wal(directory)
        directory.mkdir(parents=True, exist_ok=True)
        report = RecoveryReport()
        memory = WorkingMemory(catalog=catalog, thread_safe=thread_safe)

        # Interrupted checkpoint/compaction leftovers are dead weight.
        for stray in directory.glob("*" + _TMP_SUFFIX):
            stray.unlink(missing_ok=True)
            report.cleaned.append(stray.name)

        checkpoint_lsn = 0
        max_timetag = 0
        checkpoint_path = directory / _CHECKPOINT
        if checkpoint_path.exists():
            with open(checkpoint_path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                checkpoint_lsn = int(header.get("checkpoint_lsn", 0))
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        report.torn_lines += 1
                        break  # torn tail from a crash mid-write
                    wme = deserialize_wme(payload)
                    memory.add(wme)
                    max_timetag = max(max_timetag, wme.timetag)
        report.checkpoint_lsn = checkpoint_lsn

        sources = DurableStore.segment_paths(directory)

        last_lsn = checkpoint_lsn
        sealed: list[SegmentInfo] = []
        fully_covered: list[Path] = []
        for source in sources:
            seg_records = 0
            seg_bytes = 0
            seg_first = 0
            seg_last = 0
            seg_applied = 0
            previous = 0
            torn = False
            with open(source, encoding="utf-8") as handle:
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    try:
                        record = json.loads(stripped)
                    except json.JSONDecodeError:
                        torn = True
                        report.torn_lines += 1
                        break  # torn final record from a crash
                    lsn = int(record["lsn"])
                    if previous and lsn <= previous:
                        raise WorkingMemoryError(
                            f"{source.name}: non-monotonic LSN {lsn} "
                            f"after {previous} — the log was written "
                            "by an unsynchronized store"
                        )
                    previous = lsn
                    seg_records += 1
                    seg_bytes += len(line.encode("utf-8"))
                    seg_first = seg_first or lsn
                    seg_last = lsn
                    if lsn <= last_lsn:
                        # Covered by the checkpoint, or shadowed by a
                        # compacted segment after an interrupted merge.
                        report.shadowed += 1
                        continue
                    kind = record["kind"]
                    if kind == "noop":
                        pass
                    elif kind == "add":
                        wme = deserialize_wme(record["wme"])
                        memory.add(wme)
                        max_timetag = max(max_timetag, wme.timetag)
                    elif kind == "remove":
                        wme = deserialize_wme(record["wme"])
                        memory.remove(wme.timetag)
                        max_timetag = max(max_timetag, wme.timetag)
                    else:
                        raise WorkingMemoryError(
                            f"{source.name}: unknown WAL record kind "
                            f"{kind!r}"
                        )
                    last_lsn = lsn
                    seg_applied += 1
                    report.replayed += 1
            if seg_records and seg_applied == 0 and not torn:
                # Every record already covered: an interrupted
                # truncation left this segment behind.  Finish the job.
                fully_covered.append(source)
            elif seg_records:
                sealed.append(
                    SegmentInfo(
                        path=source,
                        first_lsn=seg_first,
                        last_lsn=seg_last,
                        records=seg_records,
                        bytes=seg_bytes,
                    )
                )
            else:
                # Zero records: a pre-crash active segment that never
                # received a write, or an empty rotation leftover.
                fully_covered.append(source)

        for path in fully_covered:
            path.unlink(missing_ok=True)
            report.cleaned.append(path.name)
        if report.cleaned and durability in ("always", "batch"):
            _fsync_dir(directory)

        ensure_timetag_floor(max_timetag)
        store = DurableStore.__new__(DurableStore)
        store._init_runtime(
            memory,
            directory,
            fault_injector,
            durability=durability,
            segment_max_records=segment_max_records,
            segment_max_bytes=segment_max_bytes,
            observer=observer,
            start_lsn=last_lsn,
            sealed=sealed,
        )
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
        info: dict = {
            "directory": str(directory),
            "checkpoint": None,
            "segments": [],
            "total_wal_records": 0,
            "total_wal_bytes": 0,
        }
        checkpoint_path = directory / _CHECKPOINT
        if checkpoint_path.exists():
            with open(checkpoint_path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                elements = sum(1 for line in handle if line.strip())
            info["checkpoint"] = {
                "checkpoint_lsn": int(header.get("checkpoint_lsn", 0)),
                "elements": elements,
                "bytes": checkpoint_path.stat().st_size,
            }
        for source in DurableStore.segment_paths(directory):
            records = _read_segment(source, tolerate_torn=True)
            entry = {
                "name": source.name,
                "records": len(records),
                "bytes": source.stat().st_size,
                "first_lsn": records[0]["lsn"] if records else None,
                "last_lsn": records[-1]["lsn"] if records else None,
            }
            info["segments"].append(entry)
            info["total_wal_records"] += len(records)
            info["total_wal_bytes"] += entry["bytes"]
        return info

    @staticmethod
    def segment_paths(directory: str | Path) -> list[Path]:
        """All WAL segments in replay (LSN) order."""
        return sorted(
            Path(directory).glob(_SEGMENT_PREFIX + "*" + _SEGMENT_SUFFIX),
            key=_segment_first_lsn,
        )


def _read_segment(path: Path, tolerate_torn: bool = True) -> list[dict]:
    """All records of one WAL file, tolerating a torn final line."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if tolerate_torn:
                    break
                raise
    return records


def _cancel_pairs(records: list[dict]) -> tuple[list[dict], int]:
    """Drop add/remove pairs that cancel within ``records``.

    A pair cancels when the add and the remove of the same timetag are
    both present.  Timetags are unique per add (the store never re-adds
    a timetag), so pairing is unambiguous.  Returns (retained records
    in original order, number of records dropped).
    """
    adds: dict[int, int] = {}  # timetag -> record index
    drop: set[int] = set()
    for index, record in enumerate(records):
        kind = record.get("kind")
        if kind == "add":
            adds[record["wme"]["timetag"]] = index
        elif kind == "remove":
            partner = adds.pop(record["wme"]["timetag"], None)
            if partner is not None:
                drop.add(partner)
                drop.add(index)
        elif kind == "noop":
            drop.add(index)  # superseded by the fresh trailing marker
    retained = [
        record for index, record in enumerate(records)
        if index not in drop
    ]
    return retained, len(drop)
