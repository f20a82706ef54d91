"""Concurrency regressions for the durable store.

Each test pins one of the crash-safety bugs this subsystem was rebuilt
around: the checkpoint lost-delta window, the closed-WAL race, and the
unsynchronized LSN counter under ``thread_safe=True``.
"""

import json
import threading

import pytest

from repro.errors import WorkingMemoryError
from repro.fault import memory_signature
from repro.wm import DurableStore, WorkingMemory


class _DeltaDuringSnapshot(DurableStore):
    """Fires one extra delta between the checkpoint capture and the
    snapshot write — the window where the old implementation lost it
    (snapshot without it, truncation deleting the WAL record)."""

    def _write_snapshot(self, elements, checkpoint_lsn):
        if not getattr(self, "_fired", False):
            self._fired = True
            self.memory.make("late", v=1)
        super()._write_snapshot(elements, checkpoint_lsn)


class TestLostDeltaRegression:
    def test_delta_during_checkpoint_survives_truncation(self, tmp_path):
        """Satellite 1: a delta landing between capture and truncate
        must survive — it has lsn > checkpoint_lsn and lives in the
        post-seal active segment, which truncation never touches."""
        wm = WorkingMemory()
        store = _DeltaDuringSnapshot(wm, tmp_path)
        wm.make("early", v=0)
        store.checkpoint()
        store.close()
        assert any(w.relation == "late" for w in wm)
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert memory_signature(recovered) == memory_signature(wm)

    def test_subscriber_fires_delta_mid_checkpoint(self, tmp_path):
        """Same window, driven from a second thread: a writer races
        the checkpoint loop; every acknowledged delta must recover."""
        wm = WorkingMemory(thread_safe=True)
        store = DurableStore(
            wm, tmp_path, durability="batch", segment_max_records=8
        )
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                wme = wm.make("race", i=i)
                if i % 3 == 0:
                    wm.remove(wme)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(20):
                store.checkpoint()
        finally:
            stop.set()
            thread.join()
        store.close()
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert memory_signature(recovered) == memory_signature(wm)


class TestClosedWalRace:
    def test_checkpoint_after_close_raises_cleanly(self, tmp_path):
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path)
        wm.make("r", v=1)
        store.close()
        with pytest.raises(WorkingMemoryError, match="closed"):
            store.checkpoint()

    def test_threaded_close_checkpoint_hammer(self, tmp_path):
        """Satellite 2: close() racing checkpoint() must never corrupt
        the directory or crash with anything but the clean 'closed'
        error.  (The old code could flush through a None handle.)"""
        errors = []
        for round_ in range(12):
            directory = tmp_path / f"round{round_}"
            wm = WorkingMemory(thread_safe=True)
            store = DurableStore(wm, directory, durability="none")
            for i in range(6):
                wm.make("r", i=i)
            barrier = threading.Barrier(2)

            def checkpointer():
                barrier.wait()
                try:
                    store.checkpoint()
                except WorkingMemoryError as exc:
                    if "closed" not in str(exc):
                        errors.append(exc)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def closer():
                barrier.wait()
                try:
                    store.close()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=checkpointer),
                threading.Thread(target=closer),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            store.close()  # idempotent
            recovered, store2 = DurableStore.open(directory)
            store2.close()
            assert memory_signature(recovered) == memory_signature(wm)
        assert errors == []


class TestLsnAccounting:
    def test_concurrent_writers_get_strictly_increasing_lsns(
        self, tmp_path, wal_records
    ):
        """Satellite 4: N threads hammering a thread_safe memory must
        produce a gapless, strictly increasing LSN sequence on disk —
        the unsynchronized read-modify-write would duplicate LSNs."""
        wm = WorkingMemory(thread_safe=True)
        store = DurableStore(
            wm, tmp_path, durability="none", segment_max_records=25
        )
        per_thread = 60
        threads = [
            threading.Thread(
                target=lambda t=t: [
                    wm.make("r", t=t, i=i) for i in range(per_thread)
                ]
            )
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        records = wal_records(tmp_path)
        assert [r["lsn"] for r in records] == list(
            range(1, 4 * per_thread + 1)
        )
        # A bare delta is a unit of one: one record, one change.
        assert all(
            r["remove"] == [] and len(r["add"]) == 1 for r in records
        )
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert memory_signature(recovered) == memory_signature(wm)

    def test_concurrent_units_never_interleave(self, tmp_path, wal_records):
        """More threads than cores, each committing multi-delta units
        (a bracket of two makes and a modify): the bracket holds the
        memory lock, so every record is one thread's whole unit — the
        lost update here would be a record mixing two threads' deltas,
        or a unit split over two records."""
        import sys

        wm = WorkingMemory(thread_safe=True)
        store = DurableStore(
            wm, tmp_path, durability="none", segment_max_records=25
        )
        units = 40

        def worker(t):
            row = wm.make("row", t=t, n=0)
            for n in range(1, units + 1):
                with wm.atomic(f"worker-{t}"):
                    wm.make("log", t=t, n=n)
                    row = wm.modify(row, {"n": n})
                    wm.make("log", t=t, n=-n)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        store.close()
        records = wal_records(tmp_path)
        assert [r["lsn"] for r in records] == list(
            range(1, 6 * (units + 1) + 1)
        )
        for record in (r for r in records if r["rule"]):
            t = int(record["rule"].removeprefix("worker-"))
            owners = {dict(zip(e[2::2], e[3::2]))["t"] for e in record["add"]}
            assert owners == {t}
            assert len(record["add"]) == 3 and len(record["remove"]) == 1
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert memory_signature(recovered) == memory_signature(wm)

    def test_recovery_rejects_non_monotonic_lsns(self, tmp_path):
        """The recovery-side assert for the same bug: duplicate or
        backwards LSNs inside one segment are corruption, not data."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path)
        wm.make("r", v=1)
        wm.make("r", v=2)
        active = store.active_segment_path
        store.close()
        lines = active.read_text().splitlines()
        first = json.loads(lines[0])
        second = json.loads(lines[1])
        second["lsn"] = first["lsn"]  # duplicate
        active.write_text(
            json.dumps(first) + "\n" + json.dumps(second) + "\n"
        )
        with pytest.raises(WorkingMemoryError, match="non-monotonic"):
            DurableStore.open(tmp_path)

    def test_concurrent_checkpoints_exclude_each_other(self, tmp_path):
        """Checkpoints share a maintenance mutex: two threads
        checkpointing repeatedly against a churner must keep the
        directory consistent throughout."""
        wm = WorkingMemory(thread_safe=True)
        store = DurableStore(
            wm, tmp_path, durability="none", segment_max_records=4
        )
        stop = threading.Event()
        errors = []

        def churn():
            i = 0
            while not stop.is_set():
                wme = wm.make("c", i=i)
                wm.remove(wme)
                i += 1

        def maintain():
            try:
                for _ in range(10):
                    store.checkpoint()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        churner = threading.Thread(target=churn)
        churner.start()
        workers = [threading.Thread(target=maintain) for _ in range(2)]
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            stop.set()
            churner.join(timeout=60)
        assert not any(t.is_alive() for t in [*workers, churner])
        store.close()
        assert errors == []
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert memory_signature(recovered) == memory_signature(wm)
