"""Tests for WAL segmentation, checkpoint truncation, and durability
modes."""

import json

import pytest

import repro.obs as obs
from repro.errors import StorageError, WorkingMemoryError
from repro.wm import DurableStore, WorkingMemory
from repro.wm.storage import _segment_filename


def _signature(memory):
    return frozenset((w.timetag, w.identity()) for w in memory)


def _all_records(directory):
    records = []
    for path in DurableStore.segment_paths(directory):
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


class TestRotation:
    def test_record_threshold_rotates(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=3) as store:
            for i in range(10):
                wm.make("r", i=i)
            assert len(store.sealed_segments()) == 3
            # 9 records sealed in 3 segments, the 10th in the active.
            assert [s.records for s in store.sealed_segments()] == [3, 3, 3]

    def test_byte_threshold_rotates(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_bytes=200) as store:
            for i in range(6):
                wm.make("r", i=i)
            assert len(store.sealed_segments()) >= 1

    def test_segment_names_are_lsn_ordered(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=2):
            for i in range(7):
                wm.make("r", i=i)
        paths = DurableStore.segment_paths(tmp_path)
        assert [p.name for p in paths] == sorted(p.name for p in paths)
        lsns = [r["lsn"] for r in _all_records(tmp_path)]
        assert lsns == sorted(lsns)

    def test_recovery_replays_rotated_segments_in_lsn_order(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=2):
            for i in range(9):
                wm.make("r", i=i)
            live = sorted(wm, key=lambda w: w.timetag)
            wm.remove(live[0])
            wm.modify(live[3], {"i": 99})
        recovered, store = DurableStore.open(tmp_path)
        store.close()
        assert _signature(recovered) == _signature(wm)

    def test_sealed_segments_survive_store_generations(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=2):
            for i in range(5):
                wm.make("r", i=i)
        recovered, store = DurableStore.open(
            tmp_path, segment_max_records=2
        )
        recovered.make("r", i=100)
        recovered.make("r", i=101)
        recovered.make("r", i=102)
        store.close()
        second, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(second) == _signature(recovered)


class TestTruncation:
    def test_interrupted_truncation_is_shadowed_on_recovery(self, tmp_path):
        """A checkpoint whose snapshot landed but whose truncation was
        interrupted leaves the segments it covers behind.  Every record
        in them is shadowed by the checkpoint: recovery skips them,
        deletes the segments, and replays only the later commits."""
        from repro.errors import StorageFailure
        from repro.fault import FaultPlan, FaultSpec

        wm = WorkingMemory()
        injector = FaultPlan(
            [FaultSpec("storage_fail", obj="checkpoint:truncate",
                       max_hits=1)], seed=0
        ).injector()
        store = DurableStore(wm, tmp_path, injector, segment_max_records=2)
        first = [wm.make("r", i=i) for i in range(5)]
        covered = DurableStore.segment_paths(tmp_path)
        with pytest.raises(StorageFailure):
            store.checkpoint()
        wm.remove(first[0])
        wm.make("r", i=5)
        wm.make("r", i=6)
        store.close()
        assert all(path.exists() for path in covered)
        recovered, store2 = DurableStore.open(tmp_path)
        report = store2.last_recovery
        store2.close()
        assert report.checkpoint_lsn == len(first)
        assert report.shadowed >= len(first)
        assert not any(path.exists() for path in covered)
        assert {path.name for path in covered} <= set(report.cleaned)
        assert _signature(recovered) == _signature(wm)

    def test_segment_left_by_a_partial_truncation_is_shadowed(
        self, tmp_path
    ):
        """Crash between the unlinks of a truncation: one covered
        segment survives.  Its LSNs are all at or below the
        checkpoint's, so recovery skips and then deletes it."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=2)
        for i in range(6):
            wm.make("r", i=i)
        # The segment holding commits 3-4, as the crash would have
        # failed to delete it.
        stale = tmp_path / _segment_filename(3)
        leftovers = stale.read_text()
        assert [json.loads(line)["lsn"] for line in
                leftovers.splitlines()] == [3, 4]
        store.checkpoint()
        wm.make("r", i=6)
        expected = _signature(wm)
        store.close()
        assert not stale.exists()
        stale.write_text(leftovers)
        recovered, store2 = DurableStore.open(tmp_path)
        report = store2.last_recovery
        store2.close()
        assert report.checkpoint_lsn == 6
        assert report.shadowed == 2
        assert stale.name in report.cleaned
        assert _signature(recovered) == expected
        assert not stale.exists()  # interrupted truncation completed

    def test_wal_stays_bounded_under_churn(self, tmp_path):
        """Churn workload: a checkpoint each round truncates what the
        round journalled, so total WAL bytes stay flat instead of
        growing linearly in the number of deltas."""
        wm = WorkingMemory()
        store = DurableStore(
            wm, tmp_path, segment_max_records=16, durability="none"
        )
        sizes = []
        for round_ in range(8):
            for i in range(40):
                temp = wm.make("temp", i=i)
                wm.remove(temp)
            store.checkpoint()
            sizes.append(store.wal_bytes())
        store.close()
        # After the first checkpoint the floor is an empty active
        # segment; 7 more rounds of 80 deltas each must not accumulate.
        assert sizes[-1] <= sizes[0] + 200


class TestDurabilityModes:
    @pytest.mark.parametrize("mode", ["always", "batch", "none"])
    def test_roundtrip_in_every_mode(self, tmp_path, mode):
        wm = WorkingMemory()
        with DurableStore(
            wm, tmp_path, durability=mode, segment_max_records=3
        ) as store:
            for i in range(8):
                wm.make("r", i=i)
            store.checkpoint()
            wm.make("r", i=99)
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(recovered) == _signature(wm)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(WorkingMemoryError):
            DurableStore(WorkingMemory(), tmp_path, durability="yolo")

    def test_open_threads_configuration_through(self, tmp_path):
        """Satellite: a recovered store keeps injector + durability +
        thresholds, so it can be chaos-tested like a fresh one."""
        from repro.fault import FaultPlan, FaultSpec

        wm = WorkingMemory()
        with DurableStore(wm, tmp_path):
            wm.make("r", i=1)
        plan = FaultPlan(
            [FaultSpec("storage_fail", rate=1.0, obj="wal:commit")], seed=3
        )
        injector = plan.injector()
        recovered, store = DurableStore.open(
            tmp_path,
            fault_injector=injector,
            durability="batch",
            segment_max_records=7,
        )
        assert store.fault is injector
        assert store.durability == "batch"
        assert store.segment_max_records == 7
        from repro.errors import StorageFailure

        with pytest.raises(StorageFailure):
            recovered.make("r", i=2)
        assert injector.total_injected == 1
        store.close()


class TestUnsupportedFormat:
    def test_single_file_wal_is_refused_untouched(self, tmp_path):
        """A pre-segment directory (one wal.jsonl) holds journalled
        records no segment replay would see: refuse it by name, before
        anything in the directory is cleaned, created or deleted."""
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=2) as store:
            for i in range(5):
                wm.make("r", i=i)
            store.checkpoint()
            wm.make("r", i=5)
        single = tmp_path / "wal.jsonl"
        single.write_text(
            json.dumps(
                {
                    "lsn": 1,
                    "kind": "add",
                    "wme": {
                        "relation": "r",
                        "items": [["v", 1]],
                        "timetag": 601,
                    },
                }
            )
            + "\n"
        )
        (tmp_path / "checkpoint.jsonl.tmp").write_text("stray")

        def contents():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        before = contents()
        with pytest.raises(StorageError) as refused:
            DurableStore.open(tmp_path)
        assert str(single) in str(refused.value)
        with pytest.raises(StorageError) as refused:
            DurableStore(WorkingMemory(), tmp_path)
        assert str(single) in str(refused.value)
        assert contents() == before
        assert "wal.jsonl" not in json.dumps(DurableStore.inspect(tmp_path))
        assert single not in DurableStore.segment_paths(tmp_path)


class TestRefusesPerDeltaRecords:
    @pytest.mark.parametrize(
        "record",
        [
            {
                "lsn": 4,
                "kind": "remove",
                "wme": {"relation": "r", "items": [["i", 0]], "timetag": 1},
            },
            {"lsn": 4, "kind": "noop"},
        ],
        ids=lambda record: record["kind"],
    )
    def test_old_kind_record_is_refused_untouched(self, tmp_path, record):
        """A record with a ``kind`` — one of the per-delta format (one
        ``add`` / ``remove`` record per working-memory delta), or an
        anonymous ``noop`` marker — is not replayed and not skipped:
        the directory is refused by name and left as found."""
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=2):
            for i in range(3):
                wm.make("r", i=i)
        old = tmp_path / _segment_filename(4)
        old.write_text(json.dumps(record) + "\n")
        (tmp_path / "checkpoint.jsonl.tmp").write_text("stray")

        def contents():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        before = contents()
        with pytest.raises(StorageError) as refused:
            DurableStore.open(tmp_path)
        assert str(old) in str(refused.value)
        assert f"'{record['kind']}'" in str(refused.value)
        assert contents() == before


class TestObservability:
    def test_storage_hooks_count_and_span(self, tmp_path):
        observer = obs.Observer(capacity=1024)
        wm = WorkingMemory()
        store = DurableStore(
            wm,
            tmp_path,
            segment_max_records=2,
            observer=observer,
        )
        for i in range(5):
            wm.make("r", i=i)
        store.checkpoint()
        store.close()
        recovered, store2 = DurableStore.open(
            tmp_path, observer=observer
        )
        store2.close()
        snapshot = observer.metrics.snapshot()
        assert snapshot["storage.rotations"]["value"] >= 2
        assert snapshot["storage.checkpoints"]["value"] == 1
        assert snapshot["storage.recoveries"]["value"] == 1
        names = observer.spans.names()
        assert names.get("storage.rotate", 0) >= 2
        assert names.get("storage.checkpoint") == 1
        assert names.get("storage.recovery") == 1
        assert all(
            span.duration == 0
            for span in observer.spans.spans("storage.rotate")
        )

    @staticmethod
    def _assert_one_checkpoint_counted(observer):
        """Two checkpoint spans, both closed; only the good one is
        counted."""
        spans = observer.spans.spans("storage.checkpoint")
        assert len(spans) == 2
        assert all(span.is_finished for span in spans)
        snapshot = observer.metrics.snapshot()
        assert snapshot["storage.checkpoints"]["value"] == 1
        assert snapshot["storage.checkpoint_seconds"]["count"] == 1

    def test_refused_checkpoint_closes_its_span(self, tmp_path):
        observer = obs.Observer(capacity=1024)
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, observer=observer)
        wm.make("r", i=0)
        with wm.atomic():
            wm.make("r", i=1)
            with pytest.raises(StorageError, match="open atomic unit"):
                store.checkpoint()
        store.checkpoint()
        store.close()
        self._assert_one_checkpoint_counted(observer)

    def test_crashed_checkpoint_closes_its_span(self, tmp_path):
        from repro.errors import StorageFailure
        from repro.fault import FaultPlan, FaultSpec

        observer = obs.Observer(capacity=1024)
        wm = WorkingMemory()
        injector = FaultPlan(
            [FaultSpec("storage_fail", obj="checkpoint:rename",
                       max_hits=1)], seed=0
        ).injector(observer=observer)
        store = DurableStore(wm, tmp_path, injector, observer=observer)
        wm.make("r", i=0)
        with pytest.raises(StorageFailure):
            store.checkpoint()
        store.checkpoint()
        store.close()
        self._assert_one_checkpoint_counted(observer)


class TestInspect:
    def test_inspect_reports_segments_and_checkpoint(self, tmp_path):
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=2)
        for i in range(5):
            wm.make("r", i=i)
        store.checkpoint()
        wm.make("r", i=99)
        store.close()
        info = DurableStore.inspect(tmp_path)
        assert info["checkpoint"]["elements"] == 5
        assert info["checkpoint"]["checkpoint_lsn"] == 5
        assert info["total_wal_records"] == 1
        assert all(
            s["records"] in (0, 1) for s in info["segments"]
        )
