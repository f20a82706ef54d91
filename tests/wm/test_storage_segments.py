"""Tests for WAL segmentation, compaction, and durability modes."""

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


class TestCompaction:
    def test_compaction_drops_cancelling_pairs(self, tmp_path):
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=4)
        keep = [wm.make("keep", i=i) for i in range(3)]
        for i in range(10):
            temp = wm.make("temp", i=i)
            wm.remove(temp)
        summary = store.compact()
        store.close()
        assert summary["dropped"] >= 20  # 10 add/remove pairs
        assert summary["bytes_after"] < summary["bytes_before"]
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(recovered) == _signature(wm)
        assert len(recovered) == len(keep)

    def test_compaction_keeps_unpaired_records(self, tmp_path):
        """A remove whose add is still in the active segment, and an
        add whose remove hasn't happened, both survive."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=100)
        a = wm.make("r", i=1)
        b = wm.make("r", i=2)
        store.compact()  # seals [add a, add b]; nothing cancels
        wm.remove(a)  # remove lands in the new active segment
        store.close()
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(recovered) == _signature(wm)
        assert [w["i"] for w in recovered] == [2]

    def test_compaction_preserves_lsn_continuity_via_noop(self, tmp_path):
        """When the newest records cancel, a noop marker pins the
        merged range's max LSN so later records still replay."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=2)
        temp = wm.make("temp", i=0)
        wm.remove(temp)  # segment 1 fully cancels
        summary = store.compact()
        assert summary["records_after"] >= 1  # the noop marker
        wm.make("keep", i=1)
        store.close()
        records = _all_records(tmp_path)
        assert any(r.get("kind") == "noop" for r in records)
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(recovered) == _signature(wm)

    def test_repeated_compaction_replaces_old_noops(self, tmp_path):
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=2)
        for i in range(4):
            temp = wm.make("temp", i=i)
            wm.remove(temp)
            store.compact()
        store.close()
        records = _all_records(tmp_path)
        assert [r.get("kind") for r in records] == ["noop"]
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert len(recovered) == 0

    def test_compaction_of_empty_store_is_noop(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path) as store:
            summary = store.compact()
        assert summary["segments_merged"] == 0

    def test_interrupted_merge_is_shadowed_on_recovery(self, tmp_path):
        """Crash between the merge rename and deleting old segments:
        the leftover segments' LSNs are all covered by the merged
        record, so recovery skips and then deletes them."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=2)
        for i in range(6):
            wm.make("r", i=i)
        expected = _signature(wm)
        # The pre-merge segment holding commits 3-4, as the crash would
        # have failed to delete it.
        stale = tmp_path / _segment_filename(3)
        leftovers = stale.read_text()
        assert [json.loads(line)["lsn"] for line in
                leftovers.splitlines()] == [3, 4]
        store.compact()
        store.close()
        assert not stale.exists()
        stale.write_text(leftovers)
        recovered, store2 = DurableStore.open(tmp_path)
        assert store2.last_recovery.shadowed >= 2
        store2.close()
        assert _signature(recovered) == expected
        assert not stale.exists()  # interrupted truncation completed

    def test_merge_is_one_net_record_at_the_range_maximum(self, tmp_path):
        """Compaction folds the sealed records exactly as an open unit
        folds its deltas: one record, removes by timetag, carrying the
        merged range's maximum LSN (so no marker is needed)."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=3)
        keep = wm.make("keep", i=0)
        store.checkpoint()  # keep's body now lives in the snapshot
        temp = wm.make("temp", i=1)
        new = wm.modify(keep, {"i": 2})
        wm.remove(temp)
        kept = wm.make("keep", i=3)
        summary = store.compact()
        store.close()
        assert summary["records_before"] == 4
        assert summary["records_after"] == 1
        assert summary["dropped"] == 2  # temp's add and remove
        (record,) = _all_records(tmp_path)
        assert record["lsn"] == 5 and record["rule"] is None
        assert record["remove"] == [keep.timetag]
        assert [e[0] for e in record["add"]] == [
            new.timetag, kept.timetag
        ]
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(recovered) == _signature(wm)

    def test_merge_leaves_out_segments_the_checkpoint_covers(self, tmp_path):
        """A checkpoint whose snapshot landed but whose truncation was
        interrupted leaves covered segments sealed.  Folded into a
        merge, their changes would replay over the snapshot."""
        from repro.errors import StorageFailure
        from repro.fault import FaultPlan, FaultSpec

        wm = WorkingMemory()
        injector = FaultPlan(
            [FaultSpec("storage_fail", obj="checkpoint:truncate",
                       max_hits=1)], seed=0
        ).injector()
        store = DurableStore(wm, tmp_path, injector, segment_max_records=2)
        first = [wm.make("r", i=i) for i in range(4)]
        with pytest.raises(StorageFailure):
            store.checkpoint()
        wm.remove(first[0])
        wm.make("r", i=4)
        wm.make("r", i=5)
        store.compact()
        store.close()
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert _signature(recovered) == _signature(wm)

    def test_wal_stays_bounded_under_churn(self, tmp_path):
        """Checkpoint-free churn workload: compaction keeps total WAL
        bytes flat instead of linear in the number of deltas."""
        wm = WorkingMemory()
        store = DurableStore(
            wm, tmp_path, segment_max_records=16, durability="none"
        )
        sizes = []
        for round_ in range(8):
            for i in range(40):
                temp = wm.make("temp", i=i)
                wm.remove(temp)
            store.compact()
            sizes.append(store.wal_bytes())
        store.close()
        # After the first compaction the floor is a handful of noop
        # bytes; 7 more rounds of 80 deltas each must not accumulate.
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
    def test_old_kind_record_is_refused_untouched(self, tmp_path):
        """A segment of the per-delta format (one ``add`` / ``remove``
        record per working-memory delta) is not replayed and not
        skipped: the directory is refused by name and left as found."""
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path, segment_max_records=2) as store:
            for i in range(3):
                wm.make("r", i=i)
        old = tmp_path / _segment_filename(4)
        old.write_text(
            json.dumps(
                {
                    "lsn": 4,
                    "kind": "remove",
                    "wme": {
                        "relation": "r",
                        "items": [["i", 0]],
                        "timetag": 1,
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
        assert str(old) in str(refused.value)
        assert "'remove'" in str(refused.value)
        assert contents() == before


class TestObservability:
    def test_storage_hooks_count_and_span(self, tmp_path):
        observer = obs.Observer(trace_capacity=1024)
        wm = WorkingMemory()
        store = DurableStore(
            wm,
            tmp_path,
            segment_max_records=2,
            observer=observer,
        )
        for i in range(5):
            wm.make("r", i=i)
        store.compact()
        store.checkpoint()
        store.close()
        recovered, store2 = DurableStore.open(
            tmp_path, observer=observer
        )
        store2.close()
        snapshot = observer.metrics.snapshot()
        assert snapshot["storage.rotations"]["value"] >= 2
        assert snapshot["storage.compactions"]["value"] == 1
        assert snapshot["storage.checkpoints"]["value"] == 1
        assert snapshot["storage.recoveries"]["value"] == 1
        kinds = observer.trace.kinds()
        assert kinds.get("storage.rotate", 0) >= 2
        assert kinds.get("storage.checkpoint") == 1
        assert kinds.get("storage.compaction") == 1
        assert kinds.get("storage.recovery") == 1
        names = {s.name for s in observer.spans.spans("storage.")}
        assert {
            "storage.checkpoint",
            "storage.compaction",
            "storage.recovery",
        } <= names


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
