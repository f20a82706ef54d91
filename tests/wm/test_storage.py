"""Tests for durable working memory (WAL + checkpoint recovery)."""

import json

import pytest

from repro.errors import WorkingMemoryError
from repro.wm import (
    DurableStore,
    WME,
    WorkingMemory,
    deserialize_wme,
    serialize_wme,
)


class TestSerialization:
    def test_roundtrip(self):
        wme = WME.make("order", id=1, status="open")
        assert deserialize_wme(serialize_wme(wme)) == wme

    def test_preserves_timetag(self):
        wme = WME.make("r", a=1)
        assert deserialize_wme(serialize_wme(wme)).timetag == wme.timetag

    def test_corrupt_record_rejected(self):
        with pytest.raises(WorkingMemoryError):
            deserialize_wme({"relation": "r"})


class TestJournalAndRecovery:
    def test_recovery_from_wal_only(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path):
            wm.make("order", id=1)
            wm.make("order", id=2)
        recovered, store = DurableStore.open(tmp_path)
        store.close()
        assert recovered.value_identity_set() == wm.value_identity_set()

    def test_recovery_replays_removes_and_modifies(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path):
            a = wm.make("order", id=1, status="open")
            wm.make("order", id=2, status="open")
            wm.modify(a, {"status": "shipped"})
            wm.remove(wm.elements("order")[-1])
        recovered, store = DurableStore.open(tmp_path)
        store.close()
        assert recovered.value_identity_set() == wm.value_identity_set()
        assert len(recovered) == len(wm)

    def test_recovery_from_checkpoint_plus_wal(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path) as store:
            wm.make("order", id=1)
            count = store.checkpoint()
            assert count == 1
            wm.make("order", id=2)  # post-checkpoint: in WAL only
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert recovered.value_identity_set() == wm.value_identity_set()

    def test_checkpoint_truncates_wal(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path) as store:
            for i in range(5):
                wm.make("r", i=i)
            store.checkpoint()
            # Every covered record is gone; only the fresh (empty)
            # active segment remains.
            records = [
                line
                for path in DurableStore.segment_paths(tmp_path)
                for line in path.read_text().splitlines()
                if line.strip()
            ]
            assert records == []

    def test_torn_final_wal_line_tolerated(self, tmp_path):
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path)
        wm.make("order", id=1)
        wm.make("order", id=2)
        active = store.active_segment_path
        store.close()
        with open(active, "a") as handle:
            handle.write('{"lsn": 99, "rule": null, "remove": [], "add": [[7, "ord')
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert len(recovered) == 2

    def test_torn_first_line_does_not_poison_the_next_generation(
        self, tmp_path
    ):
        """The crash tore the first record of a fresh active segment:
        recovery deletes that file (the next active segment takes its
        name) instead of appending behind the torn line."""
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path, segment_max_records=2)
        wm.make("order", id=1)
        wm.make("order", id=2)
        store.compact()  # seals: the active segment is fresh and empty
        active = store.active_segment_path
        store.close()
        active.write_text('{"lsn": 3, "rule": null, "remo')
        recovered, store2 = DurableStore.open(tmp_path)
        assert store2.active_segment_path == active
        recovered.make("order", id=3)
        store2.close()
        second, store3 = DurableStore.open(tmp_path)
        store3.close()
        assert sorted(w["id"] for w in second) == [1, 2, 3]

    def test_new_elements_after_recovery_get_fresh_timetags(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path):
            wm.make("order", id=1)
        recovered, store = DurableStore.open(tmp_path)
        max_loaded = max(w.timetag for w in recovered)
        fresh = recovered.make("order", id=2)
        store.close()
        assert fresh.timetag > max_loaded

    def test_journalling_continues_after_recovery(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path):
            wm.make("order", id=1)
        recovered, store = DurableStore.open(tmp_path)
        recovered.make("order", id=2)
        store.close()
        second, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert len(second) == 2

    def test_closed_store_stops_journalling(self, tmp_path):
        wm = WorkingMemory()
        store = DurableStore(wm, tmp_path)
        wm.make("order", id=1)
        store.close()
        wm.make("order", id=2)  # not journalled
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        assert len(recovered) == 1

    def test_empty_directory_recovers_empty(self, tmp_path):
        recovered, store = DurableStore.open(tmp_path / "fresh")
        store.close()
        assert len(recovered) == 0

    def test_wal_records_have_monotone_lsns(self, tmp_path):
        wm = WorkingMemory()
        with DurableStore(wm, tmp_path):
            for i in range(4):
                wm.make("r", i=i)
        lines = [
            line
            for path in DurableStore.segment_paths(tmp_path)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        lsns = [json.loads(line)["lsn"] for line in lines]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)

    def test_checkpoint_recovery_equivalence_with_engine_run(
        self, tmp_path, order_rules, order_wm
    ):
        """Persist a live engine's working memory mid-run, recover, and
        finish the run on the recovered store: same final state."""
        from repro.engine import Interpreter

        with DurableStore(order_wm, tmp_path) as store:
            interpreter = Interpreter(order_rules, order_wm)
            interpreter.step()
            interpreter.step()
            store.checkpoint()
        # Finish on the original...
        Interpreter(order_rules, order_wm).run()
        # ...and on the recovered copy.
        recovered, store2 = DurableStore.open(tmp_path)
        store2.close()
        Interpreter(order_rules, recovered).run()
        assert (
            recovered.value_identity_set() == order_wm.value_identity_set()
        )
