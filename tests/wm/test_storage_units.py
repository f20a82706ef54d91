"""The unit of durability: one commit record per ``atomic`` bracket.

A ``modify`` is never torn, a rolled-back unit is never journalled, an
abandoned unit never leaks into the next one, and maintenance refuses
to run inside an open unit.
"""

import pytest

from repro.errors import StorageError, StorageFailure
from repro.fault import FaultPlan, FaultSpec, memory_signature
from repro.wm import DurableStore, UndoLog, WorkingMemory


def _recover(directory):
    recovered, store = DurableStore.open(directory)
    store.close()
    return recovered


class _DyingLog:
    """The store's WAL handle, killed at a chosen write: the process
    dies with ``survive`` more records on disk."""

    def __init__(self, handle, survive):
        self.handle = handle
        self.survive = survive

    def write(self, line):
        if self.survive == 0:
            raise StorageFailure("process killed mid-log")
        self.survive -= 1
        return self.handle.write(line)

    def __getattr__(self, name):
        return getattr(self.handle, name)


@pytest.mark.parametrize("survive", [0, 1])
def test_modify_is_never_torn(tmp_path, survive):
    """Crash at either write a bare ``modify`` could make: the element
    recovers old or new, never absent (the per-delta log recovered the
    remove alone when the second write died)."""
    wm = WorkingMemory()
    store = DurableStore(wm, tmp_path)
    order = wm.make("order", id=1, state="new")
    store._wal = dying = _DyingLog(store._wal, survive)
    try:
        wm.modify(order, {"state": "reserved"})
    except StorageFailure:
        pass
    store._wal = dying.handle
    store.close()
    states = [w["state"] for w in _recover(tmp_path).elements("order")]
    assert states in (["new"], ["reserved"])


def test_modify_is_one_record_naming_the_old_element_by_timetag(
    tmp_path, wal_records
):
    wm = WorkingMemory()
    with DurableStore(wm, tmp_path):
        order = wm.make("order", id=1, state="new")
        new = wm.modify(order, {"state": "reserved"})
    make, modify = wal_records(tmp_path)
    assert make == {
        "lsn": 1, "rule": None, "remove": [],
        "add": [[order.timetag, "order", "id", 1, "state", "new"]],
    }
    assert modify == {
        "lsn": 2, "rule": None, "remove": [order.timetag],
        "add": [[new.timetag, "order", "id", 1, "state", "reserved"]],
    }


def test_unit_is_one_record_with_its_net_change(tmp_path, wal_records):
    """Inner brackets join the outermost; an element made and removed
    inside the unit never reaches the log."""
    wm = WorkingMemory()
    with DurableStore(wm, tmp_path) as store:
        keep = wm.make("keep", i=0)
        with wm.atomic("rule-a"):
            temp = wm.make("temp", i=1)
            new = wm.modify(keep, {"i": 2})
            wm.remove(temp)
            assert store.lsn == 1  # nothing before the commit point
        assert store.lsn == 2
    record = wal_records(tmp_path)[1]
    assert record["rule"] == "rule-a"
    assert record["remove"] == [keep.timetag]
    assert [e[0] for e in record["add"]] == [new.timetag]
    assert memory_signature(_recover(tmp_path)) == memory_signature(wm)


def test_rolled_back_unit_writes_nothing(tmp_path):
    """The fold sees the undo: a remove then the re-add of the same
    element cancel, an add then its remove cancel."""
    wm = WorkingMemory()
    with DurableStore(wm, tmp_path) as store:
        row = wm.make("row", n=0)
        before = memory_signature(wm)
        with wm.atomic("aborted"):
            with UndoLog(wm) as undo:
                wm.make("row", n=1)
                wm.modify(row, {"n": 2})
                wm.remove(wm.make("row", n=3))
            assert undo.rollback() == 5
        assert store.lsn == 1
        assert memory_signature(wm) == before
    assert memory_signature(_recover(tmp_path)) == before


def test_abandoned_unit_does_not_leak_into_the_next(tmp_path, wal_records):
    """A bracket left by an exception commits nothing, and what it had
    folded is dropped when the next unit opens."""
    wm = WorkingMemory()
    with DurableStore(wm, tmp_path) as store:
        with pytest.raises(RuntimeError):
            with wm.atomic("dies"):
                wm.make("row", n=1)
                raise RuntimeError("RHS error")
        assert store.lsn == 0
        wm.make("row", n=2)
        assert store.lsn == 1
    (record,) = wal_records(tmp_path)
    assert [e[3] for e in record["add"]] == [2]


def test_failed_commit_leaves_the_unit_open_for_its_undo(tmp_path):
    """``wal:commit`` fires before anything is written.  Taken early
    (``unit.commit()``), the failure leaves the unit open and folded:
    undone inside it, it nets to nothing and the exit writes nothing —
    memory never runs ahead of the log."""
    wm = WorkingMemory()
    injector = FaultPlan(
        [FaultSpec("storage_fail", obj="wal:commit", max_hits=1)], seed=0
    ).injector()
    store = DurableStore(wm, tmp_path)
    row = wm.make("row", n=0)
    store.fault = injector
    with wm.atomic("unlucky") as unit:
        undo = UndoLog(wm).attach()
        wm.modify(row, {"n": 1})
        with pytest.raises(StorageFailure):
            unit.commit()
        undo.detach()
        undo.rollback()
    assert store.lsn == 1
    wm.make("row", n=2)  # journalling goes on, LSNs contiguous
    assert store.lsn == 2
    store.close()
    assert memory_signature(_recover(tmp_path)) == memory_signature(wm)


def test_maintenance_inside_an_open_unit_is_refused(tmp_path):
    wm = WorkingMemory()
    with DurableStore(wm, tmp_path) as store:
        wm.make("row", n=0)
        with wm.atomic():
            wm.make("row", n=1)
            with pytest.raises(StorageError, match="open atomic unit"):
                store.checkpoint()
        store.checkpoint()
    assert memory_signature(_recover(tmp_path)) == memory_signature(wm)


def test_bracket_without_a_unit_listener_is_a_depth_counter():
    """Deltas reach the delta listeners at once, nested brackets join."""
    wm = WorkingMemory()
    seen = []
    wm.subscribe(lambda delta: seen.append(delta.kind))
    with wm.atomic("outer"):
        assert wm.in_unit
        with wm.atomic():
            wm.make("r", i=1)
        assert seen == ["add"] and wm.in_unit
    assert not wm.in_unit
