"""A firing is the unit of durability, whichever engine fires it.

An aborted firing is never journalled, a committed one is one record
written before its locks are released, and a store failure at the
commit point rolls the firing back (where there is an undo log) so
memory never runs ahead of the log.
"""

import os

import pytest

from repro.engine import Interpreter, ParallelEngine, ThreadedWaveExecutor
from repro.errors import StorageFailure
from repro.fault import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    VirtualSleeper,
    memory_signature,
)
from repro.lang import parse_program
from repro.wm import DurableStore, WorkingMemory

#: Two stages of the order pipeline, four actions per RHS.
RULES = """
(p reserve
   (order ^id <o> ^sku <s> ^state "new")
   (stock ^sku <s> ^qty <q> ^qty >= 1)
   -->
   (modify 1 ^state "reserved")
   (modify 2 ^qty (<q> - 1))
   (make reservation ^order <o> ^sku <s>)
   (make audit ^order <o> ^step "reserve"))

(p pick
   (order ^id <o> ^state "reserved")
   (reservation ^order <o> ^sku <s>)
   -->
   (modify 1 ^state "picked")
   (remove 2)
   (make ticket ^order <o> ^sku <s>)
   (make audit ^order <o> ^step "pick"))
"""
ORDERS = 8


def durable_memory(directory, thread_safe=False, durability="none"):
    """``(memory, store, loaded)``: the facts journalled, one record
    each, before any engine exists."""
    memory = WorkingMemory(thread_safe=thread_safe)
    store = DurableStore(
        memory, directory, durability=durability, segment_max_records=7
    )
    for sku in range(2):
        memory.make("stock", sku=sku, qty=ORDERS)
    for order in range(ORDERS):
        memory.make("order", id=order, sku=order % 2, state="new")
    return memory, store, store.lsn


def recovered_signature(directory):
    recovered, store = DurableStore.open(directory)
    store.close()
    return memory_signature(recovered)


@pytest.mark.parametrize("scheme", ["rc", "2pl"])
def test_an_abort_is_never_journalled(tmp_path, wal_records, scheme):
    """Seeded ``abort_rhs`` + ``crash_commit`` with retries: the log
    holds the loaded facts and one record per *committed* firing, in
    commit order (the per-delta log held every crashed firing's deltas
    and their undo)."""
    memory, store, loaded = durable_memory(tmp_path)
    injector = FaultPlan.chaos(
        5, 0.3, kinds=("abort_rhs", "crash_commit")
    ).injector(sleeper=VirtualSleeper())
    with ParallelEngine(
        parse_program(RULES), memory, scheme=scheme, processors=4,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0005, seed=5),
    ) as engine:
        result = engine.run()
    store.close()
    # The plan bit where it hurts: RHSs ran and were rolled back.
    assert injector.injected["crash_commit"] > 0
    assert injector.injected["abort_rhs"] > 0
    assert len(result.firings) == 2 * ORDERS
    assert store.lsn == loaded + len(result.firings)
    assert [r["rule"] for r in wal_records(tmp_path)[loaded:]] == [
        f.rule_name for f in result.firings
    ]
    assert recovered_signature(tmp_path) == memory_signature(memory)


def commit_failure(store):
    store.fault = FaultPlan(
        [FaultSpec("storage_fail", obj="wal:commit", max_hits=1)], seed=0
    ).injector()
    return store.fault


@pytest.mark.parametrize("executor", [ParallelEngine, ThreadedWaveExecutor])
def test_commit_failure_rolls_the_firing_back(tmp_path, executor):
    """``StorageFailure`` at ``wal:commit`` takes the RHS-raised exit:
    rolled back, fired mark forgotten, locks released, propagated —
    and the run can simply be resumed."""
    threaded = executor is ThreadedWaveExecutor
    memory, store, loaded = durable_memory(tmp_path, thread_safe=threaded)
    before = memory_signature(memory)
    injector = commit_failure(store)
    options = {} if threaded else {"processors": 1}
    engine = executor(parse_program(RULES), memory, scheme="rc", **options)
    eligible = len(engine.matcher.conflict_set.eligible())
    with pytest.raises(StorageFailure):
        engine.run()
    assert injector.total_injected == 1
    assert engine.scheme.manager.grant_table() == {}
    if not threaded:  # one candidate per wave: the failure was the first
        assert engine.result.firings == []
        assert memory_signature(memory) == before
        assert len(engine.matcher.conflict_set.eligible()) == eligible
    assert store.lsn == loaded + len(engine.result.firings)
    result = engine.run()
    engine.close()
    store.close()
    assert len(result.firings) == 2 * ORDERS
    assert store.lsn == loaded + len(result.firings)
    assert recovered_signature(tmp_path) == memory_signature(memory)


def test_commit_failure_under_the_interpreter_propagates(tmp_path):
    """No undo log here, and the bracket does not add one: the error
    leaves ``run()`` with memory as the RHS left it, and the log at
    the state *before* that firing."""
    memory, store, loaded = durable_memory(tmp_path)
    interpreter = Interpreter(parse_program(RULES), memory)
    interpreter.step()
    after_first = memory_signature(memory)
    commit_failure(store)
    with pytest.raises(StorageFailure):
        interpreter.run()
    interpreter.close()
    store.close()
    assert store.lsn == loaded + 1
    assert len(interpreter.result.firings) == 1
    assert memory_signature(memory) != after_first
    assert recovered_signature(tmp_path) == after_first


class _CountingLog:
    def __init__(self, handle):
        self.handle = handle
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        return self.handle.flush()

    def __getattr__(self, name):
        return getattr(self.handle, name)


@pytest.mark.parametrize(
    "durability,fsyncs", [("always", 1), ("batch", 0), ("none", 0)]
)
def test_one_flush_and_one_fsync_per_firing(
    tmp_path, monkeypatch, durability, fsyncs
):
    """A four-action firing (six deltas) costs one ``flush``, and under
    ``always`` one ``fsync`` — it was one of each per delta."""
    memory, store, loaded = durable_memory(tmp_path, durability=durability)
    interpreter = Interpreter(parse_program(RULES), memory)
    store._wal = log = _CountingLog(store._wal)
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
    )
    interpreter.step()
    monkeypatch.undo()
    assert interpreter.result.firing_sequence() == ("reserve",)
    assert store.lsn == loaded + 1
    assert log.flushes == 1
    assert len(synced) == fsyncs
    store._wal = log.handle
    interpreter.close()
    store.close()
