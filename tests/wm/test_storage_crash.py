"""Failure-injection property tests for durable storage.

The recovery contract: truncating the WAL at *any* byte boundary (a
crash mid-write) must still recover successfully, yielding the state
after a prefix of the committed units — never an error, never a
half-applied record, never half a ``modify`` or half a firing.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.wm import DurableStore, WorkingMemory

_command = st.one_of(
    st.tuples(st.just("make"), st.integers(0, 4)),
    st.tuples(st.just("remove"), st.integers(0, 10)),
    st.tuples(st.just("modify"), st.integers(0, 10), st.integers(0, 4)),
)


def _apply(memory: WorkingMemory, commands) -> list[frozenset]:
    """Apply commands, returning the value-identity state after each
    one — each is a unit, so these are the prefix states recovery may
    land on (the inside of a ``modify`` is not among them)."""
    states = [memory.value_identity_set()]
    for command in commands:
        live = sorted(memory, key=lambda w: w.timetag)
        if command[0] == "make":
            memory.make("item", v=command[1])
        elif command[0] == "remove" and live:
            memory.remove(live[command[1] % len(live)])
        elif command[0] == "modify" and live:
            memory.modify(live[command[1] % len(live)], {"v": command[2]})
        else:
            continue
        states.append(memory.value_identity_set())
    return states


@given(
    commands=st.lists(_command, min_size=1, max_size=10),
    cut_fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_recovery_from_any_wal_truncation(tmp_path_factory, commands, cut_fraction):
    directory = tmp_path_factory.mktemp("walcut")
    memory = WorkingMemory()
    store = DurableStore(memory, directory)
    valid_states = _apply(memory, commands)
    active = store.active_segment_path
    store.close()

    payload = active.read_bytes()
    cut = int(len(payload) * cut_fraction)
    active.write_bytes(payload[:cut])

    recovered, store2 = DurableStore.open(directory)
    store2.close()
    assert recovered.value_identity_set() in valid_states


@given(commands=st.lists(_command, min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_checkpoint_then_crash_recovers_at_least_checkpoint(
    tmp_path_factory, commands
):
    """After a checkpoint, even deleting the whole WAL recovers the
    checkpointed state exactly."""
    directory = tmp_path_factory.mktemp("ckpt")
    memory = WorkingMemory()
    store = DurableStore(memory, directory)
    _apply(memory, commands)
    checkpoint_state = memory.value_identity_set()
    store.checkpoint()
    memory.make("item", v=99)  # post-checkpoint write, WAL only
    store.close()

    # Crash lost every WAL segment.
    for path in DurableStore.segment_paths(directory):
        path.write_bytes(b"")
    recovered, store2 = DurableStore.open(directory)
    store2.close()
    assert recovered.value_identity_set() == checkpoint_state


def test_interrupted_checkpoint_leaves_recoverable_pair(tmp_path):
    """A crash mid-checkpoint (temp file written, rename not done)
    leaves the old checkpoint + full WAL: recovery sees everything."""
    memory = WorkingMemory()
    store = DurableStore(memory, tmp_path)
    memory.make("item", v=1)
    memory.make("item", v=2)
    expected = memory.value_identity_set()
    # Simulate the torn checkpoint: write the temp file only.
    from repro.wm.storage import serialize_wme

    with open(tmp_path / "checkpoint.jsonl.tmp", "w") as handle:
        handle.write(json.dumps({"checkpoint_lsn": 1}) + "\n")
        for wme in memory:
            handle.write(json.dumps(serialize_wme(wme)) + "\n")
    store.close()
    recovered, store2 = DurableStore.open(tmp_path)
    store2.close()
    assert recovered.value_identity_set() == expected


# -- crash-at-every-window equivalence (satellite: chaos sweep) ------------------------

import sys
from pathlib import Path

import pytest

from repro.fault import crash_equivalence_sweep, firing_chaos, run_crash_case
from repro.wm.storage import STORAGE_FAULT_SITES


@pytest.mark.parametrize("site", STORAGE_FAULT_SITES)
def test_crash_at_site_recovers_journalled_prefix(tmp_path, site):
    """Crashing at any storage window must recover bit-identical to
    the journalled prefix (every acknowledged unit, whole, nothing
    more)."""
    case = run_crash_case(seed=1, site=site, directory=tmp_path)
    assert case.ok, case.detail


def test_engine_driven_sweep_recovers_a_commit_sequence_prefix():
    """The crash sweep knows what a firing is: the order pipeline under
    ``Interpreter`` and ``ParallelEngine(rc, processors=4)``, crashed at
    every storage window on four seeds, recovers the state
    ``replay_commit_sequence`` reaches after the firings the log
    acknowledged — and every window is reached."""
    result = crash_equivalence_sweep(
        seeds=range(4), drivers=("interpreter", "parallel")
    )
    assert len(result.cases) == 4 * len(STORAGE_FAULT_SITES) * 2
    assert [c.detail for c in result.failures] == []
    assert all(result.sites_fired().values()), result.sites_fired()
    crashed_mid_run = [
        c for c in result.cases if c.crashed and 0 < c.ops_applied < 120
    ]
    assert {c.driver for c in crashed_mid_run} == {"interpreter", "parallel"}


def test_sweep_pipeline_is_the_benchmark_orders_program():
    """The sweep runs the e2e orders rules at smoke size; the library
    carries its own copy (it cannot import ``benchmarks/``), pinned
    here to the benchmark's generator."""
    sys.path.insert(
        0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
    )
    import workloads

    smoke = workloads.WORKLOADS["orders_durable"].sizes(smoke=True)
    rules, facts = workloads.orders_program(seed=3, **smoke)
    assert firing_chaos.PIPELINE_RULES == rules
    assert firing_chaos.pipeline_facts(seed=3, **smoke) == facts


@given(
    seed=st.integers(0, 2**16),
    site=st.sampled_from(STORAGE_FAULT_SITES),
)
@settings(max_examples=25, deadline=None)
def test_crash_equivalence_property(tmp_path_factory, seed, site):
    """Property form of the sweep: arbitrary seeds, arbitrary windows —
    recovery always lands on the journalled prefix (whole units) and is
    idempotent."""
    directory = tmp_path_factory.mktemp("chaos")
    case = run_crash_case(
        seed=seed, site=site, directory=directory, ops=32
    )
    assert case.ok, case.detail
