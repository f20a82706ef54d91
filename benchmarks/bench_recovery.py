"""Recovery — restart time vs WM size, snapshot interval, compaction.

Not a paper figure: this charts the durable-store subsystem added on
top of the reproduction.  Three claims are measured:

1. **Restart vs WM size** — cold-start replay cost grows with the
   journalled history, and a snapshot collapses it: recovering from a
   checkpoint is bounded by live elements, not by history length.
2. **Restart vs snapshot interval** — the closer the last checkpoint,
   the fewer WAL records replay on restart; the interval is the knob
   trading checkpoint overhead for restart latency.
3. **Compaction bounds the WAL** — under churn (add/remove pairs),
   incremental compaction keeps total WAL bytes flat while the
   uncompacted log grows linearly in the number of deltas.

Everything goes through the public API with bare mutations, so each
delta is a unit of one and one WAL record (the store journals one
commit record per ``WorkingMemory.atomic`` unit).

Set ``REPRO_BENCH_SMOKE=1`` (CI recovery-smoke job) for a reduced
grid; the committed ``BENCH_recovery.json`` carries the default grid
(up to 100k WMEs).  The 1M-WME tier takes minutes and is opt-in:
``REPRO_BENCH_FULL=1``.
"""

import os
import time

import pytest
from conftest import report

from repro.wm import DurableStore, WorkingMemory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Working-memory sizes for the restart-time sweep.  Tier titles stay
#: the same in every grid so CI's reduced one diffs cleanly against the
#: committed baseline (tier 3 exists only under ``REPRO_BENCH_FULL``).
SIZES = (2_000, 10_000) if SMOKE else (10_000, 100_000)
if FULL:
    SIZES += (1_000_000,)
#: Ops for the snapshot-interval sweep; intervals divide it.
INTERVAL_OPS = 2_000 if SMOKE else 50_000
INTERVALS = (0, 4, 64)  # checkpoints per run
#: Churn rounds for the compaction-bound sweep.
CHURN_ROUNDS = 4 if SMOKE else 10
CHURN_OPS = 200 if SMOKE else 2_000  # add/remove pairs per round


def _populate(directory, count):
    """Journal a history of ``3 * count`` deltas — bare mutations, so
    ``3 * count`` records — leaving ``count`` live elements (each kept
    add rides with a churned add/remove pair), with no fsync — build
    cost is not the thing under test.
    Returns total WAL bytes.  The 3:1 history:live ratio is what
    separates replay restart (pays for history) from snapshot restart
    (pays for live elements only)."""
    memory = WorkingMemory()
    store = DurableStore(
        memory,
        directory,
        durability="none",
        segment_max_records=100_000,
    )
    for i in range(count):
        memory.make("item", i=i, payload=i * 7 % 1013)
        temp = memory.make("temp", i=i)
        memory.remove(temp)
    wal_bytes = store.wal_bytes()
    store.close()
    return wal_bytes


def _timed_open(directory):
    start = time.perf_counter()
    memory, store = DurableStore.open(directory, durability="none")
    seconds = time.perf_counter() - start
    report_ = store.last_recovery
    store.close()
    return memory, seconds, report_


def test_restart_time_vs_wm_size(tmp_path):
    """Replay restart is linear in history; snapshot restart is
    bounded by live elements and must beat replay at every size.

    Sizes loop inside one test (not parametrize) so the nodeid and
    the per-tier report titles are identical in smoke and full runs —
    CI's reduced grid diffs against the committed baseline without
    structural noise (the full run just has an extra tier)."""
    for tier, size in enumerate(SIZES, start=1):
        directory = tmp_path / f"tier{tier}"
        wal_bytes = _populate(directory, size)

        memory, replay_seconds, rec = _timed_open(directory)
        assert len(memory) == size
        assert rec.replayed == 3 * size

        # Checkpoint, then restart again from the snapshot.
        _, store = DurableStore.open(directory, durability="none")
        store.checkpoint()
        store.close()
        memory2, snapshot_seconds, rec2 = _timed_open(directory)
        assert len(memory2) == size
        assert rec2.replayed == 0

        report(
            f"recovery — restart vs WM size (tier {tier})",
            [
                ("working-memory elements", "-", size),
                ("WAL records journalled", "-", 3 * size),
                ("WAL bytes journalled", "-", wal_bytes),
                ("replay restart (s)", "-", round(replay_seconds, 4)),
                (
                    "replay records/s",
                    "-",
                    round(3 * size / replay_seconds)
                    if replay_seconds
                    else 0,
                ),
                ("snapshot restart (s)", "-",
                 round(snapshot_seconds, 4)),
                (
                    "snapshot speedup",
                    ">= 1",
                    round(replay_seconds / snapshot_seconds, 2)
                    if snapshot_seconds
                    else float("inf"),
                ),
            ],
        )


@pytest.mark.parametrize("checkpoints", INTERVALS)
def test_restart_time_vs_snapshot_interval(tmp_path, checkpoints):
    """Fixed churn workload, varying checkpoint cadence: restart
    replays only the post-checkpoint tail, so more frequent snapshots
    buy faster restarts."""
    interval = INTERVAL_OPS // checkpoints if checkpoints else 0
    memory = WorkingMemory()
    store = DurableStore(
        memory,
        tmp_path,
        durability="none",
        segment_max_records=100_000,
    )
    checkpoint_seconds = 0.0
    live = []
    for i in range(INTERVAL_OPS):
        if i % 3 == 0 and live:
            memory.remove(live.pop())
        else:
            live.append(memory.make("item", i=i))
        if interval and i and i % interval == 0:
            start = time.perf_counter()
            store.checkpoint()
            checkpoint_seconds += time.perf_counter() - start
    elements = len(memory)
    store.close()

    recovered, restart_seconds, rec = _timed_open(tmp_path)
    assert len(recovered) == elements
    if interval:
        assert rec.replayed < INTERVAL_OPS

    label = f"{checkpoints} checkpoints" if interval else "never"
    report(
        f"recovery — restart vs snapshot interval ({label})",
        [
            ("ops journalled", "-", INTERVAL_OPS),
            ("checkpoints taken", checkpoints, checkpoints),
            ("checkpoint interval (ops)", "-", interval),
            ("checkpoint overhead (s)", "-",
             round(checkpoint_seconds, 4)),
            ("records replayed on restart", "-", rec.replayed),
            ("restart (s)", "-", round(restart_seconds, 4)),
        ],
    )


def test_compaction_bounds_wal_size(tmp_path):
    """Churn workload, no checkpoints: the compacted WAL plateaus
    (bytes stay near the post-first-round floor) while the
    uncompacted WAL grows linearly with deltas."""

    def churn(store, memory):
        for i in range(CHURN_OPS):
            wme = memory.make("temp", i=i)
            memory.remove(wme)

    plain_dir = tmp_path / "plain"
    compact_dir = tmp_path / "compacted"
    plain_sizes, compact_sizes = [], []
    compact_seconds = 0.0

    memory_a = WorkingMemory()
    store_a = DurableStore(
        memory_a, plain_dir, durability="none",
        segment_max_records=512,
    )
    memory_b = WorkingMemory()
    store_b = DurableStore(
        memory_b, compact_dir, durability="none",
        segment_max_records=512,
    )
    for _ in range(CHURN_ROUNDS):
        churn(store_a, memory_a)
        plain_sizes.append(store_a.wal_bytes())
        churn(store_b, memory_b)
        start = time.perf_counter()
        store_b.compact()
        compact_seconds += time.perf_counter() - start
        compact_sizes.append(store_b.wal_bytes())
    store_a.close()
    store_b.close()

    # Plateau, not linear: the final compacted WAL must sit at the
    # first-round floor (a noop marker), while the plain WAL ends
    # ~CHURN_ROUNDS times its own first round.
    assert compact_sizes[-1] <= compact_sizes[0] + 256
    assert plain_sizes[-1] >= plain_sizes[0] * (CHURN_ROUNDS - 1)

    # Both recover to the same (empty) state.
    recovered_a, _, _ = _timed_open(plain_dir)
    recovered_b, _, _ = _timed_open(compact_dir)
    assert len(recovered_a) == len(recovered_b) == 0

    deltas = 2 * CHURN_OPS * CHURN_ROUNDS
    report(
        "recovery — compaction bounds WAL size (churn)",
        [
            ("deltas journalled", "-", deltas),
            ("uncompacted WAL bytes (round 1)", "-", plain_sizes[0]),
            ("uncompacted WAL bytes (final)", "-", plain_sizes[-1]),
            ("compacted WAL bytes (round 1)", "-", compact_sizes[0]),
            ("compacted WAL bytes (final)", "-", compact_sizes[-1]),
            (
                "final plain/compacted ratio",
                "> 10",
                round(plain_sizes[-1] / max(compact_sizes[-1], 1), 1),
            ),
            ("compaction overhead (s)", "-",
             round(compact_seconds, 4)),
        ],
    )
