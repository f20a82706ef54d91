"""Crash-equivalence sweep for the durable store.

Hellerstein's determination/provenance framing (PAPERS.md): recovery
must land on *one admissible outcome*.  For a production system's
write-ahead log that outcome is exact — a **commit-sequence prefix**:
every unit (:meth:`~repro.wm.memory.WorkingMemory.atomic`) the store
acknowledged, whole, nothing more, nothing less — so the recovered
database is a node of the execution graph, never the inside of a
firing or of a ``modify``.  This module proves it by brute force, two
ways, each on a :class:`~repro.wm.storage.DurableStore` with tiny
segments (so rotation, checkpointing and compaction all happen) while a
fault plan crashes exactly one storage window
(:data:`~repro.wm.storage.STORAGE_FAULT_SITES`); the run stops at the
crash (the simulated process death), the directory is recovered, and
the recovered memory must be bit-identical — same timetags, same
values — to the reference state:

* **raw operations** (:func:`run_crash_case`): a seeded random sequence
  of ``make`` / ``remove`` / ``modify``, each one unit;
* **firings** (:func:`repro.fault.firing_chaos.run_firing_crash_case`,
  its own module: it needs the engines, which import this package):
  the order pipeline of ``benchmarks/e2e`` (four actions per RHS) run
  by ``Interpreter`` or by ``ParallelEngine(rc, processors=4)``, with a
  checkpoint or a compaction every few cycles.  There the reference is
  also checked against the execution graph: the log acknowledged
  exactly ``result.firings``, and ``replay_commit_sequence`` over that
  prefix reaches the recovered database.

The reference is tracked with a unit listener subscribed *after* the
store: working memory tells unit listeners of a commit in order, so
when the store's raises (the injected crash fires before the record is
written), the tracker never hears of that unit — the state it filed
under the store's last LSN is exactly the acknowledged prefix.

Used by ``repro storage chaos`` and the property tests in
``tests/wm/test_storage_crash.py``.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import StorageFailure
from repro.fault.plan import FaultPlan, FaultSpec
from repro.wm.memory import WorkingMemory
from repro.wm.storage import DurableStore, STORAGE_FAULT_SITES

#: What drives the store in a crash case: raw operations, or the order
#: pipeline under one of the two engines a firing changes the database
#: through.
DRIVERS = ("ops", "interpreter", "parallel")


def memory_signature(memory: WorkingMemory) -> frozenset:
    """Bit-level identity of a working memory: timetags *and* values.

    Stronger than ``value_identity_set`` — recovery must reconstruct
    the exact elements (recency ordering depends on timetags), not
    just an equivalent value set.
    """
    return frozenset((w.timetag, w.identity()) for w in memory)


@dataclass
class CrashCase:
    """One (seed, site, driver) crash-recovery experiment.

    ``ops_applied`` counts what the driver completed: operations, or
    committed firings.
    """

    seed: int
    site: str
    driver: str = "ops"
    fired: bool = False
    crashed: bool = False
    ops_applied: int = 0
    ok: bool = True
    detail: str = ""


@dataclass
class SweepResult:
    """Aggregate of a crash-equivalence sweep."""

    cases: list[CrashCase] = field(default_factory=list)

    @property
    def failures(self) -> list[CrashCase]:
        return [c for c in self.cases if not c.ok]

    @property
    def consistent(self) -> bool:
        return not self.failures

    def sites_fired(self) -> dict[str, int]:
        """How many cases actually hit each site (coverage check)."""
        fired: dict[str, int] = {site: 0 for site in STORAGE_FAULT_SITES}
        for case in self.cases:
            if case.fired:
                fired[case.site] = fired.get(case.site, 0) + 1
        return fired


class AckTracker:
    """Files the memory's signature under the store's LSN at every
    commit the store acknowledged (see the module docstring)."""

    def __init__(self, memory: WorkingMemory, store: DurableStore) -> None:
        self._memory = memory
        self._store = store
        self.states = {store.lsn: memory_signature(memory)}
        memory.subscribe_units(self._opened, self._committed)

    def _opened(self, _label: str | None) -> None:
        pass

    def _committed(self) -> None:
        self.states[self._store.lsn] = memory_signature(self._memory)

    def close(self) -> frozenset:
        """Stop tracking; the state of the acknowledged prefix."""
        self._memory.unsubscribe_units(self._opened, self._committed)
        return self.states[self._store.lsn]


def check_recovery(
    case: CrashCase, directory: str | Path, expected: frozenset
) -> WorkingMemory | None:
    """Recover twice: both must land on ``expected`` (recovery is
    idempotent).  Returns the recovered memory, None on a mismatch
    (filed in ``case``)."""
    recovered, store = DurableStore.open(directory)
    got = memory_signature(recovered)
    store.close()
    if got != expected:
        case.ok = False
        case.detail = (
            f"recovered {len(got)} elements != commit-sequence prefix "
            f"{len(expected)} (diff {len(got ^ expected)})"
        )
        return None
    again, store = DurableStore.open(directory)
    store.close()
    if memory_signature(again) != expected:
        case.ok = False
        case.detail = "second recovery diverged from the first"
        return None
    return recovered


def run_crash_case(
    seed: int,
    site: str,
    directory: str | Path,
    ops: int = 48,
    segment_max_records: int = 5,
    checkpoint_every: int = 9,
    compact_every: int = 13,
    durability: str = "batch",
) -> CrashCase:
    """Run one seeded op sequence, crash at ``site``, verify recovery.

    The schedule is deterministic given ``seed``: mutations are drawn
    from a seeded RNG, a checkpoint lands every ``checkpoint_every``-th
    op and a compaction every ``compact_every``-th, and the fault spec
    (``rate=1.0``, ``max_hits=1``, ``obj=site``) fires at the first
    visit of the targeted window.
    """
    case = CrashCase(seed=seed, site=site)
    rng = random.Random(seed)
    memory = WorkingMemory()
    plan = FaultPlan(
        [FaultSpec("storage_fail", rate=1.0, obj=site, max_hits=1)],
        seed=seed,
    )
    injector = plan.injector()
    store = DurableStore(
        memory,
        directory,
        injector,
        durability=durability,
        segment_max_records=segment_max_records,
    )
    tracker = AckTracker(memory, store)
    try:
        for index in range(ops):
            live = sorted(memory, key=lambda w: w.timetag)
            if index and index % checkpoint_every == 0:
                store.checkpoint()
            elif index and index % compact_every == 0:
                store.compact()
            else:
                roll = rng.random()
                if roll < 0.5 or not live:
                    memory.make("item", k=rng.randint(0, 4))
                elif roll < 0.75:
                    memory.remove(live[rng.randrange(len(live))])
                else:
                    memory.modify(
                        live[rng.randrange(len(live))],
                        {"k": rng.randint(0, 4)},
                    )
            case.ops_applied += 1
    except StorageFailure:
        case.crashed = True
    finally:
        expected = tracker.close()
        store.close()
    case.fired = injector.total_injected > 0
    check_recovery(case, directory, expected)
    return case


def crash_equivalence_sweep(
    seeds: Iterable[int] = range(4),
    sites: Sequence[str] = STORAGE_FAULT_SITES,
    root: str | Path | None = None,
    drivers: Sequence[str] = DRIVERS,
    ops: int = 48,
    durability: str = "batch",
) -> SweepResult:
    """Run a crash case for every (seed, site, driver) triple:
    :func:`run_crash_case` (``ops`` operations) for ``"ops"``,
    :func:`~repro.fault.firing_chaos.run_firing_crash_case` for the
    engines.

    Uses a temporary directory per case under ``root`` (or a fresh
    tempdir).  The sweep passes only when every case recovers its
    commit-sequence prefix *and* every site fired in at least one case
    — a window the workload never reaches is an untested window.
    """
    if set(drivers) - {"ops"}:
        # The engines import this package: not at module level.
        from repro.fault.firing_chaos import run_firing_crash_case
    result = SweepResult()
    with tempfile.TemporaryDirectory(
        dir=str(root) if root is not None else None,
        prefix="storage-chaos-",
    ) as base:
        for seed in seeds:
            for index, site in enumerate(sites):
                for driver in drivers:
                    directory = Path(base) / f"seed{seed}-site{index}-{driver}"
                    if driver == "ops":
                        case = run_crash_case(
                            seed, site, directory, ops=ops,
                            durability=durability,
                        )
                    else:
                        case = run_firing_crash_case(
                            seed, site, directory, driver=driver,
                            durability=durability,
                        )
                    result.cases.append(case)
    return result
