"""What a run keeps alive after it ends, per e2e workload.

Builds each ``benchmarks/e2e`` workload exactly as its child does (same
generator, sizes, seed and engine), runs it once, uncapped and untimed,
and counts what outlives the run: the working-memory elements still
alive in this process, and the refraction marks the engine's conflict
set still holds.  A run whose memory follows its working memory, not
its firings, keeps exactly the elements working memory holds (a mark
names live elements only: it expires once the unit that removed one of
its elements commits), and no seed waiting in the conflict set (a Rete
tail's pending seed, :mod:`repro.match.rete.tail`) names an element
working memory no longer holds: the script fails if one does.

Run from the repository root::

    PYTHONPATH=src python benchmarks/retained_count.py [--seed 5] [WORKLOAD ...]

It prints one row per workload: firings, working-memory size after the
run, elements alive after the run, and marks held.  ``manners_proc2``
is skipped: its match runs in worker processes.  Counting is outside
``src/`` so that no run pays for it.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Workloads whose match runs in this process.
COUNTED = [name for name in workloads.WORKLOADS if name != "manners_proc2"]


def count(name: str, seed: int) -> tuple[int, int, int, int]:
    """(firings, working-memory size, elements alive, marks held)."""
    from repro.lang import parse_program
    from repro.wm.element import WME, next_timetag
    from repro.wm.memory import WorkingMemory
    from repro.wm.storage import DurableStore

    spec = run.build_spec(name, seed, smoke=False)
    first = next_timetag()
    memory = WorkingMemory()
    store_dir = store = None
    if spec["engine"].get("durable"):
        store_dir = tempfile.mkdtemp(prefix="retained-")
        store = DurableStore(
            memory, store_dir, durability=spec["engine"]["durable"]
        )
    for relation, values in spec["facts"]:
        memory.make(relation, values)
    engine = child.build_engine(spec, parse_program(spec["rules"]), memory)
    parallel = spec["engine"]["kind"] == "parallel"
    limit = {"max_waves" if parallel else "max_cycles": 10**9}
    try:
        result = engine.run(**limit)
    finally:
        engine.close()
        if store is not None:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)
    gc.collect()
    alive = sum(
        1 for obj in gc.get_objects()
        if type(obj) is WME and obj.timetag > first
    )
    conflict_set = engine.matcher.conflict_set
    stale = [
        seed.wme.timetag
        for waiting in conflict_set._pending.values()
        for seed in waiting
        if seed.wme.timetag not in memory
    ]
    if stale:
        raise SystemExit(f"{name}: pending seeds name removed {stale}")
    marks = len(conflict_set.fired())
    return len(result.firings), len(memory), alive, marks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=COUNTED)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    print(
        f"{'workload':<16} {'fired':>6} {'wm':>6} {'alive':>6} {'marks':>6}"
    )
    for name in args.workloads:
        fired, size, alive, marks = count(name, args.seed)
        print(f"{name:<16} {fired:>6} {size:>6} {alive:>6} {marks:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
