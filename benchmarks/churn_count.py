"""Conflict-set churn per e2e workload: instantiations built vs fired.

Builds each ``benchmarks/e2e`` workload exactly as its child does (same
generator, sizes, seed and engine), wraps the engine's conflict set to
count the instantiations that enter it, ``Token`` to count the Rete
tokens built and the strategy's ``key`` to count the ranking keys
evaluated, and runs once, uncapped and untimed.
Most instantiations leave unfired: a ``modify`` retracts and re-derives
every instantiation joined to the element, and only one per cycle (or
a wave's worth) fires.

Run from the repository root::

    PYTHONPATH=src python benchmarks/churn_count.py [--seed 5] [WORKLOAD ...]

It prints one row per workload: instantiations in the engine's conflict
set after attach, instantiations added during the run, firings, all
built over fired, and the Rete tokens built during the run in this
process (0 where the match runs in worker processes).  A complete
match is one token — the production node hangs its instantiation on
the last join's token — so a row's tokens count each instantiation
once, not twice.  ``ranked`` counts strategy key evaluations: a select
ranks only the leading bucket of the conflict set, so it counts what
selects and wave orders ranked, not the size of the conflict set.
Counting is outside ``src/`` so that no run pays for it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def count(name: str, seed: int) -> tuple[int, int, int, int, int]:
    """(instantiations in the conflict set after attach, instantiations
    added during the run, firings, Rete tokens built during the run,
    strategy keys evaluated during the run)."""
    from repro.lang import parse_program
    from repro.match.rete.nodes import Token
    from repro.match.strategies import make_strategy
    from repro.wm.memory import WorkingMemory
    from repro.wm.storage import DurableStore

    spec = run.build_spec(name, seed, smoke=False)
    memory = WorkingMemory()
    store_dir = store = None
    if spec["engine"].get("durable"):
        store_dir = tempfile.mkdtemp(prefix="churn-")
        store = DurableStore(
            memory, store_dir, durability=spec["engine"]["durable"]
        )
    for relation, values in spec["facts"]:
        memory.make(relation, values)
    # Wrapped on the class before the engine is built, so the engine's
    # strategy instance, and whatever it hands the key to, calls it.
    strategy_class = type(make_strategy(spec["engine"]["strategy"]))
    saved_key = vars(strategy_class)["key"]
    key = strategy_class.key
    ranked = 0

    def counted_key(instantiation):
        nonlocal ranked
        ranked += 1
        return key(instantiation)

    strategy_class.key = staticmethod(counted_key)
    engine = child.build_engine(spec, parse_program(spec["rules"]), memory)
    conflict_set = engine.matcher.conflict_set
    attached = len(conflict_set)
    added = 0
    add = conflict_set.add

    def counted_add(instantiation) -> bool:
        nonlocal added
        fresh = add(instantiation)
        added += fresh
        return fresh

    conflict_set.add = counted_add
    tokens = 0
    construct = Token.__init__

    def counted_init(self, *args) -> None:
        nonlocal tokens
        tokens += 1
        construct(self, *args)

    Token.__init__ = counted_init
    parallel = spec["engine"]["kind"] == "parallel"
    limit = {"max_waves" if parallel else "max_cycles": 10**9}
    try:
        result = engine.run(**limit)
    finally:
        Token.__init__ = construct
        strategy_class.key = saved_key
        engine.close()
        if store is not None:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)
    return attached, added, len(result.firings), tokens, ranked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workloads", nargs="*", default=list(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    print(
        f"{'workload':<16} {'attach':>7} {'run':>7} {'fired':>6} "
        f"{'built/fired':>11} {'tokens':>7} {'ranked':>7}"
    )
    for name in args.workloads:
        attached, added, fired, tokens, ranked = count(name, args.seed)
        built = attached + added
        print(
            f"{name:<16} {attached:>7} {added:>7} {fired:>6} "
            f"{built / fired:>11.2f} {tokens:>7} {ranked:>7}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
