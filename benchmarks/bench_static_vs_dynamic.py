"""Extension — static partitioning vs dynamic locking (Section 4.1 vs 4.2/4.3).

The paper's critique of the static approach: analysis "must behave in a
conservative manner, sacrificing parallelism" because interference
"usually depends on run-time values of variables".  We make that
measurable: productions whose *templates* overlap (same relations) but
whose *instantiations* touch different tuples.  The static partitioner
serializes them; dynamic tuple-level locking runs them in one wave.
"""

from conftest import report

from repro.core.interference import interferes
from repro.core.static_partition import (
    greedy_partition,
    partition_quality,
)
from repro.engine import ParallelEngine
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WorkingMemory

N_SHARDS = 8


def _rules():
    """Each rule processes one shard of the same 'task' relation.

    Template level: every rule reads and writes relation 'task' ->
    all pairs interfere statically.  Tuple level: shard keys are
    disjoint -> zero dynamic conflicts.
    """
    return [
        RuleBuilder(f"shard-{i}")
        .when("task", shard=i, id=var("t"), state="todo")
        .modify(1, state="done")
        .build()
        for i in range(N_SHARDS)
    ]


def _memory():
    wm = WorkingMemory()
    for shard in range(N_SHARDS):
        wm.make("task", shard=shard, id=shard * 100, state="todo")
    return wm


def test_static_partition_serializes_false_sharing(benchmark):
    rules = _rules()
    groups = benchmark(greedy_partition, rules, interferes)
    quality = partition_quality(groups)
    # Statically everything interferes: one rule per wave.
    assert quality["waves"] == N_SHARDS
    assert quality["width"] == 1

    report(
        "Static approach — template-level ('false') interference",
        [
            ("rules", N_SHARDS, N_SHARDS),
            ("static waves", N_SHARDS, int(quality["waves"])),
            ("static wave width", 1, int(quality["width"])),
        ],
    )


def test_dynamic_locking_exploits_tuple_disjointness(benchmark):
    rules = _rules()

    def run():
        engine = ParallelEngine(rules, _memory(), scheme="rc")
        engine.run()
        return engine

    engine = benchmark(run)
    first_wave = engine.waves[0]
    # Dynamic tuple-level locks let every shard fire in wave 1.
    assert len(first_wave.committed) == N_SHARDS

    report(
        "Dynamic approach — tuple-level locking on the same workload",
        [
            ("firings in first wave", N_SHARDS, len(first_wave.committed)),
            ("total waves", 1, len(engine.waves)),
            ("rule-(ii) aborts", 0, engine.abort_count),
            # A deterministic wave reads rule (ii)'s outcome off its own
            # commit order and never locks the loser.
            ("held back (rule (ii) at admission)", 0, engine.held_count),
            (
                "parallelism gained vs static",
                f"{N_SHARDS}x",
                f"{N_SHARDS / max(1, len(engine.waves))}x",
            ),
        ],
    )
