"""Extension — intra-phase parallelism: parallelizing match itself.

Section 2's user-transparent form (1), backed by the survey's parallel
match work [GUPT86, MIRA84, RAMN86].  Production-partitioned match is
modeled as LPT scheduling of per-production match costs; the key shape
(Gupta's empirical finding) is early saturation: skewed costs cap the
attainable speedup at ``Σ cost / max cost`` regardless of processors.

Since ISSUE 2 the model has an executable counterpart:
:class:`repro.match.partitioned.PartitionedMatcher`.  The second half
of this module validates it both ways — the DES substrate's virtual
makespans against the analytic ``lpt_makespan`` curve (within 5% on
the skewed-cost workload), and the serial substrate's conflict set
bit-for-bit against the monolithic matcher on Miss Manners.
"""

from conftest import report

from repro.analysis.match_parallel import (
    lpt_assignment,
    lpt_makespan,
    match_speedup,
    skewed_costs,
    speedup_ceiling,
    speedup_curve,
)
from repro.engine import Interpreter
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match import PartitionedMatcher, ReteMatcher
from repro.wm import WorkingMemory
from repro.workloads.manners import (
    build_manners_memory,
    build_manners_rules,
    validate_seating,
)

PROCESSORS = (1, 2, 4, 8, 16, 32, 64)


def test_match_parallel_saturation(benchmark):
    costs = skewed_costs(60, skew=1.2, seed=11)

    def curve():
        return speedup_curve(costs, PROCESSORS)

    points = benchmark(curve)
    ceiling = speedup_ceiling(costs)
    values = dict(points)
    assert values[1] == 1.0
    assert all(s <= ceiling + 1e-9 for _, s in points)
    # Saturation: the last doubling adds (much) less than the first.
    assert (values[2] - values[1]) > (values[64] - values[32])

    report(
        "Intra-phase match parallelism — skewed costs (60 rules)",
        [
            (f"speedup @ Np={count}", "<= ceiling", round(speedup, 3))
            for count, speedup in points
        ]
        + [("skew ceiling (sum/max)", "-", round(ceiling, 3))],
    )


def test_balanced_costs_scale_to_ceiling(benchmark):
    costs = [1.0] * 64

    def run():
        return match_speedup(costs, 64)

    speedup = benchmark(run)
    assert speedup == 64.0
    report(
        "Intra-phase match parallelism — balanced control",
        [("speedup @ Np=64, equal costs", 64, speedup)],
    )


# -- executable PartitionedMatcher vs the analytic model ---------------------------------


def _cost_program(n_productions: int):
    """One trivial production per cost entry; all match ``tick`` WMEs."""
    return [
        RuleBuilder(f"p{i:02d}")
        .when("tick", k=var("x"))
        .make("out", rule=i)
        .build()
        for i in range(n_productions)
    ]


def test_partitioned_des_validates_lpt_predictions(benchmark):
    """Acceptance: DES substrate within 5% of ``lpt_makespan``.

    Skewed per-production costs (the Gupta workload of the analytic
    test above), LPT sharding, one delta batch: the virtual makespan
    the executable matcher accumulates must reproduce the analytic LPT
    prediction, and the measured virtual speedup must respect the skew
    ceiling.
    """
    costs = skewed_costs(60, skew=1.2, seed=11)
    rules = _cost_program(len(costs))
    cost_map = {f"p{i:02d}": costs[i] for i in range(len(costs))}
    rows = []

    def run_all():
        results = []
        for shards in (2, 4, 8, 16):
            memory = WorkingMemory()
            matcher = PartitionedMatcher(
                memory,
                shards=shards,
                inner="treat",
                backend="des",
                assign="lpt",
                cost_model=cost_map,
            )
            matcher.add_productions(rules)
            matcher.attach()
            with matcher.batch():
                memory.make("tick", k=1)
            results.append((shards, matcher))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ceiling = speedup_ceiling(costs)
    for shards, matcher in results:
        predicted = lpt_makespan(costs, shards)
        measured = matcher.virtual_makespan
        assert abs(measured - predicted) <= 0.05 * predicted, (
            f"Np={shards}: DES makespan {measured:.3f} deviates from "
            f"LPT prediction {predicted:.3f} by more than 5%"
        )
        # The match really executed: every production matched the tick.
        assert len(matcher.conflict_set) == len(costs)
        speedup = matcher.virtual_speedup()
        assert speedup <= ceiling + 1e-9
        # The shard loads realize the analytic LPT schedule.
        loads = [0.0] * shards
        for index, shard in enumerate(lpt_assignment(costs, shards)):
            loads[shard] += costs[index]
        assert abs(max(loads) - predicted) < 1e-9
        rows.append(
            (
                f"DES makespan @ Np={shards}",
                round(predicted, 3),
                round(measured, 3),
            )
        )
        rows.append(
            (
                f"DES speedup @ Np={shards}",
                round(match_speedup(costs, shards), 3),
                round(speedup, 3),
            )
        )
    rows.append(("skew ceiling (sum/max)", "-", round(ceiling, 3)))
    report(
        "Executable partitioned match (DES) vs analytic LPT — "
        "skewed costs (60 rules)",
        rows,
    )


def test_partitioned_serial_bit_identical_on_manners(benchmark):
    """Acceptance: serial substrate == monolithic Rete on Manners.

    One working memory, two attached matchers: the monolithic Rete
    drives an interpreter run of mini Miss Manners while the
    partitioned matcher (4 serial shards) rides the same delta stream.
    After every cycle — and at quiescence — the shared conflict set
    must equal the monolithic one bit-for-bit (same instantiation
    identities, same timetags).  The interpreter's Rete leaves tail
    seeds unbuilt until a select reaches them, so its side is compared
    settled: every pending match built.
    """

    def built(conflict_set):
        conflict_set.settle()
        return conflict_set.members()

    def run():
        memory = build_manners_memory(16, seed=3)
        rules = build_manners_rules()
        partitioned = PartitionedMatcher(
            memory, shards=4, inner="rete", backend="serial"
        )
        partitioned.add_productions(rules)
        partitioned.attach()
        # The Interpreter registers the rules with (and attaches) the
        # monolithic matcher itself.
        monolithic = ReteMatcher(memory)
        interpreter = Interpreter(rules, memory, matcher=monolithic)
        assert (
            partitioned.conflict_set.members()
            == built(monolithic.conflict_set)
        )
        divergences = 0
        cycles = 0
        while interpreter.step() is not None:
            cycles += 1
            if (
                partitioned.conflict_set.members()
                != built(monolithic.conflict_set)
            ):
                divergences += 1
        partitioned.detach()
        return memory, partitioned, monolithic, divergences, cycles

    memory, partitioned, monolithic, divergences, cycles = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert divergences == 0
    assert (
        partitioned.conflict_set.members()
        == built(monolithic.conflict_set)
    )
    validate_seating(memory)
    report(
        "Partitioned serial substrate vs monolithic Rete — "
        "Miss Manners (16 guests)",
        [
            ("per-cycle conflict-set divergences", 0, divergences),
            ("cycles compared", "-", cycles),
            (
                "final conflict set size",
                len(monolithic.conflict_set),
                len(partitioned.conflict_set),
            ),
            ("flushes", "-", partitioned.flush_count),
            ("deltas batched", "-", partitioned.delta_count),
        ],
    )
