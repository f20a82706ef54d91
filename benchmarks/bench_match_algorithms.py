"""Extension — naive vs Rete vs TREAT match cost (Section 2's survey).

The paper credits Rete [FORG82] with (1) incremental evaluation via
stored partial matches and (2) shared subexpressions, and cites TREAT
[MIRA84] as the conflict-set-retaining alternative.  This bench times
all three on an incremental delta stream; expected shape: naive pays a
full re-match per delta and loses by a growing factor as working memory
grows.  The partitioned entries (ISSUE 2) wrap the same inner
algorithms in :class:`~repro.match.partitioned.PartitionedMatcher`
and must agree with the monolithic runs while exposing the sharding
overhead in the timing table.
"""

import pytest
from conftest import report

from repro.lang import RuleBuilder
from repro.lang.builder import gt, var
from repro.match import (
    CondRelationMatcher,
    NaiveMatcher,
    PartitionedMatcher,
    ReteMatcher,
    TreatMatcher,
)
from repro.wm import WorkingMemory


def _partitioned(inner, backend):
    def factory(wm):
        return PartitionedMatcher(wm, shards=4, inner=inner, backend=backend)

    return factory


MATCHERS = {
    "naive": NaiveMatcher,
    "rete": ReteMatcher,
    "treat": TreatMatcher,
    "cond": CondRelationMatcher,
    "partitioned-rete": _partitioned("rete", "serial"),
    "partitioned-treat": _partitioned("treat", "serial"),
}


def _program():
    return [
        RuleBuilder("pair")
        .when("order", id=var("o"), status="open")
        .when("line", order=var("o"))
        .make("picked", order=var("o"))
        .build(),
        RuleBuilder("big")
        .when("order", total=gt(500), status="open")
        .make("review")
        .build(),
        RuleBuilder("lonely")
        .when("order", id=var("o"))
        .when_not("line", order=var("o"))
        .make("nag", order=var("o"))
        .build(),
    ]


def _drive(matcher_cls, n_orders: int):
    wm = WorkingMemory()
    matcher = matcher_cls(wm)
    matcher.add_productions(_program())
    matcher.attach()
    for i in range(n_orders):
        wm.make("order", id=i, status="open", total=i * 37 % 1000)
        if i % 2 == 0:
            wm.make("line", order=i, qty=1)
    # Incremental churn: modify a slice of orders.
    for wme in list(wm.elements("order"))[: n_orders // 4]:
        wm.modify(wme, {"status": "closed"})
    size = len(matcher.conflict_set)
    matcher.detach()
    return size


@pytest.mark.parametrize("name", sorted(MATCHERS))
def test_match_algorithm_cost(benchmark, name):
    size = benchmark(_drive, MATCHERS[name], 60)
    assert size > 0


def test_matchers_agree_and_report():
    sizes = {
        name: _drive(cls, 60) for name, cls in MATCHERS.items()
    }
    assert len(set(sizes.values())) == 1
    report(
        "Match algorithms — conflict-set agreement (60 orders + churn)",
        [
            (f"{name} conflict set", sizes["naive"], size)
            for name, size in sorted(sizes.items())
        ],
    )
    print(
        "(relative timings are in the pytest-benchmark table; expected "
        "shape: rete/treat beat naive, gap grows with WM size; the "
        "partitioned wrappers add fan-out/merge overhead on top of "
        "their inner algorithm)"
    )
