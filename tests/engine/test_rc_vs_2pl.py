"""The paper's sign, as an exact count: ``Rc`` needs no more waves than
2PL.

Section 4.3's case for ``Rc``/``Ra``/``Wa`` is that a reader and a
writer of one object can both commit (rule (i)) where 2PL makes one of
them wait.  On the lanes program — Section 5.1's degree of conflict as
the share of jobs that write their lane's gauge — that is a statement
about waves: the same firings in fewer cycles.  Swept here over
conflict x ``Np`` at both benchmark sizes, with no clock anywhere: a
wave count is a property of the schedule, not of the host.

``lanes_program``, the ``hot_rc``/``hot_2pl`` sizes and the checks are
read from ``benchmarks/e2e`` read-only, as ``tests/conformance`` does:
a run is judged here by the rules the benchmark judges it by.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(
    0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
)
import checks  # noqa: E402
import workloads  # noqa: E402

from locking_reference import (  # noqa: E402
    LockingParallelEngine,
    wave_outcomes,
)

from repro.engine import ParallelEngine  # noqa: E402
from repro.lang import parse_program  # noqa: E402
from repro.txn.serializability import (  # noqa: E402
    is_conflict_serializable,
)
from repro.wm import WMSnapshot, WorkingMemory  # noqa: E402

SEED = 5
HOT = workloads.WORKLOADS["hot_rc"]
CONFLICTS = (1 / 8, 1 / 4, 1 / 2, 1)
PROCESSORS = (2, 4, 8, 16, None)


def run(cls, scheme: str, sizes: dict, processors: int | None):
    """``(engine, rules, snapshot, result)`` of one complete run."""
    rules_text, facts = workloads.lanes_program(seed=SEED, **sizes)
    rules = parse_program(rules_text)
    memory = WorkingMemory()
    for relation, values in facts:
        memory.make(relation, values)
    snapshot = WMSnapshot.capture(memory)
    engine = cls(
        rules, memory, scheme=scheme, matcher=HOT.engine["matcher"],
        strategy=HOT.engine["strategy"], processors=processors,
    )
    with engine:
        result = engine.run(10**9)
    return engine, rules, snapshot, result


def waves(
    scheme: str, sizes: dict, processors: int | None, whole_graph: bool
) -> int:
    """Waves of one complete, checked run."""
    engine, rules, snapshot, result = run(
        ParallelEngine, scheme, sizes, processors
    )
    assert result.stop_reason == "quiescent"
    assert len(result.firings) == workloads.reference_firings(HOT, sizes)
    # Replayed by TREAT, the matcher the run did not use.
    assert checks.check_replay(snapshot, rules, result.firings)[0] == []
    # Every commit was certified, and every conflicting pair of the
    # history rebuilt from the certifier is ordered like the commits: a
    # linear certificate that the precedence graph is acyclic.
    assert engine.certifier.commits == len(result.firings)
    assert checks._commit_order_violations(engine.history) == []
    assert checks.check_teardown(engine) == []
    if whole_graph:
        assert is_conflict_serializable(engine.history)
        # The lock-taking reference makes the same waves, and its lock
        # history passes both checks.  The graph is quadratic here
        # (every firing writes the ``job`` catalog key), so smoke size
        # only.
        reference = run(LockingParallelEngine, scheme, sizes, processors)[0]
        assert wave_outcomes(reference) == wave_outcomes(engine)
        assert checks._commit_order_violations(reference.history) == []
        assert is_conflict_serializable(reference.history)
        assert checks.check_teardown(reference) == []
    return len(engine.waves)


@pytest.mark.parametrize("processors", PROCESSORS)
@pytest.mark.parametrize("conflict", CONFLICTS)
@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_rc_needs_no_more_waves_than_2pl(smoke, conflict, processors):
    sizes = {**HOT.sizes(smoke), "conflict": conflict}
    rc = waves("rc", sizes, processors, whole_graph=smoke)
    two_phase = waves("2pl", sizes, processors, whole_graph=smoke)
    assert rc <= two_phase
    benchmark_cell = (
        conflict == HOT.size["conflict"]
        and processors == HOT.engine["processors"]
    )
    if benchmark_cell:
        # hot_rc against hot_2pl, the paper's central comparison.
        assert rc < two_phase
