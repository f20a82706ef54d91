"""Wave admission: rule (ii) decided before the locks are taken.

The parent behaviour is the oracle.  A deterministic wave used to lock
every candidate, let the earlier slots commit and abort the readers of
what they wrote; ``ParallelEngine._admit`` computes that outcome from
the ordered footprints and holds the readers back instead.  An engine
whose ``_admit`` returns its input *is* the old engine, so every cell
runs both and demands the same commits, wave by wave, with the
oracle's ``aborted`` list equal to the engine's ``held`` list.

Programs are taken read-only from ``benchmarks/e2e`` (as
``tests/conformance`` does), plus the SNIPPETS.md S->X upgrade fixture
and Figure 4.4's circular pair.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(
    0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
)
import run as e2e  # noqa: E402

from repro.engine import (  # noqa: E402
    MultiUserEngine,
    ParallelEngine,
    Session,
    replay_commit_sequence,
)
from repro.engine.parallel import WaveResult  # noqa: E402
from repro.fault import FaultPlan, FaultSpec, RetryPolicy  # noqa: E402
from repro.lang import parse_program  # noqa: E402
from repro.txn.serializability import (  # noqa: E402
    is_conflict_serializable,
)
from repro.wm import WMSnapshot, WorkingMemory  # noqa: E402

SEED = 11
STRATEGIES = ("lex", "mea", "priority", "fifo")
PROCESSORS = (None, 1, 3, 8)
E2E_PROGRAMS = {
    "lanes": "hot_rc", "orders": "orders_durable", "manners": "manners_rc",
}

#: SNIPPETS.md's write-skew case: both instantiations read both rows
#: and each wants to write one of them.
ON_CALL = (
    """
(p go-off-call
   (doctor ^name <a> ^on_call "yes")
   (doctor ^name <b> ^name <> <a> ^on_call "yes")
   -->
   (modify 1 ^on_call "no"))
""",
    [
        ("doctor", {"name": "alice", "on_call": "yes"}),
        ("doctor", {"name": "bob", "on_call": "yes"}),
    ],
)

#: Figure 4.4: Pi reads q and r and writes r; Pj reads both and writes q.
FIGURE_4_4 = (
    """
(p pi
   (item ^id "q" ^state "fresh")
   (item ^id "r" ^state "fresh")
   -->
   (modify 2 ^state "written-by-pi"))
(p pj
   (item ^id "q" ^state "fresh")
   (item ^id "r" ^state "fresh")
   -->
   (modify 1 ^state "written-by-pj"))
""",
    [
        ("item", {"id": "q", "state": "fresh"}),
        ("item", {"id": "r", "state": "fresh"}),
    ],
)


def program(name: str):
    """``(rule text, facts)`` of one fixture, e2e programs at smoke
    size."""
    if name == "on_call":
        return ON_CALL
    if name == "figure_4_4":
        return FIGURE_4_4
    spec = e2e.build_spec(E2E_PROGRAMS[name], SEED, smoke=True)
    return spec["rules"], spec["facts"]


class _NoAdmission:
    """The parent's behaviour: every candidate is locked, and rule
    (ii) sorts them out at commit."""

    def _admit(self, wave, candidates, spans, cycle_span):
        return candidates


class ParallelOracle(_NoAdmission, ParallelEngine):
    pass


class MultiUserOracle(_NoAdmission, MultiUserEngine):
    pass


def build(cls, rules_text, facts, scheme="rc", strategy="lex",
          processors=None, **options):
    """``(engine, rules, snapshot)`` with the facts loaded."""
    rules = parse_program(rules_text)
    memory = WorkingMemory()
    for relation, values in facts:
        memory.make(relation, values)
    snapshot = WMSnapshot.capture(memory)
    if issubclass(cls, MultiUserEngine):
        half = (len(rules) + 1) // 2
        engine = cls(
            [Session.of("ann", rules[:half]),
             Session.of("bo", rules[half:])],
            memory, scheme=scheme, base_strategy=strategy,
            processors=processors, **options,
        )
    else:
        engine = cls(
            rules, memory, scheme=scheme, strategy=strategy,
            processors=processors, **options,
        )
    return engine, rules, snapshot


def commit_sequence(result):
    return [(r.rule_name, r.value_identities) for r in result.firings]


def assert_contract(engine, rules, snapshot, result) -> None:
    outcome = replay_commit_sequence(snapshot, rules, result.firings)
    assert outcome.consistent, outcome.detail
    assert is_conflict_serializable(engine.history)
    assert engine.scheme.manager.grant_table() == {}


# -- (a) the parent is the oracle ----------------------------------------------------------


@pytest.mark.parametrize("processors", PROCESSORS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "name", [*E2E_PROGRAMS, "on_call", "figure_4_4"]
)
@pytest.mark.parametrize(
    "cls, oracle_cls",
    [(ParallelEngine, ParallelOracle), (MultiUserEngine, MultiUserOracle)],
    ids=["parallel", "multiuser"],
)
def test_admission_is_the_waves_own_outcome(
    cls, oracle_cls, name, strategy, processors
):
    rules_text, facts = program(name)
    oracle, _, _ = build(
        oracle_cls, rules_text, facts,
        strategy=strategy, processors=processors,
    )
    with oracle:
        expected = oracle.run(2_000)
    engine, rules, snapshot = build(
        cls, rules_text, facts, strategy=strategy, processors=processors,
    )
    with engine:
        result = engine.run(2_000)

    assert result.stop_reason == expected.stop_reason == "quiescent"
    assert commit_sequence(result) == commit_sequence(expected)
    assert [w.committed for w in engine.waves] == [
        w.committed for w in oracle.waves
    ]
    # What the oracle locked, aborted and released is exactly what
    # admission never locked.
    assert [w.held for w in engine.waves] == [
        w.aborted for w in oracle.waves
    ]
    assert engine.abort_count == 0 and oracle.held_count == 0
    assert [w.deferred for w in engine.waves] == [
        w.deferred for w in oracle.waves
    ]
    assert_contract(engine, rules, snapshot, result)


# -- (b) schemes that refuse at the lock are driven as before -------------------------


@pytest.mark.parametrize("scheme", ["2pl", "c2pl"])
@pytest.mark.parametrize("cls", [ParallelEngine, MultiUserEngine])
@pytest.mark.parametrize("name", [*E2E_PROGRAMS, "on_call"])
def test_blocking_schemes_are_not_admitted(name, cls, scheme):
    rules_text, facts = program(name)
    engine, rules, snapshot = build(cls, rules_text, facts, scheme=scheme)
    candidates = engine._eligible_candidates()
    assert candidates
    probe = WaveResult(wave=0)
    assert engine._admit(probe, candidates, None, None) is candidates
    assert probe.held == []
    with engine:
        result = engine.run(2_000)
    assert result.stop_reason == "quiescent"
    assert engine.held_count == 0
    assert_contract(engine, rules, snapshot, result)


# -- (c) a wave locks winners only: counting pins ------------------------------------


@pytest.mark.parametrize(
    "workload, commits, held, history_ops, grants",
    [
        ("manners_rc", 106, 2450, 1150, 1044),
        ("hot_rc", 2048, 2964, 11_264, 9216),
    ],
)
def test_a_wave_locks_only_what_commits(
    workload, commits, held, history_ops, grants
):
    """Full-size benchmark inputs, seed 5.  Before admission these runs
    made 2556 and 5012 attempts, 17 892 and 20 156 history operations;
    every grant below is a winner's."""
    spec = e2e.build_spec(workload, 5, smoke=False)
    config = spec["engine"]
    engine, _, _ = build(
        ParallelEngine, spec["rules"], spec["facts"],
        scheme=config["scheme"], strategy=config["strategy"],
        processors=config["processors"],
    )
    with engine:
        result = engine.run(10**9)
    attempts = sum(
        len(w.committed) + len(w.aborted) + len(w.deferred)
        for w in engine.waves
    )
    assert attempts == len(result.firings) == commits
    assert engine.held_count == held
    assert engine.abort_count == 0
    assert len(engine.history) == history_ops
    assert engine.scheme.manager.stats_snapshot()["grants"] == grants


# -- (d) faults: a held-back reader waits for as long as its writer is refused -------

#: One writer of the gauge, ranked first, and three readers of it that
#: write only their own job: the readers survive the writer's commit
#: (re-matched against the new gauge) and fire afterwards.
GAUGE = (
    """
(p bump 10
   (job ^id <j> ^kind "bump" ^gauge <g> ^left 1)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left 0)
   (modify 2 ^level (<v> + 1)))
(p work 0
   (job ^id <j> ^kind "work" ^gauge <g> ^left 1)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left 0))
""",
    [("gauge", {"id": 0, "level": 0}),
     ("job", {"id": 0, "kind": "bump", "gauge": 0, "left": 1})]
    + [("job", {"id": i, "kind": "work", "gauge": 0, "left": 1})
       for i in (1, 2, 3)],
)


def test_held_back_readers_fire_once_a_denied_writer_gets_through():
    plan = FaultPlan([FaultSpec("lock_deny", rule="bump", max_hits=3)])
    engine, rules, snapshot = build(
        ParallelEngine, *GAUGE, strategy="priority",
        fault_injector=plan.injector(),
    )
    with engine:
        result = engine.run()
    assert engine.fault.total_injected == 3
    assert result.stop_reason == "quiescent"
    assert [r.rule_name for r in result.firings] == ["bump"] + ["work"] * 3
    # While the writer was refused its readers waited, unlocked: a
    # wide wave holds all three back, the width-1 fallback wave
    # between them sees the writer alone.
    denied = [w for w in engine.waves if w.deferred]
    assert [w.deferred for w in denied] == [["bump"]] * 3
    assert all(w.committed == [] for w in denied)
    assert [len(w.held) for w in denied] == [3, 0, 3]
    assert engine.abort_count == 0
    assert_contract(engine, rules, snapshot, result)


def test_a_writer_out_of_retries_stops_holding_its_readers_back():
    plan = FaultPlan([FaultSpec("lock_deny", rule="bump")])
    engine, rules, snapshot = build(
        ParallelEngine, *GAUGE, strategy="priority",
        fault_injector=plan.injector(),
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
    )
    with engine:
        result = engine.run()
    assert engine.gave_up == ["bump"]
    assert [r.rule_name for r in result.firings] == ["work"] * 3
    assert result.stop_reason == "retries_exhausted"
    # A hold-back is not an attempt: only the writer was charged.
    assert engine.retry_count == 1
    assert engine.held_count == 3
    assert_contract(engine, rules, snapshot, result)


def test_a_persistently_denied_writer_starves_its_readers_without_retries():
    """The price of deciding from footprints alone, pinned: nothing
    drops a writer that is refused forever when there is no retry
    budget, so it is admitted first in every wide wave (readers held),
    alone in every width-1 fallback wave, and the run ends at
    ``max_waves``.  The parent let the readers through in wave 1 — a
    writer refused its locks never writes."""

    def run(cls):
        plan = FaultPlan([FaultSpec("lock_deny", rule="bump")])
        engine, rules, snapshot = build(
            cls, *GAUGE, strategy="priority", fault_injector=plan.injector(),
        )
        with engine:
            result = engine.run(max_waves=6)
        assert result.stop_reason == "max_waves"
        assert [w.deferred for w in engine.waves] == [["bump"]] * 6
        assert_contract(engine, rules, snapshot, result)
        return engine, result

    engine, result = run(ParallelEngine)
    assert result.firings == []
    assert [len(w.held) for w in engine.waves] == [3, 0] * 3
    assert engine.abort_count == 0 and engine.gave_up == []

    oracle, expected = run(ParallelOracle)
    assert [w.committed for w in oracle.waves] == [["work"] * 3] + [[]] * 5
    assert len(expected.firings) == 3
