"""Wave admission: rule (i) chosen before the locks are taken.

Section 4.3, Figure 4.3: an ``Rc`` holder and a ``Wa`` holder of one
object both commit if the reader commits first (rule (i)); the other
order aborts the reader (rule (ii)).  ``ParallelEngine._admit`` orders
every ``Rc`` wave by that read -> write precedence, holds back only a
candidate that would close a cycle (Figure 4.4) and refills the wave
from the ranking.  The oracle is a brute-force replay of each wave
written here, from the ranked footprints alone: who closes a cycle by
plain reachability, who acts when by repeated search for the
lowest-ranked candidate with no predecessor left.

Programs are taken read-only from ``benchmarks/e2e`` (as
``tests/conformance`` does), plus the SNIPPETS.md S->X upgrade fixture,
Figure 4.3's reader/writer pair, Figure 4.4's circular pair, and
Hypothesis-drawn programs from ``tests/match``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "tests" / "match"))
import run as e2e  # noqa: E402
from locking_reference import (  # noqa: E402
    LockingParallelEngine,
    wave_outcomes,
)
from test_compiled_equivalence import (  # noqa: E402
    _RELATIONS,
    _random_program,
)

from repro.engine import (  # noqa: E402
    MultiUserEngine,
    ParallelEngine,
    Session,
    replay_commit_sequence,
)
from repro.engine.parallel import WaveResult  # noqa: E402
from repro.errors import UnknownElementError  # noqa: E402
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

#: Figure 4.3: Pi holds Rc on q, Pj holds Wa on q and out-ranks it.
FIGURE_4_3 = (
    """
(p pj 10
   (item ^id "q" ^state "fresh")
   -->
   (modify 1 ^state "written-by-pj"))
(p pi 0
   (item ^id "q" ^state "fresh")
   -->
   (make seen ^id "q"))
""",
    [("item", {"id": "q", "state": "fresh"})],
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

FIXTURES = {
    "on_call": ON_CALL, "figure_4_3": FIGURE_4_3, "figure_4_4": FIGURE_4_4,
}


def program(name: str):
    """``(rule text, facts)`` of one fixture, e2e programs at smoke
    size."""
    if name in FIXTURES:
        return FIXTURES[name]
    spec = e2e.build_spec(E2E_PROGRAMS[name], SEED, smoke=True)
    return spec["rules"], spec["facts"]


class _Watched:
    """Records what every admission pass was given and returned."""

    def __init__(self, *args, **options):
        self.admissions = []
        super().__init__(*args, **options)

    def _admit(self, wave, candidates, rest, spans, cycle_span):
        pulled = []

        def watched_rest():
            for candidate in rest:
                pulled.append(candidate)
                yield candidate

        order = super()._admit(
            wave, candidates, watched_rest(), spans, cycle_span
        )
        self.admissions.append({
            "wave": wave, "width": len(candidates),
            "ranked": [*candidates, *pulled], "pulled": len(pulled),
            "order": list(order),
            # Safe to look now that the wave is decided.
            "exhausted": next(rest, None) is None,
        })
        return order


class WatchedParallel(_Watched, ParallelEngine):
    pass


class WatchedMultiUser(_Watched, MultiUserEngine):
    pass


def build(cls, rules, facts, scheme="rc", strategy="lex",
          processors=None, **options):
    """``(engine, rules, snapshot)`` with the facts loaded; ``rules``
    is rule text or parsed productions."""
    if isinstance(rules, str):
        rules = parse_program(rules)
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


def assert_contract(engine, rules, snapshot, result) -> None:
    outcome = replay_commit_sequence(snapshot, rules, result.firings)
    assert outcome.consistent, outcome.detail
    assert is_conflict_serializable(engine.history)
    assert engine.scheme.manager.grant_table() == {}


# -- the oracle: one wave replayed by brute force --------------------------------------


def precedes(a, b) -> bool:
    """The edge ``a -> b``: a reads what b writes, so both commit only
    if a commits first."""
    return not set(a.lock_footprint()[0]).isdisjoint(b.lock_footprint()[1])


def closes_cycle(admitted, candidate) -> bool:
    """Can ``candidate`` be reached from itself along the edges among
    ``admitted`` and itself?"""
    nodes = [*admitted, candidate]
    reached, frontier = set(), [candidate]
    while frontier:
        a = frontier.pop()
        for b in nodes:
            if b is not a and b not in reached and precedes(a, b):
                reached.add(b)
                frontier.append(b)
    return candidate in reached


def replay_wave(ranked, width):
    """``(admitted in rank order, acting order, held)`` of a wave that
    examined ``ranked``."""
    admitted, held = [], []
    for candidate in ranked:
        assert len(admitted) < width, "ranked a candidate past a full wave"
        (held if closes_cycle(admitted, candidate) else admitted).append(
            candidate
        )
    order, left = [], list(admitted)  # ``left`` stays in rank order
    while left:
        first = next(
            c for c in left
            if not any(precedes(o, c) for o in left if o is not c)
        )
        left.remove(first)
        order.append(first)
    return admitted, order, held


def assert_admission_oracle(engine, faults=False) -> None:
    """Every wave of ``engine`` (a ``_Watched`` one) is the brute-force
    wave."""
    for seen in engine.admissions:
        wave, width = seen["wave"], seen["width"]
        admitted, order, held = replay_wave(seen["ranked"], width)
        assert seen["order"] == order
        assert wave.held == [c.production.name for c in held]
        # ``processors`` bounds admitted firings: short only when the
        # ranking ran out, lazy when nobody was held back.
        assert len(order) == width or seen["exhausted"]
        assert seen["pulled"] == 0 or held
        # Edges against rank: a reader behind the writer it precedes.
        assert wave.ordered == sum(
            precedes(reader, writer)
            for slot, writer in enumerate(admitted)
            for reader in admitted[slot + 1:]
        )
        if not faults:
            # Every admitted candidate commits, in acting order.
            assert wave.committed == [c.production.name for c in order]
            assert wave.aborted == wave.deferred == []


# -- (a) every wave is the brute-force wave --------------------------------------------


@pytest.mark.parametrize("processors", PROCESSORS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "name", [*E2E_PROGRAMS, "on_call", "figure_4_4", "figure_4_3"]
)
@pytest.mark.parametrize(
    "cls", [WatchedParallel, WatchedMultiUser], ids=["parallel", "multiuser"]
)
def test_admission_is_the_waves_own_outcome(cls, name, strategy, processors):
    rules_text, facts = program(name)
    engine, rules, snapshot = build(
        cls, rules_text, facts, strategy=strategy, processors=processors,
    )
    with engine:
        result = engine.run(2_000)

    assert result.stop_reason == "quiescent"
    assert len(engine.admissions) == len(engine.waves)
    assert_admission_oracle(engine)
    assert engine.abort_count == 0
    assert_contract(engine, rules, snapshot, result)


def test_figure_4_3_reader_and_writer_both_commit_reader_first():
    engine, rules, snapshot = build(
        WatchedParallel, *FIGURE_4_3, strategy="priority"
    )
    ranked, _ = engine._ranking(engine._eligible_candidates(), None)
    assert [c.production.name for c in ranked] == ["pj", "pi"]
    with engine:
        result = engine.run()
    (wave,) = engine.waves
    assert wave.committed == ["pi", "pj"]
    assert wave.held == [] and wave.ordered == 1
    assert engine.abort_count == 0
    assert_contract(engine, rules, snapshot, result)


@pytest.mark.parametrize("processors", [None, 2])
def test_figure_4_4_exactly_one_of_the_pair_per_wave(processors):
    engine, rules, snapshot = build(
        WatchedParallel, *FIGURE_4_4, processors=processors
    )
    with engine:
        result = engine.run()
    # pi's write un-matches pj: one wave, one commit, one cycle cut.
    (wave,) = engine.waves
    assert len(wave.committed) == 1 and len(wave.held) == 1
    assert {*wave.committed, *wave.held} == {"pi", "pj"}
    assert wave.ordered == 0 and engine.abort_count == 0
    assert_contract(engine, rules, snapshot, result)


def _items(*ids):
    return [("item", {"id": i, "s": 0}) for i in ids]


#: The searches behind the cycle cut, one fixture each; rank is the
#: priority.  name -> (rules, facts, committed, held, ordered).
SEARCHES = {
    # a <- b <- c <- a: no pair is mutual, the ring closes at c.
    "ring_of_three": (
        """
(p a 30 (item ^id "x" ^s 0) (item ^id "y" ^s 0) --> (modify 2 ^s 1))
(p b 20 (item ^id "y" ^s 0) (item ^id "z" ^s 0) --> (modify 2 ^s 1))
(p c 10 (item ^id "z" ^s 0) (item ^id "x" ^s 0) --> (modify 2 ^s 1))
""",
        _items("x", "y", "z"), ["b", "a"], ["c"], 1,
    ),
    # c must precede a and follow d, and nothing leads from a to d:
    # edges both ways, no ring.
    "edges_both_ways": (
        """
(p a 30 (item ^id "x" ^s 0) (item ^id "y" ^s 0) --> (modify 2 ^s 1))
(p d 20 (item ^id "w" ^s 0) --> (make seen ^id "w"))
(p c 10 (item ^id "y" ^s 0) (item ^id "w" ^s 0) --> (modify 2 ^s 1))
""",
        _items("w", "x", "y"), ["d", "c", "a"], [], 1,
    ),
    # The first writer c finds (a, of p) is not its partner; b is.
    "second_writer_is_mutual": (
        """
(p a 30 (item ^id "p" ^s 0) --> (modify 1 ^s 1))
(p b 20 (item ^id "q" ^s 0) (item ^id "r" ^s 0) --> (modify 1 ^s 1))
(p c 10 (item ^id "p" ^s 0) (item ^id "q" ^s 0) (item ^id "r" ^s 0)
   --> (modify 3 ^s 1))
""",
        _items("p", "q", "r"), ["a", "b"], ["c"], 0,
    ),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_the_cycle_search_beyond_the_mutual_pair(name):
    rules_text, facts, committed, held, ordered = SEARCHES[name]
    engine, rules, snapshot = build(
        WatchedParallel, rules_text, facts, strategy="priority"
    )
    with engine:
        result = engine.run()
    first = engine.waves[0]
    assert (first.committed, first.held, first.ordered) == (
        committed, held, ordered
    )
    assert result.stop_reason == "quiescent"
    assert_admission_oracle(engine)
    assert_contract(engine, rules, snapshot, result)


_facts = st.lists(
    st.tuples(
        st.sampled_from(_RELATIONS),
        st.fixed_dictionaries(
            {"k": st.integers(0, 3), "v": st.integers(0, 8)}
        ),
    ),
    max_size=10,
)


@given(
    rules=_random_program(),
    facts=_facts,
    strategy=st.sampled_from((*STRATEGIES, "random")),
    processors=st.sampled_from((None, 1, 2, 3)),
)
@settings(max_examples=60, deadline=None)
def test_random_programs_keep_the_contract_under_rc(
    rules, facts, strategy, processors
):
    """Joins, negations and own-RHS ``modify``/``remove`` targets drawn
    at random: whatever the precedence graph looks like, the run replays
    single-threaded, its history is serializable and nothing is left
    granted.  A ``modify`` re-matches its own rule, so a run may end at
    the wave bound instead of at quiescence."""
    seeded = [(relation, {"k": 1, "v": 1}) for relation in _RELATIONS]
    engine, rules, snapshot = build(
        WatchedParallel, rules, seeded + facts, strategy=strategy,
        processors=processors, seed=3,
    )
    with engine:
        try:
            result = engine.run(max_waves=8)
        except UnknownElementError:
            # A self-join matched one element at two ``modify`` targets:
            # the second finds it gone, on every engine.
            reject()
    assert result.stop_reason in ("quiescent", "max_waves")
    assert_admission_oracle(engine)
    assert engine.abort_count == 0
    assert engine.scheme.manager.waiting_requests() == []
    assert_contract(engine, rules, snapshot, result)


# -- (b) schemes that refuse at the lock are driven as before -------------------------


def _never_asked():
    raise AssertionError("a blocking scheme pulled from the ranking")
    yield


@pytest.mark.parametrize("scheme", ["2pl", "c2pl"])
@pytest.mark.parametrize("cls", [ParallelEngine, MultiUserEngine])
@pytest.mark.parametrize("name", [*E2E_PROGRAMS, "on_call"])
def test_blocking_schemes_are_not_admitted(name, cls, scheme):
    rules_text, facts = program(name)
    engine, rules, snapshot = build(cls, rules_text, facts, scheme=scheme)
    candidates = engine._eligible_candidates()
    assert candidates
    probe = WaveResult(wave=0)
    admitted = engine._admit(probe, candidates, _never_asked(), None, None)
    assert admitted is candidates
    assert probe.held == [] and probe.ordered == 0
    with engine:
        result = engine.run(2_000)
    assert result.stop_reason == "quiescent"
    assert engine.held_count == engine.ordered_count == 0
    assert_contract(engine, rules, snapshot, result)


# -- (c) a wave locks winners only: counting pins ------------------------------------

#: Waves of the two pinned runs (PR 19: 53 and 657).
WAVES = {"manners_rc": 53, "hot_rc": 288}


@pytest.mark.parametrize(
    "workload, commits, held, history_ops, grants",
    [
        ("manners_rc", 106, 2450, 1150, 1044),
        ("hot_rc", 2048, 248, 11_264, 9216),
    ],
)
def test_a_wave_locks_only_what_commits(
    workload, commits, held, history_ops, grants
):
    """Full-size benchmark inputs, seed 5.  Before admission these runs
    made 2556 and 5012 attempts, 17 892 and 20 156 history operations.
    Manners is one cycle per party and keeps its 2450 hold-backs; on
    lanes only a second ``bump`` of a gauge is held (2964 -> 248) and
    the waves are refilled (657 -> 288).  The lock-taking reference
    grants locks to winners only (``grants``), and the history the
    engine rebuilds from its certifier has the reference's length."""
    spec = e2e.build_spec(workload, 5, smoke=False)
    config = spec["engine"]
    runs = []
    for cls in (ParallelEngine, LockingParallelEngine):
        engine, _, _ = build(
            cls, spec["rules"], spec["facts"],
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
        assert len(engine.waves) == WAVES[workload]
        assert engine.held_count == held
        assert engine.abort_count == 0
        assert engine.certifier.commits == commits
        runs.append(engine)
    engine, reference = runs
    assert wave_outcomes(engine) == wave_outcomes(reference)
    assert len(engine.history) == len(reference.history) == history_ops
    assert reference.scheme.manager.stats_snapshot()["grants"] == grants


# -- (d) faults: a refused writer costs its readers nothing; a cycle still waits ------

_GAUGE_RULES = """
(p bump 10
   (job ^id <j> ^kind "bump" ^gauge <g> ^left 1)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left 0)
   (modify 2 ^level (<v> + 1)))
(p rebump 5
   (job ^id <j> ^kind "rebump" ^gauge <g> ^left 1)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left 0)
   (modify 2 ^level (<v> + 1)))
(p work 0
   (job ^id <j> ^kind "work" ^gauge <g> ^left 1)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left 0))
"""


def gauge(*kinds):
    """One gauge and one job per entry of ``kinds``.  ``bump`` writes
    the gauge and is ranked first; ``work`` only reads it; ``rebump``
    writes it too, so it closes a cycle with ``bump`` and, being
    ranked behind it, is the one cut."""
    return _GAUGE_RULES, [("gauge", {"id": 0, "level": 0})] + [
        ("job", {"id": i, "kind": kind, "gauge": 0, "left": 1})
        for i, kind in enumerate(kinds)
    ]


GAUGE = gauge("bump", "work", "work", "work")
CYCLE = gauge("bump", "rebump")


@pytest.mark.parametrize("retries", [None, 2], ids=["no-retries", "retries"])
def test_a_denied_writer_no_longer_starves_its_readers(retries):
    """PR 19 ranked the refused writer first and held its readers back
    in every wave, to ``max_waves``.  In precedence order the readers
    act before it, as they did when rule (ii) ran at commit."""
    plan = FaultPlan([FaultSpec("lock_deny", rule="bump")])
    engine, rules, snapshot = build(
        WatchedParallel, *GAUGE, strategy="priority",
        fault_injector=plan.injector(),
        retry_policy=retries and RetryPolicy(
            max_attempts=retries, base_delay=0.0
        ),
    )
    with engine:
        result = engine.run(max_waves=6)
    assert engine.waves[0].committed == ["work"] * 3
    assert engine.waves[0].deferred == ["bump"]
    assert engine.waves[0].ordered == 3 and engine.held_count == 0
    assert [r.rule_name for r in result.firings] == ["work"] * 3
    if retries:
        assert result.stop_reason == "retries_exhausted"
        assert engine.gave_up == ["bump"]
    else:
        assert result.stop_reason == "max_waves"
        assert [w.deferred for w in engine.waves] == [["bump"]] * 6
    assert_admission_oracle(engine, faults=True)
    assert_contract(engine, rules, snapshot, result)


def test_held_back_readers_fire_once_a_denied_writer_gets_through():
    """What is left of the wait: ``rebump`` reads the gauge ``bump``
    writes and writes it back, so it is cut from the cycle for as long
    as ``bump`` out-ranks it — also while ``bump`` is being refused."""
    plan = FaultPlan([FaultSpec("lock_deny", rule="bump", max_hits=3)])
    engine, rules, snapshot = build(
        WatchedParallel, *CYCLE, strategy="priority",
        fault_injector=plan.injector(),
    )
    with engine:
        result = engine.run()
    assert engine.fault.total_injected == 3
    assert result.stop_reason == "quiescent"
    assert [r.rule_name for r in result.firings] == ["bump", "rebump"]
    # While the writer was refused its partner waited, unlocked: a wide
    # wave cuts it, the width-1 fallback wave between them sees the
    # writer alone.
    denied = [w for w in engine.waves if w.deferred]
    assert [w.deferred for w in denied] == [["bump"]] * 3
    assert all(w.committed == [] for w in denied)
    assert [w.held for w in denied] == [["rebump"], [], ["rebump"]]
    assert engine.abort_count == 0
    assert_admission_oracle(engine, faults=True)
    assert_contract(engine, rules, snapshot, result)


def test_a_writer_out_of_retries_stops_holding_its_readers_back():
    plan = FaultPlan([FaultSpec("lock_deny", rule="bump")])
    engine, rules, snapshot = build(
        WatchedParallel, *CYCLE, strategy="priority",
        fault_injector=plan.injector(),
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
    )
    with engine:
        result = engine.run()
    # ``rebump`` rewrote the gauge, so ``bump`` matched afresh and ran
    # out of a second budget.
    assert engine.gave_up == ["bump"] * 2
    assert [r.rule_name for r in result.firings] == ["rebump"]
    assert result.stop_reason == "retries_exhausted"
    # A hold-back is not an attempt: only the writer was charged.
    assert engine.retry_count == 2
    assert [w.held for w in engine.waves[:3]] == [["rebump"], [], []]
    assert engine.waves[2].committed == ["rebump"]
    assert engine.held_count == 1
    assert_admission_oracle(engine, faults=True)
    assert_contract(engine, rules, snapshot, result)


def test_a_cycle_partner_refused_forever_starves_the_candidate_cut_for_it():
    """The known limit, narrowed to the cycle: nothing drops a
    candidate that is refused forever when there is no retry budget,
    so ``bump`` is admitted first in every wide wave (``rebump`` cut),
    alone in every width-1 fallback wave, and the run ends at
    ``max_waves``.  Rule (ii) at commit would have let ``rebump``
    through in wave 1 — a writer refused its locks never writes."""
    plan = FaultPlan([FaultSpec("lock_deny", rule="bump")])
    engine, rules, snapshot = build(
        WatchedParallel, *CYCLE, strategy="priority",
        fault_injector=plan.injector(),
    )
    with engine:
        result = engine.run(max_waves=6)
    assert result.stop_reason == "max_waves"
    assert result.firings == []
    assert [w.deferred for w in engine.waves] == [["bump"]] * 6
    assert [w.held for w in engine.waves] == [["rebump"], []] * 3
    assert engine.abort_count == 0 and engine.gave_up == []
    assert_admission_oracle(engine, faults=True)
    assert_contract(engine, rules, snapshot, result)
