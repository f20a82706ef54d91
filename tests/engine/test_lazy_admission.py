"""Lazy wave admission: a wave's ranking is pulled one candidate at a
time, and a Rete tail's pending seed builds a match only when
admission takes it.

A seed whose rule modifies or removes the element it was seeded by
stops once an admitted slot writes that element's data object: each
match it would still yield reads and writes the object, so admission
would cut it.  The reference, :class:`eager_reference.
EagerParallelEngine`, builds every seed and sorts the whole conflict
set before each wave; both must commit the same firings in the same
waves.  Manners is ``benchmarks/e2e``'s two-party program.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "tests" / "match"))
import workloads  # noqa: E402
from child import firing_digest  # noqa: E402
from eager_reference import (  # noqa: E402
    EagerParallelEngine,
    commit_outcomes,
    unbuilt,
)
from test_admission import READER_SEED  # noqa: E402
from test_compiled_equivalence import _random_program  # noqa: E402
from test_lazy_tail import CHASE, RELATIONS, TAILED  # noqa: E402

from repro.engine import Interpreter, ParallelEngine  # noqa: E402
from repro.errors import UnknownElementError  # noqa: E402
from repro.lang import parse_program  # noqa: E402
from repro.match.rete.tail import TailNode  # noqa: E402
from repro.wm import WorkingMemory  # noqa: E402

LAZY = ("lex", "priority", "fifo")


def manners(guests: int):
    rules, facts = workloads.manners_program(guests, 5)
    return parse_program(rules), facts


def build(cls, rules, facts, strategy="priority", processors=None):
    memory = WorkingMemory()
    for relation, values in facts:
        memory.make(relation, values)
    return cls(
        rules, memory, scheme="rc", strategy=strategy,
        processors=processors, seed=3,
    )


def filed(conflict_set) -> set:
    """The pending seeds of ``conflict_set``."""
    return {
        seed for seeds in conflict_set._pending.values() for seed in seeds
    }


# -- the waves the eager reference makes -----------------------------------------------


@pytest.mark.parametrize("guests", [8, 12, 16])
@pytest.mark.parametrize("processors", [None, 3])
@pytest.mark.parametrize("strategy", LAZY)
def test_manners_commits_what_the_eager_reference_commits(
    strategy, processors, guests
):
    runs = []
    for cls in (ParallelEngine, EagerParallelEngine):
        with build(cls, *manners(guests), strategy, processors) as engine:
            result = engine.run(10**6)
        assert result.stop_reason == "quiescent"
        assert len(result.firings) == workloads.manners_reference(guests)
        runs.append(engine)
    lazy, eager = runs
    assert commit_outcomes(lazy) == commit_outcomes(eager)
    assert firing_digest(lazy.result.firings) == (
        firing_digest(eager.result.firings)
    )
    # What a spent seed would still have yielded is not held: not built.
    assert lazy.held_count < eager.held_count


_facts = st.lists(
    st.tuples(
        st.sampled_from(RELATIONS),
        st.fixed_dictionaries(
            {"k": st.integers(0, 2), "v": st.integers(0, 2)}
        ),
    ),
    max_size=14,
)


def _outcome(cls, rules, facts, strategy, processors):
    """``(stop reason or error, every wave's commit outcome, firing
    digest)`` of one capped run."""
    with build(cls, rules, facts, strategy, processors) as engine:
        try:
            stop = engine.run(max_waves=10).stop_reason
        except UnknownElementError:
            stop = "unknown element"  # a self-join modified one WME twice
        return (
            stop, commit_outcomes(engine),
            firing_digest(engine.result.firings),
        )


@given(
    rules=_random_program(),
    facts=_facts,
    strategy=st.sampled_from(LAZY),
    processors=st.sampled_from((None, 1, 3)),
)
@settings(max_examples=80, deadline=None)
def test_random_programs_commit_what_the_eager_reference_commits(
    rules, facts, strategy, processors
):
    rules = [*rules, *TAILED]
    assert _outcome(
        ParallelEngine, rules, facts, strategy, processors
    ) == _outcome(EagerParallelEngine, rules, facts, strategy, processors)


@pytest.mark.parametrize("processors", [None, 3])
@pytest.mark.parametrize("strategy", LAZY)
def test_a_seed_whose_rule_only_reads_its_element_is_never_spent(
    strategy, processors
):
    rules, facts = parse_program(READER_SEED[0]), READER_SEED[1]
    runs = []
    for cls in (ParallelEngine, EagerParallelEngine):
        engine = build(cls, rules, facts, strategy, processors)
        with engine:
            result = engine.run()
        runs.append(engine)
        assert sorted(f.rule_name for f in result.firings) == [
            "chase", "stamp", "start",
        ]
    lazy, eager = runs
    assert commit_outcomes(lazy) == commit_outcomes(eager)
    assert lazy.waves[1].committed == ["chase", "stamp"]


# -- what a wave enumerates and builds -------------------------------------------------


@pytest.mark.parametrize("processors", [None, 3])
@pytest.mark.parametrize("strategy", LAZY)
def test_a_wave_enumerates_each_seed_once_and_builds_what_fires(
    strategy, processors, monkeypatch
):
    """Counted from the end of one wave to the end of the next, so
    the run loop's quiescence pre-check counts with the wave it
    starts.  Manners' rules share no tail, so a seed here is one rule's
    matches of one element at one tail position."""
    enumerated = Counter()
    seed = TailNode.seed

    def counted(self, pending, found, emit, depth=0):
        if depth == 0:
            enumerated[pending, found[pending.position].timetag] += 1
        return seed(self, pending, found, emit, depth)

    monkeypatch.setattr(TailNode, "seed", counted)
    engine = build(ParallelEngine, *manners(8), strategy, processors)
    most = []
    run_wave = engine.run_wave

    def wave(*args, **kwargs):
        result = run_wave(*args, **kwargs)
        most.append(max(enumerated.values(), default=0))
        enumerated.clear()
        return result

    engine.run_wave = wave
    conflict_set = engine.matcher.conflict_set
    attached = len(conflict_set.members())
    built = 0
    add = conflict_set.add

    def counted_add(instantiation) -> bool:
        nonlocal built
        fresh = add(instantiation)
        built += fresh
        return fresh

    conflict_set.add = counted_add
    with engine:
        result = engine.run()
    assert result.stop_reason == "quiescent"
    assert len(result.firings) == workloads.manners_reference(8)
    assert most and max(most) == 1
    # Each party's first seat was built at attach (no tail); every
    # other firing built only itself.
    assert attached == 16
    assert built == len(result.firings) - 2


# -- a seed with nothing to build ------------------------------------------------------


def _chased(engine):
    """``engine`` with ``chase``'s elements made after it attached, so
    each arrives newest: the last ``c`` seeds four matches, one per
    ``b``; the four ``b`` seeds and three older ``c`` seeds hold none
    (a ``b``'s matches are the newer ``c``'s)."""
    make = engine.memory.make
    make("a", k=1)
    make("d", k=1, v=5)
    for i in range(4):
        make("b", id=i, k=1, v=2)
    for i in range(3):
        make("c", id=10 + i, k=7, v=0)
    make("c", id=20, k=2, v=5)
    return engine


def _empty(conflict_set, seeds) -> set:
    """Those of ``seeds`` with nothing left to build."""
    building = set(unbuilt(conflict_set).values())
    return {seed for seed in seeds if seed not in building}


@pytest.mark.parametrize(
    "program", ["chase", "manners"], ids=["chase", "manners"]
)
def test_an_unbounded_wave_leaves_no_empty_seed_filed(program):
    """An unbounded wave opens every seed filed when it began, so one
    with nothing to build leaves the conflict set there, and
    ``len(conflict_set)`` stops counting it."""
    if program == "chase":
        engine = _chased(build(ParallelEngine, parse_program(CHASE), []))
    else:
        engine = build(ParallelEngine, *manners(8))
    conflict_set = engine.matcher.conflict_set
    began = [filed(conflict_set)]
    run_wave = engine.run_wave

    def wave(*args, **kwargs):
        result = run_wave(*args, **kwargs)
        kept = began[-1] & filed(conflict_set)
        assert _empty(conflict_set, kept) == set()
        assert len(conflict_set) == (
            len(conflict_set.members()) + len(filed(conflict_set))
        )
        began.append(filed(conflict_set))
        return result

    engine.run_wave = wave
    with engine:
        result = engine.run()
    assert result.stop_reason == "quiescent"
    assert len(began) > 1
    if program == "chase":
        # The c's opened and left; the b's were spent and rewritten.
        assert len(began[0]) == 8 and not began[0] & began[1]
        assert [f.rule_name for f in result.firings] == ["chase"] * 4


def test_a_bounded_wave_and_the_interpreter_leave_empty_seeds_filed():
    """The documented behaviour where the ranking stops early: a seed
    stays filed, and counted, until a ranking reaches its head."""
    rules = parse_program(CHASE)
    engine = _chased(build(ParallelEngine, rules, [], "lex", 1))
    interpreter = _chased(Interpreter(rules, strategy="lex"))
    for driver, run in (
        (engine, lambda: engine.run(max_waves=1)),
        (interpreter, lambda: interpreter.run(max_cycles=1)),
    ):
        with driver:
            run()
            conflict_set = driver.matcher.conflict_set
            # Three c's, the three b's the one firing left alone and
            # the b it rewrote, newest and matching nothing; the last
            # c has three matches to go.
            assert len(_empty(conflict_set, filed(conflict_set))) == 7
            assert len(filed(conflict_set)) == 8
            assert len(conflict_set) == 8 + len(conflict_set.members())
