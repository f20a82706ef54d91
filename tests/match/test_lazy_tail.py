"""Rete's lazy tail: a tail seed waits in the conflict set, and a
select builds only the match it takes.

Under a head that reads only the rule and the newest timetag (``lex``,
``priority``, ``fifo``) a WME arriving newest at a tail position is
filed as a pending seed; the other strategies, and the other matchers,
see every match built.  Whatever is built, the engines must choose
what the naive matcher's engines choose, and the conflict set, every
seed built (``settle``), must equal the naive one.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine import Interpreter, ParallelEngine
from repro.errors import UnknownElementError
from repro.lang import parse_program
from repro.match.rete.tail import TailNode
from repro.wm import WorkingMemory

from test_compiled_equivalence import _random_program

#: ``chase``'s tail is ``(b) (c)``: it modifies ``b`` (a new seed, to
#: chase the next ``c``), and ``c`` is looked up from it; its prefix is
#: ``(a) (d)``.  ``shadow`` puts a negation at the end of the same
#: prefix.
CHASE = """
(p chase (a ^k <x>) (b ^k <x> ^v <y>) (c ^k <y> ^v <w>) (d ^k <x> ^v <w>)
   --> (modify 2 ^v <w>))
"""
SHADOW = """
(p shadow (a ^k <x>) (b ^k <x> ^v <y>) (c ^k <y> ^v <w>) (d ^k <x> ^v <w>)
   -(n ^k <x>)
   --> (modify 2 ^v 9))
"""
TAILED = parse_program(CHASE + SHADOW)
RELATIONS = ("a", "b", "c", "d", "n")
LAZY = ("lex", "priority", "fifo")


def test_both_rules_have_a_two_position_tail():
    for rule in TAILED:
        plan = rule.join_plan()
        assert plan.tail == 2 and plan.order[-2:] == (1, 2)


# -- the engines choose what the naive matcher's engines choose ------------------------

_facts = st.lists(
    st.tuples(
        st.sampled_from(RELATIONS),
        st.fixed_dictionaries({"k": st.integers(0, 1), "v": st.integers(0, 1)}),
    ),
    max_size=16,
)


def _run(rules, facts, matcher, strategy, processors):
    """``(stop reason or error, [(rule, value identities)], the
    conflict set built in full)`` of one capped run."""
    memory = WorkingMemory()
    for relation, values in facts:
        memory.make(relation, values)
    if processors is None:
        engine = Interpreter(
            rules, memory, matcher=matcher, strategy=strategy, seed=3
        )
        run = lambda: engine.run(max_cycles=40)  # noqa: E731
    else:
        engine = ParallelEngine(
            rules, memory, scheme="rc", matcher=matcher, strategy=strategy,
            processors=processors, seed=3,
        )
        run = lambda: engine.run(max_waves=12)  # noqa: E731
    with engine:
        try:
            stop = run().stop_reason
        except UnknownElementError:
            stop = "unknown element"  # a self-join modified one WME twice
        firings = [
            (f.rule_name, f.value_identities) for f in engine.result.firings
        ]
        engine.matcher.conflict_set.settle()
        built = {
            (i.rule_name, tuple(w.identity() for w in i.wmes))
            for i in engine.matcher.conflict_set.members()
        }
    return stop, firings, built


@given(
    rules=_random_program(),
    facts=_facts,
    strategy=st.sampled_from((*LAZY, "mea", "random")),
    processors=st.sampled_from((None, 1, 3)),
)
@settings(max_examples=80, deadline=None)
def test_random_programs_with_tails_fire_as_under_naive(
    rules, facts, strategy, processors
):
    rules = [*rules, *TAILED]
    assert _run(rules, facts, "rete", strategy, processors) == _run(
        rules, facts, "naive", strategy, processors
    )


# -- edge cases, Rete and naive in lockstep on one working memory ------------------------


class Lockstep:
    """A Rete and a naive ``Interpreter`` on one working memory: each
    select must agree, and a firing runs its RHS once."""

    def __init__(self, text: str, strategy: str = "lex") -> None:
        self.memory = WorkingMemory()
        rules = parse_program(text)
        self.rete = Interpreter(rules, self.memory, strategy=strategy)
        self.naive = Interpreter(
            rules, self.memory, matcher="naive", strategy=strategy
        )

    def make(self, relation: str, k: int, v: int = 0):
        return self.memory.make(relation, k=k, v=v)

    @property
    def pending(self) -> int:
        return self.rete.conflict_set._waiting

    def select(self):
        chosen = self.rete.select()
        assert chosen == self.naive.select()
        return chosen

    def fire(self):
        chosen = self.select()
        self.rete.fire(chosen)
        self.naive.conflict_set.mark_fired(chosen)
        return chosen

    def check(self) -> None:
        """Every match built once, and the set the naive one."""
        (tail,) = [
            node for node in self.rete.matcher._shared_nodes.values()
            if isinstance(node, TailNode)
        ]
        matches = [token.wmes() for token in tail.tokens]
        assert len(matches) == len(set(matches))
        self.rete.conflict_set.settle()
        assert self.rete.conflict_set.members() == (
            self.naive.conflict_set.members()
        )


def test_a_seed_waits_unbuilt_and_select_builds_only_the_winner():
    step = Lockstep(CHASE)
    step.make("a", 1)
    step.make("d", 1, v=5)
    for _ in range(4):
        step.make("b", 1, v=2)  # seeds, each with no match yet
    step.make("c", 2, v=5)  # a seed with four
    assert step.pending == 5
    assert len(step.rete.conflict_set) == 5  # a seed counts once
    assert len(step.naive.conflict_set) == 4
    step.select()
    assert len(step.rete.conflict_set.members()) == 1
    assert step.pending == 5  # the c seed has three more
    step.check()


def test_a_select_walks_only_the_match_it_takes(monkeypatch):
    """The ``c`` seed has two matches through one tail assignment, one
    per ``a`` (prefix tokens of distinct recency): a select tests the
    best and stops, with no look at the next to learn there is one."""
    step = Lockstep(CHASE)
    for _ in range(2):
        step.make("a", 1)
    step.make("d", 1, v=5)
    step.make("b", 1, v=2)
    step.make("c", 2, v=5)
    walked = []
    completions = TailNode.completions

    def counted(self, tokens, wmes):
        for completion in completions(self, tokens, wmes):
            walked.append(completion)
            yield completion

    monkeypatch.setattr(TailNode, "completions", counted)
    chosen = step.select()
    assert len(walked) == 1
    assert step.rete.conflict_set.members() == {chosen}
    monkeypatch.undo()
    assert len(step.naive.conflict_set) == 2
    step.check()


def test_a_winner_that_leaves_its_seed_lets_the_next_select_resume():
    """The newest WME is ``c``; every firing modifies a ``b`` (to ``v
    5``, out of the join), so ``c``'s seed outlives each winner and
    the next select resumes it, down to nothing."""
    for strategy in LAZY:
        step = Lockstep(CHASE, strategy)
        step.make("a", 1)
        step.make("d", 1, v=5)
        for _ in range(3):
            step.make("b", 1, v=2)
        step.make("c", 2, v=5)
        fired = [step.fire() for _ in range(3)]
        assert len({i.timetags()[1] for i in fired}) == 3  # three b's
        assert step.select() is None
        assert step.pending == 0
        step.check()


def test_a_negation_blocking_the_prefix_before_the_seed_is_reached():
    step = Lockstep(SHADOW)
    step.make("a", 1)
    step.make("d", 1, v=5)
    step.make("b", 1, v=2)
    step.make("c", 2, v=5)
    assert step.pending == 2
    blocker = step.make("n", 1)
    assert step.select() is None
    step.memory.remove(blocker)  # unblocked: the prefix token is back
    assert step.fire().rule_name == "shadow"
    step.check()


def test_a_prefix_token_after_a_pending_seed_adds_no_duplicate():
    step = Lockstep(CHASE)
    step.make("b", 1, v=2)
    step.make("c", 2, v=5)
    step.make("b", 1, v=2)  # newest: a seed matching the first c
    assert step.pending >= 1
    step.make("a", 1)
    step.make("d", 1, v=5)  # the prefix token builds both matches
    assert len(step.rete.conflict_set.members()) == 2
    step.fire()
    step.fire()
    assert step.select() is None
    step.check()


def test_a_seed_removed_before_it_was_reached():
    step = Lockstep(CHASE)
    step.make("a", 1)
    step.make("d", 1, v=5)
    step.make("b", 1, v=2)
    kept = step.make("c", 2, v=5)
    assert step.pending == 2
    step.memory.remove(kept)
    assert step.pending == 1  # the b's, with nothing
    assert len(step.rete.conflict_set) == 1
    assert step.select() is None
    step.check()


def test_an_older_wme_re_added_builds_its_matches_at_once():
    """A rollback re-adds an element under its old timetag: a newer
    seed (``c``), reached and spent while it was gone, will not look
    again, so the re-added ``b`` builds its matches on arrival."""
    step = Lockstep(CHASE)
    step.make("a", 1)
    step.make("d", 1, v=5)
    b = step.make("b", 1, v=2)
    step.memory.remove(b)
    step.make("c", 2, v=5)
    assert step.select() is None
    assert step.pending == 0
    step.memory.add(b)
    assert step.pending == 0
    assert step.fire().timetags()[1] == b.timetag
    step.check()


def test_a_re_derived_identical_match_stays_refracted():
    """A match marked fired, retracted by a blocker and re-derived
    when the blocker goes: the same identity, so it is not eligible,
    and the seed does not build it a second time."""
    step = Lockstep(SHADOW)
    step.make("a", 1)
    step.make("d", 1, v=5)
    step.make("b", 1, v=2)
    step.make("b", 1, v=2)
    step.make("c", 2, v=5)
    chosen = step.select()
    for engine in (step.rete, step.naive):
        engine.conflict_set.mark_fired(chosen)
    blocker = step.make("n", 1)
    step.memory.remove(blocker)
    assert step.rete.conflict_set.has_fired(chosen)
    other = step.select()
    assert other is not None and other != chosen
    step.check()


def test_mea_and_random_build_every_match():
    for strategy in ("mea", "random"):
        step = Lockstep(CHASE, strategy)
        step.make("a", 1)
        step.make("d", 1, v=5)
        step.make("b", 1, v=2)
        step.make("c", 2, v=5)
        assert step.pending == 0
        assert len(step.rete.conflict_set.members()) == 1


# -- the walk's recency order, on prefix stores that do not keep it ----------------------

#: ``twin``'s prefix is ``(a) (a)``, two positive elements on one alpha
#: memory, so ``(a1, a2)`` and ``(a2, a1)`` have one recency vector.
TWIN = """
(p twin (a ^k <x> ^id <i>) (b ^k <x> ^v <y>) (c ^k <y> ^v <w>)
   (a ^k <x> ^id <> <i> ^v <w>)
   --> (modify 2 ^v <w>))
"""
#: ``screen``'s negation blocks prefix tokens by their own ``a``, not
#: by the key the tail probes them on.
SCREEN = """
(p screen (a ^k <x> ^v <z>) (b ^k <x> ^v <y>) (c ^k <y> ^v <w>) (d ^k <x> ^v <w>)
   -(n ^k <z>)
   --> (modify 2 ^v <w>))
"""


def _fire_all(step: Lockstep) -> list:
    fired = []
    while step.select() is not None:
        fired.append(step.fire())
    step.check()
    return fired


def test_equal_recency_prefix_tokens_rank_by_the_whole_key():
    """Two ``b``s and a ``c`` seed four matches, two per ``b``, whose
    prefix tokens tie on recency: the LHS-order timetags decide, in
    the strategy's direction, not the order the tokens were stored."""
    for strategy in LAZY:
        step = Lockstep(TWIN, strategy)
        (rule,) = parse_program(TWIN)
        assert rule.join_plan().tail == 2
        for i in (1, 2):
            step.memory.make("a", k=1, id=i, v=5)
        for _ in range(2):
            step.make("b", 1, v=2)
        step.make("c", 2, v=5)
        assert step.pending
        assert len(_fire_all(step)) == 2


def test_a_prefix_element_re_added_late_ranks_by_its_own_timetag():
    """Removing and re-adding the older ``a`` under its timetag stores
    its prefix token after the newer one's: the walk still ranks the
    two by recency."""
    for strategy in LAZY:
        for gone in (0, 1):
            step = Lockstep(CHASE, strategy)
            a = [step.make("a", 1), step.make("a", 1)]
            step.make("d", 1, v=5)
            step.memory.remove(a[gone])
            step.memory.add(a[gone])
            for _ in range(2):
                step.make("b", 1, v=2)
            step.make("c", 2, v=5)
            assert step.pending
            assert len(_fire_all(step)) == 2


def test_the_best_prefix_tokens_all_blocked():
    """The two newest and the two oldest ``a``s are blocked: a LEX or
    priority walk passes the first two, a FIFO walk the last two."""
    for strategy in LAZY:
        step = Lockstep(SCREEN, strategy)
        for v in range(6):
            step.make("a", 1, v=v)
        step.make("d", 1, v=5)
        for v in (0, 1, 4, 5):
            step.make("n", v)
        step.make("b", 1, v=2)
        step.make("c", 2, v=5)
        assert step.pending
        (chosen,) = _fire_all(step)
        a = chosen.wmes[0]
        assert a["v"] == (2 if strategy == "fifo" else 3)


BUMP = "(p bump (a ^k <x> ^v 1) --> (modify 1 ^v 0))"


def _rolled_back(matcher: str, strategy: str, processors):
    """``(stop reason, firings)`` of a wave run whose first ``bump``
    crashes before it commits: the rollback re-adds the ``a`` it
    modified under its old timetag, after ``chase``'s seeds filed."""
    from repro.fault import FaultPlan, FaultSpec

    memory = WorkingMemory()
    plan = FaultPlan([FaultSpec("crash_commit", rule="bump", max_hits=1)])
    engine = ParallelEngine(
        parse_program(CHASE + BUMP), memory, scheme="rc", matcher=matcher,
        strategy=strategy, processors=processors, seed=3,
        fault_injector=plan.injector(),
    )
    with engine:
        memory.make("a", k=1, v=1)
        memory.make("a", k=1, v=0)
        memory.make("d", k=1, v=5)
        for _ in range(3):
            memory.make("b", k=1, v=2)
        memory.make("c", k=2, v=5)
        stop = engine.run(max_waves=12).stop_reason
        assert engine.fault.total_injected == 1
        firings = [
            (f.rule_name, f.value_identities) for f in engine.result.firings
        ]
    return stop, firings


def test_a_rolled_back_prefix_element_in_a_wave_fires_as_under_naive():
    for strategy in LAZY:
        for processors in (None, 1, 2):
            assert _rolled_back("rete", strategy, processors) == (
                _rolled_back("naive", strategy, processors)
            )



def test_a_wave_ranks_each_match_once_after_a_late_prefix_token():
    """A prefix token arriving after ``chase``'s seeds filed builds the
    matches it completes at once; the ``c`` seed holds them too, but
    its walk yields only those it is the newest element of, so a
    wave's ranking lists each eligible match once, in key order."""
    for strategy in LAZY:
        step = Lockstep(CHASE, strategy)
        for _ in range(2):
            step.make("b", 1, v=2)
        step.make("c", 2, v=5)
        step.make("b", 1, v=2)  # a seed newer than the c
        step.make("a", 1)
        step.make("d", 1, v=5)
        assert step.pending
        ranking = step.rete.strategy
        walk = ranking.ranked(
            step.rete.conflict_set.eligible(), lambda seed: False
        )
        assert list(walk) == sorted(
            step.naive.conflict_set.eligible(),
            key=ranking.key, reverse=ranking.descending,
        )
        step.check()
