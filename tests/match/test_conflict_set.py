"""Tests for the conflict set and its strategy-ranked eligible view, and
for the two structures that left it for their only readers: TREAT's
WME index (``TestIndexes``) and the delta log of a partitioned shard's
conflict set (``TestDeltas``)."""

import gc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match.conflict_set import ConflictSet
from repro.match.instantiation import Instantiation
from repro.match.partitioned import ShardConflictSet
from repro.match.strategies import make_strategy
from repro.match.treat import TreatMatcher
from repro.wm import WorkingMemory
from repro.wm.element import WME


def _inst(name, tag):
    rule = RuleBuilder(name).when("i", v=var("x")).remove(1).build()
    return Instantiation.build(
        rule, (WME.make("i", {"v": 0}, timetag=tag),), {}
    )


class TestMembership:
    def test_add_and_contains(self):
        cs = ConflictSet()
        inst = _inst("a", 1)
        assert cs.add(inst)
        assert inst in cs
        assert len(cs) == 1

    def test_duplicate_add_returns_false(self):
        cs = ConflictSet()
        inst = _inst("a", 1)
        cs.add(inst)
        assert not cs.add(inst)
        assert len(cs) == 1

    def test_remove(self):
        cs = ConflictSet()
        inst = _inst("a", 1)
        cs.add(inst)
        assert cs.remove(inst)
        assert not cs.remove(inst)
        assert cs.is_empty()

    def test_rule_names_and_for_rule(self):
        cs = ConflictSet()
        cs.add(_inst("a", 1))
        cs.add(_inst("a", 2))
        cs.add(_inst("b", 3))
        assert cs.rule_names() == {"a", "b"}
        assert len(cs.for_rule("a")) == 2

    def test_clear(self):
        cs = ConflictSet()
        cs.add(_inst("a", 1))
        cs.clear()
        assert cs.is_empty()


def _treat_over_shared_wme():
    """A TREAT matcher whose rules ``a`` and ``b`` both match the one
    ``i`` element (timetag ``shared``) and ``c`` matches a second."""
    memory = WorkingMemory()
    matcher = TreatMatcher(memory)
    matcher.add_productions(
        RuleBuilder(name).when(relation, v=var("x")).remove(1).build()
        for name, relation in (("a", "i"), ("b", "i"), ("c", "j"))
    )
    matcher.attach()
    shared = memory.make("i", v=0)
    memory.make("j", v=0)
    return memory, matcher, shared


class TestIndexes:
    def test_mentioning_tracks_adds_and_removes(self):
        memory, matcher, shared = _treat_over_shared_wme()
        a, b = (matcher.conflict_set.for_rule(name)[0] for name in "ab")
        assert set(matcher.mentioning(shared.timetag)) == {a, b}
        assert matcher.mentioning(shared) == matcher.mentioning(
            shared.timetag
        )
        matcher.remove_production("a")
        assert matcher.mentioning(shared) == [b]
        matcher.remove_production("b")
        assert matcher.mentioning(shared) == []
        assert matcher.mentioning(99) == []
        memory.remove(shared)
        assert matcher.mentioning(shared) == []

    def test_rule_index_drops_empty_rules(self):
        cs = ConflictSet()
        a1, a2 = _inst("a", 1), _inst("a", 2)
        cs.add(a1)
        cs.add(a2)
        cs.add(_inst("b", 3))
        cs.remove(a1)
        assert cs.rule_names() == {"a", "b"}
        assert cs.for_rule("a") == [a2]
        cs.remove(a2)
        assert cs.rule_names() == {"b"}
        assert cs.for_rule("a") == []

    def test_indexes_consistent_after_readd(self):
        memory, matcher, shared = _treat_over_shared_wme()
        (a,) = matcher.conflict_set.for_rule("a")
        rule = matcher.productions["a"]
        matcher.remove_production("a")
        matcher.add_production(rule)
        # The re-derived instantiation has the same identity.
        assert matcher.conflict_set.for_rule("a") == [a]
        assert a in matcher.mentioning(shared)
        memory.remove(shared)
        assert matcher.conflict_set.for_rule("a") == []
        assert matcher.mentioning(shared) == []


class TestRefraction:
    def test_fired_excluded_from_eligible(self):
        cs = ConflictSet()
        a, b = _inst("a", 1), _inst("b", 2)
        cs.add(a)
        cs.add(b)
        cs.mark_fired(a)
        assert list(cs.eligible()) == [b]
        assert cs.has_fired(a)

    def test_remove_preserves_fired_state(self):
        """Regression: refraction is per instantiation *identity*.

        A fired instantiation retracted and re-derived with the same
        timetags within one wave (matcher churn, rollback) must NOT
        regain eligibility — it would fire twice otherwise.  Genuine
        re-derivations get fresh timetags, hence a new identity.
        """
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.mark_fired(a)
        cs.remove(a)
        cs.add(a)
        assert list(cs.eligible()) == []
        assert cs.has_fired(a)

    def test_fresh_timetags_make_a_new_eligible_instantiation(self):
        cs = ConflictSet()
        old, new = _inst("a", 1), _inst("a", 2)
        cs.add(old)
        cs.mark_fired(old)
        cs.remove(old)
        cs.add(new)
        assert list(cs.eligible()) == [new]

    def test_forget_fired_restores_eligibility(self):
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.mark_fired(a)
        cs.forget_fired(a)
        assert list(cs.eligible()) == [a]

    def test_clear_preserves_fired_state(self):
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.mark_fired(a)
        cs.clear()
        cs.add(a)
        assert list(cs.eligible()) == []


def _over(rule, *tags):
    """An instantiation of ``rule`` over WMEs with timetags ``tags``
    (none: an LHS with no positive element)."""
    return Instantiation.build(
        rule, tuple(WME.make("i", {"v": 0}, timetag=t) for t in tags), {}
    )


def _rule(name, priority=0):
    return (
        RuleBuilder(name, priority=priority)
        .when("i", v=var("x")).remove(1).build()
    )


_RULES = [_rule("a"), _rule("b"), _rule("c", priority=2)]
_POOL = [_inst(name, tag) for name in "ab" for tag in (1, 2, 3)] + [
    _over(rule, *tags)
    for rule in _RULES[1:]
    for tags in ((), (0,), (3, 1), (1, 3), (2, 2))
]
_RANKINGS = [None, "lex", "mea", "priority", "fifo", "random"]


def _assert_ranked(cs, strategy, twin, eligible):
    """The installed ``strategy``'s ranking of the view is ``twin``'s
    (the same strategy, same seed) of a plain list of the members, and
    the view's groups are the members grouped by head, in membership
    order, with no empty group."""
    groups = cs._buckets
    if strategy.head is None:
        assert [list(group) for group in groups.values()] == (
            [eligible] if eligible else []
        )
    else:
        heads = sorted({strategy.head(m) for m in eligible}, reverse=True)
        assert sorted(groups) == sorted(heads)
        assert [list(groups[h]) for h in heads] == [
            [m for m in eligible if strategy.head(m) == h] for h in heads
        ]
        assert all(groups.values())
    if not eligible:
        return
    assert strategy.select(cs.eligible()) is twin.select(eligible)
    for limit in (1, 2, None):
        assert strategy.order(cs.eligible(), limit) == twin.order(
            eligible, limit
        )
    for width in (1, None):
        assert list(strategy.ranked(cs.eligible(), width=width)) == list(
            twin.ranked(eligible, width=width)
        )
    if hasattr(strategy, "key"):
        assert list(strategy.ranked(cs.eligible())) == sorted(
            eligible, key=strategy.key, reverse=strategy.descending
        )


@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "remove", "mark_fired", "forget_fired", "clear"]
            ),
            st.sampled_from(_POOL),
        ),
        max_size=40,
    ),
    st.sampled_from(_RANKINGS),
)
@settings(max_examples=300, deadline=None)
def test_eligible_view_tracks_the_scan_definition(steps, ranking):
    """The incrementally kept view equals the definition — members
    that have not fired, in membership order (within each group, once
    ranked) — after every step, with fired marks surviving retraction
    and ``clear``.  Under an installed strategy the view's ranking, and
    the ``select`` and ``order`` that read its start, equal the
    strategy's over a plain list of the members, and the view's groups are the members grouped by the
    strategy's head."""
    cs = ConflictSet()
    strategy = twin = None
    if ranking is not None:
        strategy = make_strategy(ranking, seed=7)
        twin = make_strategy(ranking, seed=7)
        cs.rank_by(strategy.head)
    members: list = []
    fired: set = set()
    for op, inst in steps:
        if op == "clear":
            cs.clear()
            members.clear()
        else:
            getattr(cs, op)(inst)
            if op == "add" and inst not in members:
                members.append(inst)
            elif op == "remove" and inst in members:
                members.remove(inst)
            elif op == "mark_fired":
                fired.add(inst)
            elif op == "forget_fired":
                fired.discard(inst)
        assert cs.ordered() == members
        eligible = [m for m in members if m not in fired]
        if strategy is None or strategy.head is None:
            assert list(cs.eligible()) == eligible
        else:  # grouped by head: see _assert_ranked
            assert sorted(cs.eligible(), key=repr) == sorted(eligible, key=repr)
        assert len(cs.eligible()) == len(eligible)
        if strategy is not None:
            _assert_ranked(cs, strategy, twin, eligible)


_TAGS = st.lists(st.integers(0, 5), max_size=3)


@given(
    st.sampled_from(["lex", "mea", "priority", "fifo"]),
    st.sampled_from(_RULES), _TAGS, st.sampled_from(_RULES), _TAGS,
)
@settings(max_examples=500, deadline=None)
def test_head_orders_like_the_key(ranking, rule_a, tags_a, rule_b, tags_b):
    """A smaller head means the key ranks it below, so the winner sits
    in the largest head's bucket — timetag 0 and the no-positive-element
    case (newest timetag -1) included, and FIFO's ascending key too."""
    strategy = make_strategy(ranking)
    a, b = _over(rule_a, *tags_a), _over(rule_b, *tags_b)
    if strategy.head(a) < strategy.head(b):
        assert strategy.order([a, b])[-1] is a


class TestDeltas:
    def test_take_delta_captures_adds_and_removes(self):
        cs = ShardConflictSet()
        a, b = _inst("a", 1), _inst("b", 2)
        cs.add(a)
        cs.take_delta()
        cs.add(b)
        cs.remove(a)
        delta = cs.take_delta()
        assert delta.added == {b}
        assert delta.removed == {a}

    def test_add_then_remove_in_same_window_cancels(self):
        cs = ShardConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.remove(a)
        assert cs.take_delta().is_empty()

    def test_remove_then_readd_cancels(self):
        cs = ShardConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.take_delta()
        cs.remove(a)
        cs.add(a)
        assert cs.take_delta().is_empty()

    def test_refiling_is_not_churn(self):
        """``rank_by`` and ``forget_fired`` refile the members; the
        delta log records adds and removes only."""
        cs = ShardConflictSet()
        a, b = _inst("a", 1), _inst("b", 2)
        cs.add(a)
        cs.add(b)
        cs.mark_fired(a)
        cs.take_delta()
        cs.rank_by(make_strategy("lex").head)
        cs.forget_fired(a)
        assert cs.take_delta().is_empty()
        assert set(cs.eligible()) == {a, b}

    def test_take_delta_resets(self):
        cs = ShardConflictSet()
        cs.add(_inst("a", 1))
        cs.take_delta()
        assert cs.take_delta().is_empty()

    def test_peek_delta_does_not_reset(self):
        cs = ShardConflictSet()
        cs.add(_inst("a", 1))
        assert not cs.peek_delta().is_empty()
        assert not cs.take_delta().is_empty()


class TestMarkExpiry:
    """A mark goes once a unit that removed one of its positive
    elements has committed, and at no other point: a rollback re-adds
    removed elements under their old timetags (the undo log, inside
    the unit), so expiring on the delta, or on a commit that a later
    unit listener refuses, would let the restored instantiation fire
    twice."""

    RULES = "(p note (item ^id <i>) -(block ^id <i>) --> (make seen ^item <i>))"

    def _fired(self):
        from repro.lang import parse_program
        from repro.match.rete.network import ReteMatcher

        memory = WorkingMemory()
        item = memory.make("item", id=1)
        matcher = ReteMatcher(memory)
        matcher.add_productions(parse_program(self.RULES))
        matcher.attach()
        cs = matcher.conflict_set
        (note,) = cs.ordered()
        cs.mark_fired(note)
        return memory, cs, note, item

    def test_a_committed_remove_expires_the_mark(self):
        memory, cs, note, item = self._fired()
        memory.remove(item)
        assert cs.fired() == frozenset()
        assert not cs.has_fired(note)

    def test_a_rolled_back_remove_keeps_the_mark(self):
        from repro.wm.undo import UndoLog

        memory, cs, note, item = self._fired()
        with memory.atomic("drop"):
            undo = UndoLog(memory).attach()
            memory.remove(item)
            undo.detach()
            undo.rollback()
        assert note in cs
        assert cs.has_fired(note)
        assert list(cs.eligible()) == []

    def test_a_refused_commit_keeps_the_mark(self):
        """The refusing unit listener subscribes *after* the matcher:
        the marks hear a commit only once every unit listener took it."""
        from repro.wm.undo import UndoLog

        memory, cs, note, item = self._fired()

        def refuse():
            raise RuntimeError("commit refused")

        memory.subscribe_units(lambda label: None, refuse)
        undo = UndoLog(memory).attach()
        with pytest.raises(RuntimeError):
            with memory.atomic("drop") as unit:
                memory.remove(item)
                try:
                    unit.commit()
                except RuntimeError:
                    undo.detach()
                    undo.rollback()
                    raise
        assert note in cs
        assert cs.has_fired(note)
        assert list(cs.eligible()) == []

    def test_negation_flicker_keeps_the_mark(self):
        """A negated element added and then removed retracts and
        restores the instantiation; no positive element was lost."""
        memory, cs, note, _ = self._fired()
        block = memory.make("block", id=1)
        assert note not in cs
        memory.remove(block)
        assert note in cs
        assert cs.has_fired(note)
        assert list(cs.eligible()) == []

    def test_an_expired_mark_is_referenced_under_no_other_timetag(self):
        """An element that is never removed (a lane's gauge) must not
        keep every mark that named it alive."""
        cs = ConflictSet()
        rule = _rule("a")
        kept, gone = _over(rule, 7, 8), _over(rule, 7, 9)
        cs.mark_fired(kept)
        cs.mark_fired(gone)
        cs.expire([5])  # neither is spent by its own commit: both indexed
        cs.expire([9])
        assert cs.fired() == {kept}
        assert not [
            holder for holder in gc.get_referrers(gone)
            if isinstance(holder, (set, list, dict, tuple))
        ]
