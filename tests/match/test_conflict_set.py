"""Tests for the conflict set and its delta tracking."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match.conflict_set import ConflictSet
from repro.match.instantiation import Instantiation
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


class TestIndexes:
    def test_mentioning_tracks_adds_and_removes(self):
        cs = ConflictSet()
        a, b = _inst("a", 1), _inst("b", 1)
        other = _inst("c", 2)
        for inst in (a, b, other):
            cs.add(inst)
        assert set(cs.mentioning(1)) == {a, b}
        assert cs.mentioning(a.wmes[0]) == cs.mentioning(1)
        cs.remove(a)
        assert cs.mentioning(1) == [b]
        cs.remove(b)
        assert cs.mentioning(1) == []
        assert cs.mentioning(99) == []

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
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.remove(a)
        cs.add(a)
        assert cs.for_rule("a") == [a]
        assert cs.mentioning(1) == [a]


class TestRefraction:
    def test_fired_excluded_from_eligible(self):
        cs = ConflictSet()
        a, b = _inst("a", 1), _inst("b", 2)
        cs.add(a)
        cs.add(b)
        cs.mark_fired(a)
        assert cs.eligible() == [b]
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
        assert cs.eligible() == []
        assert cs.has_fired(a)

    def test_fresh_timetags_make_a_new_eligible_instantiation(self):
        cs = ConflictSet()
        old, new = _inst("a", 1), _inst("a", 2)
        cs.add(old)
        cs.mark_fired(old)
        cs.remove(old)
        cs.add(new)
        assert cs.eligible() == [new]

    def test_forget_fired_restores_eligibility(self):
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.mark_fired(a)
        cs.forget_fired(a)
        assert cs.eligible() == [a]

    def test_clear_preserves_fired_state(self):
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.mark_fired(a)
        cs.clear()
        cs.add(a)
        assert cs.eligible() == []


_POOL = [_inst(name, tag) for name in "ab" for tag in (1, 2, 3)]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "remove", "mark_fired", "forget_fired", "clear"]
            ),
            st.sampled_from(_POOL),
        ),
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_eligible_view_tracks_the_scan_definition(steps):
    """The incrementally kept view equals the definition — members
    that have not fired, in membership order — after every step, with
    fired marks surviving retraction and ``clear``."""
    cs = ConflictSet()
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
        assert cs.eligible() == [m for m in members if m not in fired]


class TestDeltas:
    def test_take_delta_captures_adds_and_removes(self):
        cs = ConflictSet()
        a, b = _inst("a", 1), _inst("b", 2)
        cs.add(a)
        cs.take_delta()
        cs.add(b)
        cs.remove(a)
        delta = cs.take_delta()
        assert delta.added == {b}
        assert delta.removed == {a}

    def test_add_then_remove_in_same_window_cancels(self):
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.remove(a)
        assert cs.take_delta().is_empty()

    def test_remove_then_readd_cancels(self):
        cs = ConflictSet()
        a = _inst("a", 1)
        cs.add(a)
        cs.take_delta()
        cs.remove(a)
        cs.add(a)
        assert cs.take_delta().is_empty()

    def test_take_delta_resets(self):
        cs = ConflictSet()
        cs.add(_inst("a", 1))
        cs.take_delta()
        assert cs.take_delta().is_empty()

    def test_peek_delta_does_not_reset(self):
        cs = ConflictSet()
        cs.add(_inst("a", 1))
        assert not cs.peek_delta().is_empty()
        assert not cs.take_delta().is_empty()
