"""Behavioral tests run against all four matchers.

Every test in ``TestAnyMatcher`` is parametrized over naive, Rete,
TREAT and cond-relations: the matchers are interchangeable
implementations of the same protocol, and these tests pin the shared
contract.
"""

import pytest

from repro.lang import RuleBuilder, parse_production
from repro.lang.builder import gt, var
from repro.match import (
    CondRelationMatcher,
    NaiveMatcher,
    ReteMatcher,
    TreatMatcher,
)
from repro.wm import WorkingMemory

MATCHERS = [NaiveMatcher, ReteMatcher, TreatMatcher, CondRelationMatcher]


def build(matcher_cls, rules, wm=None):
    memory = wm if wm is not None else WorkingMemory()
    matcher = matcher_cls(memory)
    matcher.add_productions(rules)
    matcher.attach()
    return memory, matcher


def names(matcher):
    return sorted(str(i) for i in matcher.conflict_set)


@pytest.mark.parametrize("matcher_cls", MATCHERS)
class TestAnyMatcher:
    def test_simple_match(self, matcher_cls):
        rule = RuleBuilder("r").when("item", v=1).remove(1).build()
        wm, m = build(matcher_cls, [rule])
        wm.make("item", v=1)
        assert len(m.conflict_set) == 1

    def test_no_match_on_constant_mismatch(self, matcher_cls):
        rule = RuleBuilder("r").when("item", v=1).remove(1).build()
        wm, m = build(matcher_cls, [rule])
        wm.make("item", v=2)
        assert m.conflict_set.is_empty()

    def test_match_appears_for_preexisting_wmes(self, matcher_cls):
        rule = RuleBuilder("r").when("item", v=1).remove(1).build()
        wm = WorkingMemory()
        wm.make("item", v=1)
        _, m = build(matcher_cls, [rule], wm)
        assert len(m.conflict_set) == 1

    def test_removal_retracts_instantiation(self, matcher_cls):
        rule = RuleBuilder("r").when("item", v=1).remove(1).build()
        wm, m = build(matcher_cls, [rule])
        w = wm.make("item", v=1)
        wm.remove(w)
        assert m.conflict_set.is_empty()

    def test_join_on_variable(self, matcher_cls):
        rule = (
            RuleBuilder("join")
            .when("order", id=var("o"))
            .when("line", order=var("o"))
            .remove(2)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("order", id=1)
        wm.make("line", order=1)
        wm.make("line", order=2)  # dangling line: no match
        assert len(m.conflict_set) == 1

    def test_cross_product_when_no_join(self, matcher_cls):
        rule = (
            RuleBuilder("cross")
            .when("a", x=var("p"))
            .when("b", y=var("q"))
            .remove(1)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        for i in range(2):
            wm.make("a", x=i)
        for j in range(3):
            wm.make("b", y=j)
        assert len(m.conflict_set) == 6

    def test_negation_blocks_match(self, matcher_cls):
        rule = (
            RuleBuilder("neg")
            .when("order", id=var("o"))
            .when_not("hold", order=var("o"))
            .remove(1)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("order", id=1)
        assert len(m.conflict_set) == 1
        wm.make("hold", order=1)
        assert m.conflict_set.is_empty()

    def test_negation_unblocks_on_removal(self, matcher_cls):
        rule = (
            RuleBuilder("neg")
            .when("order", id=var("o"))
            .when_not("hold", order=var("o"))
            .remove(1)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("order", id=1)
        hold = wm.make("hold", order=1)
        wm.remove(hold)
        assert len(m.conflict_set) == 1

    def test_negation_is_per_binding(self, matcher_cls):
        rule = (
            RuleBuilder("neg")
            .when("order", id=var("o"))
            .when_not("hold", order=var("o"))
            .remove(1)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("order", id=1)
        wm.make("order", id=2)
        wm.make("hold", order=1)
        remaining = list(m.conflict_set)
        assert len(remaining) == 1
        assert remaining[0].bindings["o"] == 2

    def test_predicate_tests(self, matcher_cls):
        rule = (
            RuleBuilder("big")
            .when("order", total=gt(100))
            .remove(1)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("order", total=150)
        wm.make("order", total=50)
        assert len(m.conflict_set) == 1

    def test_variable_predicate_across_elements(self, matcher_cls):
        rule = parse_production(
            "(p over-limit (limit ^value <l>) (bid ^amount > <l>)"
            " --> (remove 2))"
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("limit", value=100)
        wm.make("bid", amount=150)
        wm.make("bid", amount=50)
        assert len(m.conflict_set) == 1

    def test_modify_retracts_and_rematches(self, matcher_cls):
        rule = RuleBuilder("open").when("o", s="open").remove(1).build()
        wm, m = build(matcher_cls, [rule])
        w = wm.make("o", s="open")
        assert len(m.conflict_set) == 1
        w2 = wm.modify(w, {"s": "closed"})
        assert m.conflict_set.is_empty()
        wm.modify(w2, {"s": "open"})
        assert len(m.conflict_set) == 1

    def test_multiple_rules_independent(self, matcher_cls):
        rules = [
            RuleBuilder("a").when("x", v=1).remove(1).build(),
            RuleBuilder("b").when("y", v=1).remove(1).build(),
        ]
        wm, m = build(matcher_cls, rules)
        wm.make("x", v=1)
        assert m.conflict_set.rule_names() == {"a"}
        wm.make("y", v=1)
        assert m.conflict_set.rule_names() == {"a", "b"}

    def test_remove_production_retracts(self, matcher_cls):
        rule = RuleBuilder("r").when("x", v=1).remove(1).build()
        wm, m = build(matcher_cls, [rule])
        wm.make("x", v=1)
        m.remove_production("r")
        assert m.conflict_set.is_empty()

    def test_add_production_after_attach(self, matcher_cls):
        wm, m = build(matcher_cls, [])
        wm.make("x", v=1)
        m.add_production(
            RuleBuilder("late").when("x", v=1).remove(1).build()
        )
        assert len(m.conflict_set) == 1

    def test_same_relation_join_two_elements(self, matcher_cls):
        rule = (
            RuleBuilder("pair")
            .when("n", v=var("a"))
            .when("n", v=gt(var("a")))
            .remove(1)
            .build()
        )
        wm, m = build(matcher_cls, [rule])
        wm.make("n", v=1)
        wm.make("n", v=2)
        wm.make("n", v=3)
        # ordered pairs with second > first: (1,2),(1,3),(2,3)
        assert len(m.conflict_set) == 3

    def test_detach_stops_updates(self, matcher_cls):
        rule = RuleBuilder("r").when("x", v=1).remove(1).build()
        wm, m = build(matcher_cls, [rule])
        m.detach()
        wm.make("x", v=1)
        assert m.conflict_set.is_empty()


class TestReteSharing:
    def test_alpha_memories_shared_across_rules(self):
        rules = [
            RuleBuilder("a").when("item", kind="x").remove(1).build(),
            RuleBuilder("b").when("item", kind="x").when(
                "other", v=1
            ).remove(1).build(),
        ]
        wm = WorkingMemory()
        m = ReteMatcher(wm)
        m.add_productions(rules)
        m.attach()
        # "item kind=x" appears in both rules but gets one alpha memory.
        assert m.stats()["alpha_memories"] == 2

    def test_beta_prefix_shared(self):
        common = lambda b: b.when("item", kind="x").when(
            "other", v=var("n")
        )
        # ``remove(2)`` keeps a's join order the written one, like b's:
        # a rule removing its *first* element joins it last.
        rules = [
            common(RuleBuilder("a")).remove(2).build(),
            common(RuleBuilder("b")).make("out", v=var("n")).build(),
        ]
        wm = WorkingMemory()
        m = ReteMatcher(wm)
        m.add_productions(rules)
        m.attach()
        assert m.stats()["join_nodes"] == 2  # shared prefix: 2 joins total

    def test_stats_counts_production_nodes(self):
        wm = WorkingMemory()
        m = ReteMatcher(wm)
        m.add_production(
            RuleBuilder("a").when("item", v=1).remove(1).build()
        )
        assert m.stats()["production_nodes"] == 1
