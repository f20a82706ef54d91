"""Tests for RHS action execution."""

import pytest

from repro.engine.actions import ActionExecutor
from repro.errors import EngineError
from repro.lang import RuleBuilder, parse_production
from repro.lang.builder import var
from repro.wm import WorkingMemory


def instantiate(rule, wm):
    """Build an instantiation by matching the positive elements, first
    fit, through the rule's slotted plan."""
    plan = rule.token_plan()
    token = plan.empty_token()
    wmes = []
    for step in plan.steps:
        if step.negated:
            token = step.carry(token)
            continue
        for wme in wm.elements(step.relation):
            extended = step.match(wme, token)
            if extended is not None:
                wmes.append(wme)
                token = extended
                break
        else:
            raise AssertionError(f"no WME for {step.element}")
    return plan.instantiate(tuple(wmes), token)


class TestActions:
    def test_make_creates_wme(self, wm):
        rule = (
            RuleBuilder("r")
            .when("seed", v=var("x"))
            .make("fruit", from_seed=var("x"))
            .build()
        )
        wm.make("seed", v=7)
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert len(outcome.created) == 1
        assert wm.elements("fruit")[0]["from_seed"] == 7

    def test_modify_updates_matched_element(self, wm):
        rule = (
            RuleBuilder("r")
            .when("order", id=var("o"), status="open")
            .modify(1, status="shipped")
            .build()
        )
        wm.make("order", id=1, status="open")
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert len(outcome.modified) == 1
        assert wm.elements("order")[0]["status"] == "shipped"

    def test_remove_deletes_matched_element(self, wm):
        rule = RuleBuilder("r").when("junk", v=var("x")).remove(1).build()
        wm.make("junk", v=1)
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert len(outcome.removed) == 1
        assert wm.count("junk") == 0

    def test_modify_then_modify_same_element(self, wm):
        rule = parse_production(
            "(p r (acct ^bal <b>) --> "
            "(modify 1 ^bal (<b> + 1)) (modify 1 ^touched true))"
        )
        wm.make("acct", bal=10)
        ActionExecutor(wm).execute(instantiate(rule, wm))
        acct = wm.elements("acct")[0]
        assert acct["bal"] == 11
        assert acct["touched"] is True

    def test_modify_after_remove_rejected(self, wm):
        rule = parse_production(
            "(p r (x ^v 1) --> (remove 1) (modify 1 ^v 2))"
        )
        wm.make("x", v=1)
        with pytest.raises(EngineError):
            ActionExecutor(wm).execute(instantiate(rule, wm))

    def test_double_remove_rejected(self, wm):
        rule = parse_production("(p r (x ^v 1) --> (remove 1) (remove 1))")
        wm.make("x", v=1)
        with pytest.raises(EngineError):
            ActionExecutor(wm).execute(instantiate(rule, wm))

    def test_bind_feeds_later_actions(self, wm):
        rule = parse_production(
            "(p r (n ^v <x>) --> (bind <y> (<x> * 3)) (make out ^v <y>))"
        )
        wm.make("n", v=4)
        ActionExecutor(wm).execute(instantiate(rule, wm))
        assert wm.elements("out")[0]["v"] == 12

    def test_write_collects_output_and_calls_sink(self, wm):
        rule = parse_production(
            '(p r (n ^v <x>) --> (write "value" <x>))'
        )
        wm.make("n", v=4)
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert outcome.outputs == [("value", 4)]

    def test_halt_reported_not_raised(self, wm):
        rule = parse_production("(p r (n ^v 1) --> (halt))")
        wm.make("n", v=1)
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert outcome.halted

    def test_actions_after_halt_still_run(self, wm):
        """OPS5 semantics: halt stops the cycle after the RHS."""
        rule = parse_production(
            "(p r (n ^v 1) --> (halt) (make after ^ok true))"
        )
        wm.make("n", v=1)
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert outcome.halted
        assert wm.count("after") == 1

    def test_designator_counts_negated_elements(self, wm):
        """Element designators are positional over the whole LHS, so a
        negated element in between shifts them."""
        rule = parse_production(
            "(p r (a ^v <x>) -(b ^v <x>) (c ^v <x>) --> (remove 3))"
        )
        wm.make("a", v=1)
        wm.make("c", v=1)
        ActionExecutor(wm).execute(instantiate(rule, wm))
        assert wm.count("c") == 0
        assert wm.count("a") == 1

    def test_touched_lists_all_written_wmes(self, wm):
        rule = parse_production(
            "(p r (x ^v <n>) --> (modify 1 ^v 2) (make y ^w <n>))"
        )
        wm.make("x", v=1)
        outcome = ActionExecutor(wm).execute(instantiate(rule, wm))
        assert len(outcome.touched()) == 3  # old x, new x, new y
