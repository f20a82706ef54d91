"""Tests for the single-thread interpreter."""

import pytest

from repro.engine import Interpreter
from repro.errors import EngineError
from repro.lang import RuleBuilder, parse_production
from repro.lang.builder import var
from repro.wm import WorkingMemory


class TestBasicCycles:
    def test_runs_to_quiescence(self, order_rules, order_wm):
        result = Interpreter(order_rules, order_wm).run()
        assert result.stop_reason == "quiescent"
        # Orders 2,4,5 ship (1 is too small... total=50 not >50; 3 held)
        assert result.firing_sequence().count("ship") == 3
        assert result.firing_sequence().count("audit") == 3

    def test_empty_program_quiescent_immediately(self, order_wm):
        result = Interpreter([], order_wm).run()
        assert len(result) == 0
        assert result.cycles == 0

    def test_halt_stops_cycle(self, wm):
        rules = [
            RuleBuilder("stop").when("go", v=1).halt().build(),
            RuleBuilder("never").when("go", v=1).make("x").build(),
        ]
        wm.make("go", v=1)
        interp = Interpreter(rules, wm, strategy="priority")
        # Give halt priority so it fires first.
        result = interp.run()
        assert result.halted
        assert result.stop_reason == "halt"

    def test_max_cycles_cap(self, wm):
        # A rule that regenerates its own trigger loops forever.
        rule = parse_production(
            "(p loop (tick ^n <n>) --> (remove 1) (make tick ^n (<n> + 1)))"
        )
        wm.make("tick", n=0)
        result = Interpreter([rule], wm).run(max_cycles=10)
        assert result.stop_reason == "max_cycles"
        assert result.cycles == 10

    def test_max_cycles_caps_the_engines_total_not_the_call(self, wm):
        rule = parse_production(
            "(p loop (tick ^n <n>) --> (remove 1) (make tick ^n (<n> + 1)))"
        )
        wm.make("tick", n=0)
        interp = Interpreter([rule], wm)
        assert interp.run(max_cycles=1).cycles == 1
        again = interp.run(max_cycles=1)
        assert (again.stop_reason, again.cycles) == ("max_cycles", 1)
        assert interp.run(max_cycles=3).cycles == 3

    def test_step_returns_fired_instantiation(self, wm):
        rule = RuleBuilder("r").when("x", v=1).remove(1).build()
        wm.make("x", v=1)
        interp = Interpreter([rule], wm)
        fired = interp.step()
        assert fired.production.name == "r"
        assert interp.step() is None

    def test_outputs_collected(self, wm):
        rule = parse_production('(p r (x ^v <n>) --> (write <n>) (remove 1))')
        wm.make("x", v=42)
        result = Interpreter([rule], wm).run()
        assert result.outputs == [(42,)]

    def test_final_snapshot_captured(self, order_rules, order_wm):
        result = Interpreter(order_rules, order_wm).run()
        assert result.final_snapshot is not None
        assert result.final_snapshot.value_identity_set() == (
            order_wm.value_identity_set()
        )


class TestRefraction:
    def test_refraction_prevents_refiring(self, wm):
        # The rule leaves its own LHS true; refraction must stop it.
        rule = (
            RuleBuilder("once")
            .when("x", v=var("n"))
            .make("y", copied=var("n"))
            .build()
        )
        wm.make("x", v=1)
        result = Interpreter([rule], wm).run(max_cycles=50)
        assert result.stop_reason == "quiescent"
        assert len(result) == 1

    def test_new_instantiation_fires_after_modify(self, wm):
        # Modify gives the WME a new timetag -> new instantiation.
        rule = parse_production(
            "(p bump (c ^n <n> ^n < 3) --> (modify 1 ^n (<n> + 1)))"
        )
        wm.make("c", n=0)
        result = Interpreter([rule], wm).run(max_cycles=50)
        assert result.stop_reason == "quiescent"
        assert wm.elements("c")[0]["n"] == 3
        assert len(result) == 3


class TestMatcherAndStrategyOptions:
    @pytest.mark.parametrize("matcher", ["naive", "rete", "treat", "cond"])
    def test_same_result_any_matcher(
        self, matcher, order_rules
    ):
        wm = WorkingMemory()
        for i in range(1, 4):
            wm.make("order", id=i, status="open", total=100)
        result = Interpreter(order_rules, wm, matcher=matcher).run()
        assert result.firing_sequence().count("ship") == 3

    def test_unknown_matcher_rejected(self, wm):
        with pytest.raises(EngineError):
            Interpreter([], wm, matcher="psychic")

    def test_priority_strategy_order(self, wm):
        rules = [
            RuleBuilder("low", priority=1).when("x", v=1).make("lo").build(),
            RuleBuilder("high", priority=9).when("x", v=1).make("hi").build(),
        ]
        wm.make("x", v=1)
        result = Interpreter(rules, wm, strategy="priority").run()
        assert result.firing_sequence()[0] == "high"

    def test_random_strategy_seeded(self):
        def run(seed):
            wm = WorkingMemory()
            rules = [
                RuleBuilder(f"r{i}").when("x", v=i).remove(1).build()
                for i in range(4)
            ]
            for i in range(4):
                wm.make("x", v=i)
            return Interpreter(
                rules, wm, strategy="random", seed=seed
            ).run().firing_sequence()

        assert run(7) == run(7)

    def test_mea_prefers_recent_first_element(self, wm):
        rule_a = RuleBuilder("on-a").when("goal", g=var("g")).when(
            "a", v=1
        ).remove(2).build()
        rule_b = RuleBuilder("on-b").when("b", v=1).remove(1).build()
        wm.make("b", v=1)
        wm.make("a", v=1)
        wm.make("goal", g=1)  # most recent: MEA favors on-a
        interp = Interpreter([rule_a, rule_b], wm, strategy="mea")
        assert interp.step().production.name == "on-a"
