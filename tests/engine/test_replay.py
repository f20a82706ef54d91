"""Tests for replay-based semantic-consistency validation."""

from repro.engine import Interpreter, replay_commit_sequence
from repro.engine.result import Commit
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WMSnapshot, WorkingMemory


def setup():
    wm = WorkingMemory()
    wm.make("item", id=1, state="raw")
    wm.make("item", id=2, state="raw")
    rules = [
        RuleBuilder("cook")
        .when("item", id=var("i"), state="raw")
        .modify(1, state="done")
        .build()
    ]
    return wm, rules


class TestReplay:
    def test_single_thread_run_replays(self):
        wm, rules = setup()
        snapshot = WMSnapshot.capture(wm)
        result = Interpreter(rules, wm).run()
        outcome = replay_commit_sequence(snapshot, rules, result.firings)
        assert outcome.consistent
        assert outcome.replayed == 2

    def test_empty_sequence_is_consistent(self):
        wm, rules = setup()
        outcome = replay_commit_sequence(
            WMSnapshot.capture(wm), rules, []
        )
        assert outcome.consistent

    def test_bogus_firing_detected(self):
        wm, rules = setup()
        snapshot = WMSnapshot.capture(wm)
        bogus = Commit(
            rule_name="cook",
            value_identities=(("item", (("id", 9), ("state", "raw"))),),
            cycle=1,
        )
        outcome = replay_commit_sequence(snapshot, rules, [bogus])
        assert not outcome.consistent
        assert outcome.replayed == 0
        assert "cook" in outcome.detail

    def test_double_firing_of_consumed_instantiation_detected(self):
        wm, rules = setup()
        snapshot = WMSnapshot.capture(wm)
        result = Interpreter(rules, wm).run()
        duplicated = list(result.firings) + [result.firings[0]]
        outcome = replay_commit_sequence(snapshot, rules, duplicated)
        assert not outcome.consistent
        assert outcome.replayed == 2

    def test_reordered_independent_firings_replay(self):
        """Independent firings commute: any order is in ES_single."""
        wm, rules = setup()
        snapshot = WMSnapshot.capture(wm)
        result = Interpreter(rules, wm).run()
        reordered = list(reversed(result.firings))
        outcome = replay_commit_sequence(snapshot, rules, reordered)
        assert outcome.consistent

    def test_replay_with_rete_matcher(self):
        wm, rules = setup()
        snapshot = WMSnapshot.capture(wm)
        result = Interpreter(rules, wm).run()
        outcome = replay_commit_sequence(
            snapshot, rules, result.firings, matcher="rete"
        )
        assert outcome.consistent
