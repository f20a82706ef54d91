"""Regression tests for engine accounting and rollback bugs.

* The progress fallback used to run the RHS with no undo log (an
  exception left working memory half-mutated) and never counted its
  firing in ``result.cycles``.  It is now an ordinary wave of width 1,
  and these tests drive that public path.
* After an RHS exception ``ParallelEngine`` rolled working memory back
  but kept the instantiation's fired mark, so it could never fire
  again; under ``ThreadedWaveExecutor`` the same exception died in the
  worker thread and the rule was accounted nowhere.
* ``ThreadedWaveExecutor`` stamped every committed firing with
  ``cycle=0`` instead of the actual wave number.
"""

import pytest

from repro.engine import ParallelEngine, ThreadedWaveExecutor
from repro.fault import FaultPlan, FaultSpec
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WorkingMemory


def two_step_rules():
    """make then remove: the RHS mutates WM twice, so a failure after
    the first action is observable if rollback is broken."""
    return [
        RuleBuilder("advance")
        .when("cell", id=var("i"), state="raw")
        .make("audit", cell=var("i"))
        .modify(1, state="done")
        .build()
    ]


def explode_once(engine):
    """Make the next ``executor.execute`` mutate WM, then raise."""
    real_execute = engine.executor.execute

    def explode(instantiation):
        engine.executor.execute = real_execute
        real_execute(instantiation)  # mutate WM first...
        raise RuntimeError("boom")  # ...then die mid-firing

    engine.executor.execute = explode


class TestFireSingleRollback:
    """The width-1 wave (the progress fallback's shape)."""

    def _engine(self):
        wm = WorkingMemory()
        wm.make("cell", id=1, state="raw")
        return ParallelEngine(two_step_rules(), wm, scheme="rc"), wm

    def test_rhs_exception_restores_working_memory(self):
        engine, wm = self._engine()
        before = wm.value_identity_set()
        explode_once(engine)
        with pytest.raises(RuntimeError):
            engine.run_wave(width=1)
        assert wm.value_identity_set() == before

    def test_rhs_exception_leaves_no_firing_record(self):
        engine, _ = self._engine()
        engine.executor.execute = lambda inst: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError):
            engine.run_wave(width=1)
        assert engine.result.firings == []
        assert engine.result.cycles == 0

    def test_successful_firing_counts_a_cycle(self):
        engine, wm = self._engine()
        engine.run()
        assert engine.result.cycles == 1
        assert len(engine.result.firings) == 1
        states = {
            w.get("state") for w in wm if w.relation == "cell"
        }
        assert states == {"done"}

    def test_fire_single_commits_in_history(self):
        engine, _ = self._engine()
        engine.run_wave(width=1)
        assert len(engine.history.committed()) == 1

    def test_commitless_wave_is_followed_by_one_wave_of_width_one(self):
        """The fallback is a wave like any other: it visits the fault
        sites, and when it commits nothing either the next wave is
        wide again."""
        wm = WorkingMemory()
        for i in range(2):
            wm.make("cell", id=i, state="raw")
        plan = FaultPlan([FaultSpec("lock_deny", max_hits=3)], seed=0)
        engine = ParallelEngine(
            two_step_rules(), wm, scheme="2pl",
            fault_injector=plan.injector(),
        )
        result = engine.run()
        # Wide wave: both denied.  Width 1: denied too (third hit).
        # Wide again, the plan exhausted: both commit.
        assert [len(w.deferred) for w in engine.waves] == [2, 1, 0]
        assert [len(w.committed) for w in engine.waves] == [0, 0, 2]
        assert result.cycles == 3
        assert result.stop_reason == "quiescent"


class TestRaisingRhsLeavesTheEngineRunnable:
    def test_parallel_engine_can_fire_the_instantiation_again(self):
        wm = WorkingMemory()
        wm.make("cell", id=1, state="raw")
        engine = ParallelEngine(two_step_rules(), wm, scheme="rc")
        before = wm.value_identity_set()
        explode_once(engine)
        with pytest.raises(RuntimeError):
            engine.run()
        assert wm.value_identity_set() == before
        assert engine.scheme.manager.grant_table() == {}
        assert engine.waves[-1].aborted == ["advance"]
        assert len(engine.matcher.conflict_set.eligible()) == 1
        result = engine.run()
        assert result.firing_sequence() == ("advance",)
        assert result.stop_reason == "quiescent"

    def test_threaded_executor_files_the_abort_and_reraises(self):
        wm = WorkingMemory(thread_safe=True)
        wm.make("cell", id=1, state="raw")
        executor = ThreadedWaveExecutor(two_step_rules(), wm, scheme="rc")
        before = wm.value_identity_set()
        explode_once(executor)
        with pytest.raises(RuntimeError):
            executor.run_wave()
        assert wm.value_identity_set() == before
        assert executor.scheme.manager.grant_table() == {}
        wave = executor.waves[-1]
        assert (wave.committed, wave.aborted) == ([], ["advance"])
        assert executor.run().firing_sequence() == ("advance",)


class TestThreadedCycleNumbers:
    def test_committed_records_carry_their_wave_number(self):
        # Two dependent rules force two waves: cook fires in wave 1,
        # plate (enabled by cook's write) in wave 2.
        wm = WorkingMemory(thread_safe=True)
        wm.make("dish", id=1, state="raw")
        cook = (
            RuleBuilder("cook")
            .when("dish", id=var("d"), state="raw")
            .modify(1, state="cooked")
            .build()
        )
        plate = (
            RuleBuilder("plate")
            .when("dish", id=var("d"), state="cooked")
            .modify(1, state="done")
            .build()
        )
        executor = ThreadedWaveExecutor([cook, plate], wm, scheme="rc")
        first = executor.run_wave()
        second = executor.run_wave()
        assert first.committed == ["cook"]
        assert second.committed == ["plate"]
        assert [(r.rule_name, r.cycle) for r in executor.result.firings] == [
            ("cook", 1), ("plate", 2),
        ]

    def test_waves_run_counter_tracks_calls(self):
        wm = WorkingMemory(thread_safe=True)
        wm.make("dish", id=1, state="raw")
        rule = (
            RuleBuilder("cook")
            .when("dish", id=var("d"), state="raw")
            .modify(1, state="done")
            .build()
        )
        executor = ThreadedWaveExecutor([rule], wm, scheme="rc")
        assert len(executor.waves) == 0
        executor.run_wave()
        assert len(executor.waves) == 1
        executor.run_wave()  # empty wave still counts as a call
        assert len(executor.waves) == 2
