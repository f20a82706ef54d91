"""Integration tests: instrumented engines, locks and simulators.

The acceptance scenario from the observability issue lives here: a
``ParallelEngine`` run under the ``rc`` scheme with tracing enabled
must produce lock-grant and wave events that say nobody lost the wave
— the deterministic wave chooses rule (i) at admission, so the reader
is ordered before the writer that out-ranks it and both commit — and
the metrics snapshot must include the lock-wait histogram and commit
counters.  The rule-(ii) abort event and its
counters are asserted where rule (ii) still runs: on ``RcScheme``
driven directly (the ``rule_ii_by_hand`` fixture).
"""

import json

import repro.obs as obs
from repro.engine import ParallelEngine, ThreadedWaveExecutor
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.locks import LockManager, LockMode
from repro.sim import FiringSpec, simulate_lock_scheme
from repro.txn import Transaction
from repro.wm import WorkingMemory


def contention_rules():
    """A writer and a reader racing on the same tuple; the writer is
    ranked first (higher priority), so the reader would lose the wave
    to rule (ii) if the wave acted in rank order."""
    toggle = (
        RuleBuilder("toggle", priority=10)
        .when("flag", id=var("f"), state="on")
        .modify(1, state="off")
        .build()
    )
    observe = (
        RuleBuilder("observe", priority=0)
        .when("flag", id=var("f"), state="on")
        .make("seen", flag=var("f"))
        .build()
    )
    return [toggle, observe]


class TestDefaults:
    def test_default_observer_is_disabled(self):
        assert obs.get_observer() is obs.NULL_OBSERVER
        assert not obs.get_observer().enabled

    def test_components_attach_the_default(self):
        manager = LockManager()
        assert manager.obs is obs.NULL_OBSERVER

    def test_uninstrumented_run_records_nothing(self):
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        engine = ParallelEngine(
            contention_rules(), wm, scheme="rc", strategy="priority"
        )
        engine.run()
        assert engine.obs is obs.NULL_OBSERVER

    def test_observed_restores_previous_default(self):
        before = obs.get_observer()
        with obs.observed() as observer:
            assert obs.get_observer() is observer
        assert obs.get_observer() is before

    def test_enable_disable_cycle(self):
        observer = obs.enable()
        try:
            assert obs.get_observer() is observer
            assert LockManager().obs is observer
        finally:
            obs.disable()
        assert obs.get_observer() is obs.NULL_OBSERVER


class TestAcceptanceScenario:
    def test_rc_run_traces_grants_rule_ii_and_waves(self, rule_ii_by_hand):
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        with obs.observed() as observer:
            engine = ParallelEngine(
                contention_rules(), wm, scheme="rc", strategy="priority"
            )
            engine.run()
        # Re-targeted: the reader acts first (rule (i)); nobody is
        # aborted and nobody is held back.
        assert engine.ordered_count == 1
        assert engine.waves[0].committed == ["observe", "toggle"]
        assert engine.held_count == 0
        assert engine.abort_count == 0
        kinds = observer.trace.kinds()
        assert kinds.get("lock.grant", 0) > 0
        assert kinds.get("rc.rule_ii_abort", 0) == 0
        assert kinds.get("wave.start", 0) >= 1
        assert kinds.get("wave.end", 0) >= 1
        first_wave = observer.trace.events("wave.end")[0]
        assert first_wave.get("committed") == 2
        assert first_wave.get("held") == 0
        assert first_wave.get("aborted") == 0
        # Rule (ii) itself is still traced wherever it runs.
        with obs.observed() as observer:
            rule_ii_by_hand(observer)
        victim_event = observer.trace.events("rc.rule_ii_abort")[0]
        assert victim_event.get("victim") != victim_event.get("committer")

    def test_metrics_snapshot_has_wait_histogram_and_rates(
        self, rule_ii_by_hand
    ):
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        with obs.observed() as observer:
            engine = ParallelEngine(
                contention_rules(), wm, scheme="rc", strategy="priority"
            )
            engine.run()
        snap = observer.metrics.snapshot()
        assert snap["lock.wait_seconds"]["type"] == "histogram"
        assert snap["lock.wait_seconds"]["count"] > 0
        # Re-targeted: the reader is ordered first, so there is no
        # hold-back, no rule-(ii) abort and no transaction abort.
        assert snap["firing.ordered"]["value"] == 1
        assert snap["firing.held"]["value"] == 0
        assert snap["rc.rule_ii_aborts"]["value"] == 0
        assert snap["txn.aborts"]["value"] == 0
        assert snap["txn.commits"]["value"] >= 1
        assert snap["wave.width"]["count"] >= 1
        assert (
            snap["firing.committed"]["value"]
            == len(engine.result.firings)
        )
        # The whole snapshot must be JSON-serializable.
        json.loads(observer.metrics.to_json())
        with obs.observed() as observer:
            rule_ii_by_hand(observer)
        snap = observer.metrics.snapshot()
        assert snap["rc.rule_ii_aborts"]["value"] == 1
        assert snap["txn.aborts"]["value"] == 1

    def test_trace_json_lines_parse(self):
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        with obs.observed() as observer:
            ParallelEngine(
                contention_rules(), wm, scheme="rc", strategy="priority"
            ).run()
        for line in observer.trace.to_json_lines().splitlines():
            json.loads(line)


class TestLockManagerInstrumentation:
    def test_grant_wait_deny_cancel_events(self):
        observer = obs.Observer()
        manager = LockManager(observer=observer)
        t1, t2 = Transaction(), Transaction()
        manager.acquire(t1, "q", LockMode.W)
        waiting = manager.acquire(t2, "q", LockMode.R)
        assert not manager.try_acquire(t2, "q", LockMode.W)
        manager.cancel(waiting)
        kinds = observer.trace.kinds()
        assert kinds["lock.grant"] == 1
        assert kinds["lock.wait"] == 1
        assert kinds["lock.deny"] == 1
        assert kinds["lock.cancel"] == 1
        snap = observer.metrics.snapshot()
        assert snap["lock.grants"]["value"] == 1
        assert snap["lock.denials"]["value"] == 1
        assert snap["lock.queue_depth"]["max"] >= 1

    def test_queued_grant_reports_wait_time(self):
        observer = obs.Observer()
        manager = LockManager(observer=observer)
        t1, t2 = Transaction(), Transaction()
        manager.acquire(t1, "q", LockMode.W)
        manager.acquire(t2, "q", LockMode.R)
        manager.release_all(t1)
        grants = observer.trace.events("lock.grant")
        queued = [e for e in grants if e.get("queued")]
        assert len(queued) == 1
        assert queued[0].get("waited") >= 0.0


class TestThreadedInstrumentation:
    def test_threaded_wave_emits_wave_and_firing_events(self):
        wm = WorkingMemory(thread_safe=True)
        for i in range(3):
            wm.make("cell", id=i, state="raw")
        rule = (
            RuleBuilder("cook")
            .when("cell", id=var("i"), state="raw")
            .modify(1, state="done")
            .build()
        )
        observer = obs.Observer()
        executor = ThreadedWaveExecutor(
            [rule], wm, scheme="rc", observer=observer
        )
        result = executor.run_wave()
        assert len(result.committed) == 3
        kinds = observer.trace.kinds()
        assert kinds["wave.start"] == 1
        assert kinds["wave.end"] == 1
        assert kinds["firing.commit"] == 3


class TestSimInstrumentation:
    def test_lock_sim_emits_virtual_time_events(self):
        specs = [
            FiringSpec.build("P1", reads=["q"], writes=["r"]),
            FiringSpec.build("P2", reads=["r"], writes=["q"]),
        ]
        observer = obs.Observer()
        result = simulate_lock_scheme(
            specs, processors=2, scheme="rc", observer=observer
        )
        commits = observer.trace.events("sim.commit")
        assert {e.get("pid") for e in commits} == set(result.committed)
        # Virtual timestamps, not wall clock: within the makespan.
        assert all(0 <= e.ts <= result.makespan for e in commits)
        phases = observer.trace.events("sim.phase")
        assert phases, "phase transitions should be traced"
        snap = observer.metrics.snapshot()
        assert snap["sim.commit.count"]["value"] == len(result.committed)
        assert snap["sim.blocked_vtime"]["count"] > 0

    def test_rule_ii_abort_traced_in_lock_sim(self):
        # P2's Wa(q) commit must rule-(ii)-abort P1's Rc(q) (the
        # Figure 4.3 shape: long reader, fast writer).
        specs = [
            FiringSpec.build(
                "P1", reads=["q"], writes=["z"], match_time=1.0,
                act_time=5.0,
            ),
            FiringSpec.build(
                "P2", reads=["y"], writes=["q"], match_time=1.0,
                act_time=1.0,
            ),
        ]
        observer = obs.Observer()
        result = simulate_lock_scheme(
            specs, processors=2, scheme="rc", observer=observer
        )
        assert "P1" in result.aborted
        assert observer.trace.events("rc.rule_ii_abort")
