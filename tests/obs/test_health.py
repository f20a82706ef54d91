"""Health monitor: rule thresholds, windows, transitions, integration."""

import pytest

import repro.obs as obs
from repro.engine import ParallelEngine
from repro.obs.health import (
    BENIGN_ABORT_REASONS,
    GREEN,
    RED,
    YELLOW,
    HealthMonitor,
    worst,
)
from repro.workloads.manners import (
    build_manners_memory,
    build_manners_rules,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def monitor():
    clock = FakeClock()
    return HealthMonitor(clock=clock), clock


def rule(report, name):
    return next(r for r in report.results if r.name == name)


class TestWorst:
    def test_severity_ordering(self):
        assert worst([]) == GREEN
        assert worst([GREEN, GREEN]) == GREEN
        assert worst([GREEN, YELLOW]) == YELLOW
        assert worst([YELLOW, RED, GREEN]) == RED


class TestAbortRate:
    def test_all_green_when_quiet(self):
        mon, _ = monitor()
        report = mon.evaluate()
        assert report.status == GREEN
        assert all(r.status == GREEN for r in report.results)

    def test_yellow_then_red_thresholds(self):
        mon, _ = monitor()
        mon.record("firing.committed", 3)
        mon.record("firing.aborted", 1)  # 25% => yellow
        report = mon.evaluate()
        assert rule(report, "abort_rate").status == YELLOW
        mon.record("firing.aborted", 2)  # 50% => red
        report = mon.evaluate()
        result = rule(report, "abort_rate")
        assert result.status == RED
        assert result.value == pytest.approx(0.5)
        assert "3/6 transactions failed" in result.detail

    def test_old_aborts_age_out_of_the_window(self):
        mon, clock = monitor()
        mon.record("firing.aborted", 10)
        mon.record("firing.committed", 1)
        assert mon.evaluate().status == RED
        clock.now += 10.0  # both samples fall out of the window
        mon.record("firing.committed", 4)
        assert mon.evaluate().status == GREEN

    def test_benign_reasons_are_declared(self):
        # The filter the Observer applies before feeding firing.aborted:
        # wave-protocol deferrals/retractions never count as failures.
        assert "rule (ii) victim" in BENIGN_ABORT_REASONS
        assert "instantiation invalidated" in BENIGN_ABORT_REASONS
        assert "condition lock denied" in BENIGN_ABORT_REASONS
        assert "action locks unavailable" in BENIGN_ABORT_REASONS


class TestRetryExhaustion:
    def test_one_is_yellow_cluster_is_red(self):
        mon, _ = monitor()
        mon.record("retry.exhausted", 1)
        assert rule(mon.evaluate(), "retry_exhaustion").status == YELLOW
        mon.record("retry.exhausted", 2)
        assert rule(mon.evaluate(), "retry_exhaustion").status == RED


class TestLockWaitShare:
    def test_share_is_wait_over_window_elapsed(self):
        mon, clock = monitor()
        clock.now += 5.0  # a full window has elapsed
        mon.record("lock.wait_seconds", 1.0)
        result = rule(mon.evaluate(), "lock_wait_share")
        assert result.status == GREEN
        assert result.value == pytest.approx(0.2)
        mon.record("lock.wait_seconds", 1.6)  # 2.6s / 5s => red
        assert rule(mon.evaluate(), "lock_wait_share").status == RED

    def test_early_evaluation_uses_actual_elapsed_not_window(self):
        mon, clock = monitor()
        clock.now += 1.0
        mon.record("lock.wait_seconds", 0.6)  # 0.6s / 1s elapsed => red
        assert rule(mon.evaluate(), "lock_wait_share").status == RED


class TestWalStall:
    def test_rotations_without_checkpoints_go_red(self):
        mon, _ = monitor()
        mon.record("storage.rotations", 2)
        assert rule(mon.evaluate(), "wal_stall").status == YELLOW
        mon.record("storage.rotations", 1)
        assert rule(mon.evaluate(), "wal_stall").status == RED

    def test_any_checkpoint_clears_the_stall(self):
        mon, _ = monitor()
        mon.record("storage.rotations", 5)
        mon.record("storage.checkpoints", 1)
        assert rule(mon.evaluate(), "wal_stall").status == GREEN


class TestTransitions:
    def test_transitions_are_logged_and_callback_fires(self):
        seen = []
        clock = FakeClock()
        mon = HealthMonitor(
            clock=clock,
            on_transition=lambda old, new, report: seen.append(
                (old, new, report.status)
            ),
        )
        mon.record("firing.aborted", 1)
        mon.evaluate()
        mon.record("firing.committed", 9)
        mon.evaluate()
        assert seen == [(GREEN, RED, RED), (RED, GREEN, GREEN)]
        assert [(old, new) for _, old, new in mon.transitions] == [
            (GREEN, RED), (RED, GREEN),
        ]

    def test_steady_state_does_not_relog(self):
        mon, _ = monitor()
        mon.record("firing.aborted", 1)
        mon.evaluate()
        mon.evaluate()
        assert len(mon.transitions) == 1


class TestEngineIntegration:
    def manners_engine(self, observer, **kwargs):
        return ParallelEngine(
            build_manners_rules(),
            build_manners_memory(8, seed=5),
            scheme="rc",
            observer=observer,
            **kwargs,
        )

    def test_clean_manners_run_is_green(self):
        observer = obs.Observer(level="sampled")
        self.manners_engine(observer).run()
        report = observer.health.evaluate()
        assert report.status == GREEN, report.render()

    def test_chaos_abort_spike_goes_red_with_trace_event(self):
        from repro.fault import FaultPlan, RetryPolicy, VirtualSleeper

        observer = obs.Observer(level="full")
        plan = FaultPlan.chaos(3, 0.5)
        self.manners_engine(
            observer,
            fault_injector=plan.injector(sleeper=VirtualSleeper()),
            retry_policy=RetryPolicy(max_attempts=2, seed=3),
        ).run()
        report = observer.health.evaluate()
        assert report.status == RED, report.render()
        assert rule(report, "abort_rate").status == RED
        # The monitor logged the transition; the span tree holds it.
        assert observer.health.transitions[-1][2] == RED
        assert observer.spans.spans("health.transition")

    def test_lock_denial_storm_is_red_even_via_single_fire_fallback(self):
        """Re-pinned: the fallback used to be a schemeless single
        firing that bypassed every fault site, so a denial storm still
        ran to completion through it.  It is now a wave of width 1
        that honours fault sites and the retry budget, so the same
        storm starves it too: the run stops ``retries_exhausted``, and
        must be red.  Whatever does commit must reach health/metrics
        through the one wave path, and the injected denials must count
        as failures (reason "injected lock denial", not the benign
        contention deferral)."""
        from repro.fault import FaultPlan, RetryPolicy, VirtualSleeper

        observer = obs.Observer(level="full")
        plan = FaultPlan.chaos(3, 0.5)
        engine = ParallelEngine(
            build_manners_rules(),
            build_manners_memory(16, seed=0),
            scheme="rc",
            observer=observer,
            fault_injector=plan.injector(sleeper=VirtualSleeper()),
            retry_policy=RetryPolicy(max_attempts=2, seed=3),
        )
        result = engine.run()
        assert result.stop_reason == "retries_exhausted"
        # The commit-less first wave was followed by a width-1 wave,
        # which was denied at the same fault sites.
        assert len(engine.waves[1].deferred) == 1
        reasons = {
            span.fields.get("abort_reason")
            for span in observer.spans.spans()
        }
        assert "injected lock denial" in reasons
        # Every commit is visible to the metrics and the monitor.
        snap = observer.metrics.snapshot()
        assert snap["firing.committed"]["value"] == len(result.firings)
        report = observer.health.evaluate()
        assert report.status == RED, report.render()
        assert rule(report, "abort_rate").status == RED
