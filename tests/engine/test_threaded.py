"""Tests for the real-threads wave executor (lock-manager stress)."""

import sys

import pytest

from repro.engine import ThreadedWaveExecutor, replay_commit_sequence
from repro.errors import EngineError
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.locks import LockMode
from repro.txn import Transaction
from repro.txn.serializability import is_conflict_serializable
from repro.wm import WMSnapshot, WorkingMemory


def disjoint_setup(n=6):
    wm = WorkingMemory(thread_safe=True)
    for i in range(n):
        wm.make("cell", id=i, state="raw")
    rules = [
        RuleBuilder("cook")
        .when("cell", id=var("i"), state="raw")
        .modify(1, state="done")
        .build()
    ]
    return wm, rules


class TestThreadedWave:
    def test_requires_thread_safe_memory(self):
        with pytest.raises(EngineError):
            ThreadedWaveExecutor([], WorkingMemory(), scheme="rc")

    @pytest.mark.parametrize("scheme", ["rc", "2pl"])
    def test_disjoint_instantiations_all_commit(self, scheme):
        wm, rules = disjoint_setup()
        snapshot = WMSnapshot.capture(wm)
        executor = ThreadedWaveExecutor(rules, wm, scheme=scheme)
        result = executor.run_wave()
        assert len(result.committed) == 6
        assert result.aborted == []
        outcome = replay_commit_sequence(
            snapshot, rules, executor.result.firings
        )
        assert outcome.consistent, outcome.detail
        assert is_conflict_serializable(executor.history)

    @pytest.mark.parametrize("scheme", ["rc", "2pl"])
    @pytest.mark.parametrize("round_", range(3))
    def test_contending_instantiations_stay_consistent(
        self, scheme, round_
    ):
        """Two rules race on the same tuples across real threads; the
        final state must equal a serial execution of the committed
        sequence and the history must be serializable."""
        wm = WorkingMemory(thread_safe=True)
        for i in range(4):
            wm.make("flag", id=i, state="on")
        rules = [
            RuleBuilder("toggle")
            .when("flag", id=var("f"), state="on")
            .modify(1, state="off")
            .build(),
            RuleBuilder("observe")
            .when("flag", id=var("f"), state="on")
            .make("seen", flag=var("f"))
            .build(),
        ]
        snapshot = WMSnapshot.capture(wm)
        executor = ThreadedWaveExecutor(
            rules, wm, scheme=scheme, lock_timeout=0.5
        )
        executor.run_wave()
        assert is_conflict_serializable(executor.history)
        outcome = replay_commit_sequence(
            snapshot, rules, executor.result.firings
        )
        assert outcome.consistent, outcome.detail

    def test_repeated_waves_drain_work(self):
        wm, rules = disjoint_setup(4)
        executor = ThreadedWaveExecutor(rules, wm, scheme="rc")
        total = 0
        for _ in range(5):
            result = executor.run_wave()
            total += len(result.committed)
            if not executor.matcher.conflict_set.eligible():
                break
        assert total == 4
        assert all(w["state"] == "done" for w in wm.elements("cell"))

    def test_run_drains_to_quiescence(self):
        wm, rules = disjoint_setup(5)
        executor = ThreadedWaveExecutor(rules, wm, scheme="rc")
        result = executor.run()
        assert len(result.firings) == 5
        assert sum(len(w.committed) for w in executor.waves) == 5
        assert result.stop_reason == "quiescent"
        assert result.cycles == len(executor.waves)
        assert result.final_snapshot is not None
        assert not executor.matcher.conflict_set.eligible()


def figure_44_setup():
    """Figure 4.4 as a threaded scenario: two rules each *match* both
    elements and each *modify* the other's — Pi holds Rc(q) Rc(r) and
    Wa(r); Pj holds Rc(q) Rc(r) and Wa(q)."""
    wm = WorkingMemory(thread_safe=True)
    wm.make("item", id="q", state="fresh")
    wm.make("item", id="r", state="fresh")
    rules = [
        RuleBuilder("pi")
        .when("item", id="q", state="fresh")
        .when("item", id="r", state="fresh")
        .modify(2, state="written-by-pi")
        .build(),
        RuleBuilder("pj")
        .when("item", id="q", state="fresh")
        .when("item", id="r", state="fresh")
        .modify(1, state="written-by-pj")
        .build(),
    ]
    return wm, rules


class TestAbortTimeoutClassification:
    """Regression for the abort/timeout conflation: a blocking
    acquisition returns one flat False for both failure modes, and
    rule-(ii) victims were once reported as timeouts (now
    ``WaveResult.deferred``) instead of aborts."""

    def test_figure_44_loser_is_aborted_not_timed_out(self):
        """Figure 4.4 on real threads: every lock grant is immediate
        under Rc (Wa bypasses Rc), so no firing can time out — the
        loser must be reported as *aborted*, whichever thread wins."""
        wm, rules = figure_44_setup()
        snapshot = WMSnapshot.capture(wm)
        executor = ThreadedWaveExecutor(
            rules, wm, scheme="rc", lock_timeout=5.0
        )
        result = executor.run_wave()
        assert len(result.committed) == 1
        assert len(result.aborted) == 1
        assert result.deferred == []
        assert {result.committed[0], result.aborted[0]} == {"pi", "pj"}
        outcome = replay_commit_sequence(
            snapshot, rules, executor.result.firings
        )
        assert outcome.consistent, outcome.detail

    def test_abort_landing_mid_acquire_is_a_victim_not_a_crash(self):
        """The lock manager raises when asked to grant to a transaction
        aborted an instant earlier; the thread must take the victim
        exit (and release the half-recorded grant), not die."""
        wm, rules = disjoint_setup(1)
        executor = ThreadedWaveExecutor(rules, wm, scheme="rc")
        manager = executor.scheme.manager
        real_acquire = manager.acquire

        def racing_acquire(txn, *args, **kwargs):
            txn.try_abort("rule (ii) landed mid-acquire")
            return real_acquire(txn, *args, **kwargs)

        manager.acquire = racing_acquire
        result = executor.run_wave()
        assert (result.committed, result.aborted) == ([], ["cook"])
        assert manager.grant_table() == {}

    def test_injected_lock_denial_is_a_timeout(self):
        """A denied lock is an unavailable lock: deferred, not aborted."""
        wm, rules = disjoint_setup(1)
        plan = FaultPlan([FaultSpec("lock_deny", rule="cook")], seed=0)
        executor = ThreadedWaveExecutor(
            rules, wm, scheme="rc", fault_injector=plan.injector()
        )
        result = executor.run_wave()
        assert result.deferred == ["cook"]
        assert result.aborted == []
        assert result.committed == []

    def test_injected_rhs_abort_is_an_abort(self):
        wm, rules = disjoint_setup(1)
        plan = FaultPlan([FaultSpec("abort_rhs", rule="cook")], seed=0)
        executor = ThreadedWaveExecutor(
            rules, wm, scheme="rc", fault_injector=plan.injector()
        )
        result = executor.run_wave()
        assert result.aborted == ["cook"]
        assert result.deferred == []
        assert result.committed == []


class TestDeadlockDetection:
    """2PL upgrade deadlock on real threads, broken by detection."""

    def _run(self, victim_policy="youngest"):
        wm, rules = figure_44_setup()
        snapshot = WMSnapshot.capture(wm)
        # Stall both threads before their W request (rate 1.0, mode W)
        # so each holds its condition R locks when the upgrades start:
        # pi waits for pj's R(r), pj waits for pi's R(q) — a cycle.
        plan = FaultPlan(
            [FaultSpec("lock_delay", mode="W", delay=0.1)], seed=0
        )
        executor = ThreadedWaveExecutor(
            rules,
            wm,
            scheme="2pl",
            lock_timeout=10.0,
            victim_policy=victim_policy,
            fault_injector=plan.injector(),
        )
        result = executor.run_wave()
        return snapshot, rules, executor, result

    def test_upgrade_deadlock_detected_and_broken(self):
        snapshot, rules, executor, result = self._run()
        assert len(result.committed) == 1
        assert len(result.aborted) == 1
        assert result.deferred == []  # detected, not timed out
        assert len(executor.deadlock_victims) == 1
        assert executor.detector.detected  # the cycle was observed
        outcome = replay_commit_sequence(
            snapshot, rules, executor.result.firings
        )
        assert outcome.consistent, outcome.detail
        assert is_conflict_serializable(executor.history)

    @pytest.mark.parametrize(
        "victim_policy", ["oldest", "fewest-locks", "most-locks"]
    )
    def test_alternative_victim_policies_break_the_cycle(
        self, victim_policy
    ):
        _, _, executor, result = self._run(victim_policy)
        assert len(result.committed) == 1
        assert len(executor.deadlock_victims) == 1

    def test_one_block_event_breaks_every_cycle_it_closes(self):
        """A request waits for *every* incompatible holder, so going
        to wait can close several cycles at once; nothing would look
        at the ones left standing until the stall backstop fired."""
        executor = ThreadedWaveExecutor(
            [], WorkingMemory(thread_safe=True), scheme="2pl"
        )
        manager = executor.scheme.manager
        writer, reader_1, reader_2 = (
            Transaction(rule_name=name) for name in ("w", "r1", "r2")
        )
        manager.acquire(writer, "audit", LockMode.W)
        for reader in (reader_1, reader_2):
            manager.acquire(reader, "stock", LockMode.R)
            executor._on_block(manager.acquire(reader, "audit", LockMode.W))
        assert executor.deadlock_victims == []
        # The writer now waits for both readers, each waiting for it.
        executor._on_block(manager.acquire(writer, "stock", LockMode.W))
        assert sorted(executor.deadlock_victims) == sorted(
            [reader_1.txn_id, reader_2.txn_id]
        )
        assert executor.detector.find_cycle() is None

    def test_unknown_victim_policy_rejected(self):
        wm, rules = figure_44_setup()
        with pytest.raises(ValueError):
            ThreadedWaveExecutor(
                rules, wm, scheme="2pl", victim_policy="coin-flip"
            )


class TestThreadedRetry:
    def test_denied_locks_retried_to_commit(self):
        """Two denials then success: the retry policy re-drives the
        firing and the final outcome is a commit, not a deferral."""
        wm, rules = disjoint_setup(1)
        snapshot = WMSnapshot.capture(wm)
        plan = FaultPlan(
            [FaultSpec("lock_deny", rule="cook", max_hits=2)], seed=0
        )
        executor = ThreadedWaveExecutor(
            rules,
            wm,
            scheme="rc",
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.001),
            fault_injector=plan.injector(),
        )
        result = executor.run_wave()
        assert result.committed == ["cook"]
        # Every attempt is filed: two denials, then the commit.
        assert result.deferred == ["cook", "cook"]
        assert executor.retry_count == 2
        outcome = replay_commit_sequence(
            snapshot, rules, executor.result.firings
        )
        assert outcome.consistent, outcome.detail

    def test_retries_exhausted_keeps_timeout_classification(self):
        wm, rules = disjoint_setup(1)
        plan = FaultPlan([FaultSpec("lock_deny", rule="cook")], seed=0)
        executor = ThreadedWaveExecutor(
            rules,
            wm,
            scheme="rc",
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.001),
            fault_injector=plan.injector(),
        )
        result = executor.run_wave()
        assert result.deferred == ["cook"] * 3
        assert result.aborted == []
        assert executor.retry_count == 2
        assert executor.gave_up == ["cook"]

    def test_shared_retry_accounting_loses_no_update(self):
        """More threads than cores, a short switch interval and a
        coin-flip denial at every lock: each deferral is charged to
        the one accountant exactly once, whichever thread it was on."""
        wm, rules = disjoint_setup(24)
        plan = FaultPlan([FaultSpec("lock_deny", rate=0.5)], seed=4)
        executor = ThreadedWaveExecutor(
            rules,
            wm,
            scheme="rc",
            retry_policy=RetryPolicy(max_attempts=64, base_delay=0.0),
            fault_injector=plan.injector(),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = executor.run_wave()
        finally:
            sys.setswitchinterval(interval)
        assert len(result.committed) == 24
        assert result.aborted == []
        assert len(result.deferred) > 0
        assert executor.retry_count == len(result.deferred)
        assert executor.retry_clock.calls == executor.retry_count
        assert executor.gave_up == []

    def test_crash_before_commit_rolls_back_and_retries(self):
        """An injected pre-commit crash leaves no trace in working
        memory; the retry then commits the firing for real."""
        wm, rules = disjoint_setup(1)
        snapshot = WMSnapshot.capture(wm)
        plan = FaultPlan(
            [FaultSpec("crash_commit", rule="cook", max_hits=1)], seed=0
        )
        executor = ThreadedWaveExecutor(
            rules,
            wm,
            scheme="rc",
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
            fault_injector=plan.injector(),
        )
        result = executor.run_wave()
        assert result.committed == ["cook"]
        assert [w["state"] for w in wm.elements("cell")] == ["done"]
        outcome = replay_commit_sequence(
            snapshot, rules, executor.result.firings
        )
        assert outcome.consistent, outcome.detail


class TestInheritedFromTheWaveEngine:
    """What the threaded driver gets by being a ``ParallelEngine``."""

    def test_one_match_flush_per_committed_firing(self):
        """A 4-action RHS on a partitioned matcher goes through one
        barrier, not four: RHS and commit run under the commit mutex,
        so one thread at a time is inside ``matcher.batch()``."""
        wm = WorkingMemory(thread_safe=True)
        for i in range(5):
            wm.make("cell", id=i, state="raw")
        rule = (
            RuleBuilder("cook")
            .when("cell", id=var("i"), state="raw")
            .modify(1, state="done")
            .make("audit", cell=var("i"), step="one")
            .make("audit", cell=var("i"), step="two")
            .make("audit", cell=var("i"), step="three")
            .build()
        )
        with ThreadedWaveExecutor(
            [rule], wm, scheme="rc", matcher="partitioned:rete:2:serial"
        ) as executor:
            before = executor.matcher.stats()["flushes"]
            result = executor.run()
            flushes = executor.matcher.stats()["flushes"] - before
        assert len(result.firings) == 5
        assert flushes == 5

    def test_context_manager_detaches_the_matcher(self):
        wm, rules = disjoint_setup(2)
        with ThreadedWaveExecutor(rules, wm, scheme="rc") as executor:
            executor.run()
        wm.make("cell", id=99, state="raw")  # no longer matched
        assert not executor.matcher.conflict_set.eligible()

    def test_conservative_2pl_preclaims_without_waiting(self):
        """c2pl under threads: each thread takes its whole footprint
        or nothing, never waits while holding, and the run drains."""
        wm = WorkingMemory(thread_safe=True)
        for i in range(4):
            wm.make("flag", id=i, state="on")
        rules = [
            RuleBuilder("toggle")
            .when("flag", id=var("f"), state="on")
            .modify(1, state="off")
            .build(),
            RuleBuilder("observe")
            .when("flag", id=var("f"), state="on")
            .make("seen", flag=var("f"))
            .build(),
        ]
        snapshot = WMSnapshot.capture(wm)
        executor = ThreadedWaveExecutor(rules, wm, scheme="c2pl")
        result = executor.run()
        assert result.stop_reason == "quiescent"
        assert all(w["state"] == "off" for w in wm.elements("flag"))
        assert executor.deadlock_victims == []
        assert executor.scheme.manager.grant_table() == {}
        outcome = replay_commit_sequence(snapshot, rules, result.firings)
        assert outcome.consistent, outcome.detail
        assert is_conflict_serializable(executor.history)

    def test_unknown_scheme_rejected(self):
        wm, rules = disjoint_setup(1)
        with pytest.raises(EngineError):
            ThreadedWaveExecutor(rules, wm, scheme="optimistic")
