"""Genuinely multi-threaded firing waves.

The deterministic engines (simulator, wave engine) validate the
*semantics*; this executor validates the lock manager's *mutual
exclusion* under real OS-thread interleavings.  It is a stress/test
harness, not a performance vehicle — the GIL precludes real speedups
(DESIGN.md records that substitution).

One wave: every eligible instantiation fires on its own thread under
the chosen scheme with *blocking* lock acquisition.  Each thread:

1. acquires condition locks (``Rc``/``R``) on its read objects;
2. acquires action locks (``Wa``/``W``) on its write objects;
3. re-checks it has not been rule-(ii) aborted, then executes its RHS
   inside the working memory's global mutex (paired with an undo log),
   commits, and triggers victim aborts.

Deadlocks are *detected*, not timed out: every blocking acquisition
registers an ``on_block`` hook that runs the waits-for cycle detector
(:mod:`repro.locks.deadlock`); when a cycle closes, a victim chosen by
a pluggable policy (youngest / fewest-locks / ...) is aborted and its
waiting requests cancelled, waking its thread immediately.  Timeouts
remain only as a backstop for pathological stalls.

A timed-out or aborted firing is re-driven under the executor's
:class:`~repro.fault.retry.RetryPolicy` (bounded attempts, exponential
backoff with seeded jitter) as long as its instantiation is still in
the conflict set; the final classification distinguishes *timeouts*
(lock never became available) from *aborts* (rule-(ii) victims,
deadlock victims, injected faults) — ``result.timed_out`` vs
``result.aborted``.  An attached
:class:`~repro.fault.injector.FaultInjector` can delay or deny lock
grants, force mid-RHS aborts, and kill a firing after its RHS but
before commit (the undo log rolls the crash back).  The executor
records the commit order and the lock history for the serializability
and semantic-consistency checks.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal

import repro.obs as obs_module
from repro.engine.actions import ActionExecutor
from repro.engine.interpreter import MatcherName, build_matcher
from repro.engine.result import FiringRecord
from repro.errors import EngineError, FiringCrashed
from repro.fault.injector import FaultInjector
from repro.fault.retry import RetryPolicy
from repro.lang.production import Production
from repro.locks.deadlock import (
    DeadlockDetector,
    VictimPolicy,
    resolve_victim_policy,
)
from repro.locks.modes import LockMode
from repro.locks.rc_scheme import RcScheme
from repro.locks.request import LockRequest
from repro.locks.two_phase import TwoPhaseScheme
from repro.match.instantiation import Instantiation
from repro.txn.schedule import History
from repro.txn.transaction import Transaction
from repro.wm.memory import WorkingMemory
from repro.wm.undo import UndoLog

SchemeName = Literal["2pl", "rc"]


class _Acquire(enum.Enum):
    """Outcome of a (multi-object) lock acquisition."""

    GRANTED = "granted"
    #: The lock never became available within ``lock_timeout``.
    TIMEOUT = "timeout"
    #: The transaction was aborted while acquiring — rule-(ii) victim,
    #: deadlock victim, or injected abort.  NOT a timeout.
    ABORTED = "aborted"


class _Fired(enum.Enum):
    """Outcome of one firing attempt."""

    COMMITTED = "committed"
    TIMEOUT = "timeout"
    ABORTED = "aborted"
    #: The instantiation left the conflict set before commit.
    INVALIDATED = "invalidated"


@dataclass
class ThreadedWaveResult:
    """Outcome of one threaded wave."""

    committed: list[FiringRecord] = field(default_factory=list)
    #: Rules whose firing was aborted (rule (ii), deadlock victim,
    #: injected fault, or invalidated instantiation).
    aborted: list[str] = field(default_factory=list)
    #: Rules whose firing gave up waiting for a lock.
    timed_out: list[str] = field(default_factory=list)
    history: History = field(default_factory=History)
    #: Transactions aborted by deadlock detection during this wave.
    deadlock_victims: list[str] = field(default_factory=list)
    #: Re-drive attempts performed during this wave.
    retries: int = 0

    def commit_order(self) -> tuple[str, ...]:
        return tuple(r.rule_name for r in self.committed)


class ThreadedWaveExecutor:
    """Runs eligible instantiations concurrently on real threads.

    Parameters
    ----------
    productions, memory, scheme, matcher, lock_timeout, observer:
        As before; ``lock_timeout`` is now a stall backstop, not the
        deadlock breaker.
    deadlock_detection:
        When true (default), blocking acquisitions run the waits-for
        cycle detector and abort a victim instead of waiting for the
        timeout.
    victim_policy:
        ``"youngest"`` (default), ``"oldest"``, ``"fewest-locks"``,
        ``"most-locks"``, or a callable ``cycle -> Transaction``.
    retry_policy:
        When given, timed-out/aborted firings are re-driven (fresh
        transaction, exponential backoff) while their instantiation
        remains in the conflict set.
    fault_injector:
        Optional :class:`FaultInjector` wired into every lock
        acquisition, the pre-RHS point, and the pre-commit point.
    sleeper:
        Time source for retry backoff (default :func:`time.sleep`).
    """

    def __init__(
        self,
        productions: Iterable[Production],
        memory: WorkingMemory,
        scheme: SchemeName = "rc",
        matcher: MatcherName = "rete",
        lock_timeout: float = 0.2,
        observer=None,
        deadlock_detection: bool = True,
        victim_policy: str | VictimPolicy = "youngest",
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        lock_stripes: int = 1,
    ) -> None:
        if memory._mutex is None:  # noqa: SLF001 - deliberate check
            raise EngineError(
                "threaded execution requires WorkingMemory(thread_safe=True)"
            )
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self.memory = memory
        self.matcher = build_matcher(matcher, memory, observer=self.obs)
        self.matcher.add_productions(productions)
        self.matcher.attach()
        self.history = History()
        if scheme == "rc":
            self.scheme: RcScheme | TwoPhaseScheme = RcScheme(
                history=self.history, observer=self.obs,
                stripes=lock_stripes,
            )
        elif scheme == "2pl":
            self.scheme = TwoPhaseScheme(
                history=self.history, observer=self.obs,
                stripes=lock_stripes,
            )
        else:
            raise EngineError(f"unknown scheme {scheme!r}")
        self.lock_timeout = lock_timeout
        self.executor = ActionExecutor(memory)
        self.retry_policy = retry_policy
        self.fault = fault_injector
        self._sleep = sleeper
        self.victim_policy_name = (
            victim_policy if isinstance(victim_policy, str) else "custom"
        )
        self.detector: DeadlockDetector | None = None
        if deadlock_detection:
            self.detector = DeadlockDetector(
                self.scheme.manager,
                policy=resolve_victim_policy(
                    victim_policy, self.scheme.manager
                ),
            )
        self._detector_mutex = threading.Lock()
        self._commit_mutex = threading.Lock()
        #: Deadlock victims across all waves (txn ids).
        self.deadlock_victims: list[str] = []
        #: Waves run so far; the current wave number is the ``cycle``
        #: label stamped on committed :class:`FiringRecord`\ s.
        self.waves_run = 0

    # -- one wave ------------------------------------------------------------------------

    def run_wave(self) -> ThreadedWaveResult:
        result = ThreadedWaveResult(history=self.history)
        self.waves_run += 1
        cycle = self.waves_run
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        if spans is not None and spans.scope_dropped():
            # Sampled-out run: skip span construction for the wave.
            spans = None
        wave_start = obs.clock() if obs.enabled else 0.0
        cycle_span = None
        if spans is not None:
            cycle_span = spans.start(
                "cycle", parent=spans.current(), ts=wave_start,
                wave=cycle, executor="threaded",
            )
            spans.push_scope(cycle_span)
        victims_before = len(self.deadlock_victims)
        try:
            candidates = self.matcher.conflict_set.eligible()
            if obs.enabled:
                obs.match_latency(obs.clock() - wave_start)
                obs.wave_started(cycle, len(candidates))
            threads = [
                threading.Thread(
                    target=self._fire,
                    args=(instantiation, result, cycle, cycle_span),
                    name=f"firing-{instantiation.production.name}",
                    daemon=True,
                )
                for instantiation in candidates
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if spans is not None:
                spans.pop_scope(cycle_span)
                cycle_span.finish(
                    committed=len(result.committed),
                    aborted=len(result.aborted),
                    timed_out=len(result.timed_out),
                )
        result.deadlock_victims = self.deadlock_victims[victims_before:]
        if obs.enabled:
            obs.wave_finished(
                cycle,
                committed=len(result.committed),
                aborted=len(result.aborted),
                deferred=len(result.timed_out),
                duration=obs.clock() - wave_start,
            )
        return result

    def run(self, max_waves: int = 100) -> list[ThreadedWaveResult]:
        """Run waves until the conflict set drains (or ``max_waves``)."""
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        run_start = obs.clock() if obs.enabled else 0.0
        run_span = None
        if spans is not None:
            run_span = spans.start(
                "run",
                scheme=type(self.scheme).__name__,
                executor="threaded",
            )
            spans.push_scope(run_span)
        results: list[ThreadedWaveResult] = []
        try:
            for _ in range(max_waves):
                check_start = obs.clock() if obs.enabled else 0.0
                eligible = self.matcher.conflict_set.eligible()
                if obs.enabled:
                    obs.match_prepass(obs.clock() - check_start)
                if not eligible:
                    break
                results.append(self.run_wave())
        finally:
            if run_span is not None:
                spans.pop_scope(run_span)
                run_span.finish(waves=len(results))
            if obs.enabled:
                obs.run_finished(len(results), obs.clock() - run_start)
        return results

    # -- deadlock detection ----------------------------------------------------------------

    def _on_block(self, request: LockRequest) -> None:
        """Runs once whenever a lock request starts waiting.

        The last edge of any waits-for cycle is created by a request
        going to wait, so checking here catches every deadlock at the
        instant it forms.
        """
        if self.detector is None:
            return
        manager = self.scheme.manager
        with self._detector_mutex:
            cycle = self.detector.find_cycle()
            if cycle is None:
                return
            cycle_ids = tuple(t.txn_id for t in cycle)
            self.detector.detected.append(cycle_ids)
            victim = self.detector.policy(cycle)
            if not victim.try_abort("deadlock victim"):
                return
            self.deadlock_victims.append(victim.txn_id)
            if self.obs.enabled:
                self.obs.deadlock_victim(
                    victim.txn_id, cycle_ids, self.victim_policy_name
                )
            # Wake the victim: cancelling its waiting requests unblocks
            # its thread immediately (it sees is_aborted, not a grant).
            for waiting in manager.waiting_requests():
                if waiting.txn is victim:
                    manager.cancel(waiting)

    # -- lock acquisition --------------------------------------------------------------------

    def _acquire_all(
        self, txn: Transaction, objects, mode: LockMode
    ) -> _Acquire:
        """Blocking acquisition of ``objects`` in the order given (an
        instantiation's footprint is sorted: deterministic, and the
        textbook static deadlock-avoidance aid).

        Distinguishes the two failure modes the caller must not
        conflate: the lock never arriving (``TIMEOUT``) versus the
        transaction being aborted while it waited (``ABORTED``).
        """
        manager = self.scheme.manager
        for obj in objects:
            if txn.is_aborted:
                return _Acquire.ABORTED
            if self.fault is not None:
                if self.fault.lock_fault(txn, obj, str(mode)) == "deny":
                    return _Acquire.TIMEOUT
                if txn.is_aborted:
                    # An injected delay widened the window for a
                    # concurrent rule-(ii)/deadlock abort to land.
                    return _Acquire.ABORTED
            request = manager.acquire(
                txn,
                obj,
                mode,
                blocking=True,
                timeout=self.lock_timeout,
                on_block=self._on_block,
            )
            if request.is_granted:
                # Covers both the immediate grant and the grant that
                # slipped in during the timeout/cancel race window —
                # the manager leaves such a request GRANTED (it only
                # cancels WAITING requests), so the lock is used, not
                # leaked.
                continue
            return _Acquire.ABORTED if txn.is_aborted else _Acquire.TIMEOUT
        return _Acquire.ABORTED if txn.is_aborted else _Acquire.GRANTED

    # -- firing ------------------------------------------------------------------------------

    def _fire(
        self,
        instantiation: Instantiation,
        result: ThreadedWaveResult,
        cycle: int,
        parent=None,
    ) -> None:
        policy = self.retry_policy
        rule = instantiation.production.name
        attempt = 0
        outcome = _Fired.ABORTED
        while True:
            attempt += 1
            txn = Transaction(rule_name=rule)
            outcome = self._fire_once(
                instantiation, txn, result, cycle,
                parent=parent, attempt=attempt,
            )
            if outcome is _Fired.COMMITTED:
                return
            if outcome is _Fired.INVALIDATED:
                break
            if policy is None or not policy.should_retry(attempt):
                if policy is not None and self.obs.enabled:
                    self.obs.retry_exhausted(rule, attempt, outcome.value)
                break
            if instantiation not in self.matcher.conflict_set:
                # Retracted by a concurrent commit: nothing to re-drive.
                break
            delay = policy.backoff(attempt, key=rule)
            with self._commit_mutex:
                result.retries += 1
            if self.obs.enabled:
                self.obs.retry_attempt(rule, attempt, delay, outcome.value)
            if delay > 0:
                self._sleep(delay)
        with self._commit_mutex:
            if outcome is _Fired.TIMEOUT:
                result.timed_out.append(rule)
            else:
                result.aborted.append(rule)

    def _fire_once(
        self,
        instantiation: Instantiation,
        txn: Transaction,
        result: ThreadedWaveResult,
        cycle: int,
        parent=None,
        attempt: int = 1,
    ) -> _Fired:
        """One attempt wrapped in a ``firing`` span (when recording).

        The transaction is bound to the span for the duration, so
        lock grants, faults, deadlock victimhood and rule-(ii) links
        land on the right firing even across OS threads.
        """
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        if spans is not None and spans.scope_dropped():
            # Suppressed wave (sampled-out trace): a firing span here
            # would be parentless and steal a fresh head decision.
            spans = None
        fire_start = obs.clock() if obs.enabled else 0.0
        if spans is None:
            try:
                return self._attempt(instantiation, txn, result, cycle)
            finally:
                if obs.enabled:
                    obs.firing_finished(
                        instantiation.production.name, txn.txn_id,
                        obs.clock() - fire_start,
                    )
        firing = spans.start(
            "firing", parent=parent,
            rule=instantiation.production.name, txn=txn.txn_id,
            attempt=attempt,
        )
        spans.bind(txn.txn_id, firing)
        try:
            outcome = self._attempt(instantiation, txn, result, cycle)
            firing.annotate(outcome=outcome.value)
            return outcome
        finally:
            firing.finish()
            spans.unbind(txn.txn_id)
            obs.firing_finished(
                instantiation.production.name, txn.txn_id,
                obs.clock() - fire_start,
            )

    def _attempt(
        self,
        instantiation: Instantiation,
        txn: Transaction,
        result: ThreadedWaveResult,
        cycle: int,
    ) -> _Fired:
        """One attempt: acquire, execute, commit.  Never raises for
        survivable failures; the caller decides whether to re-drive."""
        reads, writes = instantiation.lock_footprint()
        acquired = self._acquire_all(txn, reads, self.scheme.condition_mode)
        if acquired is not _Acquire.GRANTED:
            if acquired is _Acquire.TIMEOUT:
                self.scheme.abort(txn, "condition lock timeout")
                return _Fired.TIMEOUT
            self.scheme.abort(txn)
            return _Fired.ABORTED
        acquired = self._acquire_all(
            txn, writes, self.scheme.action_write_mode
        )
        if acquired is not _Acquire.GRANTED:
            if acquired is _Acquire.TIMEOUT:
                self.scheme.abort(txn, "action lock timeout")
                return _Fired.TIMEOUT
            self.scheme.abort(txn)
            return _Fired.ABORTED
        if self.fault is not None and self.fault.rhs_abort(txn):
            txn.try_abort("injected RHS abort")
        # Serialize the actual database update + commit decision.
        with self._commit_mutex:
            if txn.is_aborted:
                self.scheme.abort(txn)
                return _Fired.ABORTED
            if instantiation not in self.matcher.conflict_set:
                self.scheme.abort(txn, "instantiation invalidated")
                return _Fired.INVALIDATED
            undo = UndoLog(self.memory).attach()
            try:
                self.matcher.conflict_set.mark_fired(instantiation)
                self.executor.execute(instantiation)
                if self.fault is not None:
                    self.fault.crash_point(txn)
            except FiringCrashed:
                self._rollback(undo, txn, instantiation)
                self.scheme.abort(txn, "crashed before commit")
                return _Fired.ABORTED
            except Exception:
                self._rollback(undo, txn, instantiation)
                self.scheme.abort(txn, "RHS execution failed")
                raise
            undo.detach()
            self.scheme.commit(txn)
            undo.commit()
            result.committed.append(
                FiringRecord.from_instantiation(instantiation, cycle=cycle)
            )
            if self.obs.enabled:
                self.obs.firing_committed(
                    instantiation.production.name, cycle
                )
        return _Fired.COMMITTED

    def _rollback(
        self, undo: UndoLog, txn: Transaction, instantiation: Instantiation
    ) -> None:
        """Undo a partially executed RHS; caller holds the commit mutex."""
        undo.detach()
        undone = undo.rollback()
        # The rollback restored the matched WMEs under their original
        # timetags, so the instantiation identity is back — clear its
        # fired mark or the retry could never refire it.
        self.matcher.conflict_set.forget_fired(instantiation)
        if self.obs.enabled:
            self.obs.rollback(txn.txn_id, undone)
