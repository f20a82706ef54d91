"""Genuinely multi-threaded firing waves.

The deterministic engines (simulator, wave engine) validate the
*semantics*; this executor validates the lock manager's *mutual
exclusion* under real OS-thread interleavings.  It is a stress/test
harness, not a performance vehicle — the GIL precludes real speedups
(DESIGN.md records that substitution).

It is :class:`~repro.engine.parallel.ParallelEngine` with two things
changed: how a wave's ordered candidates are *driven*, and who grants
their locks — the scheme's lock manager, not the footprints.  Run
loop, wave scaffold, firing transaction, certifier, exit
classification, retry budget, fault sites, ``close()`` and
:class:`~repro.engine.result.RunResult` are all inherited.  Here every
candidate fires on its own thread with *blocking* lock acquisition.
Each thread:

1. acquires condition locks (``Rc``/``R``) on its read objects;
2. acquires action locks (``Wa``/``W``) on its write objects;
3. takes the commit mutex, re-checks it has not been rule-(ii) aborted
   or retracted while it waited, and runs the shared firing
   transaction (RHS inside ``matcher.batch()`` paired with an undo
   log, commit, victim aborts).

Deadlocks are *detected*, not timed out: every blocking acquisition
registers an ``on_block`` hook that runs the waits-for cycle detector
(:mod:`repro.locks.deadlock`); when a cycle closes, its youngest
transaction is aborted and its waiting requests cancelled, waking its
thread immediately.  Timeouts remain only as a backstop for
pathological stalls.

A timed-out or aborted firing is re-driven on its own thread — fresh
transaction, real backoff — for as long as the engine's
:class:`~repro.fault.retry.RetryPolicy` budget allows; every attempt
is filed in the wave, a lock that never became available under
``deferred`` and an abort (rule-(ii) victim, deadlock victim, injected
fault) under ``aborted``.
"""

from __future__ import annotations

import threading
import time
from itertools import islice
from typing import Callable, Iterable

from repro.engine.interpreter import MatcherName
from repro.engine.parallel import (
    _VICTIM,
    ParallelEngine,
    SchemeName,
    WaveResult,
)
from repro.errors import EngineError, TransactionError
from repro.fault.injector import FaultInjector
from repro.fault.retry import RetryPolicy
from repro.lang.production import Production
from repro.locks import SCHEMES
from repro.locks.deadlock import DeadlockDetector
from repro.locks.modes import LockMode
from repro.locks.request import LockRequest
from repro.match.instantiation import Instantiation
from repro.txn.schedule import History
from repro.txn.transaction import Transaction
from repro.wm.memory import WorkingMemory


class ThreadedWaveExecutor(ParallelEngine):
    """Runs a wave's candidates concurrently on real threads.

    Parameters
    ----------
    productions, memory, scheme, matcher, observer, retry_policy,
    fault_injector:
        As for :class:`~repro.engine.parallel.ParallelEngine`, except
        that ``memory`` must be thread-safe.  Under ``"c2pl"`` a thread
        preclaims its whole footprint without waiting (that is the
        discipline), so only the commit is concurrent.
    lock_timeout:
        A stall backstop, not the deadlock breaker: blocking
        acquisitions run the waits-for cycle detector and abort the
        youngest transaction on a cycle.
    sleeper:
        Time source for retry backoff (default :func:`time.sleep`).
    """

    _span_tags = {"executor": "threaded"}

    def __init__(
        self,
        productions: Iterable[Production],
        memory: WorkingMemory,
        scheme: SchemeName = "rc",
        matcher: MatcherName = "rete",
        lock_timeout: float = 0.2,
        observer=None,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if memory._mutex is None:  # noqa: SLF001 - deliberate check
            raise EngineError(
                "threaded execution requires WorkingMemory(thread_safe=True)"
            )
        super().__init__(
            productions, memory, scheme=scheme, matcher=matcher,
            observer=observer, retry_policy=retry_policy,
            fault_injector=fault_injector,
        )
        self.lock_timeout = lock_timeout
        self._sleep = sleeper
        self.detector = DeadlockDetector(self.scheme.manager)
        self._detector_mutex = threading.Lock()
        #: Serializes the firing transaction (RHS, commit, rollback).
        self._commit_mutex = threading.Lock()
        #: The one retry accountant is charged from every thread.
        self._retry_mutex = threading.Lock()
        #: Deadlock victims across all waves (txn ids).
        self.deadlock_victims: list[str] = []

    # -- driving a wave --------------------------------------------------------------------

    def _drive(self, wave: WaveResult, ranking, width, cycle) -> None:
        """One thread per candidate; the first exception a thread
        raised (an RHS error, already rolled back and filed) is
        re-raised once every thread has finished.  The wave is the
        first ``width`` of the ranking as they stand: nothing is held
        back, so nothing past them is ranked."""
        candidates = list(islice(ranking, width))
        ranking.close()
        errors: list[Exception] = []

        def fire(instantiation: Instantiation) -> None:
            try:
                self._fire(wave, instantiation, cycle)
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(
                target=fire,
                args=(instantiation,),
                name=f"firing-{instantiation.production.name}",
                daemon=True,
            )
            for instantiation in candidates
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def _fire(
        self, wave: WaveResult, instantiation: Instantiation, cycle
    ) -> None:
        """One candidate on its own thread: attempt it, and re-drive
        it with a fresh transaction while the retry budget allows."""
        obs = self.obs
        rule = instantiation.production.name
        attempt = 0
        while True:
            attempt += 1
            txn = Transaction(rule_name=rule)
            firing = None
            if cycle is not None:
                # Bound for the whole attempt, so lock grants, faults,
                # deadlock victimhood and rule-(ii) links land on the
                # right firing even across OS threads.
                firing = obs.begin(
                    "firing", cycle, txn=txn.txn_id, rule=rule,
                    attempt=attempt,
                )
            delay = outcome = None
            try:
                out = self._acquire(instantiation, txn) or self._act(
                    wave, instantiation, txn, self.certifier.commits
                )
                if out is not None:
                    if out.deferred and txn.is_aborted:
                        # Aborted from outside while it waited for the
                        # lock: a victim, not a deferral.
                        out = _VICTIM
                    delay = self._settle(wave, instantiation, txn, out)
                outcome = (
                    "committed" if out is None
                    else "deferred" if out.deferred else "aborted"
                )
            finally:
                if firing is not None:
                    obs.end(firing, outcome=outcome)
            if delay is None:
                return
            if delay > 0:
                self._sleep(delay)

    def _transact(self, wave, instantiation, txn, read_at):
        # Serialize the database update + commit decision.  A rule-(ii)
        # or deadlock abort, or a retraction, may have landed while the
        # locks were awaited: re-checked here, where neither can move.
        with self._commit_mutex:
            return self._stale(instantiation, txn) or super()._transact(
                wave, instantiation, txn, read_at
            )

    def _note_failure(self, instantiation, reason):
        with self._retry_mutex:
            return super()._note_failure(instantiation, reason)

    def _retire(self, timetags):
        with self._retry_mutex:
            super()._retire(timetags)

    # -- lock acquisition --------------------------------------------------------------------

    def _make_scheme(self, scheme: str):
        # Threads race, so here the footprints cannot decide: every
        # grant is the lock manager's, rule (ii) included.
        return SCHEMES[scheme](history=History(), observer=self.obs)

    @property
    def history(self) -> History:
        """Every lock operation the scheme's manager granted."""
        return self.scheme.manager.history

    def _lock_condition(self, txn: Transaction, reads, writes) -> bool:
        if self._preclaims:
            return super()._lock_condition(txn, reads, writes)
        return self._block_on(txn, reads, self.scheme.condition_mode)

    def _lock_action(self, txn: Transaction, writes) -> bool:
        return self._preclaims or self._block_on(
            txn, writes, self.scheme.action_write_mode
        )

    def _block_on(self, txn: Transaction, objects, mode: LockMode) -> bool:
        """Blocking acquisition of ``objects``, sorted by ``repr``:
        deterministic, and the textbook static deadlock-avoidance aid.

        False covers both failure modes; the caller tells them apart
        by ``txn.is_aborted`` — the lock never arriving (a deferral)
        versus the transaction being aborted while it waited (a
        victim).
        """
        manager = self.scheme.manager
        for obj in sorted(objects, key=repr):
            if txn.is_aborted:
                # An injected delay or an earlier wait widened the
                # window for a concurrent rule-(ii)/deadlock abort.
                return False
            try:
                request = manager.acquire(
                    txn,
                    obj,
                    mode,
                    blocking=True,
                    timeout=self.lock_timeout,
                    on_block=self._on_block,
                )
            except TransactionError:
                # The abort landed between the check above and the
                # grant's bookkeeping; the victim exit's release_all
                # drops the unrecorded grant.
                return False
            # is_granted covers both the immediate grant and the grant
            # that slipped in during the timeout/cancel race window —
            # the manager leaves such a request GRANTED (it only
            # cancels WAITING requests), so the lock is used, not
            # leaked.
            if not request.is_granted:
                return False
        return not txn.is_aborted

    # -- deadlock detection ----------------------------------------------------------------

    def _on_block(self, request: LockRequest) -> None:
        """Runs once whenever a lock request starts waiting.

        The last edge of any waits-for cycle is created by a request
        going to wait, so checking here catches every deadlock at the
        instant it forms.  One request can close several cycles at
        once (it waits for *every* incompatible holder), and no later
        event would re-examine the ones left standing, so this breaks
        cycles until none remains.
        """
        manager = self.scheme.manager
        with self._detector_mutex:
            while (victim := self.detector.choose_victim()) is not None:
                if not victim.try_abort("deadlock victim"):
                    return
                self.deadlock_victims.append(victim.txn_id)
                if self.obs.enabled:
                    self.obs.event(
                        "deadlock.victim", txn=victim.txn_id,
                        cycle=tuple(self.detector.detected[-1]),
                    )
                # Wake the victim: cancelling its waiting requests
                # unblocks its thread immediately (it sees is_aborted,
                # not a grant) and takes it out of the graph.
                for waiting in manager.waiting_requests():
                    if waiting.txn is victim:
                        manager.cancel(waiting)
