"""The multiple-thread mechanism over a real working memory.

Executes *waves* of logically concurrent firings under either lock
scheme (Section 4.2's 2PL or Section 4.3's Rc/Ra/Wa):

1. The wave's candidates are the eligible instantiations (at most
   ``processors`` of them, Section 5's ``Np``).
2. Every candidate acquires condition locks (``R``/``Rc``) on the data
   objects its LHS examined — tuple-level for matched WMEs, relation
   level (SYSTEM-CATALOG tuple) for negated condition elements, per
   Section 4.3's escalation rule.
3. Candidates then execute their RHSs in conflict-resolution order,
   each acquiring its action locks at RHS start:

   * under **2PL**, a firing whose ``W`` locks conflict with another
     candidate's ``R`` locks *blocks* — it is deferred to a later wave
     (the conservatism Theorem 2 pays for);
   * under **Rc**, the ``Wa`` is granted over outstanding ``Rc`` locks;
     at commit, conflicting ``Rc`` holders are aborted (rule (ii)) and
     their partial work rolled back.

4. Aborted/deferred candidates release their locks at wave end; the
   next wave re-runs match over the updated database.

The engine records the commit sequence (the σ of Definition 3.2),
every lock operation (via :class:`~repro.txn.schedule.History`), and
per-wave statistics.  ``repro.engine.replay`` checks the commit
sequence against single-thread semantics — the operational form of
Theorem 2's conclusion.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Literal

import repro.obs as obs_module
from repro.engine.actions import ActionExecutor
from repro.engine.interpreter import MatcherName, build_matcher
from repro.engine.result import FiringRecord, RunResult
from repro.errors import EngineError, FiringCrashed
from repro.fault.injector import FaultInjector
from repro.fault.retry import RetryPolicy, VirtualSleeper
from repro.lang.production import Production
from repro.locks.rc_scheme import RcScheme
from repro.locks.two_phase import ConservativeTwoPhaseScheme, TwoPhaseScheme
from repro.match.base import BaseMatcher
from repro.match.instantiation import Instantiation
from repro.match.strategies import Strategy, make_strategy
from repro.txn.schedule import History
from repro.txn.transaction import Transaction
from repro.wm.memory import WorkingMemory
from repro.wm.snapshot import WMSnapshot
from repro.wm.undo import UndoLog

SchemeName = Literal["2pl", "rc", "c2pl"]


@dataclass
class WaveResult:
    """What one wave did."""

    wave: int
    committed: list[str] = field(default_factory=list)
    aborted: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"wave {self.wave}: committed={self.committed} "
            f"aborted={self.aborted} deferred={self.deferred}"
        )


class ParallelEngine:
    """Wave-parallel execution of a production program.

    Parameters
    ----------
    productions, memory, matcher, strategy:
        As for :class:`~repro.engine.interpreter.Interpreter`.
    scheme:
        ``"rc"`` (default — the paper's contribution), ``"2pl"``
        (Figure 4.1), or ``"c2pl"`` (conservative/preclaiming 2PL,
        the deadlock-avoidance variant).
    processors:
        Wave width limit (``Np``); ``None`` means unbounded.
    observer:
        Observability sink (wave spans, firing/rollback events, match
        latency), shared with the lock scheme and manager.  Defaults
        to the module-level observer from :mod:`repro.obs`.
    retry_policy:
        When given, deferred/aborted firings are re-driven across
        waves with a *bounded* budget: each failure charges one
        attempt (plus the policy's backoff, on a virtual clock), and a
        firing that exhausts its budget is dropped from candidacy for
        the rest of the run (recorded in :attr:`gave_up`) instead of
        being silently re-deferred forever.
    fault_injector:
        Optional :class:`~repro.fault.injector.FaultInjector`; its
        lock faults can deny condition/action locks (the firing
        defers), its RHS faults force aborts, and its crash faults
        kill a firing post-RHS (the undo log rolls it back and the
        wave continues) — the deterministic chaos harness.
    """

    def __init__(
        self,
        productions: Iterable[Production],
        memory: WorkingMemory | None = None,
        scheme: SchemeName = "rc",
        matcher: MatcherName | BaseMatcher = "rete",
        strategy: str | Strategy = "lex",
        processors: int | None = None,
        seed: int | None = None,
        observer=None,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        lock_stripes: int = 1,
    ) -> None:
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self.memory = memory if memory is not None else WorkingMemory()
        if isinstance(matcher, str):
            self.matcher = build_matcher(
                matcher, self.memory, observer=self.obs
            )
        else:
            self.matcher = matcher
        self.matcher.add_productions(productions)
        self.matcher.attach()
        if isinstance(strategy, str):
            self.strategy = make_strategy(strategy, seed)
        else:
            self.strategy = strategy
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
        elif scheme == "c2pl":
            self.scheme = ConservativeTwoPhaseScheme(
                history=self.history, observer=self.obs,
                stripes=lock_stripes,
            )
        else:
            raise EngineError(f"unknown scheme {scheme!r}")
        self._preclaims = getattr(self.scheme, "preclaims", False)
        self.processors = processors
        self.executor = ActionExecutor(self.memory)
        self.result = RunResult()
        self.waves: list[WaveResult] = []
        #: Rule-(ii) abort count across the run.
        self.abort_count = 0
        self.retry_policy = retry_policy
        self.fault = fault_injector
        #: Failed attempts per still-retryable instantiation.
        self._attempts: dict[Instantiation, int] = {}
        #: Instantiations whose retry budget is exhausted.
        self._gave_up: set[Instantiation] = set()
        #: Rule names that exhausted their retry budget, in order.
        self.gave_up: list[str] = []
        #: Re-drive attempts charged across the run.
        self.retry_count = 0
        #: Virtual clock accumulating retry backoff (seconds).
        self.retry_clock = VirtualSleeper()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Release matcher resources: the store subscription and any
        thread/process pools (the partitioned matcher's process
        backend keeps live worker processes until detached).
        Idempotent; the engine must not run again afterwards.
        """
        self.matcher.detach()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- wave machinery -----------------------------------------------------------------

    def _eligible_candidates(self) -> list[Instantiation]:
        """Eligible instantiations minus those out of retry budget."""
        eligible = self.matcher.conflict_set.eligible()
        if not self._gave_up:
            return eligible
        return [c for c in eligible if c not in self._gave_up]

    def _note_failure(self, instantiation: Instantiation, reason: str) -> None:
        """Charge one retry attempt for a deferred/aborted firing.

        No-op without a retry policy (the pre-retry behavior: failed
        candidates simply stay eligible for later waves, forever).
        """
        if self.retry_policy is None:
            return
        attempts = self._attempts.get(instantiation, 0) + 1
        self._attempts[instantiation] = attempts
        rule = instantiation.production.name
        if self.retry_policy.should_retry(attempts):
            delay = self.retry_policy.backoff(attempts, key=rule)
            self.retry_clock(delay)
            self.retry_count += 1
            if self.obs.enabled:
                self.obs.retry_attempt(rule, attempts, delay, reason)
        else:
            self._gave_up.add(instantiation)
            self.gave_up.append(rule)
            if self.obs.enabled:
                self.obs.retry_exhausted(rule, attempts, reason)

    def _fault_denies_locks(
        self, txn: Transaction, objects, mode
    ) -> bool:
        """Run lock fault sites over ``objects`` (in the given order);
        True when any acquisition is denied."""
        if self.fault is None:
            return False
        return any(
            self.fault.lock_fault(txn, obj, str(mode)) == "deny"
            for obj in objects
        )

    def _ordered_candidates(
        self, eligible: list[Instantiation]
    ) -> list[Instantiation]:
        """The wave: the first ``processors`` of ``eligible`` in
        conflict-resolution order."""
        return self.strategy.order(eligible, self.processors)

    def _span_fields(self, instantiation: Instantiation) -> dict:
        """Extra fields stamped on acquire/firing spans (overridable)."""
        return {}

    def run_wave(
        self,
        started_at: float | None = None,
        eligible: list[Instantiation] | None = None,
    ) -> WaveResult:
        """Execute one wave; returns its summary.

        ``started_at`` backdates the cycle span to when the run loop
        began this iteration's eligibility pre-check, so that match
        work stays inside the cycle on the causal timeline;
        ``eligible`` is that pre-check's candidate list, so a wave
        reads the conflict set once.
        """
        if eligible is None:
            eligible = self._eligible_candidates()
        wave = WaveResult(wave=len(self.waves) + 1)
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        if spans is not None and spans.scope_dropped():
            # The enclosing run's trace was sampled out: skip per-
            # candidate span construction for the whole wave.
            spans = None
        if started_at is not None:
            wave_start = started_at
        else:
            wave_start = obs.clock() if obs.enabled else 0.0
        cycle_span = None
        if spans is not None:
            cycle_span = spans.start(
                "cycle", parent=spans.current(), ts=wave_start,
                wave=wave.wave,
            )
            spans.push_scope(cycle_span)
        try:
            if spans is not None:
                with spans.span(
                    "phase.match", parent=cycle_span, scope=True
                ):
                    candidates = self._ordered_candidates(eligible)
            else:
                candidates = self._ordered_candidates(eligible)
            if obs.enabled:
                obs.match_latency(obs.clock() - wave_start)
                obs.wave_started(wave.wave, len(candidates))
            slots = self._acquire_phase(wave, candidates, spans, cycle_span)
            self._act_phase(wave, slots, spans, cycle_span)
            self.waves.append(wave)
            # Fire wave_finished (and with it the health evaluation)
            # while the cycle span is still open, so watchdog work is
            # charged to the cycle on the causal timeline.
            if obs.enabled:
                obs.wave_finished(
                    wave.wave,
                    committed=len(wave.committed),
                    aborted=len(wave.aborted),
                    deferred=len(wave.deferred),
                    duration=obs.clock() - wave_start,
                )
        finally:
            if spans is not None:
                spans.pop_scope(cycle_span)
                cycle_span.finish(
                    committed=len(wave.committed),
                    aborted=len(wave.aborted),
                    deferred=len(wave.deferred),
                )
        return wave

    def _acquire_phase(
        self, wave: WaveResult, candidates, spans, cycle_span
    ) -> list[tuple[Instantiation, Transaction]]:
        """Phase 1: condition locks for every candidate.

        Under the conservative (preclaiming) scheme the whole
        footprint — condition reads AND action writes — is taken
        atomically here.
        """
        slots: list[tuple[Instantiation, Transaction]] = []
        phase_span = (
            spans.start("phase.acquire", parent=cycle_span)
            if spans is not None else None
        )
        obs = self.obs
        for instantiation in candidates:
            txn = Transaction(rule_name=instantiation.production.name)
            acq = None
            acq_start = obs.clock() if obs.enabled else 0.0
            if spans is not None:
                acq = spans.start(
                    "acquire", parent=phase_span,
                    rule=instantiation.production.name, txn=txn.txn_id,
                    **self._span_fields(instantiation),
                )
                spans.bind(txn.txn_id, acq)
            # Both sorted by repr, once per instantiation: the order
            # locks are requested (and recorded in the history) in.
            reads, writes = instantiation.lock_footprint()
            denied_by_fault = self._fault_denies_locks(
                txn, reads, self.scheme.condition_mode
            )
            if denied_by_fault:
                granted = False
            elif self._preclaims:
                granted = self.scheme.try_preclaim(
                    txn, reads=reads, writes=writes
                )
            else:
                granted = all(
                    self.scheme.try_lock_condition(txn, obj)
                    for obj in reads
                )
            if granted:
                slots.append((instantiation, txn))
                if acq is not None:
                    # The binding stays on the acquire span until the
                    # firing span takes over in phase 2, so a
                    # rule-(ii) abort link from an earlier commit
                    # lands on the span holding the Rc locks.
                    acq.finish(granted=True)
            else:
                # Footprint unavailable: defer to a later wave.  An
                # injected denial keeps its own reason — it is a
                # fault, not wave-protocol breathing, so the health
                # monitor must count it as a failure.
                self.scheme.abort(
                    txn,
                    "injected lock denial" if denied_by_fault
                    else "condition lock denied",
                )
                wave.deferred.append(instantiation.production.name)
                self._note_failure(instantiation, "condition-lock-denied")
                if acq is not None:
                    acq.finish(granted=False)
                    spans.unbind(txn.txn_id)
            if obs.enabled:
                obs.acquire_finished(
                    instantiation.production.name, txn.txn_id,
                    obs.clock() - acq_start,
                )
        if phase_span is not None:
            phase_span.finish(
                candidates=len(candidates), granted=len(slots)
            )
        return slots

    def _act_phase(
        self, wave: WaveResult, slots, spans, cycle_span
    ) -> None:
        """Phase 2: RHS execution in conflict-resolution order."""
        phase_span = (
            spans.start("phase.act", parent=cycle_span)
            if spans is not None else None
        )
        obs = self.obs
        try:
            for instantiation, txn in slots:
                fire_start = obs.clock() if obs.enabled else 0.0
                firing = None
                if spans is not None:
                    firing = spans.start(
                        "firing", parent=phase_span,
                        rule=instantiation.production.name,
                        txn=txn.txn_id,
                        **self._span_fields(instantiation),
                    )
                    spans.bind(txn.txn_id, firing)
                try:
                    self._run_slot(wave, instantiation, txn)
                finally:
                    if firing is not None:
                        firing.finish()
                        spans.unbind(txn.txn_id)
                    if obs.enabled:
                        obs.firing_finished(
                            instantiation.production.name, txn.txn_id,
                            obs.clock() - fire_start,
                        )
        finally:
            if phase_span is not None:
                phase_span.finish(slots=len(slots))

    def _run_slot(
        self, wave: WaveResult, instantiation: Instantiation,
        txn: Transaction,
    ) -> None:
        """Drive one granted candidate through RHS + commit."""
        obs = self.obs
        if txn.is_aborted:
            # Rule (ii) victim of an earlier commit in this wave.
            self.scheme.abort(txn, "rule (ii) victim")
            wave.aborted.append(instantiation.production.name)
            self.abort_count += 1
            self._note_failure(instantiation, "rule-ii-victim")
            return
        if instantiation not in self.matcher.conflict_set:
            # The database changed under it and the matcher
            # retracted the instantiation: semantically a victim.
            # (Not retryable: there is nothing left to re-drive.)
            self.scheme.abort(txn, "instantiation invalidated")
            wave.aborted.append(instantiation.production.name)
            self.abort_count += 1
            return
        writes = instantiation.lock_footprint()[1]
        denied_by_fault = self._fault_denies_locks(
            txn, writes, self.scheme.action_write_mode
        )
        if denied_by_fault or (
            not self._preclaims
            and not self.scheme.try_lock_action(txn, writes=writes)
        ):
            # 2PL: blocked by another candidate's condition locks —
            # defer to a later wave.  (Under Rc only Ra/Wa block Wa,
            # and none are held across candidates here.)  Injected
            # denials keep a distinct reason so health counts them.
            self.scheme.abort(
                txn,
                "injected lock denial" if denied_by_fault
                else "action locks unavailable",
            )
            wave.deferred.append(instantiation.production.name)
            self._note_failure(instantiation, "action-lock-denied")
            return
        if self.fault is not None and self.fault.rhs_abort(txn):
            self.scheme.abort(txn, "injected RHS abort")
            wave.aborted.append(instantiation.production.name)
            self.abort_count += 1
            self._note_failure(instantiation, "injected-abort")
            return
        undo = UndoLog(self.memory).attach()
        try:
            self.matcher.conflict_set.mark_fired(instantiation)
            # Batch the RHS's WM deltas behind one match barrier; the
            # act phase is single-threaded, and the conflict set is
            # next consulted at the following slot's membership check
            # (after the batch has flushed).
            with getattr(self.matcher, "batch", nullcontext)():
                outcome = self.executor.execute(instantiation)
            if self.fault is not None:
                self.fault.crash_point(txn)
        except FiringCrashed:
            # The firing died after its RHS but before commit: roll
            # back, clear the fired mark (the restored WMEs revive
            # the same instantiation identity), and survive — the
            # wave goes on and the retry budget governs re-driving.
            undo.detach()
            undone = undo.rollback()
            self.matcher.conflict_set.forget_fired(instantiation)
            if obs.enabled:
                obs.rollback(txn.txn_id, undone)
            self.scheme.abort(txn, "crashed before commit")
            wave.aborted.append(instantiation.production.name)
            self.abort_count += 1
            self._note_failure(instantiation, "crash-before-commit")
            return
        except Exception:
            undo.detach()
            undone = undo.rollback()
            if obs.enabled:
                obs.rollback(txn.txn_id, undone)
            self.scheme.abort(txn, "RHS execution failed")
            raise
        undo.detach()
        self.scheme.commit(txn)
        undo.commit()
        self.result.firings.append(
            FiringRecord.from_instantiation(instantiation, wave.wave)
        )
        self.result.outputs.extend(outcome.outputs)
        wave.committed.append(instantiation.production.name)
        if obs.enabled:
            obs.firing_committed(
                instantiation.production.name, wave.wave
            )
        if outcome.halted:
            self.result.halted = True
        # commit.victims carry the rule-(ii) aborts; their slots
        # are skipped when their turn comes (txn.is_aborted above).

    # -- whole runs -------------------------------------------------------------------------

    def run(self, max_waves: int = 1_000) -> RunResult:
        """Run waves until quiescence, ``halt`` or ``max_waves``.

        When a wave commits nothing while candidates existed (mutual
        2PL blocking), the engine falls back to one single-thread
        firing to guarantee progress — equivalent to shrinking that
        wave to width 1, still inside ``ES_single``.
        """
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        run_start = obs.clock() if obs.enabled else 0.0
        run_span = None
        if spans is not None:
            run_span = spans.start(
                "run",
                scheme=type(self.scheme).__name__,
                processors=self.processors,
            )
            spans.push_scope(run_span)
        try:
            while len(self.waves) < max_waves:
                if self.result.halted:
                    self.result.stop_reason = "halt"
                    break
                # The eligibility pre-check flushes pending match
                # deltas — that is match work, charged to the
                # profiler's (match) row (run_wave's own candidate
                # ordering is covered by match_latency).
                check_start = obs.clock() if obs.enabled else 0.0
                candidates = self._eligible_candidates()
                if obs.enabled:
                    obs.match_prepass(obs.clock() - check_start)
                if not candidates:
                    # With a retry policy, work may remain in the
                    # conflict set whose budget is exhausted — that is
                    # not quiescence and is reported honestly.
                    self.result.stop_reason = (
                        "retries_exhausted"
                        if self.matcher.conflict_set.eligible()
                        else "quiescent"
                    )
                    break
                wave = self.run_wave(
                    started_at=check_start if obs.enabled else None,
                    eligible=candidates,
                )
                self.result.cycles += 1
                if not wave.committed:
                    self._fire_single()
            else:
                self.result.stop_reason = "max_waves"
        finally:
            if spans is not None:
                spans.pop_scope(run_span)
                run_span.finish(
                    cycles=self.result.cycles,
                    stop_reason=self.result.stop_reason,
                )
            if obs.enabled:
                obs.run_finished(
                    self.result.cycles, obs.clock() - run_start
                )
        self.result.final_snapshot = WMSnapshot.capture(self.memory)
        return self.result

    def _fire_single(self) -> None:
        """Progress fallback: one single-thread firing.

        Counts as its own sequential cycle and runs under an undo log,
        so an RHS exception leaves working memory exactly as the wave
        machinery would — rolled back, not half-mutated.
        """
        candidates = self._eligible_candidates()
        if not candidates:
            return
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        if spans is not None and spans.scope_dropped():
            spans = None
        instantiation = self.strategy.select(candidates)
        txn = Transaction(rule_name=instantiation.production.name)
        fire_start = obs.clock() if obs.enabled else 0.0
        cycle_span = firing = None
        if spans is not None:
            cycle_span = spans.start(
                "cycle", parent=spans.current(),
                wave=len(self.waves), kind="single",
            )
            firing = spans.start(
                "firing", parent=cycle_span,
                rule=instantiation.production.name, txn=txn.txn_id,
                single=True, **self._span_fields(instantiation),
            )
            spans.bind(txn.txn_id, firing)
        try:
            undo = UndoLog(self.memory).attach()
            try:
                self.matcher.conflict_set.mark_fired(instantiation)
                with getattr(self.matcher, "batch", nullcontext)():
                    outcome = self.executor.execute(instantiation)
            except Exception:
                undo.detach()
                undone = undo.rollback()
                if obs.enabled:
                    obs.rollback(txn.txn_id, undone)
                self.history.abort(txn.txn_id)
                txn.abort("RHS execution failed")
                if firing is not None:
                    firing.annotate(status="aborted")
                raise
            undo.detach()
            self.history.commit(txn.txn_id)
            txn.commit()
            undo.commit()
            self.result.cycles += 1
            self.result.firings.append(
                FiringRecord.from_instantiation(
                    instantiation, len(self.waves)
                )
            )
            self.result.outputs.extend(outcome.outputs)
            if firing is not None:
                firing.annotate(status="committed")
            if obs.enabled:
                obs.single_fire_committed(
                    instantiation.production.name, len(self.waves),
                    obs.clock() - fire_start,
                )
            if outcome.halted:
                self.result.halted = True
        finally:
            if spans is not None:
                firing.finish()
                cycle_span.finish()
                spans.unbind(txn.txn_id)
            if obs.enabled:
                obs.firing_finished(
                    instantiation.production.name, txn.txn_id,
                    obs.clock() - fire_start,
                )
