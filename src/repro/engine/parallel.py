"""The multiple-thread mechanism over a real working memory.

Sections 4.2 and 4.3 describe *one* transaction shape — condition
locks, action locks at RHS start, everything held to commit — whose
two schemes (2PL, Rc/Ra/Wa) differ only in Table 4.1 and commit rule
(ii).  This module writes that shape once: one run loop, one wave, one
firing transaction and one table of the ways a candidate can leave
without committing.

A *wave* of logically concurrent firings:

1. The wave's candidates are the eligible instantiations in
   conflict-resolution order — the first ``processors`` of them
   (Section 5's ``Np``), and more of the same ranking if admission asks.
2. *Admission* (deterministic driver, ``Rc`` only): the wave is ordered
   by read -> write precedence so that every reader commits before its
   writer (rule (i)); a candidate is held back only when no such order
   exists — see "Wave admission" below.  A held-back candidate stays in
   the conflict set for the next wave and costs no transaction, no lock
   request and no history operation.
3. Every admitted candidate acquires condition locks (``R``/``Rc``) on
   the data objects its LHS examined — tuple-level for matched WMEs,
   relation level (SYSTEM-CATALOG tuple) for negated condition
   elements, per Section 4.3's escalation rule.
4. Candidates then execute their RHSs — in precedence order under
   admission, in conflict-resolution order otherwise — each acquiring
   its action locks at RHS start:

   * under **2PL**, a firing whose ``W`` locks conflict with another
     candidate's ``R`` locks *blocks* — it is deferred to a later wave
     (the conservatism Theorem 2 pays for);
   * under **Rc**, the ``Wa`` is granted over outstanding ``Rc`` locks;
     at commit, conflicting ``Rc`` holders are aborted (rule (ii)) and
     their partial work rolled back.

5. Aborted/deferred candidates release their locks at wave end; the
   next wave re-runs match over the updated database.

**Wave admission.**  Section 4.3 grants ``Rc`` freely and settles at
commit, because on a multiprocessor nobody knows who commits first:
when an ``Rc`` holder and a ``Wa`` holder of one object meet, both
commit if the reader commits first (rule (i), Figure 4.3) and the
reader is aborted if the writer does (rule (ii)).  The deterministic
driver *chooses* who commits first, so it chooses rule (i)
(:meth:`ParallelEngine._admit`,
:class:`~repro.engine.precedence.Precedence`):

* **Edges.**  Walk the ranking in conflict-resolution order.  A
  candidate *c* gets an edge ``c -> w`` for every admitted *w* writing
  an object *c* reads (*c* must commit first) and ``r -> c`` for every
  admitted *r* reading an object *c* writes.  Write-write overlap is no
  edge: a ``Wa`` is taken at RHS start and gone at commit, and one
  firing acts at a time.  Key equality is the lock manager's (flat
  ``data_object_key`` / ``catalog_lock_key`` equality), not
  ``core.interference``'s containment — a wider test would cut cycles
  that are not there.
* **Cycle cut.**  *c* is held back only if its edges would close a
  cycle — Figure 4.4's circular case, where every commit order aborts
  somebody: two firings that each read what the other writes (two
  ``bump`` firings on one gauge, two ``extend-seating`` firings for one
  party), or a longer ring.  Being the lower-ranked member of the
  ring, it waits.
* **Order.**  The admitted slots take their ``Rc`` locks and act in
  topological order of the edges, rank breaking ties.  Every reader has
  committed and released before its writer asks for ``Wa``, every
  retraction comes from a written tuple key or a catalog key some
  footprint reads, so no slot is stale at its turn and rule (ii) finds
  no victim: every admitted candidate commits.
* **Fill.**  ``processors`` bounds *admitted* firings, not ranked
  candidates: when a hold-back leaves the wave short, admission keeps
  pulling from the same ranking until the wave is full or the ranking
  is exhausted.  A wave that holds nobody back ranks exactly
  ``processors`` candidates, and the width-1 fallback wave stays one
  candidate wide (the first candidate has no edges).

The run this produces is a member of ``ES_single`` like any other —
commit order inside a wave is a choice among admissible outcomes, and
the choice is recorded (``held`` and ``ordered`` spans under
``phase.admit``).  The pass costs a footprint per candidate: a scan
of its reads and an ``isdisjoint`` probe of its writes when it has no
edge, a direct test against the slot it found when the cycle is a
mutual pair, a search only when it has edges both ways, a sort only
when an edge goes against rank.

It runs exactly when Table 4.1 lets the scheme's write mode through its
condition mode (``compatible(Wa, Rc)``); ``2pl``/``c2pl`` refuse at the
first denied lock already and get their list back untouched.  Real
threads have no commit order to choose — the race decides, and an
``Rc`` holder that wins it must survive — so
:class:`~repro.engine.threaded.ThreadedWaveExecutor` keeps real rule
(ii).  Under an injected fault an admitted slot may fail to commit.
Nobody admitted with it is affected: a refused reader releases and its
writer goes ahead, and a refused writer's readers have already
committed.  What is left is the cycle: a candidate cut for an admitted
partner waits for as long as that partner keeps out-ranking it and
being refused.  A retry policy bounds that — the partner runs out of
budget, lands in ``gave_up`` and the candidate is next; without one
(the default) a *persistent* fault on the higher-ranked member of a
cycle ends the run at ``max_waves`` with the other unfired.

:class:`ParallelEngine` drives a wave deterministically (admit, all
admitted candidates acquire, then the granted ones act, both in
precedence order);
:class:`~repro.engine.threaded.ThreadedWaveExecutor` drives the same
steps on one OS thread per candidate with blocking locks, and
:class:`~repro.engine.multiuser.MultiUserEngine` only changes how a
wave is ordered.  The single-thread
:class:`~repro.engine.interpreter.Interpreter` stays separate on
purpose: it is the reference ``ES_single`` is defined by and has no
transaction, undo log or history to share.

The engine records the commit sequence (the σ of Definition 3.2),
every lock operation (via :class:`~repro.txn.schedule.History`), and
per-wave statistics.  ``repro.engine.replay`` checks the commit
sequence against single-thread semantics — the operational form of
Theorem 2's conclusion.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Literal, NamedTuple

import repro.obs as obs_module
from repro.engine.actions import ActionExecutor
from repro.engine.interpreter import MatcherName, build_matcher
from repro.engine.precedence import Precedence
from repro.engine.result import FiringRecord, RunResult
from repro.errors import EngineError, FiringCrashed
from repro.fault.injector import FaultInjector
from repro.fault.retry import RetryPolicy, VirtualSleeper
from repro.lang.production import Production
from repro.locks import SCHEMES
from repro.locks.modes import compatible
from repro.match.base import BaseMatcher
from repro.match.instantiation import Instantiation
from repro.match.strategies import Strategy, make_strategy, order_rest
from repro.txn.schedule import History
from repro.txn.transaction import Transaction
from repro.wm.memory import WorkingMemory
from repro.wm.snapshot import WMSnapshot
from repro.wm.undo import UndoLog

SchemeName = Literal["2pl", "rc", "c2pl"]


@dataclass
class WaveResult:
    """What one wave did: rule names, one entry per attempt.

    ``committed`` is commit order — under wave admission that is
    precedence order inside the wave (every reader before its writer),
    not conflict-resolution order.  ``deferred`` holds the attempts
    whose locks were unavailable (denied, timed out or refused by an
    injected fault); ``aborted`` the rule-(ii) and deadlock victims,
    invalidated instantiations and failed RHSs.  ``held`` is not an
    attempt: the candidates wave admission held back before any lock
    was taken, because no commit order of this wave lets them and the
    slots admitted before them all commit.  ``ordered`` counts the
    precedence edges that went against rank: a reader acted before a
    writer that out-ranked it (rule (i)).
    """

    wave: int
    committed: list[str] = field(default_factory=list)
    aborted: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)
    held: list[str] = field(default_factory=list)
    ordered: int = 0

    def __str__(self) -> str:
        return (
            f"wave {self.wave}: committed={self.committed} "
            f"aborted={self.aborted} deferred={self.deferred} "
            f"held={self.held} ordered={self.ordered}"
        )


class _Exit(NamedTuple):
    """One way a candidate leaves a wave without committing."""

    #: Abort reason given to the lock scheme.  The health monitor
    #: tells wave-protocol breathing from failure by this string
    #: (``repro.obs.health.BENIGN_ABORT_REASONS``): an injected denial
    #: keeps its own reason because it is a fault, not contention.
    why: str
    #: Reason charged to the retry budget; None when there is nothing
    #: left to re-drive.
    charge: str | None
    #: Locks unavailable (``WaveResult.deferred``), not an abort.
    deferred: bool = False


_CONDITION_DENIED = _Exit(
    "condition lock denied", "condition-lock-denied", deferred=True
)
_CONDITION_FAULT = _Exit(
    "injected lock denial", "condition-lock-denied", deferred=True
)
# 2PL: blocked by another candidate's condition locks.  (Under Rc only
# Ra/Wa block Wa, and a deterministic wave holds none across
# candidates.)
_ACTION_DENIED = _Exit(
    "action locks unavailable", "action-lock-denied", deferred=True
)
_ACTION_FAULT = _Exit(
    "injected lock denial", "action-lock-denied", deferred=True
)
# Rule (ii) victim of an earlier commit (or, under threads, a deadlock
# victim): its transaction was aborted from outside.
_VICTIM = _Exit("rule (ii) victim", "rule-ii-victim")
# The database changed under it and the matcher retracted the
# instantiation: semantically a victim, with nothing left to re-drive.
_INVALIDATED = _Exit("instantiation invalidated", None)
_RHS_FAULT = _Exit("injected RHS abort", "injected-abort")
_CRASHED = _Exit("crashed before commit", "crash-before-commit")
_RHS_RAISED = _Exit("RHS execution failed", "rhs-raised")


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
        Wave width limit (``Np``): the most firings one wave attempts;
        ``None`` means unbounded.  Under wave admission it bounds the
        *admitted* candidates, not the ranked ones — a hold-back is
        replaced by the next candidate of the ranking that fits.
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

    #: Extra fields on this executor's ``run`` and ``cycle`` spans.
    _span_tags: dict = {}

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
        if scheme not in SCHEMES:
            raise EngineError(f"unknown scheme {scheme!r}")
        self.scheme = SCHEMES[scheme](
            history=self.history, observer=self.obs, stripes=lock_stripes
        )
        self._preclaims = getattr(self.scheme, "preclaims", False)
        #: Table 4.1 lets the write mode through the condition mode
        #: (Wa over Rc): commit order matters, and :meth:`_admit`
        #: chooses it.
        self._admits = compatible(
            self.scheme.action_write_mode, self.scheme.condition_mode
        )
        self.processors = processors
        self.executor = ActionExecutor(self.memory)
        self.result = RunResult()
        self.waves: list[WaveResult] = []
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

    @property
    def abort_count(self) -> int:
        """Aborted attempts across the run (rule (ii) and the rest)."""
        return sum(len(wave.aborted) for wave in self.waves)

    @property
    def held_count(self) -> int:
        """Candidates held back by wave admission across the run."""
        return sum(len(wave.held) for wave in self.waves)

    @property
    def ordered_count(self) -> int:
        """Readers that acted before a writer ranked above them (rule
        (i) edges against rank) across the run."""
        return sum(wave.ordered for wave in self.waves)

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

    # -- candidates ---------------------------------------------------------------------

    def _eligible_candidates(self) -> list[Instantiation]:
        """Eligible instantiations minus those out of retry budget."""
        eligible = self.matcher.conflict_set.eligible()
        if not self._gave_up:
            return eligible
        return [c for c in eligible if c not in self._gave_up]

    def _ranking(
        self, eligible: list[Instantiation], width: int | None
    ) -> tuple[list[Instantiation], Iterator[Instantiation]]:
        """The wave's one ranking of ``eligible``, in two instalments:
        the first ``width`` in conflict-resolution order, and an
        iterator over the rest that ranks nothing until it is asked
        (admission asks when a hold-back leaves the wave short)."""
        head = self.strategy.order(eligible, width)
        return head, order_rest(self.strategy, eligible, head)

    def _span_fields(self, instantiation: Instantiation) -> dict:
        """Extra fields stamped on acquire/firing spans (overridable)."""
        return {}

    # -- one wave -----------------------------------------------------------------------

    def run_wave(
        self,
        started_at: float | None = None,
        eligible: list[Instantiation] | None = None,
        width: int | None = None,
    ) -> WaveResult:
        """Execute one wave; returns its summary.

        ``started_at`` backdates the cycle span to when the run loop
        began this iteration's eligibility pre-check, so that match
        work stays inside the cycle on the causal timeline;
        ``eligible`` is that pre-check's candidate list, so a wave
        reads the conflict set once; ``width`` narrows this one wave
        below ``processors``.
        """
        if eligible is None:
            eligible = self._eligible_candidates()
        if width is None:
            width = self.processors
        wave = WaveResult(wave=len(self.waves) + 1)
        # Listed before it is driven: a wave that raises still accounts
        # for the attempts it made.
        self.waves.append(wave)
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
                wave=wave.wave, **self._span_tags,
            )
            spans.push_scope(cycle_span)
        try:
            if spans is not None:
                with spans.span(
                    "phase.match", parent=cycle_span, scope=True
                ):
                    candidates, rest = self._ranking(eligible, width)
            else:
                candidates, rest = self._ranking(eligible, width)
            if obs.enabled:
                obs.match_latency(obs.clock() - wave_start)
                obs.wave_started(wave.wave, len(candidates))
            self._drive(wave, candidates, rest, spans, cycle_span)
            # Fire wave_finished (and with it the health evaluation)
            # while the cycle span is still open, so watchdog work is
            # charged to the cycle on the causal timeline.
            if obs.enabled:
                obs.wave_finished(
                    wave.wave,
                    committed=len(wave.committed),
                    aborted=len(wave.aborted),
                    deferred=len(wave.deferred),
                    held=len(wave.held),
                    duration=obs.clock() - wave_start,
                )
        finally:
            if spans is not None:
                spans.pop_scope(cycle_span)
                cycle_span.finish(
                    committed=len(wave.committed),
                    aborted=len(wave.aborted),
                    deferred=len(wave.deferred),
                    held=len(wave.held),
                    ordered=wave.ordered,
                )
        return wave

    def _admit(
        self, wave: WaveResult, candidates: list[Instantiation],
        rest: Iterator[Instantiation], spans, cycle_span,
    ) -> list[Instantiation]:
        """Rule (i) chosen before the locks are taken: the candidates
        of ``wave`` that all commit, in the order they must act in
        (module docstring, "Wave admission").  ``candidates`` is the
        head of the ranking and its length the wave's width; ``rest``
        is consulted only while a hold-back leaves the wave short.  A
        candidate cut from a cycle is filed in ``wave.held`` and left
        in the conflict set instead of being locked, aborted and
        released.

        Decides from the ranked footprints alone, and only where
        Table 4.1 lets a writer past a condition reader; elsewhere the
        list comes back untouched.
        """
        if not self._admits:
            return candidates
        obs = self.obs
        start = obs.clock() if obs.enabled else 0.0
        phase_span = (
            spans.start("phase.admit", parent=cycle_span)
            if spans is not None else None
        )
        width = len(candidates)
        graph = Precedence()
        admit, slots, held = graph.admit, graph.admitted, wave.held
        for instantiation in chain(candidates, rest):
            if admit(instantiation):
                if len(slots) == width:
                    # Full: ``rest`` is left unranked.
                    break
                continue
            rule = instantiation.production.name
            held.append(rule)
            if phase_span is not None:
                # The determination record: the ring of admitted slots
                # this wave kept, and the two objects tying the
                # candidate into it.
                path, read, written = graph.cycle(instantiation)
                now = spans.clock()
                spans.record(
                    "held", start=now, end=now, parent=phase_span,
                    wave=wave.wave, rule=rule,
                    cycle=[rule] + [
                        slots[slot].production.name for slot in path
                    ],
                    objs=[repr(read), repr(written)],
                    **self._span_fields(instantiation),
                )
        admitted = graph.acting_order()
        wave.ordered = graph.ordered
        if phase_span is not None:
            # One record per reader that acted before a writer ranked
            # above it — where the acting order left the ranking.
            for reader, writer, obj in graph.edges_against_rank():
                now = spans.clock()
                spans.record(
                    "ordered", start=now, end=now, parent=phase_span,
                    wave=wave.wave, reader=reader.production.name,
                    writer=writer.production.name, obj=repr(obj),
                    **self._span_fields(reader),
                )
            phase_span.finish(
                candidates=len(admitted) + len(held),
                held=len(held), ordered=wave.ordered,
            )
        if obs.enabled:
            obs.admit_finished(obs.clock() - start, wave.ordered)
        return admitted

    def _drive(
        self, wave: WaveResult, candidates, rest, spans, cycle_span
    ) -> None:
        """Deterministic driving: admission, then every admitted
        candidate takes its condition locks (phase 1), then the granted
        ones act (phase 2) — both in the order admission returned:
        precedence order under ``Rc``, conflict-resolution order where
        there is no admission."""
        candidates = self._admit(wave, candidates, rest, spans, cycle_span)
        obs = self.obs
        slots: list[tuple[Instantiation, Transaction]] = []
        phase_span = (
            spans.start("phase.acquire", parent=cycle_span)
            if spans is not None else None
        )
        for instantiation in candidates:
            rule = instantiation.production.name
            txn = Transaction(rule_name=rule)
            acq = None
            acq_start = obs.clock() if obs.enabled else 0.0
            if spans is not None:
                acq = spans.start(
                    "acquire", parent=phase_span, rule=rule,
                    txn=txn.txn_id, **self._span_fields(instantiation),
                )
                spans.bind(txn.txn_id, acq)
            out = self._acquire(instantiation, txn)
            if out is None:
                slots.append((instantiation, txn))
                if acq is not None:
                    # The binding stays on the acquire span until the
                    # firing span takes over in phase 2.
                    acq.finish(granted=True)
            else:
                self._settle(wave, instantiation, txn, out)
                if acq is not None:
                    acq.finish(granted=False)
                    spans.unbind(txn.txn_id)
            if obs.enabled:
                obs.acquire_finished(
                    rule, txn.txn_id, obs.clock() - acq_start
                )
        if phase_span is not None:
            phase_span.finish(
                candidates=len(candidates), granted=len(slots)
            )
            phase_span = spans.start("phase.act", parent=cycle_span)
        try:
            for instantiation, txn in slots:
                rule = instantiation.production.name
                fire_start = obs.clock() if obs.enabled else 0.0
                firing = None
                if spans is not None:
                    firing = spans.start(
                        "firing", parent=phase_span, rule=rule,
                        txn=txn.txn_id, **self._span_fields(instantiation),
                    )
                    spans.bind(txn.txn_id, firing)
                try:
                    # A candidate aborted from outside or retracted
                    # since it locked is found before it asks for
                    # action locks.  Precedence order leaves no such
                    # slot in an admitted wave; the check is the firing
                    # contract's own and costs two lookups.
                    out = self._stale(instantiation, txn) or self._act(
                        wave, instantiation, txn
                    )
                    if out is not None:
                        self._settle(wave, instantiation, txn, out)
                finally:
                    if firing is not None:
                        firing.finish()
                        spans.unbind(txn.txn_id)
                    if obs.enabled:
                        obs.firing_finished(
                            rule, txn.txn_id, obs.clock() - fire_start
                        )
        finally:
            if phase_span is not None:
                phase_span.finish(slots=len(slots))

    # -- one candidate: the steps both drivers share ----------------------------------------

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

    def _lock_condition(self, txn: Transaction, reads, writes) -> bool:
        """Condition locks without waiting.  Under the conservative
        (preclaiming) scheme the whole footprint — condition reads AND
        action writes — is taken atomically here."""
        if self._preclaims:
            return self.scheme.try_preclaim(txn, reads=reads, writes=writes)
        return all(
            self.scheme.try_lock_condition(txn, obj) for obj in reads
        )

    def _lock_action(self, txn: Transaction, writes) -> bool:
        """Action locks at RHS start, without waiting."""
        return self._preclaims or self.scheme.try_lock_action(
            txn, writes=writes
        )

    def _acquire(
        self, instantiation: Instantiation, txn: Transaction
    ) -> _Exit | None:
        """Condition locks for one candidate; None when granted."""
        # Both sorted by repr, once per instantiation: the order
        # locks are requested (and recorded in the history) in.
        reads, writes = instantiation.lock_footprint()
        if self._fault_denies_locks(txn, reads, self.scheme.condition_mode):
            return _CONDITION_FAULT
        if self._lock_condition(txn, reads, writes):
            return None
        return _CONDITION_DENIED

    def _stale(
        self, instantiation: Instantiation, txn: Transaction
    ) -> _Exit | None:
        """Has the candidate lost its right to fire since it locked?"""
        if txn.is_aborted:
            return _VICTIM
        if instantiation not in self.matcher.conflict_set:
            return _INVALIDATED
        return None

    def _act(
        self, wave: WaveResult, instantiation: Instantiation,
        txn: Transaction,
    ) -> _Exit | None:
        """Drive one candidate holding its condition locks through
        action locks, RHS and commit; None when it committed."""
        writes = instantiation.lock_footprint()[1]
        if self._fault_denies_locks(
            txn, writes, self.scheme.action_write_mode
        ):
            return _ACTION_FAULT
        if not self._lock_action(txn, writes):
            return _ACTION_DENIED
        if self.fault is not None and self.fault.rhs_abort(txn):
            return _RHS_FAULT
        return self._transact(wave, instantiation, txn)

    def _transact(
        self, wave: WaveResult, instantiation: Instantiation,
        txn: Transaction,
    ) -> _Exit | None:
        """The firing transaction — the one place a firing changes the
        database: RHS under an undo log, then commit, or roll back.
        The caller holds every lock of the footprint.

        The RHS is one ``memory.atomic`` unit whose commit point comes
        *before* ``scheme.commit`` releases a lock (write-ahead: what
        persists the memory sees firings in commit order), and the
        rollback runs inside the same unit, so an aborted firing nets
        to nothing there.
        """
        obs = self.obs
        conflict_set = self.matcher.conflict_set
        undo = UndoLog(self.memory).attach()
        with self.memory.atomic(instantiation.production.name) as unit:
            try:
                conflict_set.mark_fired(instantiation)
                # Batch the RHS's WM deltas behind one match barrier;
                # one firing at a time runs here, and the conflict set
                # is next consulted by the following candidate's
                # staleness check (after the batch has flushed).
                with getattr(self.matcher, "batch", nullcontext)():
                    outcome = self.executor.execute(instantiation)
                if self.fault is not None:
                    self.fault.crash_point(txn)
                unit.commit()
            except Exception as error:
                # The firing died — an injected crash after its RHS,
                # the RHS itself raising, or the unit's commit failing:
                # roll back and clear the fired mark (the restored WMEs
                # revive the same instantiation identity, which could
                # otherwise never fire again).  A crash is survivable:
                # the wave goes on and the retry budget governs
                # re-driving.  A real error takes the same exit and
                # then propagates.
                undo.detach()
                undone = undo.rollback()
                conflict_set.forget_fired(instantiation)
                if obs.enabled:
                    obs.rollback(txn.txn_id, undone)
                if isinstance(error, FiringCrashed):
                    return _CRASHED
                self._settle(wave, instantiation, txn, _RHS_RAISED)
                raise
        undo.detach()
        # commit.victims carry the rule-(ii) aborts; their own turn
        # finds them stale.
        self.scheme.commit(txn)
        undo.commit()
        self.result.firings.append(
            FiringRecord.from_instantiation(instantiation, wave.wave)
        )
        self.result.outputs.extend(outcome.outputs)
        wave.committed.append(instantiation.production.name)
        if obs.enabled:
            obs.firing_committed(instantiation.production.name, wave.wave)
        if outcome.halted:
            self.result.halted = True
        return None

    def _settle(
        self, wave: WaveResult, instantiation: Instantiation,
        txn: Transaction, out: _Exit,
    ) -> float | None:
        """Every non-commit exit: release the locks, file the attempt
        in the wave, charge the retry budget.  Returns the backoff
        after which the firing may be re-driven, None when it may not.
        """
        self.scheme.abort(txn, out.why)
        bucket = wave.deferred if out.deferred else wave.aborted
        bucket.append(instantiation.production.name)
        if out.charge is None:
            return None
        return self._note_failure(instantiation, out.charge)

    def _note_failure(
        self, instantiation: Instantiation, reason: str
    ) -> float | None:
        """Charge one retry attempt for a deferred/aborted firing.

        No-op without a retry policy (the pre-retry behavior: failed
        candidates simply stay eligible for later waves, forever).
        """
        if self.retry_policy is None:
            return None
        attempts = self._attempts.get(instantiation, 0) + 1
        self._attempts[instantiation] = attempts
        rule = instantiation.production.name
        if self.retry_policy.should_retry(attempts):
            delay = self.retry_policy.backoff(attempts, key=rule)
            self.retry_clock(delay)
            self.retry_count += 1
            if self.obs.enabled:
                self.obs.retry_attempt(rule, attempts, delay, reason)
            return delay
        self._gave_up.add(instantiation)
        self.gave_up.append(rule)
        if self.obs.enabled:
            self.obs.retry_exhausted(rule, attempts, reason)
        return None

    # -- whole runs -------------------------------------------------------------------------

    def run(self, max_waves: int = 1_000) -> RunResult:
        """Run waves until quiescence, ``halt`` or ``max_waves``.

        When a wave commits nothing while candidates existed (mutual
        blocking under threads, injected faults), the one next wave is
        shrunk to width 1: alone in its wave a firing cannot be
        blocked, which guarantees progress, still inside
        ``ES_single``.  It is a wave like any other — locks, fault
        sites, history and retry budget.
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
                **self._span_tags,
            )
            spans.push_scope(run_span)
        width = None
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
                    width=width,
                )
                self.result.cycles += 1
                width = 1 if width is None and not wave.committed else None
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
