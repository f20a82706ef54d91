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
   (Section 5's ``Np``), and more of the same ranking if admission asks;
   admission pulls them one at a time.
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
     admission has already put every reader before its writer, so
     rule (ii) finds nobody to abort.

5. Deferred candidates release their locks; the next wave re-runs
   match over the updated database.

"Lock" here is Table 4.1's decision, not a lock manager's state: see
"Grants from footprints" below.

**Wave admission** (:meth:`ParallelEngine._admit`,
:class:`~repro.engine.precedence.Precedence`).  Section 4.3 grants
``Rc`` freely and settles at commit, because on a multiprocessor nobody
knows who commits first.  The deterministic driver *chooses* who
commits first, so it chooses rule (i): every reader before its writer,
a candidate held back only when its read -> write edges would close a
cycle (Figure 4.4), and the wave refilled from the same ranking.  It
runs where Table 4.1 lets the write mode through the condition mode
(``rc``); :class:`~repro.engine.threaded.ThreadedWaveExecutor` has no
order to choose and keeps real rule (ii).  A Rete tail's pending
seed builds a match only when admission takes it, and no more once
admission would cut all it has left (:meth:`ParallelEngine._spent`).
``docs/architecture.md``, "Wave admission", gives the edges, the cut,
the order, the fill, what it costs and what a persistent fault can
make it wait for.

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

**Grants from footprints.**  One firing acts at a time and releases
everything when it commits or settles, so the only locks held across
slots are the condition locks of the slots that have not acted yet
(and, under ``c2pl``, their preclaimed writes).  Every grant Table 4.1
would make is therefore a function of the wave's footprints, and the
deterministic driver's scheme,
:class:`~repro.engine.footprint.FootprintScheme`, decides it
from them: under ``Rc`` nothing is refused or kept, under 2PL a writer
is deferred iff another unsettled slot reads an object it writes, and
a ``c2pl`` preclaim is refused iff it meets an unsettled slot's
footprint.  The lock manager serves the threaded executor, where
threads race.

The engine records the commit sequence (the σ of Definition 3.2), one
:class:`~repro.engine.result.Commit` per firing, and per-wave
statistics, and certifies every commit on the way
(:class:`~repro.txn.schedule.Certifier`): a firing that would commit
after another overwrote what it read raises instead.  ``history``
rebuilds the committed reads and writes from that sequence on request,
and ``repro.engine.replay`` checks it against single-thread semantics:
one record serves both of Theorem 2's conclusions.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING, Collection, Iterable, Iterator, Literal, NamedTuple,
)

import repro.obs as obs_module
from repro.engine.actions import ActionExecutor
from repro.engine.interpreter import MatcherName, build_matcher
from repro.engine.precedence import Precedence
from repro.engine.result import Commit, RunResult
from repro.errors import EngineError, FiringCrashed
from repro.lang.production import Production
from repro.match.base import BaseMatcher
from repro.match.instantiation import Instantiation
from repro.match.strategies import Strategy, make_strategy
from repro.wm.element import data_object_key
from repro.wm.memory import WorkingMemory
from repro.wm.undo import UndoLog

if TYPE_CHECKING:
    from repro.fault.injector import FaultInjector
    from repro.fault.retry import RetryPolicy
    from repro.txn.schedule import History
    from repro.txn.transaction import Transaction

SchemeName = Literal["2pl", "rc", "c2pl"]


def _resumed(first: Instantiation, ranking: Iterator[Instantiation]):
    """``ranking`` with ``first``, already taken from it, put back."""
    yield first
    yield from ranking


@dataclass
class WaveResult:
    """What one wave did: rule names, one entry per attempt.

    ``committed`` is commit order — under wave admission that is
    precedence order inside the wave (every reader before its writer),
    not conflict-resolution order.  ``deferred`` holds the attempts
    whose locks were unavailable (denied, timed out or refused by an
    injected fault); ``aborted`` the rule-(ii) and deadlock victims,
    invalidated instantiations and failed RHSs.  ``held`` is not an
    attempt: the built candidates wave admission held back before any
    lock was taken, because no commit order of this wave lets them and
    the slots admitted before them all commit — not the matches a spent
    seed never built (:meth:`ParallelEngine._spent`).  ``ordered``
    counts the precedence edges that went against rank: a reader acted
    before a writer that out-ranked it (rule (i)).
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
        Wave width limit (``Np``): the most firings one wave attempts,
        at least 1 (:class:`EngineError` otherwise); ``None`` means
        unbounded.  Under wave admission it bounds the *admitted*
        candidates, not the ranked ones — a hold-back is replaced by
        the next candidate of the ranking that fits.
    observer:
        Observability sink (the run's timed steps, its rollback and
        retry events), shared with the lock scheme and manager.  Defaults
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
    ) -> None:
        # Imported here: a client that imports every engine and builds
        # an Interpreter loads no lock, transaction or fault layer.
        from repro.locks.modes import SCHEME_MODES, compatible
        from repro.txn.schedule import Certifier
        from repro.txn.transaction import Transaction

        if processors is not None and processors < 1:
            raise EngineError(f"processors must be >= 1, got {processors}")
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
        self.matcher.conflict_set.rank_by(
            self.strategy.head, getattr(self.strategy, "lazy", False)
        )
        if scheme not in SCHEME_MODES:
            raise EngineError(f"unknown scheme {scheme!r}")
        modes = SCHEME_MODES[scheme]
        self.scheme = self._make_scheme(scheme)
        self._preclaims = modes.preclaims
        #: Table 4.1 lets the write mode through the condition mode
        #: (Wa over Rc): commit order matters, and :meth:`_admit`
        #: chooses it.
        self._admits = compatible(modes.action_write, modes.condition)
        #: Each slot's transaction class, bound once per engine.
        self._transaction = Transaction
        #: Every commit passes it; it raises at the first that would
        #: make the commit sequence other than a serial order.
        self.certifier = Certifier()
        #: What the slots admitted so far in this wave write (:meth:`_spent`).
        self._written: dict = {}
        self.processors = processors
        self.executor = ActionExecutor(self.memory)
        self.result = RunResult()
        self.waves: list[WaveResult] = []
        self.retry_policy = retry_policy
        self.fault = fault_injector
        #: Failed attempts per still-retryable instantiation, and those
        #: out of budget; both expire with their refraction marks.
        self._attempts: dict[Instantiation, int] = {}
        self._gave_up: set[Instantiation] = set()
        #: Rule names that exhausted their retry budget, in order.
        self.gave_up: list[str] = []
        #: Re-drive attempts charged across the run.
        self.retry_count = 0
        #: Virtual clock of retry backoff (seconds), with a retry policy.
        self.retry_clock = None
        if retry_policy is not None:
            from repro.fault.retry import VirtualSleeper

            self.memory.subscribe_retired(self._retire)
            self.retry_clock = VirtualSleeper()
        #: The open ``run`` step, the parent of each wave's cycle.
        self._run_step = None
        #: When the wave's last timed step was timed to end: the next
        #: starts there, so what runs between two (a close, a
        #: ``Transaction``) is inside a timed step.
        self._closed_at: float | None = None

    def _make_scheme(self, scheme: str):
        """The scheme named ``scheme``, granting from the footprints."""
        from repro.engine.footprint import FootprintScheme

        return FootprintScheme(scheme, self.obs)

    @property
    def history(self) -> History:
        """The commit sequence's reads and writes, where they happened."""
        from repro.txn.schedule import history_of

        return history_of(self.result.firings)

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
        worker processes (the partitioned matcher's process
        backend keeps live worker processes until detached).
        Idempotent; the engine must not run again afterwards.
        """
        self.matcher.detach()
        self.memory.unsubscribe_retired(self._retire)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- candidates ---------------------------------------------------------------------

    def _eligible_candidates(self) -> Collection[Instantiation]:
        """Eligible instantiations minus those out of retry budget."""
        eligible = self.matcher.conflict_set.eligible()
        if not self._gave_up:
            return eligible
        return [c for c in eligible if c not in self._gave_up]

    def _ranking(
        self, eligible: Collection[Instantiation], width: int | None
    ) -> Iterator[Instantiation]:
        """The wave's one ranking of ``eligible`` (``strategy.ranked``),
        pulled a candidate at a time; under admission a seed stops
        once :meth:`_spent`."""
        spent = None
        if self._admits:
            self._written = {}
            spent = self._spent
        return self.strategy.ranked(eligible, spent, width)

    def _spent(self, seed) -> bool:
        """Would admission cut every match ``seed`` has left?  Yes when
        its rule rewrites its element and an admitted slot writes that
        data object: each match and the slot read and write it."""
        return data_object_key(seed.wme) in self._written and seed.rewrites()

    def _span_fields(self, instantiation: Instantiation) -> dict:
        """Extra fields stamped on acquire/firing spans (overridable)."""
        return {}

    # -- one wave -----------------------------------------------------------------------

    def run_wave(
        self,
        started_at: float | None = None,
        eligible: Collection[Instantiation] | None = None,
        width: int | None = None,
        ranking: Iterator[Instantiation] | None = None,
    ) -> WaveResult:
        """Execute one wave; returns its summary.

        ``started_at`` backdates the cycle and its ``phase.match`` to
        when the run loop began this iteration's eligibility pre-check,
        so that match work is timed once, inside the cycle;
        ``eligible`` is that pre-check's candidate list, so a wave
        reads the conflict set once, and ``ranking`` the
        :meth:`_ranking` of it the pre-check began, so that no seed is
        walked twice; ``width`` narrows this one wave below
        ``processors``.
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
        cycle = match = None
        if obs.enabled:
            cycle = obs.begin(
                "cycle", self._run_step, ts=started_at, scope=True,
                wave=wave.wave, **self._span_tags,
            )
            match = obs.begin(
                "phase.match", cycle, ts=cycle.start, scope=True
            )
        try:
            if ranking is None:
                ranking = self._ranking(eligible, width)
            if match is not None:
                size = len(eligible)
                self._closed_at = obs.end(
                    match, candidates=min(size, width or size)
                )
            self._drive(wave, ranking, width, cycle)
        finally:
            if cycle is not None:
                obs.end(
                    cycle,
                    committed=len(wave.committed),
                    aborted=len(wave.aborted),
                    deferred=len(wave.deferred),
                    held=len(wave.held),
                    ordered=wave.ordered,
                )
        return wave

    def _admit(
        self, wave: WaveResult, ranking: Iterator[Instantiation],
        width: int | None, cycle,
    ) -> list[Instantiation]:
        """Rule (i) chosen before the locks are taken: the candidates
        of ``wave`` that all commit, in the order they must act in
        (module docstring, "Wave admission").  ``ranking`` is pulled
        one candidate at a time until ``width`` are admitted (never
        full when None) or it runs out.  A candidate cut from a cycle
        is filed in ``wave.held`` and left in the conflict set instead
        of being locked, aborted and released.

        Decides from the ranked footprints alone, and only where
        Table 4.1 lets a writer past a condition reader; elsewhere the
        first ``width`` of the ranking come back as ranked.
        """
        if not self._admits:
            return list(islice(ranking, width))
        obs = self.obs
        phase = (
            obs.begin("phase.admit", cycle, ts=self._closed_at)
            if cycle is not None else None
        )
        # The determination records below are built only for a span.
        recorded = phase.span if phase is not None else None
        graph = Precedence()
        # What a spent seed would still yield, ``admit`` would cut.
        self._written = graph.writers
        admit, slots, held = graph.admit, graph.admitted, wave.held
        for instantiation in ranking:
            if admit(instantiation):
                if len(slots) == width:
                    # Full: the rest is left unranked.
                    break
                continue
            rule = instantiation.production.name
            held.append(rule)
            if recorded is not None:
                # The ring of admitted slots this wave kept, and the
                # two objects tying the candidate into it.
                path, read, written = graph.cycle(instantiation)
                obs.event(
                    "held", phase, wave=wave.wave, rule=rule,
                    cycle=[rule] + [
                        slots[slot].production.name for slot in path
                    ],
                    objs=[repr(read), repr(written)],
                    **self._span_fields(instantiation),
                )
        admitted = graph.acting_order()
        wave.ordered = graph.ordered
        if recorded is not None:
            # One record per reader that acted before a writer ranked
            # above it — where the acting order left the ranking.
            for reader, writer, obj in graph.edges_against_rank():
                obs.event(
                    "ordered", phase, wave=wave.wave,
                    reader=reader.production.name,
                    writer=writer.production.name, obj=repr(obj),
                    **self._span_fields(reader),
                )
        if phase is not None:
            self._closed_at = obs.end(
                phase, candidates=len(admitted) + len(held),
                held=len(held), ordered=wave.ordered,
            )
        return admitted

    def _drive(self, wave: WaveResult, ranking, width, cycle) -> None:
        """Deterministic driving: admission, then every admitted
        candidate takes its condition locks (phase 1), then the granted
        ones act (phase 2) — both in the order admission returned:
        precedence order under ``Rc``, conflict-resolution order where
        there is no admission."""
        candidates = self._admit(wave, ranking, width, cycle)
        # Spent: let go of it, so that what a firing retracts is freed
        # in that firing's timed step, not after the cycle.
        ranking.close()
        obs = self.obs
        # (candidate, its transaction, commits certified when it read)
        slots: list[tuple[Instantiation, Transaction, int]] = []
        phase = (
            obs.begin("phase.acquire", cycle, ts=self._closed_at)
            if cycle is not None else None
        )
        transaction = self._transaction
        for instantiation in candidates:
            rule = instantiation.production.name
            txn = transaction(rule_name=rule)
            acq = None
            if phase is not None:
                acq = obs.begin(
                    "acquire", phase, txn=txn.txn_id, ts=self._closed_at,
                    rule=rule, **self._span_fields(instantiation),
                )
            out = self._acquire(instantiation, txn)
            if out is None:
                slots.append((instantiation, txn, self.certifier.commits))
            else:
                self._settle(wave, instantiation, txn, out)
            if acq is not None:
                self._closed_at = obs.end(acq, granted=out is None)
        if phase is not None:
            self._closed_at = obs.end(
                phase, candidates=len(candidates), granted=len(slots)
            )
            phase = obs.begin("phase.act", cycle, ts=self._closed_at)
        acted = 0
        try:
            for instantiation, txn, read_at in slots:
                acted += 1
                firing = None
                if phase is not None:
                    firing = obs.begin(
                        "firing", phase, txn=txn.txn_id, ts=self._closed_at,
                        rule=instantiation.production.name,
                        **self._span_fields(instantiation),
                    )
                try:
                    # A candidate aborted from outside or retracted
                    # since it locked is found before it asks for
                    # action locks.  Precedence order leaves no such
                    # slot in an admitted wave; the check is the firing
                    # contract's own and costs two lookups.
                    out = self._stale(instantiation, txn) or self._act(
                        wave, instantiation, txn, read_at
                    )
                    if out is not None:
                        self._settle(wave, instantiation, txn, out)
                finally:
                    if firing is not None:
                        self._closed_at = obs.end(firing)
        finally:
            # A firing that raised leaves the slots after it unsettled:
            # their locks go with the wave.
            for _, txn, _ in slots[acted:]:
                self.scheme.abort(txn, "wave abandoned")
            if phase is not None:
                obs.end(phase, slots=len(slots))

    # -- one candidate: the steps both drivers share ----------------------------------------

    def _fault_denies_locks(
        self, txn: Transaction, objects, mode
    ) -> bool:
        """Run lock fault sites over ``objects``; True when any
        acquisition is denied."""
        if self.fault is None:
            return False
        # A fault site stands for a lock request, so it is visited in
        # the order locks are requested in: a seeded plan's rolls land
        # on the same objects whichever driver runs it.
        return any(
            self.fault.lock_fault(txn, obj, str(mode)) == "deny"
            for obj in sorted(objects, key=repr)
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
        txn: Transaction, read_at: int,
    ) -> _Exit | None:
        """Drive one candidate holding its condition locks (taken when
        ``read_at`` commits were certified) through action locks, RHS
        and commit; None when it committed."""
        writes = instantiation.lock_footprint()[1]
        if self._fault_denies_locks(
            txn, writes, self.scheme.action_write_mode
        ):
            return _ACTION_FAULT
        if not self._lock_action(txn, writes):
            return _ACTION_DENIED
        if self.fault is not None and self.fault.rhs_abort(txn):
            return _RHS_FAULT
        return self._transact(wave, instantiation, txn, read_at)

    def _transact(
        self, wave: WaveResult, instantiation: Instantiation,
        txn: Transaction, read_at: int,
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
        rule = instantiation.production.name
        reads, writes = instantiation.lock_footprint()
        undo = UndoLog(self.memory).attach()
        with self.memory.atomic(rule) as unit:
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
                # Before the commit point: a refused firing never
                # reaches what persists the memory.
                self.certifier.check(rule, read_at, reads)
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
                    obs.event("engine.rollback", txn=txn.txn_id, undone=undone)
                if isinstance(error, FiringCrashed):
                    return _CRASHED
                self._settle(wave, instantiation, txn, _RHS_RAISED)
                raise
        undo.detach()
        self.certifier.commit(rule, writes)
        # commit.victims carry the rule-(ii) aborts (threads only);
        # their own turn finds them stale.
        self.scheme.commit(txn)
        undo.commit()
        self.result.firings.append(Commit.of(
            instantiation, wave.wave, txn.txn_id, read_at, reads, writes
        ))
        self.result.outputs.extend(outcome.outputs)
        wave.committed.append(rule)
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
        candidates simply stay eligible for later waves, forever), and
        for one that lost an element for good: nothing is left to re-drive.
        """
        if self.retry_policy is None or not all(
            map(self.memory.__contains__, instantiation.timetags())
        ):
            return None
        attempts = self._attempts.get(instantiation, 0) + 1
        self._attempts[instantiation] = attempts
        rule = instantiation.production.name
        if self.retry_policy.should_retry(attempts):
            delay = self.retry_policy.backoff(attempts, key=rule)
            self.retry_clock(delay)
            self.retry_count += 1
            if self.obs.enabled:
                self.obs.event(
                    "retry.attempt", rule=rule, attempt=attempts,
                    delay=delay, reason=reason,
                )
            return delay
        self._gave_up.add(instantiation)
        self.gave_up.append(rule)
        if self.obs.enabled:
            self.obs.event(
                "retry.exhausted", rule=rule, attempts=attempts,
                reason=reason,
            )
        return None

    def _retire(self, timetags: list[int]) -> None:
        """The retry budget expires with the refraction marks."""
        lives = set(timetags).isdisjoint
        for dead in [i for i in self._attempts if not lives(i.timetags())]:
            del self._attempts[dead]
            self._gave_up.discard(dead)

    # -- whole runs -------------------------------------------------------------------------

    def run(self, max_waves: int = 1_000) -> RunResult:
        """Run waves until quiescence, ``halt`` or ``max_waves`` — of
        the engine's ``waves`` in all, not of this call's.

        When a wave commits nothing while candidates existed (mutual
        blocking under threads, injected faults), the one next wave is
        shrunk to width 1: alone in its wave a firing cannot be
        blocked, which guarantees progress, still inside
        ``ES_single``.  It is a wave like any other — locks, fault
        sites, history and retry budget.
        """
        obs = self.obs
        run = None
        if obs.enabled:
            run = self._run_step = obs.begin(
                "run", scope=True, scheme=self.scheme.name,
                processors=self.processors, **self._span_tags,
            )
        width = None
        try:
            while len(self.waves) < max_waves:
                if self.result.halted:
                    self.result.stop_reason = "halt"
                    break
                # The eligibility pre-check flushes pending match
                # deltas: match work, timed in the wave's phase.match.
                started_at = obs.clock() if run is not None else None
                candidates = self._eligible_candidates()
                # Seeds may all be empty: the first candidate tells.
                ranking = candidates and self._ranking(
                    candidates, self.processors if width is None else width
                )
                first = next(ranking, None) if candidates else None
                if first is None:
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
                    started_at=started_at, eligible=candidates, width=width,
                    ranking=_resumed(first, ranking),
                )
                self.result.cycles += 1
                width = 1 if width is None and not wave.committed else None
            else:
                self.result.stop_reason = "max_waves"
        finally:
            if run is not None:
                self._run_step = None
                obs.end(
                    run, cycles=self.result.cycles,
                    stop_reason=self.result.stop_reason,
                )
        return self.result
