"""The observer facade: timed steps and point events over one
registry and one span tree.

Instrumented components (engines, lock manager and schemes, matcher,
durable store, simulators) never build spans or look up metrics
themselves.  They make two kinds of call on an :class:`Observer`:

* **A timed step** — one :meth:`~Observer.begin` where it opens and
  one :meth:`~Observer.end` where it closes (``run``, ``cycle``,
  ``phase.*``, ``acquire``, ``firing``, ``match.flush``,
  ``storage.*``).  Everything else is derived from that close: the
  span when one is recorded, the txn binding and scope it held, and
  every aggregate the step feeds — the table :attr:`Observer._closes`
  lists them by step name (counters, histograms, sketches, the
  per-rule profiler, the health window).  One clock pair times a
  step for every aggregate; its span opens at the same instant and
  closes once the aggregates are fed.
* **A point event** — a named hook (``lock_granted``,
  ``rule_ii_abort``, ``fault_injected``, ``retry_attempt``, ...): its
  counters and, with spans on, a zero-duration span under the span
  the transaction is bound to, else under the current scope.  A
  lock grant is a ``lock.acquire`` child of the bound span, and a
  rule-(ii) abort links the victim's span to the committing Wa
  transaction's.

The hot-path contract: components hold a reference to an observer and
guard every call with ``if obs.enabled:``.  The default observer is
:data:`NULL_OBSERVER` (``enabled = False``), so an uninstrumented run
costs one attribute load and a falsy branch per site — nothing is
allocated, stamped or counted.  A live observer's cost is tiered by
``level``:

* ``"metrics"`` — the aggregates only; a step is a bare timer;
* ``"sampled"`` — the always-on production tier: aggregates plus
  head-sampled span trees (:mod:`repro.obs.sampling`) — a seeded
  fraction of runs keeps its complete run→cycle→phase→firing
  subtree; in the rest every step is a bare timer;
* ``"full"``    — aggregates and every span (the default).

Instruments carry their own locks and are bound at construction, so
there is no observer-wide mutex and no registry lookup on the hot
path.  ``benchmarks/bench_obs_overhead.py`` measures the tiers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.obs.health import (
    BENIGN_ABORT_REASONS,
    HealthMonitor,
    HealthReport,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    MetricsRegistry,
    TIME_BUCKETS,
)
from repro.obs.null import NULL_OBSERVER, set_observer
from repro.obs.profile import RuleProfiler
from repro.obs.sampling import DroppedSpan, HeadSampler
from repro.obs.spans import Span, SpanRecorder

#: Observer cost tiers, cheapest first.
LEVELS = ("metrics", "sampled", "full")


class Step:
    """One timed step, from :meth:`Observer.begin` to
    :meth:`Observer.end`: its name, start, the fields it was opened
    with and the transaction it carries, and the span recording it —
    None when none is (below ``sampled``, or under a sampled-out
    step)."""

    __slots__ = ("name", "start", "fields", "txn", "span", "scoped")

    def __init__(
        self, name: str, start: float, fields: dict, txn: str | None
    ) -> None:
        self.name = name
        self.start = start
        self.fields = fields
        self.txn = txn
        self.span: Span | DroppedSpan | None = None
        self.scoped = False


class Observer:
    """Live observer: every step and event meters and (optionally)
    spans.

    Parameters
    ----------
    capacity:
        Ring size of the span recorder.
    clock:
        Monotonic time source shared by spans, health and
        wait-timing; pass a virtual clock when observing a
        discrete-event simulation.
    level:
        ``"metrics"``, ``"sampled"``, or ``"full"`` (default): how
        much each call records.  ``"sampled"`` and ``"full"`` carry a
        :attr:`spans` recorder; only ``"sampled"`` attaches a head
        sampler to it.
    sample_rate:
        Fraction of root spans the ``"sampled"`` level keeps
        (ignored at other levels).
    sample_seed:
        Seed for the head sampler's deterministic decision stream.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 65_536,
        clock: Callable[[], float] | None = None,
        level: str = "full",
        sample_rate: float = 0.1,
        sample_seed: int = 0,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown observer level {level!r}; expected one of {LEVELS}"
            )
        self.level = level
        # The bare clock function (usually ``time.perf_counter``),
        # read twice per step: an attribute, not a method wrapping it.
        self.clock = clock if clock is not None else time.perf_counter
        self.sampler: HeadSampler | None = None
        self.spans: SpanRecorder | None = None
        if level != "metrics":
            if level == "sampled":
                self.sampler = HeadSampler(
                    rate=sample_rate, seed=sample_seed
                )
            self.spans = SpanRecorder(
                capacity=capacity, clock=self.clock, sampler=self.sampler
            )
        self.metrics = MetricsRegistry()
        self.profiler = RuleProfiler()
        self.health = HealthMonitor(
            clock=self.clock, on_transition=self._health_transition
        )
        # Per-wave batches for the health window (plain ints, GIL-safe
        # increments) so per-txn hooks never take the monitor lock.
        self._health_commits = 0
        self._health_aborts = 0
        m = self.metrics
        # Pre-bound histograms and quantile sketches.
        self._lock_wait = m.histogram("lock.wait_seconds", TIME_BUCKETS)
        self._queue_depth = m.gauge("lock.queue_depth")
        self._wave_width = m.histogram("wave.width", COUNT_BUCKETS)
        self._match = m.histogram("engine.match_seconds", TIME_BUCKETS)
        self._shard = m.histogram("match.shard_seconds", TIME_BUCKETS)
        self._batch_size = m.histogram("match.batch_size", COUNT_BUCKETS)
        self._merge_time = m.histogram("match.merge_seconds", TIME_BUCKETS)
        self._retry_delay = m.histogram("retry.backoff_seconds", TIME_BUCKETS)
        self._ckpt = m.histogram("storage.checkpoint_seconds", TIME_BUCKETS)
        self._compact = m.histogram("storage.compaction_seconds", TIME_BUCKETS)
        self._recover = m.histogram("storage.recovery_seconds", TIME_BUCKETS)
        self._cycle_sketch = m.sketch("cycle.sketch_seconds")
        self._lock_wait_sketch = m.sketch("lock.wait.sketch_seconds")
        self._flush_sketch = m.sketch("match.flush.sketch_seconds")
        self._firing_sketch = m.sketch("firing.sketch_seconds")
        self._ckpt_sketch = m.sketch("storage.checkpoint.sketch_seconds")
        self._compact_sketch = m.sketch("storage.compaction.sketch_seconds")
        # Pre-bound counters.
        self._c_lock_grants = m.counter("lock.grants")
        self._c_lock_waits = m.counter("lock.waits")
        self._c_lock_denials = m.counter("lock.denials")
        self._c_lock_cancels = m.counter("lock.cancels")
        self._c_txn_commits = m.counter("txn.commits")
        self._c_txn_aborts = m.counter("txn.aborts")
        self._c_rule_ii = m.counter("rc.rule_ii_aborts")
        self._c_revalidated = m.counter("rc.revalidated")
        self._c_waves = m.counter("wave.count")
        self._c_fire_committed = m.counter("firing.committed")
        self._c_fire_aborted = m.counter("firing.aborted")
        self._c_fire_deferred = m.counter("firing.deferred")
        self._c_fire_held = m.counter("firing.held")
        self._c_fire_ordered = m.counter("firing.ordered")
        self._c_rollbacks = m.counter("engine.rollbacks")
        self._c_fault_injected = m.counter("fault.injected")
        self._c_retry_attempts = m.counter("retry.attempts")
        self._c_retry_exhausted = m.counter("retry.exhausted")
        self._c_deadlock_victims = m.counter("deadlock.victims")
        self._c_match_batches = m.counter("match.batches")
        self._c_procpool_roundtrips = m.counter("procpool.roundtrips")
        self._c_procpool_bytes = m.counter("procpool.bytes")
        self._c_ckpts = m.counter("storage.checkpoints")
        self._c_truncated = m.counter("storage.segments_truncated")
        self._c_compactions = m.counter("storage.compactions")
        self._c_compacted = m.counter("storage.records_compacted")
        self._c_rotations = m.counter("storage.rotations")
        self._c_recoveries = m.counter("storage.recoveries")
        #: What a step's close feeds, by step name (:meth:`end`).
        self._closes = {
            "run": self._close_run,
            "cycle": self._close_cycle,
            "phase.match": self._close_match,
            "phase.admit": self._close_admit,
            "acquire": self._close_acquire,
            "firing": self._close_firing,
            "match.flush": self._close_flush,
            "storage.checkpoint": self._close_checkpoint,
            "storage.compaction": self._close_compaction,
            "storage.recovery": self._close_recovery,
        }

    def _span_for_txn(self, txn_id: str) -> Span | None:
        return self.spans.for_txn(txn_id) if self.spans is not None else None

    def _event(
        self, name: str, /, txn: str | None = None,
        ts: float | None = None, **fields: object,
    ) -> None:
        """Record a point event: a zero-duration span at ``ts`` (now
        by default) under the span transaction ``txn`` is bound to,
        else under the current scope.

        An event never starts a trace: with no parent at all, a
        head-sampled recorder drops it rather than spend a head
        decision on it, so the decisions stay one per run.
        """
        spans = self.spans
        if spans is None:
            return
        parent = None
        if txn is not None:
            parent = spans.for_txn(txn)
            fields["txn"] = txn
        if parent is None:
            parent = spans.current()
            if parent is None and spans.sampler is not None:
                return
        if ts is None:
            ts = spans.clock()
        spans.record(name, ts, ts, parent=parent, **fields)

    def _flush_health(self) -> None:
        """Move batched commit/abort counts into the health window."""
        commits, self._health_commits = self._health_commits, 0
        aborts, self._health_aborts = self._health_aborts, 0
        if commits:
            self.health.record("firing.committed", commits)
        if aborts:
            self.health.record("firing.aborted", aborts)

    def _health_transition(
        self, old: str, new: str, report: HealthReport
    ) -> None:
        """Status changed: record the event, tagged with the rule
        verdicts (:attr:`HealthMonitor.transitions` keeps the log at
        every level)."""
        self._event(
            "health.transition", old=old, new=new,
            rules={r.name: r.status for r in report.results},
        )

    # -- timed steps -----------------------------------------------------------------------

    def begin(
        self, name: str, parent: Step | None = None, /,
        txn: str | None = None, ts: float | None = None,
        scope: bool = False, **fields: object,
    ) -> Step:
        """Open a timed step at ``ts`` (now by default).

        ``parent`` is the enclosing step; without one the step hangs
        under the current scope, and is a trace root when there is
        none.  ``txn`` binds that transaction to the step's span, so
        txn-keyed hooks land on it; ``scope=True`` makes the span the
        current scope.  ``fields`` go on the span and are what the
        close reads (the ``rule`` of an acquire or a firing).

        A step under a sampled-out step is a bare timer: no span is
        built and nothing is counted, yet its close still feeds every
        aggregate.
        """
        if ts is None:
            ts = self.clock()
        step = Step(name, ts, fields, txn)
        spans = self.spans
        if spans is None:
            return step
        if parent is None:
            under = spans.current()
        else:
            under = parent.span
            if under is None or under is spans.dropped_span:
                return step
        if txn is not None:
            fields["txn"] = txn
        span = step.span = spans.start(name, parent=under, ts=ts, **fields)
        if txn is not None:
            spans.bind(txn, span)
        if scope:
            spans.push_scope(span)
            step.scoped = True
        return step

    def end(self, step: Step, /, **fields: object) -> float:
        """Close ``step`` now: feed what :attr:`_closes` lists for its
        name (reading the fields it was opened and closed with), then
        finish its span with ``fields``, leave its scope and unbind
        its transaction.  The span closes after the aggregates, so
        the watchdog work of a cycle's close, and any event it raises,
        is inside the cycle.

        Returns the instant the step was timed to end: a next step
        opened there (``begin(..., ts=)``) times this close."""
        now = self.clock()
        close = self._closes.get(step.name)
        if close is not None:
            if fields:
                step.fields.update(fields)
            close(step, now - step.start)
        span = step.span
        if span is not None:
            spans = self.spans
            if step.scoped:
                spans.pop_scope(span)
            if step.txn is not None:
                spans.unbind(step.txn)
            span.finish(**fields)
        return now

    def _close_run(self, step: Step, seconds: float) -> None:
        # Run wall time is the profiler's coverage denominator.
        self.profiler.record_run(seconds)
        self._flush_health()

    def _close_cycle(self, step: Step, seconds: float) -> None:
        fields = step.fields
        self._c_waves.inc()
        self._c_fire_committed.inc(fields["committed"])
        self._c_fire_aborted.inc(fields["aborted"])
        self._c_fire_deferred.inc(fields["deferred"])
        self._c_fire_held.inc(fields["held"])
        self._cycle_sketch.observe(seconds)
        self._flush_health()
        self.health.evaluate()

    def _close_match(self, step: Step, seconds: float) -> None:
        self._match.observe(seconds)
        self._wave_width.observe(step.fields["candidates"])
        self.profiler.record_match(seconds)

    def _close_admit(self, step: Step, seconds: float) -> None:
        self._c_fire_ordered.inc(step.fields["ordered"])
        self.profiler.record_admit(seconds)

    def _close_acquire(self, step: Step, seconds: float) -> None:
        self.profiler.record_acquire(step.fields["rule"], step.txn, seconds)

    def _close_firing(self, step: Step, seconds: float) -> None:
        self._firing_sketch.observe(seconds)
        self.profiler.record_firing(step.fields["rule"], step.txn, seconds)

    def _close_flush(self, step: Step, seconds: float) -> None:
        shard_seconds = step.fields["shard_seconds"]
        for shard in shard_seconds:
            self._shard.observe(shard)
        self._c_match_batches.inc()
        self._batch_size.observe(step.fields["deltas"])
        self._merge_time.observe(step.fields["merge_seconds"])
        self._flush_sketch.observe(seconds)
        span = step.span
        if (
            span is not None and step.fields["backend"] == "serial"
            and self.clock is time.perf_counter
        ):
            # Serial shards ran one after another on this clock: lay
            # them end to end from the flush's start.  Other
            # substrates' seconds are virtual or another process's,
            # and stay the ``shard_seconds`` field.
            start = step.start
            for index, shard in enumerate(shard_seconds):
                self.spans.record(
                    "match.shard", start=start, end=start + shard,
                    parent=span, shard=index,
                )
                start += shard

    def _close_checkpoint(self, step: Step, seconds: float) -> None:
        self._c_ckpts.inc()
        self._c_truncated.inc(step.fields["truncated"])
        self._ckpt.observe(seconds)
        self._ckpt_sketch.observe(seconds)
        self.health.record("storage.checkpoints")

    def _close_compaction(self, step: Step, seconds: float) -> None:
        fields = step.fields
        self._c_compactions.inc()
        self._c_compacted.inc(
            max(0, fields["records_before"] - fields["records_after"])
        )
        self._compact.observe(seconds)
        self._compact_sketch.observe(seconds)

    def _close_recovery(self, step: Step, seconds: float) -> None:
        self._c_recoveries.inc()
        self._recover.observe(seconds)

    # -- lock manager ----------------------------------------------------------------------

    def lock_granted(
        self, txn_id: str, obj: object, mode: str,
        waited: float, queued: bool,
    ) -> None:
        self._c_lock_grants.inc()
        self._lock_wait.observe(waited)
        if waited > 0.0:
            # The sketch tracks quantiles of waits that happened; the
            # histogram above keeps the zero-wait grants so rates and
            # counts still cover every grant.
            self._lock_wait_sketch.observe(waited)
            self.profiler.record_wait(txn_id, waited)
            self.health.record("lock.wait_seconds", waited)
        if self.spans is not None:
            owner = self.spans.for_txn(txn_id)
            if owner is not None:
                now = self.spans.clock()
                self.spans.record(
                    "lock.acquire", start=now - waited, end=now,
                    parent=owner, obj=repr(obj), mode=mode,
                    waited=waited, queued=queued,
                )

    def lock_queued(
        self, txn_id: str, obj: object, mode: str, depth: int
    ) -> None:
        self._c_lock_waits.inc()
        self._queue_depth.set(depth)
        self._event(
            "lock.wait", txn=txn_id, obj=repr(obj), mode=mode, depth=depth
        )

    def lock_denied(
        self, txn_id: str, obj: object, mode: str, reason: str
    ) -> None:
        self._c_lock_denials.inc()
        self._event(
            "lock.deny", txn=txn_id, obj=repr(obj), mode=mode,
            reason=reason,
        )

    def lock_cancelled(self, txn_id: str, obj: object, mode: str) -> None:
        self._c_lock_cancels.inc()
        self._event("lock.cancel", txn=txn_id, obj=repr(obj), mode=mode)

    # -- lock schemes ----------------------------------------------------------------------

    def txn_committed(self, txn_id: str, scheme: str) -> None:
        self._c_txn_commits.inc()
        # Plain int += under the GIL; flushed into the health window
        # once per wave so the hot path never takes the monitor lock.
        self._health_commits += 1
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.annotate(status="committed", scheme=scheme)

    def txn_aborted(self, txn_id: str, scheme: str, reason: str) -> None:
        self._c_txn_aborts.inc()
        # Deferrals and sibling-commit retractions are normal wave
        # protocol, not failures: only real aborts feed the watchdog.
        if reason not in BENIGN_ABORT_REASONS:
            self._health_aborts += 1
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.annotate(status="aborted", abort_reason=reason)

    def rule_ii_abort(
        self, victim_id: str, committer_id: str, objs: Iterable[object]
    ) -> None:
        """A Wa commit force-aborted an Rc holder (Section 4.3).

        With spans on, the victim's span gets a causal link to the
        committing Wa transaction's span (kind ``"rc_wa_abort"``) —
        the edge the abort-chain analysis walks — and the committer's
        span an ``rc.rule_ii_abort`` event.
        """
        objs = tuple(repr(o) for o in objs)
        self._c_rule_ii.inc()
        if self.spans is not None:
            victim = self.spans.for_txn(victim_id)
            committer = self.spans.for_txn(committer_id)
            if victim is not None and committer is not None:
                victim.link(committer, kind="rc_wa_abort")
                victim.annotate(
                    aborted_by_txn=committer_id,
                    aborted_by_span=committer.span_id,
                    conflict_objs=objs,
                )
            self._event(
                "rc.rule_ii_abort", txn=committer_id, victim=victim_id,
                objs=objs,
            )

    def revalidation_spared(
        self, holder_id: str, committer_id: str
    ) -> None:
        self._c_revalidated.inc()
        self._event("rc.revalidated", txn=holder_id, committer=committer_id)

    def rollback(self, txn_id: str, undone: int) -> None:
        self._c_rollbacks.inc()
        self._event("engine.rollback", txn=txn_id, undone=undone)

    # -- robustness (faults / retries / deadlocks) -----------------------------------------

    def fault_injected(
        self, kind: str, txn_id: str, site: str, detail: str = ""
    ) -> None:
        """The fault layer fired one injected fault at a site.

        With spans on, the fault is a ``fault.<kind>`` event inside
        the span it fired in (the bound acquire/firing span of
        ``txn_id``).
        """
        self._c_fault_injected.inc()
        self.metrics.counter(f"fault.injected.{kind}").inc()
        self._event(f"fault.{kind}", txn=txn_id, site=site, detail=detail)

    def retry_attempt(
        self, rule: str, attempt: int, delay: float, reason: str
    ) -> None:
        """A timed-out/aborted firing is being re-driven after backoff."""
        self._c_retry_attempts.inc()
        self._retry_delay.observe(delay)
        self._event(
            "retry.attempt", rule=rule, attempt=attempt, delay=delay,
            reason=reason,
        )

    def retry_exhausted(self, rule: str, attempts: int, reason: str) -> None:
        """A firing used up its retry budget and was abandoned."""
        self._c_retry_exhausted.inc()
        self.health.record("retry.exhausted")
        self._event(
            "retry.exhausted", rule=rule, attempts=attempts, reason=reason
        )

    def deadlock_victim(self, txn_id: str, cycle: Iterable[str]) -> None:
        """Deadlock detection aborted the youngest transaction on a
        cycle."""
        self._c_deadlock_victims.inc()
        self._event("deadlock.victim", txn=txn_id, cycle=tuple(cycle))

    # -- match and storage ------------------------------------------------------------------

    def procpool_roundtrip(self, bytes_out: int, bytes_in: int) -> None:
        """The process-backend pool completed one IPC round-trip
        (a command fanned to every worker, all replies folded back).
        ``bytes_*`` are pickle payload bytes, headers excluded."""
        self._c_procpool_roundtrips.inc()
        self._c_procpool_bytes.inc(bytes_out + bytes_in)
        self._event(
            "procpool.roundtrip", bytes_out=bytes_out, bytes_in=bytes_in
        )

    def segment_rotated(
        self, segment: str, records: int, bytes_: int
    ) -> None:
        """The active WAL segment was sealed and a successor opened."""
        self._c_rotations.inc()
        self.health.record("storage.rotations")
        self._event(
            "storage.rotate", segment=segment, records=records, bytes=bytes_
        )

    # -- simulators ------------------------------------------------------------------------

    def sim_event(self, ts: float, kind: str, **fields: object) -> None:
        """Virtual-time event from a discrete-event simulation,
        recorded at its virtual ``ts``."""
        self.metrics.counter(f"{kind}.count").inc()
        self._event(kind, ts=ts, **fields)

    def sim_observe(
        self, name: str, value: float,
        buckets: tuple[float, ...] = TIME_BUCKETS,
    ) -> None:
        """Record a virtual-time duration into a named histogram."""
        self.metrics.histogram(name, buckets).observe(value)


def enable(
    capacity: int = 65_536,
    clock: Callable[[], float] | None = None,
    level: str = "full",
    sample_rate: float = 0.1,
    sample_seed: int = 0,
) -> Observer:
    """Create a live :class:`Observer` and make it the default.

    Only components constructed *after* this call pick it up — enable
    observability before building engines/managers.
    """
    observer = Observer(
        capacity=capacity, clock=clock, level=level,
        sample_rate=sample_rate, sample_seed=sample_seed,
    )
    set_observer(observer)
    return observer


def disable() -> None:
    """Restore the inert default observer."""
    set_observer(NULL_OBSERVER)


@contextmanager
def observed(
    capacity: int = 65_536,
    clock: Callable[[], float] | None = None,
    level: str = "full",
    sample_rate: float = 0.1,
    sample_seed: int = 0,
) -> Iterator[Observer]:
    """Scoped :func:`enable`: restores the previous default on exit."""
    observer = Observer(
        capacity=capacity, clock=clock, level=level,
        sample_rate=sample_rate, sample_seed=sample_seed,
    )
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
