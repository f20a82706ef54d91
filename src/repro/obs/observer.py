"""The observer facade: timed steps and point events over one
registry and one span tree.

Instrumented components (engines, lock manager and schemes, matcher,
durable store, simulators) never build spans or look up metrics
themselves.  They make three calls on an :class:`Observer`:

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
* **A point event** — one :meth:`~Observer.event` (``lock.deny``,
  ``rc.rule_ii_abort``, ``fault.<kind>``, ``retry.attempt``, ...):
  the same table feeds it as a step of zero length, and with spans on
  it is a zero-duration span under the parent step's span, else the
  span its transaction is bound to, else the current scope.  A few
  feeds place the event themselves: a lock grant (``lock.acquire``)
  is a child of the bound span covering its wait, and a commit or an
  abort (``txn.commit``, ``txn.abort``) annotates that span.

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
from typing import TYPE_CHECKING, Callable, Iterator

from repro.obs.null import NULL_OBSERVER, set_observer

if TYPE_CHECKING:
    from repro.obs.health import HealthReport
    from repro.obs.sampling import DroppedSpan, HeadSampler
    from repro.obs.spans import Span, SpanRecorder

#: Observer cost tiers, cheapest first.
LEVELS = ("metrics", "sampled", "full")


class Step:
    """One timed step, from :meth:`Observer.begin` to
    :meth:`Observer.end`, or an :meth:`~Observer.event` fed as one of
    zero length: its name, start, fields and transaction, and the
    span recording it — None when none is (below ``sampled``, under a
    sampled-out step, or an event)."""

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
        # The instruments load with the first observer built, not with
        # this module: importing ``Observer`` costs the facade alone.
        from repro.obs.health import BENIGN_ABORT_REASONS, HealthMonitor
        from repro.obs.metrics import (
            COUNT_BUCKETS,
            MetricsRegistry,
            TIME_BUCKETS,
        )
        from repro.obs.profile import RuleProfiler
        from repro.obs.sampling import HeadSampler
        from repro.obs.spans import SpanRecorder

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
        #: Abort reasons that are wave protocol, not failure.
        self._benign_aborts = BENIGN_ABORT_REASONS
        # Per-wave batches for the health window (plain ints, GIL-safe
        # increments) so per-txn events never take the monitor lock.
        self._health_commits = 0
        self._health_aborts = 0
        m = self.metrics
        # Pre-bound histograms and quantile sketches.
        self._lock_wait = m.histogram("lock.wait_seconds", TIME_BUCKETS)
        self._wave_width = m.histogram("wave.width", COUNT_BUCKETS)
        self._match = m.histogram("engine.match_seconds", TIME_BUCKETS)
        self._shard = m.histogram("match.shard_seconds", TIME_BUCKETS)
        self._batch_size = m.histogram("match.batch_size", COUNT_BUCKETS)
        self._merge_time = m.histogram("match.merge_seconds", TIME_BUCKETS)
        self._ckpt = m.histogram("storage.checkpoint_seconds", TIME_BUCKETS)
        self._recover = m.histogram("storage.recovery_seconds", TIME_BUCKETS)
        self._cycle_sketch = m.sketch("cycle.sketch_seconds")
        self._lock_wait_sketch = m.sketch("lock.wait.sketch_seconds")
        self._flush_sketch = m.sketch("match.flush.sketch_seconds")
        self._firing_sketch = m.sketch("firing.sketch_seconds")
        self._ckpt_sketch = m.sketch("storage.checkpoint.sketch_seconds")
        # Pre-bound counters.
        self._c_lock_grants = m.counter("lock.grants")
        self._c_txn_commits = m.counter("txn.commits")
        self._c_txn_aborts = m.counter("txn.aborts")
        self._c_rule_ii = m.counter("rc.rule_ii_aborts")
        self._c_waves = m.counter("wave.count")
        self._c_fire_committed = m.counter("firing.committed")
        self._c_fire_aborted = m.counter("firing.aborted")
        self._c_fire_deferred = m.counter("firing.deferred")
        self._c_fire_held = m.counter("firing.held")
        self._c_fire_ordered = m.counter("firing.ordered")
        self._c_fault_injected = m.counter("fault.injected")
        self._c_match_batches = m.counter("match.batches")
        self._c_ckpts = m.counter("storage.checkpoints")
        self._c_truncated = m.counter("storage.segments_truncated")
        self._c_recoveries = m.counter("storage.recoveries")
        tally = self._tally
        ipc_bytes = m.counter("procpool.bytes").inc
        #: What a step's close (:meth:`end`) or an event (:meth:`event`)
        #: feeds, by name; a key ending in "." feeds an event family.
        self._closes = {
            "run": self._close_run,
            "cycle": self._close_cycle,
            "phase.match": self._close_match,
            "phase.admit": self._close_admit,
            "acquire": self._close_acquire,
            "firing": self._close_firing,
            "match.flush": self._close_flush,
            "storage.checkpoint": self._close_checkpoint,
            "storage.recovery": self._close_recovery,
            "lock.acquire": self._feed_grant,
            "lock.wait": tally(
                "lock.waits", depth=m.gauge("lock.queue_depth").set
            ),
            "lock.deny": tally("lock.denials"),
            "lock.cancel": tally("lock.cancels"),
            "txn.commit": self._feed_commit,
            "txn.abort": self._feed_abort,
            "rc.rule_ii_abort": self._feed_rule_ii,
            "rc.revalidated": tally("rc.revalidated"),
            "engine.rollback": tally("engine.rollbacks"),
            "fault.": self._feed_fault,
            "retry.attempt": tally(
                "retry.attempts",
                delay=m.histogram("retry.backoff_seconds").observe,
            ),
            "retry.exhausted": tally("retry.exhausted", health=True),
            "deadlock.victim": tally("deadlock.victims"),
            "procpool.roundtrip": tally(
                "procpool.roundtrips", bytes_out=ipc_bytes, bytes_in=ipc_bytes
            ),
            "storage.rotate": tally("storage.rotations", health=True),
            "sim.": self._feed_sim,
        }

    def _span_for_txn(self, txn_id: str) -> Span | None:
        return self.spans.for_txn(txn_id) if self.spans is not None else None

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
        self.event(
            "health.transition", old=old, new=new,
            rules={r.name: r.status for r in report.results},
        )

    # -- steps and events ------------------------------------------------------------------

    def begin(
        self, name: str, parent: Step | None = None, /,
        txn: str | None = None, ts: float | None = None,
        scope: bool = False, **fields: object,
    ) -> Step:
        """Open a timed step at ``ts`` (now by default).

        ``parent`` is the enclosing step; without one the step hangs
        under the current scope, and is a trace root when there is
        none.  ``txn`` binds that transaction to the step's span, so
        txn-keyed events land on it; ``scope=True`` makes the span the
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

    def event(
        self, name: str, parent: Step | None = None, /,
        txn: str | None = None, ts: float | None = None,
        **fields: object,
    ) -> None:
        """Record a point event at ``ts`` (now by default).

        What :attr:`_closes` lists for ``name``, or for its family
        (``"fault."`` for ``"fault.crash"``), is fed as a step of zero
        length.  Then, with spans on, the event is a zero-duration
        span under ``parent``'s span, else under the span ``txn`` is
        bound to, else under the current scope.  A feed that returns
        True has placed the event itself, and no span is recorded.

        An event never starts a trace: with no parent at all, a
        head-sampled recorder drops it rather than spend a head
        decision on it, so the decisions stay one per run.
        """
        closes = self._closes
        close = closes.get(name) or closes.get(name[: name.find(".") + 1])
        if close is not None and close(Step(name, ts, fields, txn), 0.0):
            return
        spans = self.spans
        if spans is None:
            return
        if parent is not None:
            under = parent.span
            if under is None or under is spans.dropped_span:
                return
        else:
            under = spans.for_txn(txn) if txn is not None else None
            if under is None:
                under = spans.current()
                if under is None and spans.sampler is not None:
                    return
        if txn is not None:
            fields["txn"] = txn
        if ts is None:
            ts = spans.clock()
        spans.record(name, ts, ts, parent=under, **fields)

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
        if "error" in step.fields:
            # Refused or crashed: its span closes, nothing completed.
            return
        self._c_ckpts.inc()
        self._c_truncated.inc(step.fields["truncated"])
        self._ckpt.observe(seconds)
        self._ckpt_sketch.observe(seconds)
        self.health.record("storage.checkpoints")

    def _close_recovery(self, step: Step, seconds: float) -> None:
        self._c_recoveries.inc()
        self._recover.observe(seconds)

    # -- what point events feed ------------------------------------------------------------

    def _tally(
        self, name: str, health: bool = False,
        **fields: Callable[[float], None],
    ) -> Callable[[Step, float], None]:
        """The feed of an event that bumps counter ``name``, passes
        each field named in ``fields`` to its instrument's call, and
        with ``health`` ticks the health window of the same name."""
        counter = self.metrics.counter(name)
        record = self.health.record

        def feed(step: Step, seconds: float) -> None:
            counter.inc()
            for field, call in fields.items():
                call(step.fields[field])
            if health:
                record(name)

        return feed

    def _feed_grant(self, step: Step, seconds: float) -> bool:
        fields = step.fields
        waited = fields["waited"]
        self._c_lock_grants.inc()
        self._lock_wait.observe(waited)
        if waited > 0.0:
            # The sketch tracks quantiles of waits that happened; the
            # histogram above keeps the zero-wait grants so rates and
            # counts still cover every grant.
            self._lock_wait_sketch.observe(waited)
            self.profiler.record_wait(step.txn, waited)
            self.health.record("lock.wait_seconds", waited)
        owner = self._span_for_txn(step.txn)
        if owner is not None:
            # A child of the span carrying the transaction, covering
            # the wait; a grant no span carries records nothing.  The
            # object is rendered only here: grants are the hottest
            # event.
            fields["obj"] = repr(fields["obj"])
            now = self.clock()
            self.spans.record(
                "lock.acquire", start=now - waited, end=now,
                parent=owner, **fields,
            )
        return True

    def _feed_commit(self, step: Step, seconds: float) -> bool:
        self._c_txn_commits.inc()
        self._health_commits += 1
        owner = self._span_for_txn(step.txn)
        if owner is not None:
            owner.annotate(status="committed", scheme=step.fields["scheme"])
        return True

    def _feed_abort(self, step: Step, seconds: float) -> bool:
        self._c_txn_aborts.inc()
        reason = step.fields["reason"]
        # Deferrals and sibling-commit retractions are normal wave
        # protocol, not failures: only real aborts feed the watchdog.
        if reason not in self._benign_aborts:
            self._health_aborts += 1
        owner = self._span_for_txn(step.txn)
        if owner is not None:
            owner.annotate(status="aborted", abort_reason=reason)
        return True

    def _feed_rule_ii(self, step: Step, seconds: float) -> None:
        """A Wa commit (``txn``) force-aborted an Rc holder
        (``victim``; Section 4.3): the victim's span gets a causal
        link to the committer's (kind ``"rc_wa_abort"``), the edge the
        abort-chain analysis walks."""
        self._c_rule_ii.inc()
        victim = self._span_for_txn(step.fields["victim"])
        committer = self._span_for_txn(step.txn)
        if victim is not None and committer is not None:
            victim.link(committer, kind="rc_wa_abort")
            victim.annotate(
                aborted_by_txn=step.txn,
                aborted_by_span=committer.span_id,
                conflict_objs=step.fields["objs"],
            )

    def _feed_fault(self, step: Step, seconds: float) -> None:
        self._c_fault_injected.inc()
        kind = step.name.partition(".")[2]
        self.metrics.counter(f"fault.injected.{kind}").inc()

    def _feed_sim(self, step: Step, seconds: float) -> None:
        # A discrete-event simulation's events, at their virtual ``ts``.
        self.metrics.counter(f"{step.name}.count").inc()
        blocked = step.fields.get("blocked")
        if blocked is not None:
            self.metrics.histogram("sim.blocked_vtime").observe(blocked)


def enable(**options: object) -> Observer:
    """Create a live :class:`Observer` (``options`` are its
    constructor's) and make it the default.

    Only components constructed *after* this call pick it up — enable
    observability before building engines/managers.
    """
    observer = Observer(**options)
    set_observer(observer)
    return observer


def disable() -> None:
    """Restore the inert default observer."""
    set_observer(NULL_OBSERVER)


@contextmanager
def observed(**options: object) -> Iterator[Observer]:
    """Scoped :func:`enable`: restores the previous default on exit."""
    observer = Observer(**options)
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
