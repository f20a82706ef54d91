"""The observer facade: named hooks over one trace + registry + spans.

Instrumented components (lock manager, lock schemes, engines,
simulators) do not build trace events or look up metrics themselves —
they call semantic hooks on an :class:`Observer` (``lock_granted``,
``rule_ii_abort``, ``wave_finished``, ...).  The observer translates
each hook into a trace event, the matching metric updates, and — when
span recording is on — the matching mutation of the causal span tree
(:mod:`repro.obs.spans`), keeping every instrumentation point a
one-liner and the naming scheme in one place.

Hooks that only know a transaction id reach the right span through
the recorder's txn binding: the engines bind each transaction to its
acquire/firing span, so a lock grant becomes a ``lock.acquire`` child
span, a fault annotates the firing it hit, and a rule-(ii) abort
links the victim's span to the committing Wa transaction's span.

The hot-path contract: components hold a reference to an observer and
guard every hook call with ``if obs.enabled:``.  The default observer
is :data:`NULL_OBSERVER` (``enabled = False``), so an uninstrumented
run costs one attribute load and a falsy branch per site — nothing is
allocated, stamped or counted.  A live observer's cost is tiered by
``level``:

* ``"metrics"`` — counters, histograms, quantile sketches, the
  per-rule profiler and the health monitor (all aggregates);
* ``"trace"``   — + ring-buffer trace events (the PR-1 behavior);
* ``"sampled"`` — the always-on production tier: aggregates plus
  head-sampled span trees (:mod:`repro.obs.sampling`) — a seeded
  fraction of runs keeps its complete run→cycle→phase→firing
  subtree, the rest cost one sentinel per would-be span.  The trace
  ring stays off; health transitions still reach the trace.
* ``"full"``    — everything, every span (the default).

Every hook self-locks at the instrument it touches (counters,
histograms and sketches carry their own locks), so there is no
observer-wide mutex on the hot path; all instruments are pre-bound at
construction so a hook never pays a registry lookup.
``benchmarks/bench_obs_overhead.py`` measures the tiers.
"""

from __future__ import annotations

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
from repro.obs.sampling import HeadSampler
from repro.obs.spans import Span, SpanRecorder
from repro.obs.trace import TraceCollector

#: Observer cost tiers, cheapest first.
LEVELS = ("metrics", "trace", "sampled", "full")


class Observer:
    """Live observer: every hook traces, meters and (optionally) spans.

    Parameters
    ----------
    trace_capacity:
        Ring-buffer size for the trace collector (and, by default,
        the span recorder).
    clock:
        Monotonic time source shared by trace, spans and wait-timing;
        pass a virtual clock when observing a discrete-event
        simulation.
    level:
        ``"metrics"``, ``"trace"``, ``"sampled"``, or ``"full"``
        (default): how much each hook records.  ``"sampled"`` and
        ``"full"`` carry a :attr:`spans` recorder; only ``"sampled"``
        attaches a head sampler to it.
    span_capacity:
        Ring size for the span recorder; defaults to ``trace_capacity``.
    sample_rate:
        Fraction of root spans the ``"sampled"`` level keeps
        (ignored at other levels).
    sample_seed:
        Seed for the head sampler's deterministic decision stream.
    """

    enabled = True

    def __init__(
        self,
        trace_capacity: int = 65_536,
        clock: Callable[[], float] | None = None,
        level: str = "full",
        span_capacity: int | None = None,
        sample_rate: float = 0.1,
        sample_seed: int = 0,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown observer level {level!r}; expected one of {LEVELS}"
            )
        self.level = level
        if clock is None:
            self.trace = TraceCollector(capacity=trace_capacity)
        else:
            self.trace = TraceCollector(
                capacity=trace_capacity, clock=clock
            )
        self._trace_on = level in ("trace", "full")
        self.sampler: HeadSampler | None = None
        self.spans: SpanRecorder | None = None
        if level in ("sampled", "full"):
            if level == "sampled":
                self.sampler = HeadSampler(
                    rate=sample_rate, seed=sample_seed
                )
            self.spans = SpanRecorder(
                capacity=(
                    span_capacity if span_capacity is not None
                    else trace_capacity
                ),
                clock=self.trace.clock,
                sampler=self.sampler,
            )
        # Shadow the ``clock`` method with the collector's underlying
        # clock (usually ``time.perf_counter``): the engine reads the
        # clock several times per firing, and the instance binding
        # skips two Python frames per read.
        self.clock = self.trace.clock
        self.metrics = MetricsRegistry()
        self.profiler = RuleProfiler()
        self.health = HealthMonitor(
            clock=self.trace.clock,
            on_transition=self._health_transition,
        )
        # Per-wave batches for the health window (plain ints, GIL-safe
        # increments) so per-txn hooks never take the monitor lock.
        self._health_commits = 0
        self._health_aborts = 0
        m = self.metrics
        # Pre-bound histograms (hot hooks never pay a registry lookup).
        self._lock_wait = m.histogram("lock.wait_seconds", TIME_BUCKETS)
        self._queue_depth = m.gauge("lock.queue_depth")
        self._wave_width = m.histogram("wave.width", COUNT_BUCKETS)
        self._match_latency = m.histogram(
            "engine.match_seconds", TIME_BUCKETS
        )
        self._shard_match = m.histogram(
            "match.shard_seconds", TIME_BUCKETS
        )
        self._batch_size = m.histogram("match.batch_size", COUNT_BUCKETS)
        self._merge_time = m.histogram("match.merge_seconds", TIME_BUCKETS)
        self._retry_delay = m.histogram(
            "retry.backoff_seconds", TIME_BUCKETS
        )
        self._ckpt_seconds = m.histogram(
            "storage.checkpoint_seconds", TIME_BUCKETS
        )
        self._compact_seconds = m.histogram(
            "storage.compaction_seconds", TIME_BUCKETS
        )
        self._recovery_seconds = m.histogram(
            "storage.recovery_seconds", TIME_BUCKETS
        )
        # Quantile sketches: the always-on percentile instruments.
        self._cycle_sketch = m.sketch("cycle.sketch_seconds")
        self._lock_wait_sketch = m.sketch("lock.wait.sketch_seconds")
        self._flush_sketch = m.sketch("match.flush.sketch_seconds")
        self._firing_sketch = m.sketch("firing.sketch_seconds")
        self._ckpt_sketch = m.sketch("storage.checkpoint.sketch_seconds")
        self._compact_sketch = m.sketch(
            "storage.compaction.sketch_seconds"
        )
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

    def clock(self) -> float:
        return self.trace.clock()

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
        """Status changed: put the structured event on the trace.

        Emits at every level (transitions are rare and are exactly the
        evidence a post-mortem needs), tagged with the rule verdicts.
        """
        self.trace.emit(
            "health.transition", old=old, new=new,
            rules={r.name: r.status for r in report.results},
        )

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
        if self._trace_on:
            self.trace.emit(
                "lock.grant", txn=txn_id, obj=repr(obj), mode=mode,
                waited=waited, queued=queued,
            )
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
        if self._trace_on:
            self.trace.emit(
                "lock.wait", txn=txn_id, obj=repr(obj), mode=mode,
                depth=depth,
            )

    def lock_denied(
        self, txn_id: str, obj: object, mode: str, reason: str
    ) -> None:
        self._c_lock_denials.inc()
        if self._trace_on:
            self.trace.emit(
                "lock.deny", txn=txn_id, obj=repr(obj), mode=mode,
                reason=reason,
            )
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.event(
                "lock.deny", obj=repr(obj), mode=mode, reason=reason
            )

    def lock_cancelled(self, txn_id: str, obj: object, mode: str) -> None:
        self._c_lock_cancels.inc()
        if self._trace_on:
            self.trace.emit(
                "lock.cancel", txn=txn_id, obj=repr(obj), mode=mode
            )
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.event("lock.cancel", obj=repr(obj), mode=mode)

    # -- lock schemes ----------------------------------------------------------------------

    def txn_committed(self, txn_id: str, scheme: str) -> None:
        self._c_txn_commits.inc()
        # Plain int += under the GIL; flushed into the health window
        # once per wave so the hot path never takes the monitor lock.
        self._health_commits += 1
        if self._trace_on:
            self.trace.emit("txn.commit", txn=txn_id, scheme=scheme)
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.annotate(status="committed", scheme=scheme)

    def txn_aborted(self, txn_id: str, scheme: str, reason: str) -> None:
        self._c_txn_aborts.inc()
        # Deferrals and sibling-commit retractions are normal wave
        # protocol, not failures: only real aborts feed the watchdog.
        if reason not in BENIGN_ABORT_REASONS:
            self._health_aborts += 1
        if self._trace_on:
            self.trace.emit(
                "txn.abort", txn=txn_id, scheme=scheme, reason=reason
            )
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.annotate(status="aborted", abort_reason=reason)

    def rule_ii_abort(
        self, victim_id: str, committer_id: str, objs: Iterable[object]
    ) -> None:
        """A Wa commit force-aborted an Rc holder (Section 4.3).

        With spans on, the victim's span gets a causal link to the
        committing Wa transaction's span (kind ``"rc_wa_abort"``) —
        the edge the abort-chain analysis walks.
        """
        objs = tuple(repr(o) for o in objs)
        self._c_rule_ii.inc()
        if self._trace_on:
            self.trace.emit(
                "rc.rule_ii_abort", victim=victim_id,
                committer=committer_id, objs=objs,
            )
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
                committer.event(
                    "rc.rule_ii_abort", victim=victim_id, objs=objs
                )

    def revalidation_spared(
        self, holder_id: str, committer_id: str
    ) -> None:
        self._c_revalidated.inc()
        if self._trace_on:
            self.trace.emit(
                "rc.revalidated", holder=holder_id, committer=committer_id
            )
        owner = self._span_for_txn(holder_id)
        if owner is not None:
            owner.event("rc.revalidated", committer=committer_id)

    # -- engines ---------------------------------------------------------------------------

    def wave_started(self, wave: int, candidates: int) -> None:
        self._wave_width.observe(candidates)
        if self._trace_on:
            self.trace.emit("wave.start", wave=wave, candidates=candidates)

    def wave_finished(
        self, wave: int, committed: int, aborted: int, deferred: int,
        held: int, duration: float,
    ) -> None:
        self._c_waves.inc()
        self._c_fire_committed.inc(committed)
        self._c_fire_aborted.inc(aborted)
        self._c_fire_deferred.inc(deferred)
        self._c_fire_held.inc(held)
        self._cycle_sketch.observe(duration)
        self._flush_health()
        self.health.evaluate()
        if self._trace_on:
            self.trace.emit(
                "wave.end", wave=wave, committed=committed,
                aborted=aborted, deferred=deferred, held=held,
                duration=duration,
            )

    def firing_committed(self, rule: str, cycle: int) -> None:
        if self._trace_on:
            self.trace.emit("firing.commit", rule=rule, cycle=cycle)

    def rollback(self, txn_id: str, undone: int) -> None:
        self._c_rollbacks.inc()
        if self._trace_on:
            self.trace.emit("engine.rollback", txn=txn_id, undone=undone)
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.event("engine.rollback", undone=undone)

    def match_latency(self, seconds: float) -> None:
        self._match_latency.observe(seconds)
        self.profiler.record_match(seconds)

    def match_prepass(self, seconds: float) -> None:
        """Match work done outside a wave (the run loop's eligibility
        check, which flushes pending deltas).  Profiler-only — the
        ``engine.match_seconds`` histogram stays one sample per wave.
        """
        self.profiler.record_match(seconds)

    # -- profiler feeds (span-close timings from the engines) ------------------------------

    def admit_finished(self, seconds: float, ordered: int) -> None:
        """A wave's admission pass closed, having ordered ``ordered``
        readers before a writer ranked above them."""
        self._c_fire_ordered.inc(ordered)
        self.profiler.record_admit(seconds)

    def acquire_finished(
        self, rule: str, txn_id: str, seconds: float
    ) -> None:
        """A candidate's condition-lock acquisition closed."""
        self.profiler.record_acquire(rule, txn_id, seconds)

    def firing_finished(
        self, rule: str, txn_id: str | None, seconds: float
    ) -> None:
        """One firing transaction closed (committed, aborted or
        deferred) after ``seconds`` of wall time."""
        self._firing_sketch.observe(seconds)
        self.profiler.record_firing(rule, txn_id, seconds)

    def run_finished(self, cycles: int, seconds: float) -> None:
        """An engine run closed; wall time anchors profiler coverage."""
        self.profiler.record_run(seconds)
        self._flush_health()
        if self._trace_on:
            self.trace.emit("run.end", cycles=cycles, seconds=seconds)

    # -- robustness (faults / retries / deadlocks) -----------------------------------------

    def fault_injected(
        self, kind: str, txn_id: str, site: str, detail: str = ""
    ) -> None:
        """The fault layer fired one injected fault at a site.

        With spans on, the fault annotates the span it fired inside
        (the bound acquire/firing span of ``txn_id``).
        """
        self._c_fault_injected.inc()
        self.metrics.counter(f"fault.injected.{kind}").inc()
        if self._trace_on:
            self.trace.emit(
                "fault.injected", kind=kind, txn=txn_id, site=site,
                detail=detail,
            )
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.event(f"fault.{kind}", site=site, detail=detail)

    def retry_attempt(
        self, rule: str, attempt: int, delay: float, reason: str
    ) -> None:
        """A timed-out/aborted firing is being re-driven after backoff."""
        self._c_retry_attempts.inc()
        self._retry_delay.observe(delay)
        if self._trace_on:
            self.trace.emit(
                "retry.attempt", rule=rule, attempt=attempt, delay=delay,
                reason=reason,
            )

    def retry_exhausted(self, rule: str, attempts: int, reason: str) -> None:
        """A firing used up its retry budget and was abandoned."""
        self._c_retry_exhausted.inc()
        self.health.record("retry.exhausted")
        if self._trace_on:
            self.trace.emit(
                "retry.exhausted", rule=rule, attempts=attempts,
                reason=reason,
            )

    def deadlock_victim(
        self, txn_id: str, cycle: Iterable[str], policy: str
    ) -> None:
        """Deadlock detection chose and aborted a victim."""
        cycle = tuple(cycle)
        self._c_deadlock_victims.inc()
        if self._trace_on:
            self.trace.emit(
                "deadlock.victim", victim=txn_id, cycle=cycle,
                policy=policy,
            )
        owner = self._span_for_txn(txn_id)
        if owner is not None:
            owner.event("deadlock.victim", cycle=cycle, policy=policy)

    # -- partitioned match -----------------------------------------------------------------

    def shard_match(self, shard: int, seconds: float, deltas: int) -> None:
        """One shard finished matching a delta batch."""
        self._shard_match.observe(seconds)
        if self._trace_on:
            self.trace.emit(
                "match.shard", shard=shard, seconds=seconds, deltas=deltas
            )

    def match_batch(
        self, size: int, shards: int, merge_seconds: float
    ) -> None:
        """A partitioned delta batch was matched and merged."""
        self._c_match_batches.inc()
        self._batch_size.observe(size)
        self._merge_time.observe(merge_seconds)
        if self._trace_on:
            self.trace.emit(
                "match.batch", size=size, shards=shards,
                merge_seconds=merge_seconds,
            )

    def procpool_roundtrip(self, bytes_out: int, bytes_in: int) -> None:
        """The process-backend pool completed one IPC round-trip
        (a command fanned to every worker, all replies folded back).
        ``bytes_*`` are pickle payload bytes, headers excluded."""
        self._c_procpool_roundtrips.inc()
        self._c_procpool_bytes.inc(bytes_out + bytes_in)
        if self._trace_on:
            self.trace.emit(
                "procpool.roundtrip", bytes_out=bytes_out,
                bytes_in=bytes_in,
            )

    def match_flush(self, shards: int, seconds: float) -> None:
        """A full partitioned flush (all shards + merge) completed."""
        self._flush_sketch.observe(seconds)
        if self._trace_on:
            self.trace.emit(
                "match.flush", shards=shards, seconds=seconds
            )

    # -- durable storage -------------------------------------------------------------------

    def checkpoint_completed(
        self, elements: int, lsn: int, truncated: int, seconds: float
    ) -> None:
        """The durable store landed a snapshot and truncated the WAL."""
        self._c_ckpts.inc()
        self._c_truncated.inc(truncated)
        self._ckpt_seconds.observe(seconds)
        self._ckpt_sketch.observe(seconds)
        self.health.record("storage.checkpoints")
        if self._trace_on:
            self.trace.emit(
                "storage.checkpoint", elements=elements, lsn=lsn,
                truncated=truncated, seconds=seconds,
            )
        if self.spans is not None:
            now = self.spans.clock()
            self.spans.record(
                "storage.checkpoint", start=now - seconds, end=now,
                parent=self.spans.current(),
                elements=elements, lsn=lsn, truncated=truncated,
            )

    def compaction_completed(
        self,
        records_before: int,
        records_after: int,
        segments_merged: int,
        seconds: float,
    ) -> None:
        """Sealed WAL segments were merged and cancelling pairs dropped."""
        self._c_compactions.inc()
        self._c_compacted.inc(max(0, records_before - records_after))
        self._compact_seconds.observe(seconds)
        self._compact_sketch.observe(seconds)
        if self._trace_on:
            self.trace.emit(
                "storage.compaction", records_before=records_before,
                records_after=records_after, segments=segments_merged,
                seconds=seconds,
            )
        if self.spans is not None:
            now = self.spans.clock()
            self.spans.record(
                "storage.compaction", start=now - seconds, end=now,
                parent=self.spans.current(),
                records_before=records_before,
                records_after=records_after, segments=segments_merged,
            )

    def segment_rotated(
        self, segment: str, records: int, bytes_: int
    ) -> None:
        """The active WAL segment was sealed and a successor opened."""
        self._c_rotations.inc()
        self.health.record("storage.rotations")
        if self._trace_on:
            self.trace.emit(
                "storage.rotate", segment=segment, records=records,
                bytes=bytes_,
            )

    def recovery_completed(
        self,
        elements: int,
        replayed: int,
        shadowed: int,
        segments: int,
        seconds: float,
    ) -> None:
        """A store recovered a working memory from disk."""
        self._c_recoveries.inc()
        self._recovery_seconds.observe(seconds)
        if self._trace_on:
            self.trace.emit(
                "storage.recovery", elements=elements, replayed=replayed,
                shadowed=shadowed, segments=segments, seconds=seconds,
            )
        if self.spans is not None:
            now = self.spans.clock()
            self.spans.record(
                "storage.recovery", start=now - seconds, end=now,
                parent=self.spans.current(),
                elements=elements, replayed=replayed,
                shadowed=shadowed, segments=segments,
            )

    # -- simulators ------------------------------------------------------------------------

    def sim_event(self, ts: float, kind: str, **fields: object) -> None:
        """Virtual-time event from a discrete-event simulation."""
        self.metrics.counter(f"{kind}.count").inc()
        if self._trace_on:
            self.trace.emit_at(ts, kind, **fields)

    def sim_observe(
        self, name: str, value: float,
        buckets: tuple[float, ...] = TIME_BUCKETS,
    ) -> None:
        """Record a virtual-time duration into a named histogram."""
        self.metrics.histogram(name, buckets).observe(value)


def enable(
    trace_capacity: int = 65_536,
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
        trace_capacity=trace_capacity, clock=clock, level=level,
        sample_rate=sample_rate, sample_seed=sample_seed,
    )
    set_observer(observer)
    return observer


def disable() -> None:
    """Restore the inert default observer."""
    set_observer(NULL_OBSERVER)


@contextmanager
def observed(
    trace_capacity: int = 65_536,
    clock: Callable[[], float] | None = None,
    level: str = "full",
    sample_rate: float = 0.1,
    sample_seed: int = 0,
) -> Iterator[Observer]:
    """Scoped :func:`enable`: restores the previous default on exit."""
    observer = Observer(
        trace_capacity=trace_capacity, clock=clock, level=level,
        sample_rate=sample_rate, sample_seed=sample_seed,
    )
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
