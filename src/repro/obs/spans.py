"""Causal spans: the one event model of the observability layer.

Where :mod:`repro.obs.metrics` keeps label-less totals, the span
layer records *intervals with parents* — the structure the Section 5
questions need ("which lock wait bounded this wave?", "which Wa commit
caused this cascade of Rc aborts?").  The taxonomy the engines emit::

    run                          one engine run
    └─ cycle                     one wave (the paper's recognize-act cycle)
       ├─ phase.match            conflict-set ordering / selection
       ├─ phase.admit            commit order chosen from the footprints
       │  ├─ held                one candidate cut from a cycle (zero
       │  │                      duration: wave, rule, cycle, objs)
       │  └─ ordered             one reader put before a writer ranked
       │                         above it (zero duration: wave, reader,
       │                         writer, obj)
       ├─ phase.acquire          condition-lock acquisition
       │  └─ acquire             one candidate's condition locks
       │     └─ lock.acquire     one lock grant (dur = wait time)
       └─ phase.act              RHS execution in acting order
          └─ firing              one firing txn (commit/abort/defer)
             ├─ lock.acquire     action-lock grants
             ├─ lock.deny, ...   point events (zero duration)
             └─ rhs              the RHS body

An *event* is a zero-duration span (``start == end``): a lock denial,
a rollback, an injected fault, a retry, a health transition.  It hangs
under the span of the transaction it happened to, or under the current
scope, and it never starts a trace of its own.

Design constraints:

* **Explicit clock injection.**  The recorder stamps with its own
  ``clock`` (default :func:`time.perf_counter`); virtual-time owners
  construct the recorder with their simulator clock or use
  :meth:`SpanRecorder.record` with explicit timestamps, so wall and
  virtual time never mix inside one span tree.
* **Bounded memory.**  Started spans land in a ring; overflow drops
  the oldest and counts the loss (:attr:`SpanRecorder.dropped`).
* **Head sampling.**  An optional
  :class:`~repro.obs.sampling.HeadSampler` gates *root* spans: a
  sampled-out root returns the recorder's shared
  :class:`~repro.obs.sampling.DroppedSpan` sentinel, every child
  started under it inherits the drop, and the loss is counted
  exactly (:attr:`SpanRecorder.sampled_out`).  Kept traces record
  their complete subtree — sampling never half-drops a tree.
* **Causal links.**  A span can carry links to other spans — the
  rule-(ii) victim links to the committing Wa transaction's span
  (kind ``"rc_wa_abort"``), turning Table 4.1's commit-rule aborts
  into traversable chains.
* **Txn binding.**  Hooks that only know a transaction id (the lock
  manager, the fault injector, the Rc scheme) reach the right span
  through :meth:`bind`/:meth:`for_txn` — the engine binds each txn to
  its acquire/firing span for the span's lifetime.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.sampling import DroppedSpan, HeadSampler


def _jsonable(value: object) -> object:
    """Coerce a field value to something ``json.dumps`` accepts.

    Containers are converted structurally (sets deterministically, by
    sorted repr); everything else non-scalar falls back to ``repr``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (set, frozenset)):
        return [_jsonable(v) for v in sorted(value, key=repr)]
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class Span:
    """One interval in the causal tree.  Mutable until finished.

    Spans are created through a :class:`SpanRecorder` (never
    directly); mutation helpers are safe to call from any thread.
    """

    __slots__ = (
        "_recorder", "span_id", "parent_id", "name", "start", "end",
        "tid", "fields", "links",
    )

    def __init__(
        self,
        recorder: "SpanRecorder",
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        tid: int,
        fields: dict,
    ) -> None:
        self._recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.tid = tid
        self.fields = fields
        #: ``(target_span_id, kind)`` causal links.
        self.links: list[tuple[int, str]] = []

    # -- state -------------------------------------------------------------------------

    @property
    def duration(self) -> float | None:
        """Elapsed clock units, or None while still open."""
        return None if self.end is None else self.end - self.start

    @property
    def is_finished(self) -> bool:
        return self.end is not None

    # -- mutation ----------------------------------------------------------------------

    def annotate(self, **fields: object) -> "Span":
        """Merge fields into the span (allowed after finish)."""
        with self._recorder._mutex:
            self.fields.update(fields)
        return self

    def link(self, target: "Span | int", kind: str = "causes") -> "Span":
        """Attach a causal link to another span."""
        target_id = target.span_id if isinstance(target, Span) else target
        with self._recorder._mutex:
            self.links.append((target_id, kind))
        return self

    def finish(self, ts: float | None = None, **fields: object) -> "Span":
        """Close the span (idempotent: the first end timestamp wins)."""
        if ts is None:
            ts = self._recorder.clock()
        with self._recorder._mutex:
            if self.end is None:
                self.end = ts
            if fields:
                self.fields.update(fields)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    # -- serialization -----------------------------------------------------------------

    def to_dict(self) -> dict:
        with self._recorder._mutex:
            return {
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "duration": self.duration,
                "tid": self.tid,
                "fields": {
                    k: _jsonable(v) for k, v in self.fields.items()
                },
                "links": [
                    {"target": target, "kind": kind}
                    for target, kind in self.links
                ],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.is_finished else "open"
        return (
            f"<Span {self.span_id} {self.name!r} parent={self.parent_id} "
            f"{state}>"
        )


class SpanRecorder:
    """Thread-safe bounded recorder of :class:`Span` trees.

    Parameters
    ----------
    capacity:
        Ring size; the oldest spans are evicted (and counted in
        :attr:`dropped`) once it fills.
    clock:
        Monotonic time source; pass a virtual clock when recording a
        discrete-event simulation so spans share the simulator's
        timeline.
    sampler:
        Optional :class:`~repro.obs.sampling.HeadSampler`.  When set,
        each *root* span (no parent) consumes one keep/drop decision;
        dropped roots (and their descendants) return the shared
        :attr:`dropped_span` sentinel and are counted in
        :attr:`sampled_out` instead of entering the ring.
    """

    def __init__(
        self,
        capacity: int = 65_536,
        clock: Callable[[], float] = time.perf_counter,
        sampler: HeadSampler | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.dropped = 0
        self.sampler = sampler
        #: The shared sampled-out sentinel (identity marks the drop).
        self.dropped_span = DroppedSpan()
        #: Spans not recorded because their trace was sampled out.
        self.sampled_out = 0
        self._mutex = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._next_id = 0
        #: txn id -> the span currently carrying that transaction.
        self._txn_spans: dict[str, Span] = {}
        #: Explicit scope stack (cycle/phase spans) for components
        #: that have no parent handle (e.g. the partitioned matcher).
        self._scopes: list[Span] = []
        #: OS thread ident -> small stable lane id for exporters.
        self._lanes: dict[int, int] = {}

    # -- creation ----------------------------------------------------------------------

    def _lane(self) -> int:
        ident = threading.get_ident()
        lane = self._lanes.get(ident)
        if lane is None:
            lane = len(self._lanes)
            self._lanes[ident] = lane
        return lane

    def start(
        self,
        name: str,
        parent: Span | int | None = None,
        ts: float | None = None,
        **fields: object,
    ) -> Span:
        """Open a span; ``parent`` may be a span, an id, or None.

        With a sampler attached, a parentless span consumes one head
        decision; children of a sampled-out span (the
        :class:`DroppedSpan` sentinel or its ``-1`` id) inherit the
        drop.  The sentinel absorbs all mutation as no-ops, so call
        sites never branch on the decision.
        """
        if isinstance(parent, DroppedSpan) or parent == -1:
            # Single int += under the GIL; this is the hot dropped
            # path and must not pay a lock per sampled-out child.
            self.sampled_out += 1
            return self.dropped_span
        if parent is None and self.sampler is not None:
            if not self.sampler.decide():
                self.sampled_out += 1
                return self.dropped_span
        if ts is None:
            ts = self.clock()
        if isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        with self._mutex:
            self._next_id += 1
            span = Span(
                recorder=self,
                span_id=self._next_id,
                parent_id=parent_id,
                name=name,
                start=ts,
                tid=self._lane(),
                fields=dict(fields),
            )
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | int | None = None,
        **fields: object,
    ) -> Span:
        """Add an already-finished span with explicit timestamps.

        The post-hoc entry point for durations measured elsewhere
        (per-shard match times, virtual-time charges).
        """
        span = self.start(name, parent=parent, ts=start, **fields)
        span.finish(ts=end)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: Span | int | None = None,
        scope: bool = False,
        **fields: object,
    ) -> Iterator[Span]:
        """Context-managed span; ``scope=True`` also pushes it on the
        scope stack for the duration of the block."""
        span = self.start(name, parent=parent, **fields)
        if scope:
            self.push_scope(span)
        try:
            yield span
        finally:
            if scope:
                self.pop_scope(span)
            span.finish()

    # -- scope stack -------------------------------------------------------------------

    def push_scope(self, span: Span) -> None:
        with self._mutex:
            self._scopes.append(span)

    def pop_scope(self, span: Span) -> None:
        with self._mutex:
            if span in self._scopes:
                self._scopes.remove(span)

    def current(self) -> Span | None:
        """The innermost scoped span (or None)."""
        with self._mutex:
            return self._scopes[-1] if self._scopes else None

    # -- txn binding -------------------------------------------------------------------

    def bind(self, txn_id: str, span: Span) -> None:
        """Route txn-keyed hooks (locks, faults, rule (ii)) to ``span``.

        Binding a sampled-out sentinel is skipped: ``for_txn`` then
        returns None and txn-keyed hooks short-circuit, which is both
        correct (the trace is dropped) and cheap.
        """
        if isinstance(span, DroppedSpan):
            return
        # Single dict ops are GIL-atomic; no lock on these hot paths.
        self._txn_spans[txn_id] = span

    def unbind(self, txn_id: str) -> None:
        self._txn_spans.pop(txn_id, None)

    def for_txn(self, txn_id: str) -> Span | None:
        return self._txn_spans.get(txn_id)

    def scope_dropped(self) -> bool:
        """True when the active scope's trace was sampled out.

        Instrumented hot loops (the engine's per-candidate span
        creation) use this once per wave to skip span construction
        entirely inside a dropped trace, instead of building kwargs
        for the sentinel to discard span by span.  Suppressed spans do
        not count in :attr:`sampled_out` — that counter tracks spans
        that actually reached the recorder.
        """
        scopes = self._scopes
        return bool(scopes) and scopes[-1].span_id == -1

    # -- inspection --------------------------------------------------------------------

    def spans(self, name: str | None = None) -> list[Span]:
        """Buffered spans (oldest first), optionally filtered by name.

        A ``name`` ending in ``"."`` matches the prefix family
        (``spans("lock.")`` returns grants, waits, denials, ...).
        """
        with self._mutex:
            snapshot = list(self._spans)
        if name is None:
            return snapshot
        if name.endswith("."):
            return [s for s in snapshot if s.name.startswith(name)]
        return [s for s in snapshot if s.name == name]

    def get(self, span_id: int) -> Span | None:
        with self._mutex:
            for span in self._spans:
                if span.span_id == span_id:
                    return span
        return None

    def names(self) -> dict[str, int]:
        """Span counts per name — the quick shape of a span tree."""
        out: dict[str, int] = {}
        for span in self.spans():
            out[span.name] = out.get(span.name, 0) + 1
        return dict(sorted(out.items()))

    def clear(self) -> None:
        with self._mutex:
            self._spans.clear()
            self._txn_spans.clear()
            self._scopes.clear()
            self.dropped = 0
            self.sampled_out = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._spans)

    # -- serialization -----------------------------------------------------------------

    def to_json_lines(self, name: str | None = None) -> str:
        """One JSON object per span, oldest first."""
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self.spans(name)
        )
