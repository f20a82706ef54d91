"""Layer tracing from outside the program under test.

Nothing under ``src/`` is edited: the ``trace_*`` functions replace public
methods *on the instances an engine exposes* with timing proxies, so
each call into a layer becomes a span ``(name, start, end, parent,
cycle)``.  Span names are layer (module) names.  A layer's self time
is its spans' duration minus the part covered by child spans, so the
per-layer self times of one traced run sum to the root span's wall
time by construction; the proxies' own cost lands in the parent's self
time and is reported as ``trace.overhead_ratio``.

Spans stay in memory and are written by the caller when the run ends.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

#: Span names of the traced run; every one is a bucket of the budget.
ROOT = "engine"
CYCLE = "engine.cycle"


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Free-form counters the proxies bump at layer boundaries.
        self.counts: dict[str, int] = defaultdict(int)
        self.cycle = 0
        self._stack: list[list] = []  # [span index, name, start, child seconds]

    def reset(self) -> None:
        """Forget everything recorded so far (call between set-up and
        the run, with no span open)."""
        if self._stack:
            raise RuntimeError("reset with an open span")
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.cycle = 0

    def begin(self, name: str) -> None:
        self._stack.append([len(self.spans), name, 0.0, 0.0])
        self.spans.append(None)
        self._stack[-1][2] = perf_counter()

    def end(self) -> float:
        end = perf_counter()
        index, name, start, children = self._stack.pop()
        duration = end - start
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        self.spans[index] = (name, start, end, parent, self.cycle)
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if stack:
            stack[-1][3] += duration
        return duration

    def timed(self, name: str, fn, note=None):
        """A proxy for ``fn`` that records one ``name`` span per call.

        ``note(args, result)`` runs after the span closes (its cost is
        the parent's), for counts taken at the same boundary.
        """
        begin, end = self.begin, self.end

        def proxy(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if note is not None:
                note(args, result)
            return result

        return proxy

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, cycle."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, cycle = span
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent, "cycle": cycle}
                    )
                    + "\n"
                )


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-name self time recomputed from a span file's rows — the
    independent check on :class:`Tracer`'s online accounting."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += (
            span["end"] - span["start"] - covered[span["id"]]
        )
    return dict(totals)


# ---------------------------------------------------------------------------
# Proxies
# ---------------------------------------------------------------------------

_LISTENER_LAYERS = {
    "UndoLog": "wm.undo",
    "DurableStore": "wm.storage",
}


def trace_memory(tracer: Tracer, memory) -> None:
    """Proxy ``add``/``remove`` (layer ``wm``) and wrap every listener
    subscribed from now on, bucketed by its owner: ``UndoLog`` →
    ``wm.undo``, ``DurableStore`` → ``wm.storage``, anything else (the
    matchers) → ``match``.  Install before the store and engine
    subscribe."""
    memory.add = tracer.timed("wm", memory.add)
    memory.remove = tracer.timed("wm", memory.remove)
    subscribe, unsubscribe = memory.subscribe, memory.unsubscribe
    wrapped: dict = {}

    def traced_subscribe(listener) -> None:
        owner = type(getattr(listener, "__self__", None)).__name__
        layer = _LISTENER_LAYERS.get(owner, "match")

        def note(_args, _result) -> None:
            tracer.counts[layer + ".deltas"] += 1

        proxy = tracer.timed(layer, listener, note)
        wrapped[listener] = proxy
        subscribe(proxy)

    def traced_unsubscribe(listener) -> None:
        unsubscribe(wrapped.pop(listener))

    memory.subscribe = traced_subscribe
    memory.unsubscribe = traced_unsubscribe


class _TracedBatch:
    """``matcher.batch()`` whose exit (the partitioned matcher's flush
    barrier) is a ``match`` span."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc):
        self._tracer.begin("match")
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.end()


def trace_engine(tracer: Tracer, engine) -> None:
    """Install the engine-side proxies on a constructed engine."""
    from repro.match.base import BaseMatcher

    counts = tracer.counts
    matcher = engine.matcher
    conflict_set = matcher.conflict_set

    def note_select(args, _result) -> None:
        counts["strategy.candidates"] += len(args[0])

    engine.strategy.select = tracer.timed(
        "match.strategies", engine.strategy.select, note_select
    )
    conflict_set.eligible = tracer.timed(
        "match.conflict_set", conflict_set.eligible
    )
    if type(matcher).batch is not BaseMatcher.batch:
        batch = matcher.batch
        matcher.batch = lambda: _TracedBatch(tracer, batch())
    engine.executor.execute = tracer.timed(
        "engine.actions", engine.executor.execute
    )

    def open_cycle() -> None:
        tracer.cycle += 1
        counts["cs_peak"] = max(counts["cs_peak"], len(conflict_set))
        tracer.begin(CYCLE)

    if hasattr(engine, "run_wave"):
        run_wave = engine.run_wave

        def traced_wave(*args, **kwargs):
            open_cycle()
            try:
                return run_wave(*args, **kwargs)
            finally:
                tracer.end()

        engine.run_wave = traced_wave
        _trace_scheme(tracer, engine.scheme)
    else:
        # Interpreter.run() is select() then fire(): the cycle span
        # opens in select and closes after fire; the final select that
        # finds nothing closes its own.
        select, fire = engine.select, engine.fire

        def traced_select():
            open_cycle()
            chosen = None
            try:
                chosen = select()
            finally:
                if chosen is None:
                    tracer.end()
            return chosen

        def traced_fire(instantiation):
            try:
                return fire(instantiation)
            finally:
                tracer.end()

        engine.select = traced_select
        engine.fire = traced_fire


def _trace_scheme(tracer: Tracer, scheme) -> None:
    counts = tracer.counts

    def note_request(_args, granted) -> None:
        counts["locks.requests"] += 1
        if not granted:
            counts["locks.denied"] += 1

    def note_commit(_args, outcome) -> None:
        counts["locks.victims"] += len(outcome.victims)

    for name in ("try_lock_condition", "try_lock_action", "try_preclaim"):
        if hasattr(scheme, name):
            setattr(
                scheme, name,
                tracer.timed("locks.acquire", getattr(scheme, name),
                             note_request),
            )
    scheme.commit = tracer.timed("locks.release", scheme.commit, note_commit)
    scheme.abort = tracer.timed("locks.release", scheme.abort)


def trace_process_pool(tracer: Tracer):
    """Time the worker-pool roundtrips (layer ``match.procpool``).

    The pool object is created inside the matcher, so this one proxy
    sits on the class; returns the undo callable."""
    from repro.match.procpool import ProcessPool

    start, replay = ProcessPool.start, ProcessPool.replay
    ProcessPool.start = tracer.timed("match.procpool", start)
    ProcessPool.replay = tracer.timed("match.procpool", replay)

    def undo() -> None:
        ProcessPool.start, ProcessPool.replay = start, replay

    return undo


def count_fsyncs(counts: dict):
    """Count ``os.fsync`` calls into ``counts["fsyncs"]`` while
    installed; returns undo."""
    real = os.fsync

    def counting(fd):
        counts["fsyncs"] += 1
        return real(fd)

    os.fsync = counting

    def undo() -> None:
        os.fsync = real

    return undo
