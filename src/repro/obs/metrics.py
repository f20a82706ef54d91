"""Counters, gauges and fixed-bucket histograms with JSON snapshots.

The aggregate side of the observability layer: where the trace records
*what happened when*, the metrics registry keeps the running totals
the Section 5 figures are made of — lock-wait time distributions, wave
widths, abort/defer/commit rates, match latency, queue depth.

Instruments are deliberately minimal (Prometheus-shaped, no labels):

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — last-set value plus high-watermark (queue depths);
* :class:`Histogram` — fixed upper-bound buckets with count/sum, so a
  snapshot is O(buckets) regardless of how many observations flowed
  through the hot path;
* :class:`QuantileSketch` — a fixed-budget reservoir with
  deterministic seeding, the always-on percentile instrument
  (p50/p95/p99 of cycle latency, lock wait, firing duration, ...)
  whose memory never grows past its budget.

A :class:`MetricsRegistry` owns the instruments by name and produces
one JSON-able snapshot of everything — the payload ``repro obs export
--format prom`` renders and the benchmark harness archives next to its
``BENCH_*.json`` results.  Registration is copy-on-write: readers (``snapshot``,
``names``, ``get``) dereference one immutable dict and never take the
registry mutex, so a scrape racing a ``_get_or_create`` on another
thread always sees a consistent instrument table.
"""

from __future__ import annotations

import json
import random
import threading
import zlib
from bisect import bisect_left
from typing import Sequence

#: Default histogram buckets for durations in seconds: exponential
#: from 1 microsecond to 10 s (lock waits and match latencies at test
#: and bench scale land comfortably inside).
TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for small cardinalities (wave width, queue depth).
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Counter:
    """A monotonically increasing total.

    ``inc`` runs under a per-instrument lock: worker threads (the
    threaded wave executor, partitioned match shards) update shared
    instruments directly, and an unlocked read-modify-write would
    drop increments under contention.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; remembers its high watermark."""

    __slots__ = ("name", "value", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "gauge", "value": self.value, "max": self.max}


class Histogram:
    """Fixed cumulative-style buckets (counts per upper bound).

    ``buckets`` are strictly increasing upper bounds; observations
    above the last bound land in the implicit ``+inf`` bucket.  Counts
    here are *per-bucket* (not cumulative); the snapshot carries the
    bounds so consumers can cumulate either way.
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "sum", "min", "max", "_lock",
    )

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram {name}: bounds must be strictly increasing, "
                f"got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            buckets = {
                f"{bound:g}": count
                for bound, count in zip(self.bounds, self.counts)
            }
            buckets["+inf"] = self.counts[-1]
            return {
                "type": "histogram",
                "count": self.count,
                "sum": self.sum,
                "mean": self.mean,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "buckets": buckets,
            }


#: Quantiles every sketch reports by default.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

#: Default reservoir budget.  Rank-space standard error for quantile q
#: is ~sqrt(q(1-q)/k); at k = 512 the p95 estimate sits within ~1
#: percentile rank and p99 within ~0.5 — plenty for health thresholds
#: and dashboard percentiles at a fixed 4 KiB of floats.
DEFAULT_SKETCH_BUDGET = 512


class QuantileSketch:
    """Fixed-memory streaming quantiles: a seeded reservoir (Vitter's
    algorithm R).

    The always-on counterpart of :class:`Histogram`: where the
    histogram answers "how many landed under each bound", the sketch
    answers "what is p99" without pre-chosen bounds.  Memory is fixed
    at ``budget`` floats; every observation past the budget replaces a
    uniformly random resident.

    Seeding is **deterministic by name** (CRC32 of the instrument
    name unless an explicit seed is given), so the same observation
    stream produces the same reservoir — and therefore the same
    reported percentiles — across runs.  That keeps sampled
    benchmarks and golden tests reproducible.
    """

    __slots__ = (
        "name", "budget", "quantiles", "count", "sum", "min", "max",
        "_values", "_rng", "_lock",
    )

    def __init__(
        self,
        name: str,
        budget: int = DEFAULT_SKETCH_BUDGET,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        seed: int | None = None,
    ) -> None:
        if budget < 1:
            raise ValueError(
                f"sketch {name}: budget must be >= 1, got {budget}"
            )
        qs = tuple(float(q) for q in quantiles)
        if any(not 0.0 < q < 1.0 for q in qs):
            raise ValueError(
                f"sketch {name}: quantiles must be in (0, 1), got {qs}"
            )
        self.name = name
        self.budget = budget
        self.quantiles = qs
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: list[float] = []
        self._rng = random.Random(
            zlib.crc32(name.encode("utf-8")) if seed is None else seed
        )
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._values) < self.budget:
                self._values.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.budget:
                    self._values[slot] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Nearest-rank estimate of quantile ``q`` (None when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._values:
                return None
            ordered = sorted(self._values)
        rank = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
        if q >= 1.0:
            rank = len(ordered) - 1
        return ordered[rank]

    def snapshot(self) -> dict:
        with self._lock:
            ordered = sorted(self._values)
            count, total = self.count, self.sum
            vmin = self.min if self.count else None
            vmax = self.max if self.count else None
        estimates: dict[str, float | None] = {}
        for q in self.quantiles:
            if not ordered:
                estimates[f"{q:g}"] = None
                continue
            rank = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
            estimates[f"{q:g}"] = ordered[rank]
        return {
            "type": "sketch",
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": vmin,
            "max": vmax,
            "budget": self.budget,
            "quantiles": estimates,
        }


Instrument = "Counter | Gauge | Histogram | QuantileSketch"


class MetricsRegistry:
    """Named instruments with idempotent creation and one snapshot.

    ``counter``/``gauge``/``histogram``/``sketch`` return the existing
    instrument when the name is already registered (so call sites need
    no create-or-lookup dance); asking for a name under a different
    instrument type is a bug and raises.

    Thread contract: the instrument table is **copy-on-write** — a
    writer inside ``_get_or_create`` builds a new dict and publishes
    it with one reference assignment, so ``snapshot()``, ``names()``
    and ``get()`` read a single immutable table without taking the
    mutex.  A scrape that races registration sees either the table
    before or after the new instrument, never a half-updated view
    (pinned by the register-while-snapshot hammer test).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._mutex = threading.Lock()

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Sequence[float] = TIME_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets)
        )

    def sketch(
        self,
        name: str,
        budget: int = DEFAULT_SKETCH_BUDGET,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> QuantileSketch:
        return self._get_or_create(
            name,
            QuantileSketch,
            lambda: QuantileSketch(name, budget=budget, quantiles=quantiles),
        )

    def _get_or_create(self, name, cls, factory):
        # Lock-free fast path: one atomic read of the published table.
        existing = self._instruments.get(name)
        if existing is None:
            with self._mutex:
                existing = self._instruments.get(name)
                if existing is None:
                    instrument = factory()
                    updated = dict(self._instruments)
                    updated[name] = instrument
                    # One reference assignment publishes the new table.
                    self._instruments = updated
                    return instrument
        if not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, not {cls.__name__}"
            )
        return existing

    def get(self, name: str):
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """All instruments as one JSON-able mapping, sorted by name.

        Iterates one published table: concurrent registrations land in
        a *replacement* dict, so the iteration can never see a
        mid-mutation view.
        """
        items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
