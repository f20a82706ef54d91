"""Tests for counters, gauges, histograms and the registry."""

import json
import sys
import threading

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_tracks_high_watermark(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max == 7


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 1000.0):
            hist.observe(value)
        snap = hist.snapshot()
        # <=1.0 : 0.5 and 1.0; <=10: 5.0; <=100: 50; +inf: 1000.
        assert snap["buckets"] == {
            "1": 2, "10": 1, "100": 1, "+inf": 1,
        }
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(1056.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 1000.0

    def test_mean_of_empty_histogram_is_zero(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.mean == 0.0
        assert hist.snapshot()["min"] is None

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h", COUNT_BUCKETS) is registry.histogram(
            "h"
        )

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_covers_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2)
        registry.histogram("c", (1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert set(snap) == {"a", "b", "c"}
        assert snap["a"] == {"type": "counter", "value": 1}
        assert snap["b"]["type"] == "gauge"
        assert snap["c"]["type"] == "histogram"

    def test_to_json_parses(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        payload = json.loads(registry.to_json())
        assert payload["a"]["value"] == 3

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]


def _hammer(threads: int, iterations: int, work) -> None:
    """Run ``work(thread_index)`` concurrently from a common barrier."""
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def body(index: int) -> None:
        try:
            barrier.wait()
            for _ in range(iterations):
                work(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [
        threading.Thread(target=body, args=(i,)) for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors


class TestConcurrency:
    """Instruments are updated directly by worker threads (the
    threaded wave executor, match shards); an unlocked read-modify-
    write would drop updates under contention.  These pin the
    per-instrument lock with exact-total assertions."""

    THREADS = 8
    ITERS = 2_000

    def test_counter_inc_is_atomic(self):
        counter = MetricsRegistry().counter("c")
        _hammer(self.THREADS, self.ITERS, lambda i: counter.inc())
        assert counter.value == self.THREADS * self.ITERS

    def test_counter_inc_amounts_are_atomic(self):
        counter = MetricsRegistry().counter("c")
        _hammer(self.THREADS, self.ITERS, lambda i: counter.inc(i + 1))
        expected = self.ITERS * sum(
            range(1, self.THREADS + 1)
        )
        assert counter.value == expected

    def test_histogram_observe_keeps_exact_totals(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        _hammer(
            self.THREADS, self.ITERS,
            lambda i: hist.observe(float(i)),
        )
        snap = hist.snapshot()
        total = self.THREADS * self.ITERS
        assert snap["count"] == total
        assert sum(snap["buckets"].values()) == total
        assert snap["sum"] == pytest.approx(
            self.ITERS * sum(range(self.THREADS))
        )
        assert snap["min"] == 0.0
        assert snap["max"] == float(self.THREADS - 1)

    def test_gauge_watermark_never_regresses(self):
        gauge = MetricsRegistry().gauge("g")
        _hammer(
            self.THREADS, self.ITERS, lambda i: gauge.set(float(i))
        )
        assert gauge.max == float(self.THREADS - 1)
        assert 0.0 <= gauge.value <= gauge.max

    def test_slots_still_reject_new_attributes(self):
        # The lock must not have cost the instruments __slots__.
        counter = MetricsRegistry().counter("c")
        with pytest.raises(AttributeError):
            counter.arbitrary = 1
        assert not hasattr(counter, "__dict__")


class TestQuantileSketch:
    def test_exact_quantiles_below_budget(self):
        sketch = QuantileSketch("s", budget=512)
        for v in range(1, 101):
            sketch.observe(float(v))
        # Reservoir holds everything: nearest-rank quantiles are exact.
        assert sketch.quantile(0.5) == 50.0
        assert sketch.quantile(0.95) == 95.0
        assert sketch.quantile(0.99) == 99.0

    def test_memory_is_fixed_past_budget(self):
        sketch = QuantileSketch("s", budget=64)
        for v in range(10_000):
            sketch.observe(float(v))
        assert len(sketch._values) == 64
        assert sketch.count == 10_000

    def test_estimates_stay_accurate_past_budget(self):
        sketch = QuantileSketch("s", budget=512)
        for v in range(1, 10_001):
            sketch.observe(float(v))
        # Rank-space standard error at k=512 is ~1 percentile point;
        # allow 5 for a deterministic single draw.
        assert sketch.quantile(0.5) == pytest.approx(5000, rel=0.10)
        assert sketch.quantile(0.99) / 10_000 > 0.94

    def test_deterministic_by_name(self):
        a = QuantileSketch("same-name", budget=32)
        b = QuantileSketch("same-name", budget=32)
        c = QuantileSketch("other-name", budget=32)
        for v in range(2_000):
            a.observe(float(v))
            b.observe(float(v))
            c.observe(float(v))
        assert a._values == b._values
        assert a._values != c._values

    def test_snapshot_shape(self):
        sketch = QuantileSketch("s")
        sketch.observe(1.0)
        sketch.observe(3.0)
        snap = sketch.snapshot()
        assert snap["type"] == "sketch"
        assert snap["count"] == 2
        assert snap["sum"] == 4.0
        assert snap["mean"] == 2.0
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert set(snap["quantiles"]) == {"0.5", "0.9", "0.95", "0.99"}
        json.dumps(snap)

    def test_empty_snapshot(self):
        snap = QuantileSketch("s").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert all(v is None for v in snap["quantiles"].values())

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch("s", budget=0)
        with pytest.raises(ValueError):
            QuantileSketch("s", quantiles=(0.5, 1.0))

    def test_registry_factory_idempotent_and_typed(self):
        registry = MetricsRegistry()
        sketch = registry.sketch("lat")
        assert registry.sketch("lat") is sketch
        with pytest.raises(Exception):
            registry.counter("lat")

    def test_concurrent_observe_keeps_exact_totals(self):
        sketch = QuantileSketch("s", budget=128)
        _hammer(8, 2_000, lambda i: sketch.observe(float(i)))
        assert sketch.count == 16_000
        assert len(sketch._values) == 128


class TestRegistryRaces:
    """Registration-vs-snapshot races: the copy-on-write registry must
    never let a reader see a half-registered instrument or raise from
    a dict mutated mid-iteration."""

    THREADS = 8
    ITERS = 400
    #: Snapshots per reader: each walks every instrument registered so
    #: far, so the readers, not the writers, set this test's run time.
    READS = 25

    def test_register_while_snapshotting(self):
        registry = MetricsRegistry()
        registry.counter("warm")  # non-empty from the start

        def work(index):
            n = work.counts[index] = work.counts.get(index, 0) + 1
            if index % 2 == 0:
                # Writers: register fresh instruments and bump them.
                registry.counter(f"c-{index}-{n}").inc()
                registry.sketch(f"s-{index}-{n}").observe(1.0)
            elif n <= self.READS:
                # Readers: snapshot/names/get concurrently.
                snap = registry.snapshot()
                assert "warm" in snap
                for name, data in snap.items():
                    assert "type" in data, name
                registry.names()
                registry.get("warm").snapshot()

        work.counts = {}
        # Switch threads every 0.1 ms instead of every 5 ms: a writer
        # is then often preempted between copying the instrument table
        # and publishing the copy, the window the registry mutex
        # closes, and the hammer spends no time queued behind a
        # preempted mutex holder.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            _hammer(self.THREADS, self.ITERS, work)
        finally:
            sys.setswitchinterval(interval)
        # Every writer registration landed exactly once.
        snap = registry.snapshot()
        writers = self.THREADS // 2
        expected = 1 + 2 * writers * self.ITERS
        assert len(snap) == expected
        for index in range(0, self.THREADS, 2):
            for n in range(1, self.ITERS + 1):
                assert snap[f"c-{index}-{n}"]["value"] == 1

    def test_get_or_create_single_instance_under_race(self):
        registry = MetricsRegistry()
        seen = []

        def work(index):
            seen.append(registry.counter("shared"))

        _hammer(self.THREADS, 50, work)
        assert len(set(map(id, seen))) == 1
