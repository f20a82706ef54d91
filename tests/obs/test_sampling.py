"""Head-based sampling: determinism, coherence, ring interaction."""

import pytest

import repro.obs as obs
from repro.engine import ParallelEngine
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.obs.sampling import DroppedSpan, HeadSampler
from repro.obs.spans import SpanRecorder
from repro.wm import WorkingMemory


def consume_rules():
    return [
        RuleBuilder("consume")
        .when("item", id=var("i"))
        .remove(1)
        .build()
    ]


def item_memory(n):
    wm = WorkingMemory()
    for i in range(n):
        wm.make("item", id=i)
    return wm


class TestHeadSampler:
    def test_decision_is_pure_function_of_seed_rate_index(self):
        a = HeadSampler(rate=0.3, seed=42)
        b = HeadSampler(rate=0.3, seed=42)
        assert [a.keep(i) for i in range(200)] == [
            b.keep(i) for i in range(200)
        ]

    def test_pinned_keep_set(self):
        # Frozen decision stream: seed 0, rate 0.1, first 40 roots.
        # If this pin moves, sampled traces stop being reproducible
        # across versions — treat any change as breaking.
        sampler = HeadSampler(rate=0.1, seed=0)
        kept = [i for i in range(40) if sampler.keep(i)]
        assert kept == [3, 7, 18, 23, 24, 31, 37]

    def test_different_seeds_differ(self):
        a = HeadSampler(rate=0.5, seed=1)
        b = HeadSampler(rate=0.5, seed=2)
        decisions_a = [a.keep(i) for i in range(64)]
        decisions_b = [b.keep(i) for i in range(64)]
        assert decisions_a != decisions_b

    def test_rate_extremes(self):
        keep_all = HeadSampler(rate=1.0, seed=0)
        drop_all = HeadSampler(rate=0.0, seed=0)
        assert all(keep_all.keep(i) for i in range(32))
        assert not any(drop_all.keep(i) for i in range(32))

    def test_empirical_rate_tracks_configured_rate(self):
        sampler = HeadSampler(rate=0.2, seed=7)
        kept = sum(sampler.keep(i) for i in range(5000))
        assert kept == pytest.approx(1000, rel=0.15)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            HeadSampler(rate=1.5)
        with pytest.raises(ValueError):
            HeadSampler(rate=-0.1)

    def test_decide_consumes_indices_and_counts(self):
        sampler = HeadSampler(rate=0.5, seed=3)
        # decide() pre-increments: the first root is index 1.
        expected = [sampler.keep(i) for i in range(1, 21)]
        got = [sampler.decide() for _ in range(20)]
        assert got == expected
        assert sampler.decisions == 20
        assert sampler.kept == sum(expected)

    def test_reset_replays_the_same_stream(self):
        sampler = HeadSampler(rate=0.5, seed=3)
        first = [sampler.decide() for _ in range(10)]
        sampler.reset()
        assert [sampler.decide() for _ in range(10)] == first


class TestRecorderSampling:
    def test_children_of_dropped_root_are_dropped(self):
        rec = SpanRecorder(sampler=HeadSampler(rate=0.0))
        root = rec.start("run")
        child = rec.start("cycle", parent=root)
        grandchild = rec.start("firing", parent=child)
        assert isinstance(root, DroppedSpan)
        assert child is root and grandchild is root
        assert rec.spans() == []
        assert rec.sampled_out == 3

    def test_kept_root_keeps_the_whole_subtree(self):
        rec = SpanRecorder(sampler=HeadSampler(rate=1.0))
        root = rec.start("run")
        child = rec.start("cycle", parent=root)
        assert not isinstance(root, DroppedSpan)
        assert not isinstance(child, DroppedSpan)
        assert len(rec.spans()) == 2
        assert rec.sampled_out == 0

    def test_dropped_sentinel_absorbs_mutation(self):
        rec = SpanRecorder(sampler=HeadSampler(rate=0.0))
        span = rec.start("run")
        span.annotate(status="committed")
        span.finish()
        with span:
            pass
        assert span.span_id == -1
        assert rec.spans() == []

    def test_no_half_dropped_subtree_in_engine_run(self):
        """Every recorded span's parent chain is recorded too."""
        observer = obs.Observer(level="sampled", sample_rate=0.5,
                                sample_seed=11)
        for _ in range(20):
            engine = ParallelEngine(
                consume_rules(), item_memory(4), scheme="rc",
                observer=observer,
            )
            engine.run()
        spans = observer.spans.spans()
        by_id = {s.span_id for s in spans}
        orphans = [
            s for s in spans
            if s.parent_id is not None and s.parent_id not in by_id
        ]
        assert spans, "rate 0.5 over 20 runs should keep something"
        assert orphans == []

    def test_engine_runs_are_deterministically_sampled(self):
        """Same seed + rate => identical sampled span sets, run for run.

        An event never starts a trace: the parentless events between
        runs spend no head decision, so the kept runs are the ones a
        run-only stream keeps.
        """
        def record(seed):
            observer = obs.Observer(
                level="sampled", sample_rate=0.3, sample_seed=seed
            )
            kept = []
            for run in range(1, 13):
                before = len(observer.spans.spans("run"))
                ParallelEngine(
                    consume_rules(), item_memory(3), scheme="rc",
                    observer=observer,
                ).run()
                if len(observer.spans.spans("run")) > before:
                    kept.append(run)
                observer.segment_rotated("wal-1.jsonl", records=1, bytes_=1)
                observer.retry_exhausted("consume", 3, "injected lock denial")
            assert observer.sampler.decisions == 12
            shapes = [
                (s.name, s.parent_id is None) for s in observer.spans.spans()
            ]
            return shapes, kept

        first, kept_first = record(seed=5)
        second, kept_second = record(seed=5)
        _, kept_third = record(seed=6)
        assert first == second
        assert kept_first == kept_second == [2, 4, 8, 10]
        # A different seed keeps a different subset of the 12 runs.
        assert kept_third == [2, 4, 7, 10]

    def test_aggregates_see_every_run_despite_sampling(self):
        """Sampling drops causal detail, never totals."""
        observer = obs.Observer(level="sampled", sample_rate=0.0)
        engine = ParallelEngine(
            consume_rules(), item_memory(5), scheme="rc",
            observer=observer,
        )
        engine.run()
        snap = observer.metrics.snapshot()
        assert snap["firing.committed"]["value"] == 5
        assert observer.spans.spans() == []
        assert observer.profiler.coverage() is not None


class TestRingOverflowUnderSampling:
    def test_exact_accounting_of_ring_drops_and_sampled_out(self):
        """Ring eviction and sampling drops are counted separately and
        exactly; a kept trace's subtree is never half-dropped by the
        sampler."""
        rec = SpanRecorder(capacity=8, sampler=HeadSampler(rate=0.5,
                                                           seed=9))
        kept_roots = 0
        sampled_roots = 0
        started = 0
        for i in range(50):
            root = rec.start("run", run=i)
            if isinstance(root, DroppedSpan):
                sampled_roots += 1
                # The whole subtree inherits the drop.
                assert rec.start("cycle", parent=root) is root
                sampled_roots += 1
            else:
                kept_roots += 1
                child = rec.start("cycle", parent=root)
                assert not isinstance(child, DroppedSpan)
                started += 2
                child.finish()
                root.finish()
        # Sampling accounting is exact: every sampled-out span counted.
        assert rec.sampled_out == sampled_roots
        replay = HeadSampler(rate=0.5, seed=9)
        expected_kept = sum(replay.decide() for _ in range(50))
        assert kept_roots == expected_kept
        # Ring accounting is exact: whatever exceeded capacity was
        # evicted oldest-first and counted in ``dropped``.
        assert len(rec.spans()) == min(8, started)
        assert rec.dropped == started - min(8, started)

    def test_clear_resets_sampling_counters(self):
        rec = SpanRecorder(capacity=4, sampler=HeadSampler(rate=0.0))
        rec.start("run")
        assert rec.sampled_out == 1
        rec.clear()
        assert rec.sampled_out == 0
        assert rec.spans() == []
