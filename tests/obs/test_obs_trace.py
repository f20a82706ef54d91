"""Tests for trace events on the span recorder.

An event is a zero-duration span: ``SpanRecorder.record(name, ts, ts)``.
"""

import json
import threading

from repro.obs import SpanRecorder


class TestEmission:
    def test_emit_at_takes_virtual_time(self):
        # A virtual-time event on a wall-clock recorder: the explicit
        # timestamp is kept as given, never mixed with the wall clock.
        rec = SpanRecorder()
        event = rec.record("sim.commit", start=42.5, end=42.5, pid="P1")
        assert (event.start, event.end, event.duration) == (42.5, 42.5, 0)
        assert event.fields == {"pid": "P1"}


class TestRingBuffer:
    def test_loss_accounting_under_concurrent_overflow(self):
        """recorded == buffered + dropped, exactly, with many threads
        overflowing one small ring at once."""
        threads, per_thread, capacity = 8, 500, 64
        rec = SpanRecorder(capacity=capacity)
        barrier = threading.Barrier(threads)

        def record(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                rec.record("lock.deny", 0.0, 0.0, worker=worker, i=i)

        pool = [
            threading.Thread(target=record, args=(w,))
            for w in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(rec) == capacity
        assert rec.dropped == threads * per_thread - capacity
        # Span ids never collide even under contention.
        assert len({s.span_id for s in rec.spans()}) == capacity


class TestJson:
    def test_non_jsonable_fields_fall_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        rec = SpanRecorder()
        rec.record("e", 1.0, 1.0, thing=Weird())
        payload = json.loads(rec.to_json_lines())
        assert payload["fields"]["thing"] == "<weird>"
