"""Tests for the causal span layer: tree shape, clocks, links, ring."""

import json
import threading

import pytest

from repro.obs import SpanRecorder
from repro.obs.export import spans_json_lines


def ticker(*values):
    it = iter(values)
    return lambda: next(it)


class TestLifecycle:
    def test_start_finish_duration(self):
        rec = SpanRecorder(clock=ticker(1.0, 4.5))
        span = rec.start("cycle", wave=1)
        assert not span.is_finished
        assert span.duration is None
        span.finish()
        assert span.is_finished
        assert span.duration == pytest.approx(3.5)
        assert span.fields == {"wave": 1}

    def test_finish_is_idempotent_first_end_wins(self):
        rec = SpanRecorder(clock=ticker(1.0, 2.0, 9.0))
        span = rec.start("cycle")
        span.finish()
        span.finish(status="late")
        assert span.end == 2.0
        assert span.fields["status"] == "late"  # fields still merge

    def test_explicit_timestamps_record_post_hoc(self):
        rec = SpanRecorder()
        span = rec.record("lock.acquire", start=5.0, end=7.5, obj="x")
        assert span.start == 5.0
        assert span.duration == pytest.approx(2.5)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


class TestTree:
    def test_parent_by_span_or_id(self):
        rec = SpanRecorder()
        root = rec.start("run")
        by_span = rec.start("cycle", parent=root)
        by_id = rec.start("cycle", parent=root.span_id)
        assert by_span.parent_id == root.span_id
        assert by_id.parent_id == root.span_id

    def test_scope_stack_provides_ambient_parent(self):
        rec = SpanRecorder()
        assert rec.current() is None
        run = rec.start("run")
        rec.push_scope(run)
        assert rec.current() is run
        cycle = rec.start("cycle", parent=rec.current())
        rec.push_scope(cycle)
        assert rec.current() is cycle and cycle.parent_id == run.span_id
        rec.pop_scope(cycle)
        assert rec.current() is run
        rec.pop_scope(run)
        assert rec.current() is None

    def test_leaving_a_scope_leaves_those_left_open_above_it(self):
        rec = SpanRecorder()
        run = rec.start("run")
        rec.push_scope(run)
        rec.push_scope(rec.start("cycle", parent=run))  # never popped
        rec.pop_scope(run)
        assert rec.current() is None

    def test_links_and_events(self):
        rec = SpanRecorder(clock=ticker(1.0, 2.0))
        committer = rec.start("firing", txn="t1")
        victim = rec.start("acquire", txn="t2")
        victim.link(committer, kind="rc_wa_abort")
        # An event is a zero-duration child span.
        deny = rec.record("lock.deny", 3.0, 3.0, parent=victim, obj="x")
        assert victim.links == [(committer.span_id, "rc_wa_abort")]
        assert (deny.parent_id, deny.name, deny.fields) == (
            victim.span_id, "lock.deny", {"obj": "x"},
        )
        assert (deny.start, deny.duration) == (3.0, 0)


class TestTxnBinding:
    def test_bind_lookup_unbind(self):
        rec = SpanRecorder()
        span = rec.start("firing")
        rec.bind("t1", span)
        assert rec.for_txn("t1") is span
        rec.unbind("t1")
        assert rec.for_txn("t1") is None
        rec.unbind("t1")  # idempotent

    def test_rebinding_takes_latest(self):
        rec = SpanRecorder()
        acquire = rec.start("acquire")
        firing = rec.start("firing")
        rec.bind("t1", acquire)
        rec.bind("t1", firing)
        assert rec.for_txn("t1") is firing


class TestRing:
    def test_overflow_drops_oldest_and_counts(self):
        rec = SpanRecorder(capacity=3)
        spans = [rec.start("s", i=i) for i in range(5)]
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [s.fields["i"] for s in rec.spans()] == [2, 3, 4]
        assert rec.get(spans[0].span_id) is None
        assert rec.get(spans[4].span_id) is spans[4]

    def test_clear_resets_everything(self):
        rec = SpanRecorder(capacity=2)
        rec.bind("t1", rec.start("a"))
        rec.start("b")
        rec.start("c")
        rec.clear()
        assert len(rec) == 0
        assert rec.dropped == 0
        assert rec.for_txn("t1") is None


class TestFiltering:
    def test_name_and_prefix_filters(self):
        rec = SpanRecorder()
        rec.start("lock.acquire")
        rec.start("lock.acquire")
        rec.start("phase.match")
        assert len(rec.spans("lock.acquire")) == 2
        assert len(rec.spans("lock.")) == 2
        assert len(rec.spans("phase.")) == 1
        assert rec.names() == {"lock.acquire": 2, "phase.match": 1}


class TestLanes:
    def test_each_thread_gets_a_stable_small_tid(self):
        rec = SpanRecorder()
        main = rec.start("a").tid
        seen = []

        def worker():
            seen.append(rec.start("b").tid)
            seen.append(rec.start("c").tid)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert main == 0
        assert seen == [1, 1]


class TestSerialization:
    def test_to_dict_is_jsonable(self):
        rec = SpanRecorder(clock=ticker(1.0, 2.0))
        span = rec.start(
            "firing", rule="r", objs=("a", {"b"}), payload={"k": {2, 1}},
        )
        span.link(span, kind="self")
        span.finish()
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["name"] == "firing"
        assert payload["fields"]["objs"] == ["a", ["b"]]
        # Sets become sorted lists.
        assert payload["fields"]["payload"] == {"k": [1, 2]}
        assert payload["links"] == [
            {"target": span.span_id, "kind": "self"}
        ]

    def test_json_lines_round_trip(self):
        rec = SpanRecorder()
        rec.record("cycle", start=0.0, end=1.0, wave=1)
        rec.record("firing", start=0.1, end=0.9, rule="r")
        rows = [
            json.loads(line)
            for line in spans_json_lines(rec).splitlines()
        ]
        assert [r["name"] for r in rows] == ["cycle", "firing"]
        assert rows[0]["duration"] == pytest.approx(1.0)
