"""Tests for the exporters: Chrome trace_event, Prometheus, JSONL."""

import json

import pytest

from repro.obs import MetricsRegistry, SpanRecorder
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    load_spans_json_lines,
    prometheus_text,
    spans_json_lines,
)


def recorder_with_tree():
    rec = SpanRecorder()
    run = rec.record("run", start=1.0, end=2.0)
    cycle = rec.record("cycle", start=1.0, end=1.9, parent=run, wave=1)
    firing = rec.record(
        "firing", start=1.2, end=1.8, parent=cycle, rule="toggle",
        txn="t1",
    )
    victim = rec.record(
        "acquire", start=1.1, end=1.15, parent=cycle, rule="observe",
        txn="t2",
    )
    victim.link(firing, kind="rc_wa_abort")
    rec.record("rc.rule_ii_abort", 1.8, 1.8, parent=firing, victim="t2")
    return rec, run, cycle, firing, victim


class TestChromeTrace:
    def test_complete_events_rebased_to_microseconds(self):
        rec, run, cycle, firing, victim = recorder_with_tree()
        doc = chrome_trace(rec)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in slices}
        assert by_name["run"]["ts"] == 0.0
        assert by_name["run"]["dur"] == pytest.approx(1e6)
        assert by_name["firing[toggle]"]["ts"] == pytest.approx(0.2e6)
        assert by_name["firing[toggle]"]["dur"] == pytest.approx(0.6e6)
        assert by_name["firing[toggle]"]["args"]["parent_id"] == (
            cycle.span_id
        )

    def test_links_become_flow_arrows_cause_to_effect(self):
        rec, run, cycle, firing, victim = recorder_with_tree()
        doc = chrome_trace(rec)
        flows = [
            e for e in doc["traceEvents"] if e["ph"] in ("s", "f")
        ]
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        end = next(e for e in flows if e["ph"] == "f")
        # Arrow starts at the committer (the cause)...
        assert start["args"]["from"] == firing.span_id
        assert start["ts"] == pytest.approx(0.8e6)
        # ...and lands on the victim.
        assert end["args"]["to"] == victim.span_id
        assert start["id"] == end["id"]

    def test_span_events_become_instants(self):
        rec, run, cycle, firing, victim = recorder_with_tree()
        doc = chrome_trace(rec)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["rc.rule_ii_abort"]
        assert instants[0]["ts"] == pytest.approx(0.8e6)
        assert instants[0]["args"]["parent_id"] == firing.span_id

    def test_unfinished_spans_are_skipped_as_slices(self):
        rec = SpanRecorder()
        rec.start("open")
        doc = chrome_trace(rec)
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_metadata_and_json_form(self):
        rec, *_ = recorder_with_tree()
        doc = json.loads(chrome_trace_json(rec, process_name="demo"))
        meta = doc["traceEvents"][0]
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "demo"

    def test_empty_recorder_still_loads(self):
        doc = chrome_trace(SpanRecorder())
        assert doc["traceEvents"][0]["ph"] == "M"


class TestPrometheus:
    def test_counter_gauge_histogram_shapes(self):
        registry = MetricsRegistry()
        registry.counter("txn.commits").inc(3)
        gauge = registry.gauge("lock.queue_depth")
        gauge.set(2)
        gauge.set(1)
        hist = registry.histogram("lock.wait_seconds", (0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert "repro_txn_commits_total 3" in lines
        assert "repro_lock_queue_depth 1" in lines
        assert "repro_lock_queue_depth_max 2" in lines
        # Cumulative le buckets: 1 below 0.1, 2 below 1.0, 3 total.
        assert 'repro_lock_wait_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_lock_wait_seconds_bucket{le="1"} 2' in lines
        assert 'repro_lock_wait_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_lock_wait_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_accepts_a_plain_snapshot_dict(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert prometheus_text(registry.snapshot()) == prometheus_text(
            registry
        )

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("rc.rule-ii aborts").inc()
        text = prometheus_text(registry)
        assert "repro_rc_rule_ii_aborts_total 1" in text


class TestJsonLines:
    def test_round_trip_through_load(self):
        rec, *_ = recorder_with_tree()
        dump = spans_json_lines(rec)
        rows = load_spans_json_lines(dump)
        assert len(rows) == len(rec.spans())
        names = {r["name"] for r in rows}
        assert names == {
            "run", "cycle", "firing", "acquire", "rc.rule_ii_abort"
        }
        victim = next(r for r in rows if r["name"] == "acquire")
        assert victim["links"][0]["kind"] == "rc_wa_abort"

    def test_blank_lines_ignored_on_load(self):
        assert load_spans_json_lines("\n\n") == []


class TestPrometheusConformance:
    """Golden-parse check: the whole exposition must be machine-readable
    by the grammar Prometheus scrapers expect — `# TYPE` comments,
    `name{label="v"} value` samples, cumulative monotone `le` buckets
    ending in `+Inf`, and `_sum`/`_count` pairs for histograms and
    summaries."""

    def exposition(self):
        registry = MetricsRegistry()
        registry.counter("firing.committed").inc(7)
        registry.gauge("wave.width").set(4)
        hist = registry.histogram("cycle.seconds", (0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        sketch = registry.sketch("lock.wait_seconds.q")
        for value in range(1, 101):
            sketch.observe(value / 100.0)
        return prometheus_text(registry)

    @staticmethod
    def parse(text):
        """A minimal scraper: {series_key: float} plus declared types."""
        samples = {}
        types = {}
        for line in text.splitlines():
            assert line == line.strip(), f"stray whitespace: {line!r}"
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                types[name] = kind
                continue
            assert not line.startswith("#"), f"unexpected comment {line!r}"
            key, _, value = line.rpartition(" ")
            assert key, f"sample without a name: {line!r}"
            if "{" in key:
                name, _, labels = key.partition("{")
                assert labels.endswith("}")
                for pair in labels[:-1].split(","):
                    label, _, quoted = pair.partition("=")
                    assert label.isidentifier(), line
                    assert quoted.startswith('"') and quoted.endswith('"')
            samples[key] = float(value)
        return samples, types

    def test_whole_exposition_parses(self):
        samples, types = self.parse(self.exposition())
        assert types["repro_firing_committed_total"] == "counter"
        assert types["repro_wave_width"] == "gauge"
        assert types["repro_cycle_seconds"] == "histogram"
        assert types["repro_lock_wait_seconds_q"] == "summary"
        assert samples["repro_firing_committed_total"] == 7.0

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        samples, _ = self.parse(self.exposition())
        series = [
            (key, value) for key, value in samples.items()
            if key.startswith("repro_cycle_seconds_bucket")
        ]
        # Declared bounds in order, then the mandatory +Inf catch-all.
        keys = [key for key, _ in series]
        assert keys == [
            'repro_cycle_seconds_bucket{le="0.01"}',
            'repro_cycle_seconds_bucket{le="0.1"}',
            'repro_cycle_seconds_bucket{le="1"}',
            'repro_cycle_seconds_bucket{le="+Inf"}',
        ]
        counts = [value for _, value in series]
        assert counts == sorted(counts), "le buckets must be cumulative"
        assert counts == [1.0, 2.0, 3.0, 4.0]
        assert samples["repro_cycle_seconds_count"] == 4.0
        assert samples["repro_cycle_seconds_sum"] == pytest.approx(5.555)

    def test_sketch_exports_as_summary_with_quantile_labels(self):
        samples, _ = self.parse(self.exposition())
        q = {
            key: value for key, value in samples.items()
            if key.startswith('repro_lock_wait_seconds_q{')
        }
        assert set(q) == {
            'repro_lock_wait_seconds_q{quantile="0.5"}',
            'repro_lock_wait_seconds_q{quantile="0.9"}',
            'repro_lock_wait_seconds_q{quantile="0.95"}',
            'repro_lock_wait_seconds_q{quantile="0.99"}',
        }
        # 100 observations fit the reservoir: quantiles are exact.
        assert q['repro_lock_wait_seconds_q{quantile="0.5"}'] == 0.5
        assert q['repro_lock_wait_seconds_q{quantile="0.99"}'] == 0.99
        assert samples["repro_lock_wait_seconds_q_count"] == 100.0
        assert samples["repro_lock_wait_seconds_q_sum"] == pytest.approx(
            50.5
        )

    def test_empty_sketch_serializes_quantiles_as_nan(self):
        registry = MetricsRegistry()
        registry.sketch("idle")
        text = prometheus_text(registry)
        assert 'repro_idle{quantile="0.5"} NaN' in text.splitlines()
