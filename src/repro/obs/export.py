"""Exporters: Chrome trace-event JSON, Prometheus text, JSONL spans.

The bridge from the in-process observability state to standard
tooling:

* :func:`chrome_trace` / :func:`chrome_trace_json` — the Chrome
  ``trace_event`` format (``chrome://tracing`` / Perfetto): each
  finished span becomes a complete (``"ph": "X"``) event on its
  recorder lane, a zero-duration span (a point event) an instant
  (``"ph": "i"``), and causal links become flow (``"s"``/``"f"``)
  arrows — so a rule-(ii) abort renders as an arrow from the
  committing Wa firing to its victim.
* :func:`prometheus_text` — the Prometheus text exposition format for
  a :class:`~repro.obs.metrics.MetricsRegistry` snapshot (counters as
  ``_total``, histograms with cumulative ``le`` buckets), scrapeable
  or pushable as-is.
* :func:`spans_json_lines` — one JSON object per span, the archival
  format ``repro obs export --format jsonl`` emits and the
  critical-path analysis re-reads.

Timestamps: span clocks are seconds (wall or virtual); the Chrome
format wants microseconds, so spans are rebased to the earliest start
and scaled by 1e6 — virtual-time traces render on the same viewer.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder

_SECONDS_TO_US = 1e6


def _spans_of(source: "SpanRecorder | Iterable[Span]") -> list[Span]:
    if isinstance(source, SpanRecorder):
        return source.spans()
    return list(source)


# -- Chrome trace_event ------------------------------------------------------------------


def chrome_trace(
    source: "SpanRecorder | Iterable[Span]",
    process_name: str = "repro",
) -> dict:
    """Spans as a Chrome ``trace_event`` document (JSON-able dict).

    Loads in ``chrome://tracing`` and Perfetto.  Finished spans
    become duration slices, zero-duration ones instants; open spans
    are skipped.
    """
    spans = _spans_of(source)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    if not spans:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    base = min(s.start for s in spans)

    def us(ts: float) -> float:
        return round((ts - base) * _SECONDS_TO_US, 3)

    flow_id = 0
    for span in spans:
        label = span.fields.get("rule") or span.fields.get("txn")
        name = f"{span.name}[{label}]" if label else span.name
        args = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            **{k: _str_safe(v) for k, v in span.fields.items()},
        }
        if span.end == span.start:
            events.append(
                {
                    "name": name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": us(span.start),
                    "pid": 0,
                    "tid": span.tid,
                    "args": args,
                }
            )
        elif span.is_finished:
            events.append(
                {
                    "name": name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": us(span.start),
                    "dur": round(
                        (span.end - span.start) * _SECONDS_TO_US, 3
                    ),
                    "pid": 0,
                    "tid": span.tid,
                    "args": args,
                }
            )
        for target_id, kind in span.links:
            target = next(
                (s for s in spans if s.span_id == target_id), None
            )
            if target is None or not target.is_finished:
                continue
            flow_id += 1
            # Arrow from the cause (target, e.g. the committing Wa
            # txn) to the effect (this span, e.g. the Rc victim).
            events.append(
                {
                    "name": kind,
                    "cat": "link",
                    "ph": "s",
                    "id": flow_id,
                    "ts": us(target.end),
                    "pid": 0,
                    "tid": target.tid,
                    "args": {"from": target.span_id, "to": span.span_id},
                }
            )
            events.append(
                {
                    "name": kind,
                    "cat": "link",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": us(span.end if span.is_finished else span.start),
                    "pid": 0,
                    "tid": span.tid,
                    "args": {"from": target.span_id, "to": span.span_id},
                }
            )
    events.sort(
        key=lambda e: (
            e.get("ph") != "M", e.get("ts", 0.0), e.get("ph") != "X",
        )
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _str_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_str_safe(v) for v in value]
    return repr(value)


def chrome_trace_json(
    source: "SpanRecorder | Iterable[Span]",
    process_name: str = "repro",
    indent: int | None = None,
) -> str:
    return json.dumps(
        chrome_trace(source, process_name=process_name), indent=indent
    )


# -- Prometheus text exposition ----------------------------------------------------------


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    metric = "".join(out)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return "repro_" + metric


def _fmt_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def prometheus_text(
    source: "MetricsRegistry | dict[str, dict]",
) -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix; gauges also
    export their high watermark as ``<name>_max``; histograms export
    cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``
    (the shape ``histogram_quantile`` expects); quantile sketches
    export as Prometheus summaries — pre-computed
    ``{quantile="..."}`` series plus ``_sum``/``_count``.
    """
    snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    lines: list[str] = []
    for name in sorted(snapshot):
        snap = snapshot[name]
        metric = _prom_name(name)
        kind = snap.get("type")
        if kind == "counter":
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(f"{metric}_total {_fmt_value(snap['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt_value(snap['value'])}")
            lines.append(f"# TYPE {metric}_max gauge")
            lines.append(f"{metric}_max {_fmt_value(snap['max'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            buckets = snap.get("buckets", {})
            for bound, count in buckets.items():
                if bound == "+inf":
                    continue
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{bound}"}} {cumulative}'
                )
            cumulative += buckets.get("+inf", 0)
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {_fmt_value(snap['sum'])}")
            lines.append(f"{metric}_count {snap['count']}")
        elif kind == "sketch":
            lines.append(f"# TYPE {metric} summary")
            for q, estimate in snap.get("quantiles", {}).items():
                lines.append(
                    f'{metric}{{quantile="{q}"}} {_fmt_value(estimate)}'
                )
            lines.append(f"{metric}_sum {_fmt_value(snap['sum'])}")
            lines.append(f"{metric}_count {snap['count']}")
        else:  # pragma: no cover - future instrument types
            lines.append(f"# {name}: unknown instrument type {kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSONL spans -------------------------------------------------------------------------


def spans_json_lines(source: "SpanRecorder | Iterable[Span]") -> str:
    """One JSON object per span, oldest first."""
    return "\n".join(
        json.dumps(span.to_dict(), sort_keys=True)
        for span in _spans_of(source)
    )


def load_spans_json_lines(text: str) -> list[dict]:
    """Parse a JSONL span dump back into span dicts (for analysis)."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out
