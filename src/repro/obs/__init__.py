"""Observability: metrics + causal spans for engines and locks.

The measurement substrate behind the Section 5 evaluation, and — as
of the telemetry PR — an always-on production layer: head-sampled
span trees (:mod:`repro.obs.sampling`), fixed-memory quantile
sketches (:class:`QuantileSketch`), a per-rule self-time profiler
(:mod:`repro.obs.profile`) and a rolling-window health watchdog
(:mod:`repro.obs.health`).  Core pieces:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with a JSON snapshot;
* :mod:`repro.obs.spans` — the causal :class:`Span` tree (cycle →
  phase → firing → lock) with rule-(ii) abort links, in a bounded
  ring; a point event (a denial, a fault, a retry) is a zero-duration
  span;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, Prometheus
  text exposition, and JSONL span dumps;
* :mod:`repro.obs.observer` — the :class:`Observer` facade whose
  semantic hooks the lock manager, lock schemes, engines and
  simulators call;
* :mod:`repro.obs.null` — :data:`NULL_OBSERVER` and the default-
  observer slot: the only piece ``import repro.obs`` loads, so
  learning that telemetry is off costs no telemetry import.

Instrumentation is **off by default**: components resolve the
module-level default observer at construction time, and that default
is the inert :data:`NULL_OBSERVER` until :func:`enable` (or the
:func:`observed` context manager) installs a live one.  Every hot-path
call site is guarded with ``if obs.enabled:``, so a run without
observability pays one attribute load per site.

Typical use::

    import repro.obs as obs

    with obs.observed() as observer:
        engine = ParallelEngine(rules, wm, scheme="rc")
        engine.run()
    print(observer.spans.names())
    print(observer.metrics.to_json())

Components also accept an explicit ``observer=`` argument for
isolated measurement (several engines, separate registries).
"""

from repro._lazy import lazy_exports
from repro.obs.null import (
    NULL_OBSERVER,
    NullObserver,
    get_observer,
    set_observer,
)

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "Counter", "Gauge", "Histogram", "QuantileSketch",
            "MetricsRegistry", "TIME_BUCKETS", "COUNT_BUCKETS",
        ),
        "spans": ("Span", "SpanRecorder"),
        "sampling": ("HeadSampler", "DroppedSpan"),
        "profile": ("RuleProfiler", "render_profile"),
        "health": ("HealthMonitor", "HealthReport", "GREEN", "YELLOW", "RED"),
        "observer": ("LEVELS", "Observer", "enable", "disable", "observed"),
    },
)
__all__ += ["NullObserver", "NULL_OBSERVER", "get_observer", "set_observer"]
