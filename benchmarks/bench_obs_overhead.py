"""Observability overhead — NullObserver vs metrics/sampled/full.

Not a paper figure: this measures the cost of the causal span layer
itself, so the paper-value column carries the expectations instead
(baseline 1.0x, and loose overhead ceilings).  A wave-parallel ``rc``
run over a widening item workload is timed four ways:

* ``off``     — the default ``NullObserver`` (every hook a no-op),
* ``metrics`` — counters/gauges/histograms/sketches (``level="metrics"``),
* ``sampled`` — metrics + head-sampled spans at the default 10% rate
  (the always-on production tier),
* ``full``    — metrics + the complete span tree (every event a
  zero-duration span in it).

The interesting quantity is the *ratio* to the ``off`` baseline; the
assertion only guards against pathological blow-ups (instrumentation
orders of magnitude slower than the work it observes) because absolute
wall times on CI machines are noisy.  The ``sampled`` tier is the one
meant to ship enabled, so its ceiling is the tightest.
"""

import time

from conftest import report

import repro.obs as obs
from repro.engine import ParallelEngine
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WorkingMemory

ITEMS = 120
REPEATS = 10
# Generous ceilings: instrumentation must stay within an order of
# magnitude of the uninstrumented engine even on noisy CI boxes.  The
# always-on ``sampled`` tier gets a tighter leash since it is the one
# production runs leave enabled.
MAX_RATIO = {"metrics": 10.0, "sampled": 5.0, "full": 10.0}


def _rules():
    return [
        RuleBuilder("consume")
        .when("item", id=var("i"))
        .remove(1)
        .build()
    ]


def _run_once(level):
    wm = WorkingMemory()
    for i in range(ITEMS):
        wm.make("item", id=i)
    observer = (
        obs.NULL_OBSERVER if level == "off" else obs.Observer(level=level)
    )
    engine = ParallelEngine(
        _rules(), wm, scheme="rc", observer=observer
    )
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    assert len(result.firings) == ITEMS
    if level == "full":
        assert observer.spans is not None
        assert len(observer.spans.spans("firing")) == ITEMS
    if level == "sampled":
        # Head sampling must actually drop spans at the default rate.
        assert observer.spans is not None
        assert observer.spans.sampled_out > 0
    return elapsed


def _best_of(level):
    return min(_run_once(level) for _ in range(REPEATS))


def test_obs_overhead(benchmark):
    base = benchmark(_best_of, "off")
    with_metrics = _best_of("metrics")
    with_sampled = _best_of("sampled")
    with_spans = _best_of("full")

    metrics_ratio = with_metrics / base
    sampled_ratio = with_sampled / base
    full_ratio = with_spans / base
    assert metrics_ratio < MAX_RATIO["metrics"]
    assert sampled_ratio < MAX_RATIO["sampled"]
    assert full_ratio < MAX_RATIO["full"]

    report(
        "Observability overhead (120 firings, rc, best of 10)",
        [
            ("off wall_seconds", "baseline", round(base, 6)),
            ("metrics wall_seconds", "-", round(with_metrics, 6)),
            ("sampled wall_seconds", "-", round(with_sampled, 6)),
            ("full wall_seconds", "-", round(with_spans, 6)),
            ("metrics ratio", "< 10x", round(metrics_ratio, 3)),
            ("sampled ratio", "< 5x", round(sampled_ratio, 3)),
            ("full ratio", "< 10x", round(full_ratio, 3)),
        ],
    )
