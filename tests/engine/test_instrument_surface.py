"""The attributes ``benchmarks/e2e/tracing.py`` rebinds stay live.

The benchmark times layers by replacing methods on a *constructed*
engine (``trace_engine`` / ``_trace_scheme``).  That only works while
``src/`` looks each of them up at call time, so caching a bound method
of the scheme, executor, strategy or conflict set at construction
would silently empty a budget line.  This pins the surface in tier-1.
"""

import pytest

from repro.engine import Interpreter, ParallelEngine
from repro.fault import FaultPlan, FaultSpec
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WorkingMemory


def build(engine_class, **options):
    wm = WorkingMemory()
    for i in range(3):
        wm.make("cell", id=i, state="raw")
    rule = (
        RuleBuilder("cook")
        .when("cell", id=var("i"), state="raw")
        .modify(1, state="done")
        .build()
    )
    return engine_class([rule], wm, **options)


def count_calls(calls: dict, owner, name: str, key: str = "") -> None:
    """Rebind ``owner.name`` on the instance with a counting wrapper."""
    inner = getattr(owner, name)
    key = key or name

    def counted(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return inner(*args, **kwargs)

    setattr(owner, name, counted)


@pytest.mark.parametrize("scheme", ["rc", "2pl", "c2pl"])
def test_parallel_engine_calls_through_rebound_attributes(scheme):
    # Deny the first wave so the run also takes the abort path and the
    # width-1 fallback wave.
    plan = FaultPlan([FaultSpec("lock_deny", max_hits=3)], seed=0)
    engine = build(
        ParallelEngine, scheme=scheme, matcher="partitioned:rete:2:serial",
        fault_injector=plan.injector(),
    )
    locks = (
        ["try_preclaim"] if scheme == "c2pl"
        else ["try_lock_condition", "try_lock_action"]
    )
    calls: dict = {}
    count_calls(calls, engine, "run_wave")
    for name in locks + ["commit", "abort"]:
        count_calls(calls, engine.scheme, name)
    count_calls(calls, engine.executor, "execute")
    count_calls(calls, engine.matcher.conflict_set, "eligible")
    count_calls(calls, engine.matcher, "batch")
    with engine:
        result = engine.run()
    assert len(result.firings) == 3
    assert set(calls) == {
        "run_wave", "commit", "abort", "execute", "eligible", "batch", *locks
    }
    assert calls["execute"] == calls["batch"] == calls["commit"] == 3
    # Every wave, the width-1 fallback included, went through the
    # rebound run_wave.
    assert calls["run_wave"] == len(engine.waves) == result.cycles
    widths = [
        len(w.committed) + len(w.aborted) + len(w.deferred)
        for w in engine.waves
    ]
    assert widths[:2] == [3, 1]


def test_interpreter_calls_through_rebound_attributes():
    engine = build(Interpreter)
    assert not hasattr(engine, "run_wave")
    calls: dict = {}
    for name in ("select", "fire"):
        count_calls(calls, engine, name)
    count_calls(calls, engine.strategy, "select", "strategy.select")
    count_calls(calls, engine.executor, "execute")
    count_calls(calls, engine.matcher.conflict_set, "eligible")
    with engine:
        engine.run()
    assert calls == {
        "select": 4, "strategy.select": 3, "fire": 3, "execute": 3,
        "eligible": 4,
    }
