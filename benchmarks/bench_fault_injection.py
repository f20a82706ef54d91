"""Fault injection — throughput and abort behavior vs fault rate.

Not a paper figure: this charts the robustness layer added on top of
the reproduction.  A fixed workload runs under the wave-parallel Rc
engine while a seeded chaos plan denies locks, forces mid-RHS aborts,
and crashes firings before commit; a bounded retry policy re-drives
the casualties.  The claim being measured is the paper's Definition
3.2 under adversity: every committed sequence still replays
single-threaded at every fault rate, with throughput (not
consistency) paying for the faults.

The ``paper`` column carries the fault-free expectation.
"""

import pytest
from conftest import report

from repro.engine import ParallelEngine, replay_commit_sequence
from repro.fault import FaultPlan, RetryPolicy
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WMSnapshot, WorkingMemory

#: Injection probability per fault site, swept low to hostile.
RATES = (0.0, 0.1, 0.25, 0.5)
TASKS = 24
#: Fault-free committed firings: work + audit + tally per task.
FAULT_FREE_FIRINGS = TASKS * 3


def _rules():
    return [
        RuleBuilder("work")
        .when("task", id=var("t"), state="todo")
        .modify(1, state="done")
        .build(),
        RuleBuilder("audit")
        .when("task", id=var("t"), state="todo")
        .make("seen", task=var("t"))
        .build(),
        RuleBuilder("tally")
        .when("seen", task=var("t"))
        .remove(1)
        .build(),
    ]


def _chaos_run(rate, seed=7):
    rules = _rules()
    wm = WorkingMemory()
    for i in range(TASKS):
        wm.make("task", id=i, state="todo")
    snapshot = WMSnapshot.capture(wm)
    injector = (
        FaultPlan.chaos(seed, rate).injector() if rate > 0 else None
    )
    engine = ParallelEngine(
        rules,
        wm,
        scheme="rc",
        retry_policy=RetryPolicy(max_attempts=6, seed=seed),
        fault_injector=injector,
    )
    result = engine.run(max_waves=500)
    replay = replay_commit_sequence(snapshot, rules, result.firings)
    return engine, injector, result, replay


@pytest.mark.parametrize("rate", RATES)
def test_consistency_and_throughput_vs_fault_rate(benchmark, rate):
    engine, injector, result, replay = benchmark(lambda: _chaos_run(rate))
    assert replay.consistent, replay.detail
    # audit/tally never touch contended state once work gives up, so a
    # hostile schedule may shed firings — but never consistency.
    assert result.stop_reason in ("quiescent", "retries_exhausted")
    report(
        f"fault injection — chaos rate {rate}",
        [
            ("committed firings", FAULT_FREE_FIRINGS,
             len(result.firings)),
            ("faults injected", 0,
             injector.total_injected if injector else 0),
            ("retries charged", 0, engine.retry_count),
            ("firings gave up", 0, len(engine.gave_up)),
            ("virtual backoff (s)", 0.0,
             round(engine.retry_clock.total, 4)),
            ("rule-(ii) aborts", 0, engine.abort_count),
            # A deterministic wave reads rule (ii)'s outcome off its own
            # commit order and never locks the loser; what is left in
            # the row above are the injected aborts and crashes.
            ("held back (rule (ii) at admission)", "-", engine.held_count),
            ("replay consistent", True, replay.consistent),
        ],
    )


def test_fault_free_run_commits_everything(benchmark):
    engine, injector, result, replay = benchmark(
        lambda: _chaos_run(0.0)
    )
    assert injector is None
    assert len(result.firings) == FAULT_FREE_FIRINGS
    assert result.stop_reason == "quiescent"
    assert replay.consistent
    report(
        "fault injection — fault-free baseline",
        [
            ("committed firings", FAULT_FREE_FIRINGS,
             len(result.firings)),
            ("stop reason", "quiescent", result.stop_reason),
        ],
    )


def test_determinism_same_seed_same_run(benchmark):
    """The chaos harness itself is reproducible: one seed, one run."""

    def both():
        a = _chaos_run(0.25, seed=11)
        b = _chaos_run(0.25, seed=11)
        return a, b

    (ea, ia, ra, _), (eb, ib, rb, _) = benchmark(both)
    # Timetags are process-global, so compare the firing *sequence*
    # (rule names in commit order), which is the determinism contract.
    same_sequence = [f.rule_name for f in ra.firings] == [
        f.rule_name for f in rb.firings
    ]
    assert same_sequence
    assert ia.summary() == ib.summary()
    assert ea.retry_count == eb.retry_count
    report(
        "fault injection — determinism (seed 11, rate 0.25)",
        [
            ("firing sequences identical", True, same_sequence),
            ("faults injected", ia.total_injected, ib.total_injected),
        ],
    )
