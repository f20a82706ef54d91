"""Property-based chaos tests for the threaded executor.

Hypothesis draws a fault schedule (seed, rate, fault kinds) and a lock
scheme; whatever the schedule does to the run — denials, forced aborts,
pre-commit crashes, real thread interleavings — the committed firing
sequence must replay single-threaded and the lock history must stay
conflict-serializable.  This is Definition 3.2 as a property.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ThreadedWaveExecutor, replay_commit_sequence
from repro.fault import FaultPlan, RetryPolicy
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.txn.serializability import is_conflict_serializable
from repro.wm import WMSnapshot, WorkingMemory

#: Kinds that make sense on real threads without stalling the suite.
CHAOS_KINDS = ("lock_deny", "abort_rhs", "crash_commit")


def contended_setup(n=3):
    wm = WorkingMemory(thread_safe=True)
    for i in range(n):
        wm.make("task", id=i, state="todo")
    rules = [
        RuleBuilder("work")
        .when("task", id=var("t"), state="todo")
        .modify(1, state="done")
        .build(),
        RuleBuilder("audit")
        .when("task", id=var("t"), state="todo")
        .make("seen", task=var("t"))
        .build(),
    ]
    return wm, rules


def run_threaded_chaos(scheme, seed, rate, kinds, max_waves=20):
    wm, rules = contended_setup()
    snapshot = WMSnapshot.capture(wm)
    plan = FaultPlan.chaos(seed, rate, kinds=kinds)
    executor = ThreadedWaveExecutor(
        rules,
        wm,
        scheme=scheme,
        lock_timeout=2.0,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay=0.001, seed=seed
        ),
        fault_injector=plan.injector(),
    )
    committed = executor.run(max_waves=max_waves).firings
    return snapshot, rules, executor, executor.waves, committed


@settings(max_examples=12, deadline=None)
@given(
    scheme=st.sampled_from(["rc", "2pl"]),
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=0.0, max_value=0.5),
    kinds=st.sets(
        st.sampled_from(CHAOS_KINDS), min_size=1
    ).map(lambda s: tuple(sorted(s))),
)
def test_any_fault_schedule_replays_single_threaded(
    scheme, seed, rate, kinds
):
    snapshot, rules, executor, _, committed = run_threaded_chaos(
        scheme, seed, rate, kinds
    )
    outcome = replay_commit_sequence(snapshot, rules, committed)
    assert outcome.consistent, outcome.detail
    assert is_conflict_serializable(executor.history)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fault_free_threaded_run_drains_all_work(seed):
    snapshot, rules, executor, _, committed = run_threaded_chaos(
        "rc", seed, rate=0.0, kinds=CHAOS_KINDS
    )
    # Without faults every task is worked and audited exactly once.
    assert sorted(r.rule_name for r in committed).count("work") == 3
    assert not executor.matcher.conflict_set.eligible()
    outcome = replay_commit_sequence(snapshot, rules, committed)
    assert outcome.consistent, outcome.detail


def test_wave_accounting_is_complete():
    """Every candidate ends up in exactly one bucket per attempt wave:
    committed, aborted, or deferred — nothing is dropped silently."""
    wm, rules = contended_setup(2)
    plan = FaultPlan.chaos(5, 0.5, kinds=CHAOS_KINDS)
    executor = ThreadedWaveExecutor(
        rules, wm, scheme="rc", fault_injector=plan.injector()
    )
    candidates = len(executor.matcher.conflict_set.eligible())
    result = executor.run_wave()
    accounted = (
        len(result.committed)
        + len(result.aborted)
        + len(result.deferred)
    )
    assert accounted == candidates
