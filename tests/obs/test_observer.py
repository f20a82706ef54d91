"""Integration tests: instrumented engines, locks and simulators.

The acceptance scenario from the observability issue lives here: a
``ParallelEngine`` run under the ``rc`` scheme with spans on must
record lock grants and a cycle that say nobody lost the wave — the
deterministic wave chooses rule (i) at admission, so the reader is
ordered before the writer that out-ranks it and both commit — and the
metrics snapshot must include the lock-wait histogram and commit
counters.  The rule-(ii) abort event and its counters are asserted
where rule (ii) still runs: on ``RcScheme`` driven directly (the
``rule_ii_by_hand`` fixture).

``test_every_event_kind_is_in_the_span_dump`` pins the one event
model: every kind of event the observer ever recorded is found in the
span dump.  ``test_aggregates_match_the_engines_books`` pins what the
observer derives from step closes: every registry count equals the
engine's, matcher's or store's own accounting.
"""

import functools
import json

import pytest

import repro.obs as obs
from repro.engine import (
    MultiUserEngine,
    ParallelEngine,
    ThreadedWaveExecutor,
)
from repro.engine.multiuser import Session
from repro.fault import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    VirtualSleeper,
)
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.locks import LockManager, LockMode, RcScheme
from repro.obs.export import load_spans_json_lines, spans_json_lines
from repro.sim import FiringSpec, simulate_lock_scheme
from repro.txn import Transaction
from repro.wm import WorkingMemory
from repro.wm.storage import DurableStore


def contention_rules():
    """A writer and a reader racing on the same tuple; the writer is
    ranked first (higher priority), so the reader would lose the wave
    to rule (ii) if the wave acted in rank order."""
    toggle = (
        RuleBuilder("toggle", priority=10)
        .when("flag", id=var("f"), state="on")
        .modify(1, state="off")
        .build()
    )
    observe = (
        RuleBuilder("observe", priority=0)
        .when("flag", id=var("f"), state="on")
        .make("seen", flag=var("f"))
        .build()
    )
    return [toggle, observe]


def contention_run(observer=None, scheme="rc", matcher="rete"):
    """One run of :func:`contention_rules` on one flag; the engine."""
    wm = WorkingMemory()
    wm.make("flag", id=1, state="on")
    with ParallelEngine(
        contention_rules(), wm, scheme=scheme, strategy="priority",
        matcher=matcher, observer=observer,
    ) as engine:
        engine.run()
    return engine


def figure_43_sim(observer):
    """The Figure 4.3 shape in the lock simulator: P2's Wa(q) commit
    rule-(ii)-aborts P1's Rc(q) (long reader, fast writer)."""
    return simulate_lock_scheme(
        [
            FiringSpec.build("P1", reads=["q"], writes=["z"],
                             match_time=1.0, act_time=5.0),
            FiringSpec.build("P2", reads=["y"], writes=["q"],
                             match_time=1.0, act_time=1.0),
        ],
        processors=2, scheme="rc", observer=observer,
    )


def bind_firing(observer, txn):
    """Bind ``txn`` to a fresh ``firing`` span, as the engines do."""
    span = observer.spans.start("firing", txn=txn.txn_id)
    observer.spans.bind(txn.txn_id, span)
    return span


class TestDefaults:
    def test_default_observer_is_disabled(self):
        assert obs.get_observer() is obs.NULL_OBSERVER
        assert not obs.get_observer().enabled

    def test_components_attach_the_default(self):
        manager = LockManager()
        assert manager.obs is obs.NULL_OBSERVER

    def test_uninstrumented_run_records_nothing(self):
        assert contention_run().obs is obs.NULL_OBSERVER

    def test_observed_restores_previous_default(self):
        before = obs.get_observer()
        with obs.observed() as observer:
            assert obs.get_observer() is observer
        assert obs.get_observer() is before

    def test_enable_disable_cycle(self):
        observer = obs.enable()
        try:
            assert obs.get_observer() is observer
            assert LockManager().obs is observer
        finally:
            obs.disable()
        assert obs.get_observer() is obs.NULL_OBSERVER


class TestAcceptanceScenario:
    def test_rc_run_traces_grants_rule_ii_and_waves(self, rule_ii_by_hand):
        engine = contention_run(obs.Observer())
        observer = engine.obs
        # Re-targeted: the reader acts first (rule (i)); nobody is
        # aborted and nobody is held back.
        assert engine.ordered_count == 1
        assert engine.waves[0].committed == ["observe", "toggle"]
        assert engine.held_count == 0
        assert engine.abort_count == 0
        names = observer.spans.names()
        assert names.get("lock.acquire", 0) > 0
        assert names.get("rc.rule_ii_abort", 0) == 0
        first_wave = observer.spans.spans("cycle")[0]
        assert first_wave.fields["committed"] == 2
        assert first_wave.fields["held"] == 0
        assert first_wave.fields["aborted"] == 0
        # Rule (ii) itself is still recorded wherever it runs: an event
        # inside the committer's firing span.
        with obs.observed() as observer:
            rule_ii_by_hand(observer)
        (event,) = observer.spans.spans("rc.rule_ii_abort")
        committer = observer.spans.get(event.parent_id)
        assert committer.fields["rule"] == "toggle"
        assert event.fields["txn"] == committer.fields["txn"]
        assert event.fields["victim"] != event.fields["txn"]
        assert event.duration == 0

    def test_metrics_snapshot_has_wait_histogram_and_rates(
        self, rule_ii_by_hand
    ):
        engine = contention_run(obs.Observer())
        observer = engine.obs
        snap = observer.metrics.snapshot()
        assert snap["lock.wait_seconds"]["type"] == "histogram"
        assert snap["lock.wait_seconds"]["count"] > 0
        # Re-targeted: the reader is ordered first, so there is no
        # hold-back, no rule-(ii) abort and no transaction abort.
        assert snap["firing.ordered"]["value"] == 1
        assert snap["firing.held"]["value"] == 0
        assert snap["rc.rule_ii_aborts"]["value"] == 0
        assert snap["txn.aborts"]["value"] == 0
        assert snap["txn.commits"]["value"] >= 1
        assert snap["wave.width"]["count"] >= 1
        assert (
            snap["firing.committed"]["value"]
            == len(engine.result.firings)
        )
        # The whole snapshot must be JSON-serializable.
        json.loads(observer.metrics.to_json())
        with obs.observed() as observer:
            rule_ii_by_hand(observer)
        snap = observer.metrics.snapshot()
        assert snap["rc.rule_ii_aborts"]["value"] == 1
        assert snap["txn.aborts"]["value"] == 1

    def test_trace_json_lines_parse(self):
        spans = contention_run(obs.Observer()).obs.spans
        for line in spans_json_lines(spans).splitlines():
            json.loads(line)


class TestLockManagerInstrumentation:
    def test_grant_wait_deny_cancel_events(self):
        observer = obs.Observer()
        manager = LockManager(observer=observer)
        t1, t2 = Transaction(), Transaction()
        holder = bind_firing(observer, t1)
        waiter = bind_firing(observer, t2)
        manager.acquire(t1, "q", LockMode.W)
        waiting = manager.acquire(t2, "q", LockMode.R)
        assert not manager.try_acquire(t2, "q", LockMode.W)
        manager.cancel(waiting)
        children = {
            span.name: span.parent_id for span in observer.spans.spans()
            if span.parent_id is not None
        }
        assert children == {
            "lock.acquire": holder.span_id,
            "lock.wait": waiter.span_id,
            "lock.deny": waiter.span_id,
            "lock.cancel": waiter.span_id,
        }
        for name in ("lock.wait", "lock.deny", "lock.cancel"):
            (event,) = observer.spans.spans(name)
            assert event.duration == 0
            assert event.fields["txn"] == t2.txn_id
        snap = observer.metrics.snapshot()
        assert snap["lock.grants"]["value"] == 1
        assert snap["lock.denials"]["value"] == 1
        assert snap["lock.queue_depth"]["max"] >= 1

    def test_queued_grant_reports_wait_time(self):
        observer = obs.Observer()
        manager = LockManager(observer=observer)
        t1, t2 = Transaction(), Transaction()
        bind_firing(observer, t1)
        bind_firing(observer, t2)
        manager.acquire(t1, "q", LockMode.W)
        manager.acquire(t2, "q", LockMode.R)
        manager.release_all(t1)
        grants = observer.spans.spans("lock.acquire")
        queued = [s for s in grants if s.fields["queued"]]
        assert len(queued) == 1
        assert queued[0].fields["waited"] >= 0.0
        assert queued[0].duration == pytest.approx(
            queued[0].fields["waited"]
        )


class TestThreadedInstrumentation:
    def test_threaded_wave_emits_wave_and_firing_events(self):
        wm = WorkingMemory(thread_safe=True)
        for i in range(3):
            wm.make("cell", id=i, state="raw")
        rule = (
            RuleBuilder("cook")
            .when("cell", id=var("i"), state="raw")
            .modify(1, state="done")
            .build()
        )
        observer = obs.Observer()
        executor = ThreadedWaveExecutor(
            [rule], wm, scheme="rc", observer=observer
        )
        result = executor.run_wave()
        assert len(result.committed) == 3
        names = observer.spans.names()
        assert names["cycle"] == 1
        firings = observer.spans.spans("firing")
        assert [s.fields["outcome"] for s in firings] == ["committed"] * 3


class TestSimInstrumentation:
    def test_lock_sim_emits_virtual_time_events(self):
        specs = [
            FiringSpec.build("P1", reads=["q"], writes=["r"]),
            FiringSpec.build("P2", reads=["r"], writes=["q"]),
        ]
        observer = obs.Observer()
        result = simulate_lock_scheme(
            specs, processors=2, scheme="rc", observer=observer
        )
        commits = observer.spans.spans("sim.commit")
        assert {s.fields["pid"] for s in commits} == set(result.committed)
        # Virtual timestamps, not wall clock: within the makespan.
        assert all(0 <= s.start <= result.makespan for s in commits)
        assert all(s.duration == 0 for s in commits)
        phases = observer.spans.spans("sim.phase")
        assert phases, "phase transitions should be recorded"
        snap = observer.metrics.snapshot()
        assert snap["sim.commit.count"]["value"] == len(result.committed)
        assert snap["sim.blocked_vtime"]["count"] > 0

    def test_rule_ii_abort_traced_in_lock_sim(self):
        observer = obs.Observer()
        assert "P1" in figure_43_sim(observer).aborted
        assert observer.spans.spans("rc.rule_ii_abort")


# -- one event model: every event kind lands in the span dump -----------------


def _chaos_durable_run(directory):
    """Seeded faults with bounded retries on a journalled memory, then
    the store's compaction, checkpoint, close and recovery."""
    observer = obs.Observer()
    wm = WorkingMemory()
    store = DurableStore(
        wm, directory, segment_max_records=4, observer=observer
    )
    for i in range(16):
        wm.make("cell", id=i, state="raw")
    cook = (
        RuleBuilder("cook").when("cell", id=var("i"), state="raw")
        .modify(1, state="done").build()
    )
    ParallelEngine(
        [cook], wm, scheme="rc", processors=4, observer=observer,
        fault_injector=FaultPlan.chaos(3, 0.3).injector(
            observer=observer, sleeper=VirtualSleeper()
        ),
        retry_policy=RetryPolicy(max_attempts=3, seed=3),
    ).run()
    store.compact()
    store.checkpoint()
    store.close()
    DurableStore.open(directory, observer=observer)[1].close()
    return observer


def _threaded_deadlock_run():
    """Figure 4.4 on real threads under 2PL: both firings stall before
    their W upgrade, each then waits for the other, and the victim's
    queued request is cancelled."""
    observer = obs.Observer()
    wm = WorkingMemory(thread_safe=True)
    wm.make("item", id="q", state="fresh")
    wm.make("item", id="r", state="fresh")
    rules = [
        RuleBuilder(name).when("item", id="q", state="fresh")
        .when("item", id="r", state="fresh")
        .modify(index, state=f"written-by-{name}").build()
        for name, index in (("pi", 2), ("pj", 1))
    ]
    plan = FaultPlan([FaultSpec("lock_delay", mode="W", delay=0.1)], seed=0)
    with ThreadedWaveExecutor(
        rules, wm, scheme="2pl", lock_timeout=10.0, observer=observer,
        fault_injector=plan.injector(observer=observer),
    ) as executor:
        executor.run_wave()
    return observer


def _rc_commit_run(revalidator=None):
    """A Wa commit over a bound Rc holder on ``RcScheme`` by hand:
    rule (ii) aborts the holder, or the revalidator spares it."""
    observer = obs.Observer()
    scheme = RcScheme(revalidator=revalidator, observer=observer)
    writer, holder = Transaction(), Transaction()
    bind_firing(observer, writer)
    bind_firing(observer, holder)
    scheme.lock_condition(holder, "q")
    scheme.lock_action(writer, writes=["q"])
    scheme.commit(writer)
    return observer


#: Every kind of event the observer has recorded, the run that makes
#: it, and the span that records it in the dump: its name (a trailing
#: "." matches the family) and fields it carries.  A fact a span
#: already held (a grant, a commit, a wave's counts) is found on that
#: span; every other event is a zero-duration span of its own.
EVENT_KINDS = [
    ("lock.grant", "rc", "lock.acquire", {}),
    ("lock.wait", "threaded", "lock.wait", {}),
    ("lock.deny", "2pl", "lock.deny", {}),
    ("lock.cancel", "threaded", "lock.cancel", {}),
    ("txn.commit", "rc", "firing", {"status": "committed"}),
    ("txn.abort", "chaos", "firing", {"status": "aborted"}),
    ("rc.rule_ii_abort", "rule_ii", "rc.rule_ii_abort", {}),
    ("rc.revalidated", "revalidation", "rc.revalidated", {}),
    ("wave.start", "rc", "cycle", {}),
    ("wave.end", "rc", "cycle", {"committed": 2}),
    ("firing.commit", "rc", "firing", {"status": "committed"}),
    ("engine.rollback", "chaos", "engine.rollback", {}),
    ("run.end", "rc", "run", {"stop_reason": "quiescent"}),
    ("fault.injected", "chaos", "fault.", {}),
    ("retry.attempt", "chaos", "retry.attempt", {}),
    ("retry.exhausted", "chaos", "retry.exhausted", {}),
    ("deadlock.victim", "threaded", "deadlock.victim", {}),
    ("match.shard", "partitioned", "match.shard", {}),
    ("match.batch", "partitioned", "match.flush", {}),
    ("match.flush", "partitioned", "match.flush", {}),
    ("procpool.roundtrip", "process", "procpool.roundtrip", {}),
    ("storage.checkpoint", "chaos", "storage.checkpoint", {}),
    ("storage.compaction", "chaos", "storage.compaction", {}),
    ("storage.rotate", "chaos", "storage.rotate", {}),
    ("storage.recovery", "chaos", "storage.recovery", {}),
    ("health.transition", "chaos", "health.transition", {}),
    ("sim.phase", "sim", "sim.phase", {}),
    ("sim.commit", "sim", "sim.commit", {}),
    ("sim.abort", "sim", "sim.abort", {}),
]


@pytest.fixture(scope="module")
def span_dump(tmp_path_factory):
    """``run name -> rows`` of ``repro obs export --format jsonl``,
    each run made once, at ``full``."""
    def contention(scheme="rc", matcher="rete"):
        return contention_run(obs.Observer(), scheme, matcher).obs

    def sim():
        observer = obs.Observer()
        figure_43_sim(observer)
        return observer

    runs = {
        "rc": contention,
        "2pl": lambda: contention("2pl"),
        "partitioned": lambda: contention("rc", "partitioned:rete:2"),
        "process": lambda: contention("rc", "partitioned:rete:2:process"),
        "chaos": lambda: _chaos_durable_run(
            tmp_path_factory.mktemp("store")
        ),
        "threaded": _threaded_deadlock_run,
        "rule_ii": _rc_commit_run,
        "revalidation": lambda: _rc_commit_run(lambda txn, obj: True),
        "sim": sim,
    }
    return functools.cache(
        lambda run: load_spans_json_lines(
            spans_json_lines(runs[run]().spans)
        )
    )


@pytest.mark.parametrize(
    "kind, run, name, fields", EVENT_KINDS, ids=[k[0] for k in EVENT_KINDS]
)
def test_every_event_kind_is_in_the_span_dump(
    span_dump, kind, run, name, fields
):
    assert [
        row for row in span_dump(run)
        if (row["name"].startswith(name) if name.endswith(".")
            else row["name"] == name)
        and fields.items() <= row["fields"].items()
    ], f"{kind}: no {name} span with {fields} in the {run} run"


# -- aggregates derived from step closes match the components' books ----------


def _lanes_run(cls=ParallelEngine, **options):
    """A lanes run of ``cls``; no store calls."""

    def run(lanes_smoke, observer, directory):
        rules, memory = lanes_smoke(thread_safe=cls is ThreadedWaveExecutor)
        if cls is MultiUserEngine:
            half = len(rules) // 2
            rules = [
                Session.of("a", rules[:half]), Session.of("b", rules[half:])
            ]
        with cls(rules, memory, observer=observer, **options) as engine:
            engine.run()
        return engine, {}

    return run


def _durable_run(lanes_smoke, observer, directory):
    """A journalled lanes run, then one compaction, one checkpoint and
    one recovery."""
    memory = WorkingMemory()
    store = DurableStore(
        memory, directory, segment_max_records=64, observer=observer
    )
    rules, memory = lanes_smoke(memory=memory)
    with ParallelEngine(
        rules, memory, processors=8, observer=observer
    ) as engine:
        engine.run()
    assert store.compact()["segments_merged"] > 0
    store.checkpoint()
    store.close()
    DurableStore.open(directory, observer=observer)[1].close()
    once = (
        "storage.compactions", "storage.compaction_seconds",
        "storage.compaction.sketch_seconds", "storage.checkpoints",
        "storage.checkpoint_seconds", "storage.checkpoint.sketch_seconds",
        "storage.recoveries", "storage.recovery_seconds",
    )
    return engine, dict.fromkeys(once, 1)


AGGREGATE_RUNS = {
    "rc": _lanes_run(scheme="rc", processors=8),
    "2pl": _lanes_run(scheme="2pl", processors=8),
    "c2pl": _lanes_run(scheme="c2pl", processors=8),
    "threaded": _lanes_run(ThreadedWaveExecutor, scheme="rc"),
    "multi-user": _lanes_run(MultiUserEngine, scheme="rc", processors=8),
    "partitioned-serial": _lanes_run(
        matcher="partitioned:rete:2", processors=8
    ),
    "partitioned-des": _lanes_run(
        matcher="partitioned:rete:2:des", processors=8
    ),
    "durable": _durable_run,
}


@pytest.mark.parametrize("level", obs.LEVELS)
@pytest.mark.parametrize("run", AGGREGATE_RUNS)
def test_aggregates_match_the_engines_books(
    lanes_smoke, tmp_path, run, level
):
    observer = obs.Observer(level=level, sample_rate=0.5)
    engine, store_calls = AGGREGATE_RUNS[run](
        lanes_smoke, observer, tmp_path
    )
    snapshot = observer.metrics.snapshot()

    def count(name):
        metric = snapshot[name]
        return metric["value"] if metric["type"] == "counter" else (
            metric["count"]
        )

    def total(bucket):
        return sum(len(getattr(wave, bucket)) for wave in engine.waves)

    waves = len(engine.waves)
    attempts = total("committed") + total("aborted") + total("deferred")
    if run == "c2pl":
        # A refused preclaim is deferred before its firing opens.
        attempts -= count("lock.denials")
    flushes = getattr(engine.matcher, "flush_count", 0)
    expected = {
        "wave.count": waves,
        "wave.width": waves,
        "engine.match_seconds": waves,
        "cycle.sketch_seconds": waves,
        "firing.committed": total("committed"),
        "firing.aborted": total("aborted"),
        "firing.deferred": total("deferred"),
        "firing.held": total("held"),
        "firing.ordered": engine.ordered_count,
        "firing.sketch_seconds": attempts,
        "match.batches": flushes,
        "match.batch_size": flushes,
        "match.merge_seconds": flushes,
        "match.flush.sketch_seconds": flushes,
        "match.shard_seconds": 2 * flushes,
        **store_calls,
    }
    assert {name: count(name) for name in expected} == expected
    assert waves > 1 and total("committed") == len(engine.result.firings)
