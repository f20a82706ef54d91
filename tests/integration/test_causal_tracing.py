"""End-to-end acceptance tests for the causal span layer.

The issue's acceptance scenario: a Fig 5.2-style conflict workload
(one writer and one reader of the same tuple under the ``rc`` scheme)
must yield

(a) a Chrome trace whose slices nest run -> cycle -> phase ->
    firing -> lock spans,
(b) per-cycle critical-path buckets that sum exactly to each cycle
    and cover most of the makespan, and
(c) the commit order the wave chose: on the deterministic engine an
    ``ordered`` record naming the reader put before the writer that
    out-ranked it (rule (i), chosen at admission), a ``held`` record
    naming the cycle when no order keeps everyone (Figure 4.4), and
    wherever rule (ii) really runs an Rc-Wa abort link from the victim
    to the committing Wa transaction's firing span — shown on
    ``RcScheme`` driven the way a racing executor drives it (the
    ``rule_ii_by_hand`` fixture).
"""

import json

import pytest

import repro.obs as obs
from repro.analysis.critpath import (
    HeldBack,
    OrderedFirst,
    abort_chains,
    coverage,
    cycle_breakdowns,
    held_backs,
    makespan,
    ordered_firsts,
)
from repro.engine import ParallelEngine, ThreadedWaveExecutor
from repro.engine.multiuser import MultiUserEngine, Session
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match import PartitionedMatcher
from repro.obs.export import chrome_trace, load_spans_json_lines
from repro.wm import WorkingMemory


def conflict_rules():
    """Writer (high priority) is ranked first and writes the ``flag``
    tuple the reader's condition read: in rank order the reader loses
    the wave, reader first both commit."""
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


def run_conflict_workload(observer, rules=None):
    wm = WorkingMemory()
    wm.make("flag", id=1, state="on")
    engine = ParallelEngine(
        rules or conflict_rules(), wm, scheme="rc", strategy="priority",
        observer=observer,
    )
    engine.run()
    return engine


def circular_rules():
    """Two writers of the tuple both read: every commit order aborts
    one of them (Figure 4.4), so the lower-ranked one is held back."""
    return [
        RuleBuilder(name, priority=priority)
        .when("flag", id=var("f"), state="on")
        .modify(1, state=state)
        .build()
        for name, priority, state in (
            ("toggle", 10, "off"), ("dim", 0, "low"),
        )
    ]


class TestAcceptance:
    def test_chrome_trace_nests_cycle_firing_and_lock_spans(self):
        with obs.observed() as observer:
            run_conflict_workload(observer)
        doc = chrome_trace(observer.spans)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {}
        for event in slices:
            by_name.setdefault(event["name"].split("[")[0], []).append(
                event
            )
        for required in ("run", "cycle", "phase.acquire", "phase.act",
                         "firing", "acquire"):
            assert required in by_name, f"missing {required} slices"
        # A grant that waited is a slice, one that did not an instant.
        grants = [e for e in doc["traceEvents"] if e["name"] == "lock.acquire"]
        assert grants and all(
            e["ph"] == ("X" if e["args"]["waited"] else "i") for e in grants
        )
        # Spot-check the nesting chain via parent ids.
        ids = {
            e["args"]["span_id"]: e
            for e in slices
        }
        firing = by_name["firing"][0]
        act = ids[firing["args"]["parent_id"]]
        assert act["name"] == "phase.act"
        cycle = ids[act["args"]["parent_id"]]
        assert cycle["name"] == "cycle"
        run = ids[cycle["args"]["parent_id"]]
        assert run["name"] == "run"
        # Slices nest in time too.
        assert run["ts"] <= cycle["ts"]
        assert cycle["ts"] + cycle["dur"] <= run["ts"] + run["dur"] + 1

    def test_critical_path_buckets_cover_the_makespan(self):
        with obs.observed() as observer:
            run_conflict_workload(observer)
        breakdowns = cycle_breakdowns(observer.spans)
        assert breakdowns
        for cycle in breakdowns:
            assert sum(cycle.buckets.values()) == pytest.approx(
                cycle.duration
            )
        total = makespan(observer.spans)
        assert total > 0
        assert coverage(observer.spans) >= 0.90

    def test_rc_wa_abort_links_victim_to_committer_firing(
        self, rule_ii_by_hand
    ):
        """Re-targeted: the deterministic engine no longer plays rule
        (ii) out — it records the commit order it chose instead; the
        abort chain is asserted where rule (ii) still runs."""
        with obs.observed() as observer:
            engine = run_conflict_workload(observer)
        assert engine.waves[0].committed == ["observe", "toggle"]
        assert engine.held_count == engine.abort_count == 0
        assert abort_chains(observer.spans) == []
        assert held_backs(observer.spans) == []
        assert ordered_firsts(observer.spans) == [
            OrderedFirst(
                wave=1, reader_rule="observe", writer_rule="toggle",
                obj="('flag', 1)",
            )
        ]
        (record,) = observer.spans.spans("ordered")
        assert record.duration == 0
        admit = observer.spans.get(record.parent_id)
        assert admit.name == "phase.admit"
        assert admit.fields["ordered"] == 1 and admit.fields["held"] == 0
        (cycle,) = [
            c for c in observer.spans.spans("cycle")
            if c.fields["wave"] == 1
        ]
        assert admit.parent_id == cycle.span_id
        assert cycle.fields["ordered"] == 1

        # The cycle cut: no order keeps both writers.
        with obs.observed() as observer:
            engine = run_conflict_workload(observer, circular_rules())
        assert engine.waves[0].committed == ["toggle"]
        assert engine.waves[0].held == ["dim"]
        assert ordered_firsts(observer.spans) == []
        assert held_backs(observer.spans) == [
            HeldBack(
                wave=1, rule="dim", cycle=("dim", "toggle"),
                objs=("('flag', 1)", "('flag', 1)"),
            )
        ]
        (record,) = observer.spans.spans("held")
        assert record.duration == 0
        admit = observer.spans.get(record.parent_id)
        assert admit.name == "phase.admit"
        assert admit.fields["held"] == 1
        assert observer.spans.get(admit.parent_id).fields["held"] == 1

        with obs.observed() as observer:
            rule_ii_by_hand(observer)
        chains = abort_chains(observer.spans)
        assert chains, "no rc_wa_abort link recorded"
        chain = chains[0]
        assert chain.victim_rule == "observe"
        assert chain.committer_rule == "toggle"
        committer = observer.spans.get(chain.committer_span)
        assert committer is not None
        assert committer.name == "firing"
        assert committer.fields["txn"] == chain.committer_txn
        # The flow arrow survives export.
        doc = chrome_trace(observer.spans)
        flows = [
            e for e in doc["traceEvents"]
            if e["ph"] == "s" and e["name"] == "rc_wa_abort"
        ]
        assert flows
        assert flows[0]["args"]["from"] == chain.committer_span

    def test_jsonl_export_round_trips_into_the_analyzer(
        self, rule_ii_by_hand
    ):
        with obs.observed() as observer:
            run_conflict_workload(observer)
        dump = observer.spans.to_json_lines()
        rows = load_spans_json_lines(dump)
        assert cycle_breakdowns(rows)[0].buckets == (
            cycle_breakdowns(observer.spans)[0].buckets
        )
        assert ordered_firsts(rows) == ordered_firsts(observer.spans) != []
        with obs.observed() as observer:
            run_conflict_workload(observer, circular_rules())
        rows = load_spans_json_lines(observer.spans.to_json_lines())
        assert held_backs(rows) == held_backs(observer.spans) != []
        with obs.observed() as observer:
            rule_ii_by_hand(observer)
        rows = load_spans_json_lines(observer.spans.to_json_lines())
        assert abort_chains(rows) == abort_chains(observer.spans) != []


class TestEngineCoverage:
    def test_threaded_executor_emits_cycle_and_firing_spans(self):
        wm = WorkingMemory(thread_safe=True)
        for i in range(3):
            wm.make("item", id=i)
        rule = (
            RuleBuilder("consume")
            .when("item", id=var("i"))
            .remove(1)
            .build()
        )
        with obs.observed() as observer:
            executor = ThreadedWaveExecutor(
                [rule], wm, scheme="rc", observer=observer
            )
            executor.run()
        names = observer.spans.names()
        assert names.get("run") == 1
        assert names.get("cycle", 0) >= 1
        assert names.get("firing", 0) == 3
        firings = observer.spans.spans("firing")
        assert all(s.is_finished for s in firings)
        assert {s.fields.get("outcome") for s in firings} == {
            "committed"
        }

    def test_multiuser_firings_carry_the_owning_user(self):
        alice = Session.of(
            "alice",
            [
                RuleBuilder("a-rule")
                .when("job", owner="alice")
                .remove(1)
                .build()
            ],
        )
        bob = Session.of(
            "bob",
            [
                RuleBuilder("b-rule")
                .when("job", owner="bob")
                .remove(1)
                .build()
            ],
        )
        wm = WorkingMemory()
        wm.make("job", owner="alice")
        wm.make("job", owner="bob")
        with obs.observed() as observer:
            engine = MultiUserEngine(
                [alice, bob], wm, scheme="rc", observer=observer
            )
            engine.run()
        users = {
            s.fields.get("user")
            for s in observer.spans.spans("acquire")
        }
        assert users == {"alice", "bob"}

    def test_partitioned_matcher_emits_flush_spans(self):
        wm = WorkingMemory()
        with obs.observed() as observer:
            matcher = PartitionedMatcher(wm, shards=2, backend="serial")
            engine = ParallelEngine(
                conflict_rules(), wm, scheme="rc",
                strategy="priority", matcher=matcher,
                observer=observer,
            )
            wm.make("flag", id=1, state="on")
            engine.run()
        flushes = observer.spans.spans("match.flush")
        assert flushes
        flush = flushes[0]
        assert flush.fields["backend"] == "serial"
        shards = [
            s for s in observer.spans.spans("match.shard")
            if s.parent_id == flush.span_id
        ]
        assert len(shards) == 2
        # Serial shards run end to end from the flush start.
        assert shards[0].start == flush.start
        assert shards[1].start == shards[0].end

    def test_single_firing_mode_is_spanned(self):
        """Re-pinned: the progress fallback is no longer a lock-free
        path with its own ``kind="single"`` cycle span; it is a wave of
        width 1 and is spanned exactly like one, through the scheme."""
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        with obs.observed() as observer:
            engine = ParallelEngine(
                conflict_rules(), wm, scheme="2pl",
                strategy="priority", observer=observer,
            )
            engine.run_wave(width=1)
        (cycle,) = observer.spans.spans("cycle")
        assert "kind" not in cycle.fields
        names = observer.spans.names()
        assert names["acquire"] == names["firing"] == 1
        (firing,) = observer.spans.spans("firing")
        assert firing.fields["rule"] == "toggle"
        assert firing.fields["status"] == "committed"
        assert firing.fields["scheme"] == "2pl"


class TestLevels:
    def test_metrics_level_skips_spans_entirely(self):
        with obs.observed(level="metrics") as observer:
            assert observer.spans is None
            run_conflict_workload(observer)
        assert observer.metrics.snapshot()

    def test_trace_level_is_gone(self):
        with pytest.raises(ValueError, match="unknown observer level"):
            obs.Observer(level="trace")

    def test_full_level_shares_the_trace_clock(self):
        with obs.observed() as observer:
            assert observer.spans.clock is observer.clock
            assert observer.health.clock is observer.clock

    def test_span_dump_is_valid_json_lines(self):
        with obs.observed() as observer:
            run_conflict_workload(observer)
        for line in observer.spans.to_json_lines().splitlines():
            json.loads(line)
