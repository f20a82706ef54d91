"""Tests for critical-path attribution and abort chains."""

import pytest

from repro.analysis.critpath import (
    abort_chains,
    build_tree,
    categorize,
    coverage,
    critical_chain,
    cycle_breakdowns,
    held_backs,
    makespan,
    ordered_firsts,
)
from repro.obs import SpanRecorder


def synthetic_cycle():
    """One cycle, hand-placed on a fake timeline:

    cycle [0, 10]
      phase.match   [0, 2]
      phase.acquire [2, 4]
        acquire       [2.5, 3.5]
          lock.acquire  [3.0, 3.5]    (deepest wins over acquire)
      phase.act     [4, 9]
        firing        [4, 8]
          rhs           [5, 7]
    uncovered [9, 10] -> other
    """
    rec = SpanRecorder()
    run = rec.record("run", start=0.0, end=10.0)
    cycle = rec.record("cycle", start=0.0, end=10.0, parent=run, wave=1)
    rec.record("phase.match", start=0.0, end=2.0, parent=cycle)
    pa = rec.record("phase.acquire", start=2.0, end=4.0, parent=cycle)
    acq = rec.record("acquire", start=2.5, end=3.5, parent=pa, txn="t1")
    rec.record("lock.acquire", start=3.0, end=3.5, parent=acq)
    act = rec.record("phase.act", start=4.0, end=9.0, parent=cycle)
    firing = rec.record(
        "firing", start=4.0, end=8.0, parent=act, rule="r", txn="t1"
    )
    rec.record("rhs", start=5.0, end=7.0, parent=firing)
    return rec


class TestCategorize:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("lock.acquire", "lock_wait"),
            ("phase.match", "match"),
            ("match.flush", "match"),
            ("match.shard", "match"),
            ("phase.admit", "admit"),
            ("held", "admit"),
            ("ordered", "admit"),
            ("phase.acquire", "acquire"),
            ("acquire", "acquire"),
            ("firing", "rhs"),
            ("rhs", "rhs"),
            ("phase.act", "rhs"),
            ("cycle", "other"),
            ("run", "other"),
        ],
    )
    def test_span_names_map_to_buckets(self, name, expected):
        assert categorize(name) == expected


class TestAttribution:
    def test_buckets_sum_exactly_to_cycle_duration(self):
        rec = synthetic_cycle()
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.wave == 1
        assert breakdown.duration == pytest.approx(10.0)
        assert sum(breakdown.buckets.values()) == pytest.approx(10.0)

    def test_deepest_span_wins_each_slice(self):
        rec = synthetic_cycle()
        (breakdown,) = cycle_breakdowns(rec)
        # match: [0,2].  acquire: [2,3] phase + [2.5..3.0] span level,
        # minus the lock slice.  lock_wait: [3.0,3.5].
        assert breakdown.buckets["match"] == pytest.approx(2.0)
        assert breakdown.buckets["lock_wait"] == pytest.approx(0.5)
        assert breakdown.buckets["acquire"] == pytest.approx(1.5)
        # rhs: phase.act + firing + rhs cover [4,9].
        assert breakdown.buckets["rhs"] == pytest.approx(5.0)
        # Uncovered tail [9,10].
        assert breakdown.buckets["other"] == pytest.approx(1.0)

    def test_dominant_bucket(self):
        rec = synthetic_cycle()
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.dominant == "rhs"

    def test_chain_follows_heaviest_children(self):
        rec = synthetic_cycle()
        roots, by_id = build_tree(rec)
        cycle = next(n for n in by_id.values() if n.name == "cycle")
        chain = critical_chain(cycle)
        assert [label for label, _ in chain] == [
            "phase.act", "firing[r]", "rhs",
        ]
        assert chain[0][1] == pytest.approx(5.0)

    def test_unfinished_spans_are_ignored(self):
        rec = SpanRecorder()
        cycle = rec.record("cycle", start=0.0, end=1.0, wave=1)
        rec.start("firing", parent=cycle, ts=0.2)  # never finished
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.buckets["other"] == pytest.approx(1.0)

    def test_makespan_and_coverage(self):
        rec = synthetic_cycle()
        assert makespan(rec) == pytest.approx(10.0)
        assert coverage(rec) == pytest.approx(1.0)

    def test_makespan_without_run_span_uses_envelope(self):
        rec = SpanRecorder()
        rec.record("cycle", start=1.0, end=3.0, wave=1)
        rec.record("cycle", start=3.0, end=4.0, wave=2)
        assert makespan(rec) == pytest.approx(3.0)
        assert coverage(rec) == pytest.approx(1.0)

    def test_orphaned_children_are_roots(self):
        # Parent evicted from the ring: the child must not vanish.
        rec = SpanRecorder()
        rec.record("cycle", start=0.0, end=1.0, parent=12345, wave=7)
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.wave == 7

    def test_accepts_span_dicts_from_jsonl(self):
        rec = synthetic_cycle()
        dicts = [span.to_dict() for span in rec.spans()]
        assert cycle_breakdowns(dicts)[0].buckets == (
            cycle_breakdowns(rec)[0].buckets
        )


class TestAbortChains:
    def test_links_resolve_victim_and_committer(self):
        rec = SpanRecorder()
        committer = rec.record(
            "firing", start=0.0, end=1.0, rule="toggle", txn="t1"
        )
        victim = rec.record(
            "acquire", start=0.0, end=0.5, rule="observe", txn="t2"
        )
        victim.link(committer, kind="rc_wa_abort")
        victim.annotate(
            aborted_by_txn="t1", conflict_objs=("('flag', 1)",)
        )
        victim.link(committer, kind="causes")  # other kinds ignored
        (chain,) = abort_chains(rec)
        assert chain.victim_rule == "observe"
        assert chain.victim_txn == "t2"
        assert chain.committer_rule == "toggle"
        assert chain.committer_txn == "t1"
        assert chain.committer_span == committer.span_id
        assert chain.objs == ("('flag', 1)",)

    def test_missing_committer_degrades_gracefully(self):
        rec = SpanRecorder()
        victim = rec.record("acquire", start=0.0, end=0.5, txn="t2")
        victim.link(999, kind="rc_wa_abort")
        (chain,) = abort_chains(rec)
        assert chain.committer_rule == "?"
        assert chain.committer_span == 999


class TestHeldBacks:
    def test_records_come_back_in_decision_order(self):
        rec = SpanRecorder()
        cycle = rec.record("cycle", start=0.0, end=4.0, wave=3)
        admit = rec.record(
            "phase.admit", start=0.0, end=1.0, parent=cycle
        )
        for held in ("dim", "audit"):
            rec.record(
                "held", start=0.5, end=0.5, parent=admit, wave=3,
                rule=held, cycle=[held, "toggle"],
                objs=["('flag', 1)", "('flag', 2)"],
            )
        rec.record(
            "ordered", start=0.75, end=0.75, parent=admit, wave=3,
            reader="observe", writer="toggle", obj="('flag', 1)",
        )
        rec.record("acquire", start=1.0, end=2.0, rule="toggle")
        first, second = held_backs(rec)
        assert (first.wave, first.rule) == (3, "dim")
        assert first.cycle == ("dim", "toggle")
        assert first.objs == ("('flag', 1)", "('flag', 2)")
        assert second.rule == "audit"
        (ordered,) = ordered_firsts(rec)
        assert (ordered.wave, ordered.obj) == (3, "('flag', 1)")
        assert (ordered.reader_rule, ordered.writer_rule) == (
            "observe", "toggle",
        )

    def test_admission_time_is_its_own_bucket(self):
        rec = SpanRecorder()
        cycle = rec.record("cycle", start=0.0, end=4.0, wave=1)
        admit = rec.record(
            "phase.admit", start=1.0, end=2.5, parent=cycle
        )
        rec.record(
            "held", start=2.0, end=2.0, parent=admit, wave=1,
            rule="dim", cycle=["dim", "toggle"], objs=["q", "q"],
        )
        rec.record(
            "ordered", start=2.25, end=2.25, parent=admit, wave=1,
            reader="observe", writer="toggle", obj="q",
        )
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.buckets["admit"] == pytest.approx(1.5)
        assert breakdown.buckets["other"] == pytest.approx(2.5)


class TestStorageBucket:
    """PR 6 storage spans attribute to their own critpath bucket."""

    @pytest.mark.parametrize(
        "name",
        ["storage.checkpoint", "storage.recovery", "storage.rotate"],
    )
    def test_storage_span_names_map_to_storage(self, name):
        assert categorize(name) == "storage"

    def test_breakdown_carries_a_storage_bucket(self):
        rec = SpanRecorder()
        run = rec.record("run", start=0.0, end=10.0)
        cycle = rec.record(
            "cycle", start=0.0, end=10.0, parent=run, wave=1
        )
        rec.record("phase.match", start=0.0, end=2.0, parent=cycle)
        act = rec.record("phase.act", start=2.0, end=6.0, parent=cycle)
        firing = rec.record(
            "firing", start=2.0, end=6.0, parent=act, rule="r", txn="t1"
        )
        # A checkpoint inside the firing window: deepest span wins.
        rec.record(
            "storage.checkpoint", start=5.0, end=6.0, parent=firing
        )
        rec.record(
            "storage.checkpoint", start=6.0, end=9.0, parent=cycle
        )
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.buckets["storage"] == pytest.approx(4.0)
        assert breakdown.buckets["rhs"] == pytest.approx(3.0)
        assert breakdown.buckets["match"] == pytest.approx(2.0)
        assert breakdown.buckets["other"] == pytest.approx(1.0)
        assert sum(breakdown.buckets.values()) == pytest.approx(10.0)

    def test_storage_dominant_cycle(self):
        rec = SpanRecorder()
        run = rec.record("run", start=0.0, end=4.0)
        cycle = rec.record(
            "cycle", start=0.0, end=4.0, parent=run, wave=1
        )
        rec.record("storage.checkpoint", start=0.0, end=3.0, parent=cycle)
        (breakdown,) = cycle_breakdowns(rec)
        assert breakdown.dominant == "storage"
