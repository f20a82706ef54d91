"""Per-rule profiler: attribution buckets, wait claiming, coverage."""

import pytest

import repro.obs as obs
from repro.engine import ParallelEngine
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.obs.profile import (
    ADMIT_RULE,
    MATCH_RULE,
    RuleProfiler,
    render_profile,
)
from repro.wm import WorkingMemory
from repro.workloads.manners import (
    build_manners_memory,
    build_manners_rules,
)


class TestRuleProfiler:
    def test_firing_without_wait_is_pure_rhs(self):
        profiler = RuleProfiler()
        profiler.record_firing("greet", "t1", 0.4)
        snap = profiler.snapshot()
        row = snap["rules"][0]
        assert row["rule"] == "greet"
        assert row["firings"] == 1
        assert row["rhs"] == pytest.approx(0.4)
        assert row["lock_wait"] == 0.0

    def test_parked_wait_is_claimed_by_the_txns_firing(self):
        profiler = RuleProfiler()
        profiler.record_wait("t1", 0.1)
        profiler.record_wait("t1", 0.05)
        profiler.record_firing("greet", "t1", 0.4)
        row = profiler.snapshot()["rules"][0]
        assert row["lock_wait"] == pytest.approx(0.15)
        assert row["rhs"] == pytest.approx(0.25)
        # Claimed once: a second firing of the txn sees no leftover.
        profiler.record_firing("greet", "t1", 0.2)
        row = profiler.snapshot()["rules"][0]
        assert row["lock_wait"] == pytest.approx(0.15)

    def test_wait_claim_is_capped_at_the_span_duration(self):
        """A clock-skewed wait larger than the claiming span cannot
        drive self-time negative."""
        profiler = RuleProfiler()
        profiler.record_wait("t1", 2.0)
        profiler.record_acquire("greet", "t1", 0.5)
        row = profiler.snapshot()["rules"][0]
        assert row["lock_wait"] == pytest.approx(0.5)
        assert row["acquire"] == 0.0

    def test_waits_park_per_transaction(self):
        profiler = RuleProfiler()
        profiler.record_wait("t1", 0.1)
        profiler.record_wait("t2", 0.2)
        profiler.record_firing("a", "t1", 0.3)
        profiler.record_firing("b", "t2", 0.3)
        rows = {r["rule"]: r for r in profiler.snapshot()["rules"]}
        assert rows["a"]["lock_wait"] == pytest.approx(0.1)
        assert rows["b"]["lock_wait"] == pytest.approx(0.2)

    def test_match_time_lands_on_the_pseudo_rule(self):
        profiler = RuleProfiler()
        profiler.record_match(0.25)
        row = profiler.snapshot()["rules"][0]
        assert row["rule"] == MATCH_RULE
        assert row["match"] == pytest.approx(0.25)
        assert row["firings"] == 0

    def test_admission_time_lands_on_its_own_pseudo_rule(self):
        profiler = RuleProfiler()
        profiler.record_admit(0.125)
        profiler.record_admit(0.125)
        row = profiler.snapshot()["rules"][0]
        assert row["rule"] == ADMIT_RULE
        assert row["acquire"] == pytest.approx(0.25)
        assert row["firings"] == 0

    def test_unclaimed_wait_is_reported_not_lost(self):
        profiler = RuleProfiler()
        profiler.record_wait("ghost", 0.3)
        snap = profiler.snapshot()
        assert snap["unclaimed_wait_seconds"] == pytest.approx(0.3)
        assert snap["rules"] == []

    def test_coverage_is_attributed_over_wall(self):
        profiler = RuleProfiler()
        assert profiler.coverage() is None
        profiler.record_firing("a", None, 0.6)
        profiler.record_match(0.3)
        profiler.record_run(1.0)
        assert profiler.coverage() == pytest.approx(0.9)
        assert profiler.snapshot()["coverage"] == pytest.approx(0.9)

    def test_clear_resets_everything(self):
        profiler = RuleProfiler()
        profiler.record_wait("t1", 0.1)
        profiler.record_firing("a", None, 0.2)
        profiler.record_run(1.0)
        profiler.clear()
        snap = profiler.snapshot()
        assert snap["rules"] == []
        assert snap["runs"] == 0
        assert snap["unclaimed_wait_seconds"] == 0.0
        assert profiler.coverage() is None


class TestRenderProfile:
    def test_table_has_header_totals_and_share(self):
        profiler = RuleProfiler()
        profiler.record_firing("hot-rule", "t1", 0.75)
        profiler.record_match(0.15)
        profiler.record_run(1.0)
        text = render_profile(profiler.snapshot())
        lines = text.splitlines()
        assert "coverage=90.0%" in lines[0]
        assert lines[1].split() == [
            "rule", "firings", "total", "match", "lock_wait",
            "acquire", "rhs", "share",
        ]
        # Ranked by total: the hot rule leads, then the match pseudo-rule.
        assert lines[3].startswith("hot-rule")
        assert "75.0%" in lines[3]
        assert lines[4].startswith(MATCH_RULE)

    def test_empty_profile_renders_placeholder(self):
        text = render_profile(RuleProfiler().snapshot())
        assert "(no attributed time)" in text


class TestEngineAttribution:
    def test_manners_run_attributes_at_least_ninety_percent(self):
        """The acceptance bar: profiler coverage >= 0.9 on Manners.

        32 guests, not 8: what the profiler cannot attribute is the
        per-wave bookkeeping around the firings, and of an 8-guest
        run (5 ms) that was already 8-10 % — the bar sat inside the
        run-to-run spread, and every match speed-up shrinks the
        attributed share further.  At 32 guests the run is ~30 ms and
        coverage reads 0.94-0.95 run after run.

        Re-targeted: a quarter of that run is wave admission (the
        footprints of the candidates it holds back), which used to be
        attributed as acquire/firing time of the aborted attempts; it
        is covered through the ``(admit)`` row, and would read 0.6
        without it."""
        observer = obs.Observer(level="sampled")
        engine = ParallelEngine(
            build_manners_rules(),
            build_manners_memory(32, seed=5),
            scheme="rc",
            observer=observer,
        )
        engine.run()
        snap = observer.profiler.snapshot()
        assert snap["runs"] == 1
        assert snap["coverage"] >= 0.9
        # Real Manners productions show up under their own names.
        named = {r["rule"] for r in snap["rules"]}
        assert any(not r.startswith("(") for r in named)
        rows = {r["rule"]: r for r in snap["rules"]}
        assert rows[ADMIT_RULE]["acquire"] > 0
        assert rows[ADMIT_RULE]["firings"] == 0

    def test_profiling_works_with_spans_fully_sampled_out(self):
        """Profiling is an aggregate: rate 0.0 drops every span tree
        but the profiler still sees every firing."""
        rules = [
            RuleBuilder("consume")
            .when("item", id=var("i"))
            .remove(1)
            .build()
        ]
        wm = WorkingMemory()
        for i in range(6):
            wm.make("item", id=i)
        observer = obs.Observer(level="sampled", sample_rate=0.0)
        ParallelEngine(rules, wm, scheme="rc", observer=observer).run()
        assert observer.spans.spans() == []
        snap = observer.profiler.snapshot()
        rows = {r["rule"]: r for r in snap["rules"]}
        assert rows["consume"]["firings"] == 6
        # Tiny runs pay a larger fixed-dispatch share than Manners;
        # the >= 0.9 acceptance bar lives in the Manners test above.
        assert snap["coverage"] >= 0.6
