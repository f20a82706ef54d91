"""Tests for fault plans and the injector's determinism contract."""

import pytest

from repro.errors import FiringCrashed, ReproError, StorageFailure
from repro.fault import FAULT_KINDS, FaultPlan, FaultSpec
from repro.txn.transaction import Transaction


def txn(rule="r1"):
    return Transaction(rule_name=rule)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec("disk_on_fire")

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ReproError):
            FaultSpec("lock_deny", rate=rate)

    def test_negative_delay_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec("lock_delay", delay=-1)

    def test_site_filters(self):
        spec = FaultSpec("lock_deny", rule="p1", obj="q", mode="Wa")
        assert spec.matches_site("p1", obj="q-key", mode="Wa")
        assert not spec.matches_site("p2", obj="q-key", mode="Wa")
        assert not spec.matches_site("p1", obj="other", mode="Wa")
        assert not spec.matches_site("p1", obj="q-key", mode="Rc")

    def test_unfiltered_spec_matches_everything(self):
        spec = FaultSpec("abort_rhs")
        assert spec.matches_site("anything")


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.none()
        assert FaultPlan([FaultSpec("abort_rhs")])

    def test_chaos_builds_one_spec_per_kind(self):
        plan = FaultPlan.chaos(7, 0.3)
        assert plan.seed == 7
        assert {s.kind for s in plan.specs} == {
            "lock_deny", "abort_rhs", "crash_commit"
        }
        assert all(s.rate == 0.3 for s in plan.specs)

    def test_specs_for_filters_by_kind(self):
        plan = FaultPlan.chaos(0, 0.5, kinds=FAULT_KINDS)
        assert len(plan.specs_for("storage_fail")) == 1
        assert plan.specs_for("nope") == ()


class TestInjectorDeterminism:
    def _denials(self, seed, visits=200, rate=0.3):
        injector = FaultPlan(
            [FaultSpec("lock_deny", rate=rate)], seed=seed
        ).injector()
        t = txn()
        return [
            injector.lock_fault(t, f"obj{i}", "Wa") == "deny"
            for i in range(visits)
        ]

    def test_same_seed_same_visit_order_same_faults(self):
        assert self._denials(42) == self._denials(42)

    def test_different_seeds_differ(self):
        assert self._denials(1) != self._denials(2)

    def test_rate_roughly_respected(self):
        hits = sum(self._denials(0, visits=1000, rate=0.3))
        assert 200 < hits < 400

    def test_rate_zero_never_fires(self):
        assert not any(self._denials(0, rate=0.0))

    def test_rate_one_always_fires(self):
        assert all(self._denials(0, rate=1.0))


class TestInjectorSites:
    def test_max_hits_bounds_injections(self):
        injector = FaultPlan(
            [FaultSpec("lock_deny", max_hits=2)], seed=0
        ).injector()
        t = txn()
        outcomes = [
            injector.lock_fault(t, "q", "Wa") for _ in range(5)
        ]
        assert outcomes == ["deny", "deny", None, None, None]
        assert injector.injected["lock_deny"] == 2

    def test_rule_filter_scopes_the_fault(self):
        injector = FaultPlan(
            [FaultSpec("abort_rhs", rule="victim")], seed=0
        ).injector()
        assert injector.rhs_abort(txn("victim"))
        assert not injector.rhs_abort(txn("bystander"))

    def test_lock_delay_uses_the_sleeper(self):
        slept = []
        injector = FaultPlan(
            [FaultSpec("lock_delay", delay=0.25)], seed=0
        ).injector(sleeper=slept.append)
        assert injector.lock_fault(txn(), "q", "Rc") is None  # no deny
        assert slept == [0.25]

    def test_crash_point_raises(self):
        injector = FaultPlan(
            [FaultSpec("crash_commit")], seed=0
        ).injector()
        with pytest.raises(FiringCrashed):
            injector.crash_point(txn())

    def test_storage_fault_raises(self):
        injector = FaultPlan(
            [FaultSpec("storage_fail")], seed=0
        ).injector()
        with pytest.raises(StorageFailure):
            injector.storage_fault(site="wal:commit")

    def test_summary_counts_by_kind(self):
        injector = FaultPlan(
            [FaultSpec("abort_rhs"), FaultSpec("lock_deny")], seed=0
        ).injector()
        t = txn()
        injector.rhs_abort(t)
        injector.rhs_abort(t)
        injector.lock_fault(t, "q", "Wa")
        assert injector.summary() == {"abort_rhs": 2, "lock_deny": 1}
        assert injector.total_injected == 3

    def test_empty_plan_sites_are_noops(self):
        injector = FaultPlan.none().injector()
        t = txn()
        assert injector.lock_fault(t, "q", "Wa") is None
        assert not injector.rhs_abort(t)
        injector.crash_point(t)  # does not raise
        injector.storage_fault()  # does not raise
        assert injector.total_injected == 0
