"""Tests for deadlock detection and victim selection."""

import pytest

from repro.locks import LockManager, LockMode
from repro.locks.deadlock import DeadlockDetector, youngest_victim
from repro.txn import Transaction


def txn(name=""):
    return Transaction(rule_name=name)


def make_cycle(manager):
    """Classic two-transaction upgrade cycle on objects a and b."""
    t1, t2 = txn("t1"), txn("t2")
    manager.acquire(t1, "a", LockMode.R)
    manager.acquire(t2, "b", LockMode.R)
    manager.acquire(t1, "b", LockMode.W)  # waits on t2
    manager.acquire(t2, "a", LockMode.W)  # waits on t1 -> cycle
    return t1, t2


class TestDetection:
    def test_no_cycle_on_clean_manager(self):
        detector = DeadlockDetector(LockManager())
        assert detector.find_cycle() is None
        assert detector.choose_victim() is None

    def test_waiting_without_cycle(self):
        manager = LockManager()
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        manager.acquire(t2, "q", LockMode.W)
        detector = DeadlockDetector(manager)
        assert detector.find_cycle() is None

    def test_two_party_cycle_detected(self):
        manager = LockManager()
        t1, t2 = make_cycle(manager)
        detector = DeadlockDetector(manager)
        cycle = detector.find_cycle()
        assert cycle is not None
        assert {t.txn_id for t in cycle} == {t1.txn_id, t2.txn_id}

    def test_three_party_cycle_detected(self):
        manager = LockManager()
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "a", LockMode.W)
        manager.acquire(t2, "b", LockMode.W)
        manager.acquire(t3, "c", LockMode.W)
        manager.acquire(t1, "b", LockMode.W)
        manager.acquire(t2, "c", LockMode.W)
        manager.acquire(t3, "a", LockMode.W)
        detector = DeadlockDetector(manager)
        cycle = detector.find_cycle()
        assert cycle is not None
        assert len(cycle) == 3

    def test_detected_cycles_recorded(self):
        manager = LockManager()
        make_cycle(manager)
        detector = DeadlockDetector(manager)
        detector.choose_victim()
        assert len(detector.detected) == 1

    def test_breaking_cycle_by_abort_clears_detection(self):
        manager = LockManager()
        t1, t2 = make_cycle(manager)
        detector = DeadlockDetector(manager)
        victim = detector.choose_victim()
        manager.release_all(victim)
        assert detector.find_cycle() is None

    def test_rc_scheme_cycle_shape(self):
        """Rc locks 'do not introduce new kinds of deadlocks': an
        Ra/Wa upgrade cycle is detected identically."""
        manager = LockManager()
        t1, t2 = txn(), txn()
        manager.acquire(t1, "a", LockMode.RA)
        manager.acquire(t2, "b", LockMode.RA)
        manager.acquire(t1, "b", LockMode.WA)
        manager.acquire(t2, "a", LockMode.WA)
        assert DeadlockDetector(manager).find_cycle() is not None

    def test_rc_wa_bypass_creates_no_cycle(self):
        """The permissive Rc-Wa cell removes a waits-for edge, so the
        scenario that deadlocks under 2PL does not under Rc."""
        manager = LockManager()
        t1, t2 = txn(), txn()
        manager.acquire(t1, "a", LockMode.RC)
        manager.acquire(t2, "b", LockMode.RC)
        manager.acquire(t1, "b", LockMode.WA)  # granted over Rc!
        manager.acquire(t2, "a", LockMode.WA)  # granted over Rc!
        assert DeadlockDetector(manager).find_cycle() is None


class TestVictimPolicies:
    def test_youngest_victim(self):
        a, b = txn(), txn()
        assert youngest_victim([a, b]) is b

    def test_policy_applied_by_detector(self):
        manager = LockManager()
        t1, t2 = make_cycle(manager)
        detector = DeadlockDetector(manager)
        assert detector.choose_victim() is t2
