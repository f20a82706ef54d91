"""Tests for the centralized lock manager."""

import pytest

import repro.locks.manager as manager_module
from repro.errors import LockError
from repro.locks import LockManager, LockMode, RequestStatus
from repro.txn import History, Transaction


@pytest.fixture
def manager():
    return LockManager()


def txn(name=""):
    return Transaction(rule_name=name)


class TestGrantRules:
    def test_immediate_grant_on_free_object(self, manager):
        t = txn()
        request = manager.acquire(t, "q", LockMode.R)
        assert request.is_granted
        assert manager.holds(t, "q", LockMode.R)

    def test_shared_reads(self, manager):
        t1, t2 = txn(), txn()
        assert manager.acquire(t1, "q", LockMode.R).is_granted
        assert manager.acquire(t2, "q", LockMode.R).is_granted

    def test_writer_blocked_by_reader(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        request = manager.acquire(t2, "q", LockMode.W)
        assert request.is_waiting

    def test_try_acquire_denies_without_queueing(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        assert not manager.try_acquire(t2, "q", LockMode.R)
        assert manager.waiting_requests("q") == []

    def test_no_barging_past_queued_writer(self, manager):
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        manager.acquire(t2, "q", LockMode.W)  # queued
        late_reader = manager.acquire(t3, "q", LockMode.R)
        assert late_reader.is_waiting  # must not starve the writer

    def test_upgrade_bypasses_queue(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        manager.acquire(t2, "q", LockMode.W)  # queued writer
        # t1 already holds R; upgrading to W must not deadlock on the
        # queue, only on other holders (none here besides itself).
        upgrade = manager.acquire(t1, "q", LockMode.W)
        assert upgrade.is_granted

    def test_upgrade_blocked_by_other_reader(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        manager.acquire(t2, "q", LockMode.R)
        assert manager.acquire(t1, "q", LockMode.W).is_waiting


class TestRelease:
    def test_release_wakes_waiter(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        waiting = manager.acquire(t2, "q", LockMode.R)
        manager.release(t1, "q")
        assert waiting.is_granted

    def test_release_all_wakes_across_objects(self, manager):
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "a", LockMode.W)
        manager.acquire(t1, "b", LockMode.W)
        wait_a = manager.acquire(t2, "a", LockMode.R)
        wait_b = manager.acquire(t3, "b", LockMode.R)
        manager.release_all(t1)
        assert wait_a.is_granted
        assert wait_b.is_granted
        assert manager.locked_objects(t1) == frozenset()

    def test_fifo_grant_order(self, manager):
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        first = manager.acquire(t2, "q", LockMode.W)
        second = manager.acquire(t3, "q", LockMode.W)
        manager.release(t1, "q")
        assert first.is_granted
        assert second.is_waiting

    def test_release_all_cancels_own_waiting_requests(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        waiting = manager.acquire(t2, "q", LockMode.W)
        manager.release_all(t2)
        assert not waiting.is_granted
        manager.release(t1, "q")
        assert not waiting.is_granted  # cancelled, not woken

    def test_cancel_unblocks_queue(self, manager):
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        blocked_writer = manager.acquire(t2, "q", LockMode.W)
        queued_reader = manager.acquire(t3, "q", LockMode.R)
        manager.cancel(blocked_writer)
        assert queued_reader.is_granted

    def test_cancel_spares_request_granted_in_race_window(self, manager):
        """Pin for the timeout/cancel race: a waiter that times out may
        receive its grant between giving up and calling ``cancel``.
        The cancel must only resolve WAITING requests — the slipped-in
        grant stays granted (the caller uses the lock; nothing leaks)."""
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        waiting = manager.acquire(t2, "q", LockMode.W)
        manager.release(t1, "q")  # the grant slips in "post-timeout"
        assert waiting.is_granted
        manager.cancel(waiting)  # the timed-out caller's cleanup
        assert waiting.is_granted  # not retroactively cancelled
        assert manager.holds(t2, "q", LockMode.W)
        manager.release_all(t2)  # and a normal release frees it
        assert manager.grant_table() == {}


class TestBookkeeping:
    def test_history_records_reads_and_writes(self):
        history = History()
        manager = LockManager(history=history)
        t = txn()
        manager.acquire(t, "q", LockMode.R)
        manager.acquire(t, "p", LockMode.W)
        kinds = [op.kind for op in history]
        assert kinds == ["r", "w"]
        assert t.read_set == {"q"}
        assert t.write_set == {"p"}

    def test_waits_for_edges(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        manager.acquire(t2, "q", LockMode.R)
        assert (t2, t1) in list(manager.waits_for_edges())

    def test_waits_for_includes_queued_ahead(self, manager):
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        manager.acquire(t2, "q", LockMode.W)  # waits on t1
        manager.acquire(t3, "q", LockMode.W)  # waits on t1 and t2
        edges = set(manager.waits_for_edges())
        assert (t3, t2) in edges

    def test_grant_table_snapshot(self, manager):
        t = txn()
        manager.acquire(t, "q", LockMode.R)
        table = manager.grant_table()
        assert table == {"q": {t.txn_id: ("R",)}}

    def test_can_grant_probe_is_pure(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        assert not manager.can_grant(t2, "q", LockMode.R)
        assert manager.can_grant(t1, "q", LockMode.R)  # own upgrade
        assert manager.waiting_requests() == []

    def test_stats_counters(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.W)
        manager.acquire(t2, "q", LockMode.R)
        manager.try_acquire(t2, "q", LockMode.W)
        assert manager.stats_snapshot()["grants"] == 1
        assert manager.stats_snapshot()["waits"] == 1
        assert manager.stats_snapshot()["denials"] == 1


def entry_of(manager, obj):
    """The table's row for ``obj`` (None once pruned)."""
    return manager._entries.get(obj)


def plant_holder(manager, obj, holder, mode):
    """Corrupt the table: ``holder`` appears in ``obj``'s holder map
    without a grant — and without the counts the grant rule reads, so
    only the auditor can notice."""
    entry_of(manager, obj).holders[holder] = {mode}


class TestAuditor:
    def test_auditor_passes_on_legal_states(self, manager):
        t1, t2 = txn(), txn()
        manager.acquire(t1, "q", LockMode.R)
        manager.acquire(t2, "q", LockMode.R)  # fine
        manager.audit_now()

    def test_rc_wa_coexistence_allowed_by_auditor(self):
        manager = LockManager()
        t1, t2, t3 = txn(), txn(), txn()
        manager.acquire(t1, "q", LockMode.RC)
        granted = manager.acquire(t2, "q", LockMode.WA)
        assert granted.is_granted  # the deliberate Rc-Wa coexistence
        manager.audit_now()
        # ... and a later Rc is refused by the grant rule, not the auditor.
        assert not manager.try_acquire(t3, "q", LockMode.RC)

    @pytest.mark.parametrize(
        "held, planted, requested",
        [
            (LockMode.R, LockMode.W, LockMode.R),
            (LockMode.RC, LockMode.WA, LockMode.RA),
            (LockMode.RC, LockMode.RA, LockMode.WA),
        ],
    )
    def test_next_grant_on_a_corrupted_object_raises(
        self, held, planted, requested
    ):
        manager = LockManager()
        assert manager.try_acquire(txn("honest"), "q", held)
        plant_holder(manager, "q", txn("planted"), planted)
        # The counts never saw the planted holder, so the grant rule
        # lets the request through; the per-grant audit walks the
        # holder map and must not.
        with pytest.raises(LockError, match="compatibility invariant"):
            manager.try_acquire(txn("next"), "q", requested)

    def test_queue_grant_on_a_corrupted_object_raises(self, manager):
        holder, waiter = txn("holder"), txn("waiter")
        manager.acquire(holder, "q", LockMode.W)
        assert manager.acquire(waiter, "q", LockMode.R).is_waiting
        plant_holder(manager, "q", txn("planted"), LockMode.W)
        with pytest.raises(LockError):
            manager.release(holder, "q")  # wakes the reader

    def test_audit_now_raises_on_incompatible_pair(self, manager):
        manager.acquire(txn("honest"), "q", LockMode.W)
        manager.audit_now()
        plant_holder(manager, "q", txn("planted"), LockMode.W)
        with pytest.raises(LockError, match="compatibility invariant"):
            manager.audit_now()

    def test_audit_now_raises_when_counts_drift(self, manager):
        manager.acquire(txn(), "q", LockMode.R)
        # Compatible with the holder, so only the recount can tell.
        plant_holder(manager, "q", txn("planted"), LockMode.R)
        with pytest.raises(LockError, match="mode counts"):
            manager.audit_now()

    def test_other_objects_are_not_audited_per_grant(self, manager):
        manager.acquire(txn(), "q", LockMode.W)
        plant_holder(manager, "q", txn("planted"), LockMode.W)
        assert manager.try_acquire(txn(), "elsewhere", LockMode.W)

    def test_audit_off_skips_the_per_grant_check_only(self):
        manager = LockManager(audit=False)
        manager.acquire(txn(), "q", LockMode.R)
        plant_holder(manager, "q", txn("planted"), LockMode.W)
        assert manager.try_acquire(txn(), "q", LockMode.R)
        with pytest.raises(LockError):
            manager.audit_now()


class TestPruning:
    """Nothing is kept for an object nobody holds or waits on, nor for
    a transaction that holds and waits on nothing — the seed's
    ``defaultdict`` table kept an empty entry per object ever locked."""

    @staticmethod
    def assert_table_empty(manager):
        assert manager._entries == {}
        assert manager._held == {}
        assert manager._pending == {}
        assert manager.grant_table() == {}
        assert manager.waiting_requests() == []

    def test_acquire_queue_cancel_release_leaves_nothing(self, manager):
        t1, t2, t3, t4 = (txn(f"t{i}") for i in range(1, 5))
        assert manager.try_acquire(t1, "a", LockMode.R)
        assert manager.try_acquire(t2, "a", LockMode.R)
        assert manager.acquire(t1, "b", LockMode.W).is_granted
        upgrade = manager.acquire(t1, "a", LockMode.W)  # behind t2's R
        queued = manager.acquire(t3, "a", LockMode.R)  # behind upgrade
        doomed = manager.acquire(t4, "b", LockMode.R)
        assert upgrade.is_waiting and queued.is_waiting and doomed.is_waiting
        assert not manager.try_acquire(t4, "a", LockMode.W)  # denied
        assert manager.can_grant(t4, "never-locked", LockMode.W)  # pure

        manager.cancel(doomed)
        assert doomed.status is RequestStatus.CANCELLED
        manager.release(t2, "a", LockMode.R)  # t1 upgrades; t3 waits on
        assert upgrade.is_granted and queued.is_waiting
        manager.release(t1, "a", LockMode.W)
        manager.release(t1, "a")  # the R goes too; t3 is woken
        assert queued.is_granted
        manager.release_all(t1)
        manager.release_all(t3)
        manager.release_all(t4)

        self.assert_table_empty(manager)
        # Late, redundant calls re-create nothing.
        manager.release(t1, "a")
        manager.release(t2, "never-locked", LockMode.R)
        manager.cancel(doomed)
        manager.release_all(t2)
        self.assert_table_empty(manager)

    def test_release_all_drops_waiting_requests_and_their_entries(
        self, manager
    ):
        holder, waiter = txn("holder"), txn("waiter")
        manager.acquire(holder, "q", LockMode.W)
        waiting = manager.acquire(waiter, "q", LockMode.W)
        manager.release_all(waiter)
        assert waiting.status is RequestStatus.CANCELLED
        manager.release_all(holder)
        self.assert_table_empty(manager)

    def test_counts_follow_partial_releases(self, manager):
        t1, t2 = txn(), txn()
        assert manager.try_acquire(t1, "q", LockMode.RC)
        assert manager.try_acquire(t2, "q", LockMode.RC)
        assert manager.try_acquire(t2, "q", LockMode.RC)  # held: not recounted
        assert manager.try_acquire(t1, "q", LockMode.WA)
        assert entry_of(manager, "q").counts == {
            LockMode.RC: 2, LockMode.WA: 1,
        }
        manager.release(t1, "q", LockMode.WA)
        assert entry_of(manager, "q").counts == {LockMode.RC: 2}
        manager.release(t1, "q", LockMode.WA)  # not held: no effect
        manager.release(t2, "q")
        assert entry_of(manager, "q").counts == {LockMode.RC: 1}
        manager.release_all(t1)
        assert entry_of(manager, "q") is None


class _CountingHolders(dict):
    """A holder map that counts the pairs read out of it."""

    examined = 0

    def items(self):
        for item in super().items():
            self.examined += 1
            yield item


class TestGrantCost:
    """The complexity claim, by counting rather than timing: a grant
    is decided from the per-mode counts (tables precomputed from
    ``compatible()`` at import), and audited against each other holder
    once."""

    @pytest.fixture
    def compatible_calls(self, monkeypatch):
        calls = []
        real = manager_module.compatible

        def counting(requested, held):
            calls.append((requested, held))
            return real(requested, held)

        monkeypatch.setattr(manager_module, "compatible", counting)
        return calls

    @staticmethod
    def crowd(manager, obj, mode, holders):
        for i in range(holders):
            assert manager.try_acquire(txn(f"h{i}"), obj, mode)

    @pytest.mark.parametrize("mode", [LockMode.RC, LockMode.R])
    def test_grant_decision_is_independent_of_holder_count(
        self, mode, compatible_calls
    ):
        per_crowd = []
        for holders in (1, 256):
            manager = LockManager()
            self.crowd(manager, "q", mode, holders)
            del compatible_calls[:]
            assert manager.try_acquire(txn("new"), "q", mode)
            assert manager.can_grant(txn("probe"), "q", mode)
            assert manager.acquire(txn("queued"), "q", mode).is_granted
            per_crowd.append(len(compatible_calls))
        assert per_crowd == [0, 0]

    def test_refusal_is_independent_of_holder_count(self, compatible_calls):
        manager = LockManager()
        self.crowd(manager, "q", LockMode.R, 256)
        del compatible_calls[:]
        assert not manager.try_acquire(txn("writer"), "q", LockMode.W)
        assert not manager.can_grant(txn("writer"), "q", LockMode.W)
        assert compatible_calls == []

    @pytest.mark.parametrize("holders", [1, 16, 256])
    def test_per_grant_audit_examines_each_holder_at_most_once(
        self, holders
    ):
        manager = LockManager()
        self.crowd(manager, "q", LockMode.R, holders)
        entry = entry_of(manager, "q")
        entry.holders = counting = _CountingHolders(entry.holders)
        assert manager.try_acquire(txn("new"), "q", LockMode.R)
        # All-pairs would be holders * (holders + 1) / 2.
        assert 0 < counting.examined <= holders + 1

    def test_rc_grant_has_nothing_to_audit(self):
        # No mode clashes with Rc in both orders (Wa may be granted
        # over it), so the walk is empty by the table, not by trust.
        manager = LockManager()
        self.crowd(manager, "q", LockMode.RC, 64)
        entry = entry_of(manager, "q")
        entry.holders = counting = _CountingHolders(entry.holders)
        assert manager.try_acquire(txn("new"), "q", LockMode.RC)
        assert counting.examined == 0
        assert manager.try_acquire(txn("writer"), "q", LockMode.WA)
        assert counting.examined <= 66

    def test_mixed_scheme_modes_still_raise(self, manager):
        manager.try_acquire(txn(), "q", LockMode.RC)
        with pytest.raises(KeyError):
            manager.try_acquire(txn(), "q", LockMode.R)
        with pytest.raises(KeyError):
            manager.can_grant(txn(), "q", LockMode.W)
