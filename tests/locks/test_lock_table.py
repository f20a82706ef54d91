"""The one lock table: reference equivalence, commit cost, races, threads.

Four pillars:

* a hypothesis property test that the manager and the reference model
  in ``reference_manager.py`` — a count-free table, every decision a
  walk through ``compatible()`` — make *identical* grant/wait/deny
  decisions for any deterministic request schedule, and that the
  per-mode counts the manager decides from equal a recount of its
  holder maps after every step;
* the commit-cost regression: ``release_all`` visits only the
  transaction's own queues (O(held + waiting));
* the forced-abort races: a grant or a queued request that a rule-(ii)
  abort lands on is still released;
* 8-thread hammers with exact grant totals and a post-run audit, and
  the Figure 4.4 Rc/Wa shape committing exactly one side.
"""

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionError
from repro.locks import (
    DeadlockDetector,
    LockManager,
    LockMode,
    RcScheme,
    RequestStatus,
)
from repro.txn import Transaction

from reference_manager import ReferenceLockManager


def txn(name=""):
    return Transaction(rule_name=name)


# -- decision equivalence ------------------------------------------------------------

#: Op vocabulary for the equivalence schedules.  ``acquire`` is the
#: queueing entry point (non-blocking, so WAITING is an observable
#: outcome); ``try`` is the fast path; ``can`` is the pure probe;
#: releases and ``cancel`` exercise queue processing and the
#: cancellation indexes.
#: Few objects, so most steps land on one that is already held or
#: queued on: shared-reader upgrades, re-grants, and wake-ups behind a
#: cancelled request all need three or more steps on the same object.
N_TXNS = 4
OBJECTS = ["o0", "o1", "o2"]
#: Modes from different schemes never meet in one manager (mixing
#: raises, by design), so each schedule draws from a single family.
MODE_FAMILIES = [
    [LockMode.R, LockMode.W],
    [LockMode.RC, LockMode.RA, LockMode.WA],
]


def _ops_for(modes):
    request = (
        st.integers(0, N_TXNS - 1),
        st.sampled_from(OBJECTS),
        st.sampled_from(modes),
    )
    return st.one_of(
        st.tuples(st.just("try"), *request),
        st.tuples(st.just("acquire"), *request),
        st.tuples(st.just("can"), *request),
        st.tuples(
            st.just("release"),
            st.integers(0, N_TXNS - 1),
            st.sampled_from(OBJECTS),
            st.sampled_from([None, *modes]),
        ),
        st.tuples(st.just("release_all"), st.integers(0, N_TXNS - 1)),
        # Cancels the k-th request ``acquire`` has returned so far
        # (modulo), whatever its state: granted ones must be spared.
        st.tuples(st.just("cancel"), st.integers(0, 59)),
    )


schedule_strategy = st.sampled_from(MODE_FAMILIES).flatmap(
    lambda modes: st.lists(_ops_for(modes), max_size=60)
)


def apply_schedule(manager, txns, schedule, after_step=lambda: None):
    """Run a schedule, returning the observable decision trace."""
    trace = []
    requests = []
    for op in schedule:
        if op[0] == "try":
            _, i, obj, mode = op
            trace.append(manager.try_acquire(txns[i], obj, mode))
        elif op[0] == "acquire":
            _, i, obj, mode = op
            requests.append(manager.acquire(txns[i], obj, mode))
        elif op[0] == "can":
            _, i, obj, mode = op
            trace.append(manager.can_grant(txns[i], obj, mode))
        elif op[0] == "release":
            _, i, obj, mode = op
            manager.release(txns[i], obj, mode)
        elif op[0] == "cancel":
            if requests:
                manager.cancel(requests[op[1] % len(requests)])
        else:
            manager.release_all(txns[op[1]])
        # Releases and cancels resolve earlier requests: their states
        # are part of every step's observable outcome.
        trace.append([r.status.name for r in requests])
        after_step()
    return trace


def normalized_grants(manager, txns):
    """Grant table with transactions replaced by their pool index."""
    index = {t.txn_id: i for i, t in enumerate(txns)}
    return {
        obj: {index[txn_id]: modes for txn_id, modes in grants.items()}
        for obj, grants in manager.grant_table().items()
    }


def assert_counts_match_holders(manager):
    """The per-mode counts the grant rule reads, recounted from the
    holder maps; and nothing is kept for an object nobody holds or
    waits on."""
    entries = manager._entries
    for obj, entry in entries.items():
        recount = Counter(
            mode for modes in entry.holders.values() for mode in modes
        )
        assert entry.counts == recount, obj
        assert all(entry.holders.values()), obj
        assert entry.holders or entry.queue, obj
    held = {(t, obj) for obj, entry in entries.items() for t in entry.holders}
    assert held == {(t, o) for t, objs in manager._held.items() for o in objs}
    waiting = {
        r for entry in entries.values() for r in entry.queue if r.is_waiting
    }
    assert waiting == {r for rs in manager._pending.values() for r in rs}


class TestReferenceEquivalence:
    @settings(max_examples=250, deadline=None)
    @given(schedule=schedule_strategy)
    def test_same_decisions_as_the_reference(self, schedule):
        reference = ReferenceLockManager()
        manager = LockManager()
        reference_txns = [txn(f"t{i}") for i in range(N_TXNS)]
        manager_txns = [txn(f"t{i}") for i in range(N_TXNS)]

        reference_trace = apply_schedule(reference, reference_txns, schedule)
        manager_trace = apply_schedule(
            manager, manager_txns, schedule,
            after_step=lambda: assert_counts_match_holders(manager),
        )

        assert reference_trace == manager_trace
        assert normalized_grants(
            reference, reference_txns
        ) == normalized_grants(manager, manager_txns)
        # Decision-identical schedules must produce identical counters.
        assert reference.stats_snapshot() == manager.stats_snapshot()
        assert len(reference.waiting_requests()) == len(
            manager.waiting_requests()
        )
        manager.audit_now()

    def test_fifo_wakeup_order_matches(self):
        # After the writer releases, queued readers are granted and the
        # queued writer behind them keeps waiting — in both tables.
        for manager in (ReferenceLockManager(), LockManager()):
            w, r1, r2, w2 = (txn(n) for n in ("w", "r1", "r2", "w2"))
            assert manager.acquire(w, "q", LockMode.W).is_granted
            first = manager.acquire(r1, "q", LockMode.R)
            second = manager.acquire(r2, "q", LockMode.R)
            third = manager.acquire(w2, "q", LockMode.W)
            manager.release_all(w)
            assert first.status is RequestStatus.GRANTED
            assert second.status is RequestStatus.GRANTED
            assert third.status is RequestStatus.WAITING


# -- commit-cost regression (queue visits) ---------------------------------------------


def _make_noise(manager, count):
    """Give ``count`` objects a holder and a waiting request each."""
    for i in range(count):
        obj = f"noise{i}"
        holder, waiter = txn(f"h{i}"), txn(f"w{i}")
        assert manager.acquire(holder, obj, LockMode.W).is_granted
        assert manager.acquire(waiter, obj, LockMode.W).is_waiting


class TestReleaseAllQueueVisits:
    """Regression for the O(total objects) commit epilogue.

    A ``release_all`` that iterates every queue in the system
    reprocesses every object — even ones the committing transaction
    never touched (the reference model still does).  The per-
    transaction indexes must visit only the transaction's own objects,
    independent of how many unrelated queues exist.
    """

    def test_release_visits_only_own_objects(self):
        manager = LockManager()
        _make_noise(manager, 40)
        t = txn("committer")
        assert manager.try_acquire(t, "mine", LockMode.W)
        before = manager.queue_visits
        manager.release_all(t)
        visits = manager.queue_visits - before
        assert visits <= 1, (
            f"release_all visited {visits} queues for a 1-object txn"
        )

    def test_visits_scale_with_own_footprint_only(self):
        for noise in (5, 50):
            manager = LockManager()
            _make_noise(manager, noise)
            t = txn("committer")
            for j in range(3):
                assert manager.try_acquire(t, f"mine{j}", LockMode.W)
            waiting_obj = "noise0"
            assert manager.acquire(t, waiting_obj, LockMode.W).is_waiting
            before = manager.queue_visits
            manager.release_all(t)
            visits = manager.queue_visits - before
            # 3 held objects + 1 pending queue, regardless of noise.
            assert visits <= 4, f"{visits} visits with {noise} noise objs"


# -- forced-abort races -----------------------------------------------------------------


class TestForcedAbortRace:
    """A rule-(ii) force abort can land between a grant's lock-table
    bookkeeping and ``record_read`` — the grant then exists but the
    object is missing from the read set.  ``release_all`` must release
    it anyway (it consults the held index, never the transaction's
    read/write sets)."""

    def test_release_all_recovers_unrecorded_grant(self):
        manager = LockManager()
        victim = txn("victim")
        victim.try_abort("rule (ii) landed mid-acquire")
        with pytest.raises(TransactionError):
            manager.try_acquire(victim, "q", LockMode.RC)
        # The grant was registered before record_read raised ...
        assert manager.grant_table() == {"q": {victim.txn_id: ("Rc",)}}
        assert "q" not in victim.read_set
        # ... and release_all still finds and drops it.
        manager.release_all(victim)
        assert manager.grant_table() == {}
        manager.audit_now()

    def test_release_wakes_a_queued_victim_instead_of_raising(self):
        """The same abort landing on a *queued* request: the grant
        happens in the releasing transaction's thread, so raising there
        would kill an innocent commit half-way through its release
        (seen as a rare lock leak under the threaded executor)."""
        manager = LockManager()
        writer, victim = txn("writer"), txn("victim")
        manager.acquire(victim, "q", LockMode.RC)
        manager.acquire(writer, "q", LockMode.WA)
        queued = manager.acquire(victim, "q", LockMode.WA)
        assert queued.is_waiting
        victim.try_abort("rule (ii): writer commits first")
        manager.release_all(writer)  # must not raise
        assert not queued.is_waiting and not queued.is_granted
        assert manager.waiting_requests() == []
        manager.release_all(victim)
        assert manager.grant_table() == {}
        manager.audit_now()


# -- threaded hammer --------------------------------------------------------------------


class TestThreadedHammer:
    def test_disjoint_hammer_exact_totals(self):
        manager = LockManager(audit=False)
        threads, iterations, per_iter = 8, 40, 6
        errors = []
        barrier = threading.Barrier(threads)

        def worker(worker_id):
            try:
                barrier.wait()
                for it in range(iterations):
                    t = txn(f"w{worker_id}")
                    for j in range(per_iter):
                        obj = f"w{worker_id}-o{j}"
                        assert manager.try_acquire(t, obj, LockMode.W)
                        assert manager.try_acquire(t, obj, LockMode.R)
                    assert (
                        len(manager.locked_objects(t)) == per_iter
                    )
                    manager.release_all(t)
                    assert manager.locked_objects(t) == frozenset()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        assert errors == []
        stats = manager.stats_snapshot()
        assert stats["grants"] == threads * iterations * per_iter * 2
        assert stats["denials"] == 0
        assert stats["waits"] == 0
        assert manager.grant_table() == {}
        manager.audit_now()

    def test_contended_hammer_accounts_every_attempt(self):
        manager = LockManager(audit=False)
        threads, iterations = 8, 50
        hot = [f"hot{i}" for i in range(4)]
        outcomes = []
        mutex = threading.Lock()
        barrier = threading.Barrier(threads)

        def worker(worker_id):
            barrier.wait()
            granted = denied = 0
            for it in range(iterations):
                t = txn(f"w{worker_id}")
                for obj in hot:
                    if manager.try_acquire(t, obj, LockMode.W):
                        granted += 1
                    else:
                        denied += 1
                manager.release_all(t)
            with mutex:
                outcomes.append((granted, denied))

        workers = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        total_granted = sum(g for g, _ in outcomes)
        total_denied = sum(d for _, d in outcomes)
        assert total_granted + total_denied == threads * iterations * 4
        stats = manager.stats_snapshot()
        assert stats["grants"] == total_granted
        assert stats["denials"] == total_denied
        assert manager.grant_table() == {}
        manager.audit_now()


# -- Figure 4.4 on the table -------------------------------------------------------------


def test_figure_4_4_rc_wa_conflict_commits_one():
    # The literal Figure 4.4 shape on the Rc scheme: P_i holds
    # Rc(q), Wa(r); P_j holds Rc(r), Wa(q).  No waits-for cycle
    # exists (Wa bypasses Rc) — whichever commits first aborts the
    # other via rule (ii).
    scheme = RcScheme()
    p_i, p_j = txn("p_i"), txn("p_j")
    assert scheme.try_lock_condition(p_i, "q")
    assert scheme.try_lock_condition(p_j, "r")
    assert scheme.try_lock_action(p_i, writes=["r"])
    assert scheme.try_lock_action(p_j, writes=["q"])

    assert DeadlockDetector(scheme.manager).find_cycle() is None

    outcome = scheme.commit(p_i)
    assert outcome.committed
    assert outcome.victims == [p_j]
    scheme.abort(p_j, "rule (ii)")
    assert scheme.manager.grant_table() == {}
    scheme.manager.audit_now()
