"""Output checks: is this run one admissible outcome?

Every check returns a list of failure strings (empty = pass).  A
parallel run is not compared with a golden trace — any member of
``ES_single`` is right (Definition 3.2) — so the checks are: the run
ended quiescent with the workload's pinned firing count; the final
database solves the problem the rules encode; the commit sequence
replays single-threaded; the lock history is serializable; and nothing
is left behind (locks, queued requests, worker processes, an
unrecoverable WAL).

Runs in the child, after the timed region and after ``ru_maxrss`` was
read.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: ``repro.txn.serializability.precedence_graph`` compares every pair
#: of operations (12 s for the 11k committed operations of one hot_*
#: run, minutes at three times that), so the library check runs on
#: this many leading operations and the linear commit-order check
#: below covers the whole history.
SERIALIZABILITY_PREFIX_OPS = 3000


def check_outcome(spec: dict, result, memory) -> list[str]:
    """Stop reason, firing count and the program's own post-condition."""
    failures = []
    if result.stop_reason != "quiescent":
        failures.append(f"stop reason {result.stop_reason!r}, not quiescent")
    if len(result.firings) != spec["reference"]:
        failures.append(
            f"{len(result.firings)} firings, reference {spec['reference']}"
        )
    failures += _FINAL_STATE[spec["program"]](spec, memory)
    return failures


def _manners_state(spec: dict, memory) -> list[str]:
    """Each party: all guests seated once, seats contiguous,
    neighbours of opposite sex sharing a hobby."""
    failures = []
    for party in range(spec["parties"]):
        guests = {
            w["name"]: w["sex"] for w in memory.elements(f"guest-{party}")
        }
        hobbies: dict[str, set] = defaultdict(set)
        for wme in memory.elements(f"hobby-{party}"):
            hobbies[wme["name"]].add(wme["h"])
        seats = sorted(
            memory.elements(f"seating-{party}"), key=lambda w: w["seat"]
        )
        order = [w["name"] for w in seats]
        if sorted(order) != sorted(guests):
            failures.append(
                f"party {party}: seated {len(order)} of {len(guests)} "
                f"guests, or one twice"
            )
            continue
        if [w["seat"] for w in seats] != list(range(1, len(order) + 1)):
            failures.append(f"party {party}: seats not contiguous")
        for left, right in zip(order, order[1:]):
            if guests[left] == guests[right]:
                failures.append(
                    f"party {party}: {left}, {right} have the same sex"
                )
            if not hobbies[left] & hobbies[right]:
                failures.append(
                    f"party {party}: {left}, {right} share no hobby"
                )
    return failures


def _lanes_state(spec: dict, memory) -> list[str]:
    """Every job counted down to 0; each gauge bumped once per firing
    of each of its writer jobs."""
    failures = []
    depth = spec["sizes"]["depth"]
    expected: Counter = Counter()
    for job in memory.elements("job"):
        if job["left"] != 0:
            failures.append(f"job {job['id']} left at {job['left']}")
        if job["kind"] == "bump":
            expected[job["gauge"]] += depth
    for gauge in memory.elements("gauge"):
        if gauge["level"] != expected[gauge["id"]]:
            failures.append(
                f"gauge {gauge['id']} at {gauge['level']}, "
                f"expected {expected[gauge['id']]}"
            )
    return failures


def _orders_state(spec: dict, memory) -> list[str]:
    """Every order shipped with one manifest and four audit rows; no
    intermediate ticket left; stock down by one per order."""
    failures = []
    orders = spec["sizes"]["orders"]
    skus = spec["sizes"]["skus"]
    states = Counter(w["state"] for w in memory.elements("order"))
    if states != {"shipped": orders}:
        failures.append(f"order states {dict(states)}")
    for relation, want in (
        ("manifest", orders), ("audit", 4 * orders),
        ("reservation", 0), ("ticket", 0), ("parcel", 0),
    ):
        if memory.count(relation) != want:
            failures.append(
                f"{memory.count(relation)} {relation} rows, expected {want}"
            )
    stock = sum(w["qty"] for w in memory.elements("stock"))
    if stock != skus * orders - orders:
        failures.append(f"stock total {stock}")
    return failures


_FINAL_STATE = {
    "manners": _manners_state,
    "lanes": _lanes_state,
    "orders": _orders_state,
}


def check_replay(snapshot, rules, firings) -> tuple[list[str], float]:
    """Definition 3.2, operationally: the commit sequence replays on a
    single-thread engine (TREAT, a matcher the run did not use)."""
    from repro.engine.replay import replay_commit_sequence

    start = perf_counter()
    outcome = replay_commit_sequence(
        snapshot, rules, firings, matcher="treat"
    )
    seconds = perf_counter() - start
    return ([] if outcome.consistent else [f"replay: {outcome.detail}"],
            seconds)


def check_history(history) -> tuple[list[str], float]:
    """Serializability of the lock history, two ways (see
    ``SERIALIZABILITY_PREFIX_OPS``)."""
    from repro.txn.schedule import History
    from repro.txn.serializability import is_conflict_serializable

    start = perf_counter()
    failures = _commit_order_violations(history)
    prefix = History(history.operations()[:SERIALIZABILITY_PREFIX_OPS])
    verdict: list = []

    def target() -> None:
        # _find_cycle recurses once per transaction on a path.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        verdict.append(is_conflict_serializable(prefix))

    threading.stack_size(256 << 20)
    try:
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(0)
    if verdict != [True]:
        failures.append("history prefix is not conflict-serializable")
    return failures, perf_counter() - start


def _commit_order_violations(history) -> list[str]:
    """Commit order is a serial order of the committed projection.

    Both schemes hold every lock to commit, so each conflicting pair
    must be ordered like the commits (which makes the precedence graph
    acyclic).  Linear: per object, the latest-committing earlier
    writer and earlier reader are all a later operation can violate.
    """
    from repro.txn.schedule import WRITE

    position = {t: i for i, t in enumerate(history.commit_order())}
    last_write: dict = {}
    last_read: dict = {}
    failures = []
    for op in history.operations():
        mine = position.get(op.txn_id)
        if mine is None or op.obj is None:
            continue
        before = last_write.get(op.obj, -1)
        if op.kind == WRITE:
            before = max(before, last_read.get(op.obj, -1))
            last_write[op.obj] = max(last_write.get(op.obj, -1), mine)
        else:
            last_read[op.obj] = max(last_read.get(op.obj, -1), mine)
        if before > mine:
            failures.append(
                f"{op} conflicts with an earlier operation of a "
                f"transaction that commits later"
            )
            break
    return failures


def check_teardown(engine) -> list[str]:
    """After ``close()``: no held locks, no queued requests, no live
    worker processes."""
    failures = []
    scheme = getattr(engine, "scheme", None)
    if scheme is not None:
        if scheme.manager.grant_table() != {}:
            failures.append("locks still held after the run")
        if scheme.manager.waiting_requests():
            failures.append("lock requests still queued after the run")
    if multiprocessing.active_children():
        failures.append("worker processes alive after close()")
    return failures


def check_recovery(directory, live_identities) -> tuple[list[str], dict]:
    """Reopen the closed store from disk: the recovered database must
    equal the live one; then checkpoint it.  Returns the timings under
    their per-layer metric names."""
    from repro.wm.storage import DurableStore

    start = perf_counter()
    recovered, store = DurableStore.open(directory, durability="always")
    recover_s = perf_counter() - start
    try:
        same = recovered.value_identity_set() == live_identities
        start = perf_counter()
        store.checkpoint()
        checkpoint_s = perf_counter() - start
    finally:
        store.close()
    failures = [] if same else ["recovered database differs from live one"]
    return failures, {
        "wm.storage.recover_s": recover_s,
        "wm.storage.checkpoint_s": checkpoint_s,
    }
