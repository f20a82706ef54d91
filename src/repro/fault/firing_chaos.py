"""The crash sweep's engine-driven case: it knows what a firing is.

:mod:`repro.fault.storage_chaos` crashes the durable store under raw
operations; this module crashes it under the engines — the order
pipeline of ``benchmarks/e2e`` (four actions per RHS) run by
``Interpreter`` or by ``ParallelEngine(rc, processors=4)`` on a store
with tiny segments and a checkpoint every few cycles —
and checks the recovered database against the execution graph: the log
acknowledged exactly ``result.firings``, recovery is bit-identical to
the live state at that commit, and ``replay_commit_sequence`` over that
prefix reaches it.

Kept out of ``repro.fault``'s package imports: the engines import that
package, and every process that imports an engine would pay for this
module.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from repro.engine.interpreter import Interpreter
from repro.engine.parallel import ParallelEngine
from repro.engine.replay import replay_commit_sequence
from repro.errors import StorageFailure
from repro.fault.plan import FaultPlan, FaultSpec
from repro.fault.storage_chaos import AckTracker, CrashCase, check_recovery
from repro.lang import parse_program
from repro.wm.memory import WorkingMemory
from repro.wm.snapshot import WMSnapshot
from repro.wm.storage import DurableStore

#: The long-RHS write-path program of ``benchmarks/e2e``
#: (``orders_durable``), verbatim: reserve -> pick -> pack -> ship.
PIPELINE_RULES = """
(p reserve
   (order ^id <o> ^sku <s> ^state "new")
   (stock ^sku <s> ^qty <q> ^qty >= 1)
   -->
   (modify 1 ^state "reserved")
   (modify 2 ^qty (<q> - 1))
   (make reservation ^order <o> ^sku <s>)
   (make audit ^order <o> ^step "reserve"))

(p pick
   (order ^id <o> ^state "reserved")
   (reservation ^order <o> ^sku <s>)
   -->
   (modify 1 ^state "picked")
   (remove 2)
   (make ticket ^order <o> ^sku <s>)
   (make audit ^order <o> ^step "pick"))

(p pack
   (order ^id <o> ^state "picked")
   (ticket ^order <o> ^sku <s>)
   -->
   (modify 1 ^state "packed")
   (remove 2)
   (make parcel ^order <o> ^sku <s>)
   (make audit ^order <o> ^step "pack"))

(p ship
   (order ^id <o> ^state "packed")
   (parcel ^order <o> ^sku <s>)
   -->
   (modify 1 ^state "shipped")
   (remove 2)
   (make manifest ^order <o> ^sku <s>)
   (make audit ^order <o> ^step "ship"))
"""


def pipeline_facts(
    orders: int, skus: int, seed: int
) -> list[tuple[str, dict]]:
    """``orders`` orders, each for a seed-chosen SKU, in seed-shuffled
    load order, every SKU stocked for all of them (the e2e generator's
    facts)."""
    rng = random.Random(seed)
    stock = [
        ("stock", {"sku": f"sku{s}", "qty": orders}) for s in range(skus)
    ]
    order_facts = [
        (
            "order",
            {"id": i, "sku": f"sku{rng.randrange(skus)}", "state": "new"},
        )
        for i in range(orders)
    ]
    rng.shuffle(order_facts)
    return stock + order_facts


def run_firing_crash_case(
    seed: int,
    site: str,
    directory: str | Path,
    driver: str = "interpreter",
    orders: int = 30,
    skus: int = 5,
    segment_max_records: int = 5,
    maintain_every: int = 6,
    rate: float = 0.3,
    durability: str = "batch",
) -> CrashCase:
    """Run the order pipeline under ``driver``, crash at ``site``,
    verify that recovery lands on the acknowledged firing prefix.

    The facts are journalled before the injector is armed; from then
    on a checkpoint runs every ``maintain_every`` cycles (waves), and
    each visit of the targeted window crashes with probability ``rate``
    (seeded; at most once), so different seeds die at different
    firings.
    """
    case = CrashCase(seed=seed, site=site, driver=driver)
    rules = parse_program(PIPELINE_RULES)
    memory = WorkingMemory()
    store = DurableStore(
        memory,
        directory,
        durability=durability,
        segment_max_records=segment_max_records,
    )
    for relation, values in pipeline_facts(orders, skus, seed):
        memory.make(relation, values)
    loaded = store.lsn
    initial = WMSnapshot.capture(memory)
    store.fault = injector = FaultPlan(
        [FaultSpec("storage_fail", rate=rate, obj=site, max_hits=1)],
        seed=seed,
    ).injector()
    if driver == "interpreter":
        engine = Interpreter(rules, memory)
    else:
        engine = ParallelEngine(rules, memory, scheme="rc", processors=4)
    tracker = AckTracker(memory, store)
    try:
        for round_ in itertools.count(1):
            # Both engines resume a capped run where it stopped.
            result = engine.run(round_ * maintain_every)
            if result.stop_reason not in ("max_cycles", "max_waves"):
                break
            store.checkpoint()
    except StorageFailure:
        case.crashed = True
    finally:
        engine.close()
        expected = tracker.close()
        store.close()
    case.fired = injector.total_injected > 0
    firings = engine.result.firings
    case.ops_applied = len(firings)
    if store.lsn - loaded != len(firings):
        case.ok = False
        case.detail = (
            f"log acknowledged {store.lsn - loaded} commits, "
            f"the engine {len(firings)}"
        )
        return case
    recovered = check_recovery(case, directory, expected)
    if recovered is None:
        return case
    replay = replay_commit_sequence(initial, rules, firings)
    if not replay.consistent:
        case.ok = False
        case.detail = f"commit sequence does not replay: {replay.detail}"
    elif replay.identities != recovered.value_identity_set():
        case.ok = False
        case.detail = (
            "recovered database is not the node the commit sequence "
            "reaches in the execution graph"
        )
    return case
