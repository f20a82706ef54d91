"""The six benchmark workloads: generated rule text + facts.

Everything the program under test receives is built here from the
seed: a rule program as *text* (parsing it is part of ``setup_s``) and
a list of ``(relation, {attribute: value})`` facts.  This module
imports nothing from ``repro`` so the parent process stays small (its
resident size is the floor of every child's ``ru_maxrss``).

Why these six, and which layer each stresses, is recorded in
``BENCHMARK.json`` (one line each) and at length in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

Fact = tuple[str, dict]

# ---------------------------------------------------------------------------
# Miss Manners, two independent parties
# ---------------------------------------------------------------------------
#
# The three rules of repro.workloads.manners instantiated once per
# party with every relation and rule name suffixed -<party>.  The
# original's (halt) is dropped: with two parties it would stop the run
# when the first finishes; without it both runs end quiescent.

_MANNERS_RULES = """
(p seed-first-seat-{p} 9
   (context-{p} ^phase "start")
   (guest-{p} ^name <g> ^sex <s>)
   -->
   (modify 1 ^phase "seat")
   (make seating-{p} ^seat 1 ^name <g>)
   (make seated-{p} ^name <g>)
   (make last-{p} ^seat 1 ^name <g> ^sex <s>))

(p extend-seating-{p} 5
   (context-{p} ^phase "seat")
   (last-{p} ^seat <n> ^name <g1> ^sex <s1>)
   (hobby-{p} ^name <g1> ^h <h>)
   (guest-{p} ^name <g2> ^sex <s2> ^sex <> <s1>)
   (hobby-{p} ^name <g2> ^h <h>)
   -(seated-{p} ^name <g2>)
   -->
   (modify 2 ^seat (<n> + 1) ^name <g2> ^sex <s2>)
   (make seating-{p} ^seat (<n> + 1) ^name <g2>)
   (make seated-{p} ^name <g2>))

(p all-seated-{p} 9
   (context-{p} ^phase "seat")
   (party-{p} ^size <n>)
   (last-{p} ^seat <n>)
   -->
   (modify 1 ^phase "done"))
"""

MANNERS_PARTIES = 2
_HOBBIES_PER_GUEST = 3
_N_HOBBIES = 6


def manners_program(guests: int, seed: int) -> tuple[str, list[Fact]]:
    """Two solvable guest lists (alternating sexes, everyone shares
    hobby ``h0`` so the greedy chain never dead-ends, two random
    extras per guest for realistic join fan-out)."""
    rng = random.Random(seed)
    rules = "".join(
        _MANNERS_RULES.format(p=p) for p in range(MANNERS_PARTIES)
    )
    pool = [f"h{i}" for i in range(1, _N_HOBBIES)]
    facts: list[Fact] = []
    for p in range(MANNERS_PARTIES):
        facts.append((f"context-{p}", {"phase": "start"}))
        facts.append((f"party-{p}", {"size": guests}))
        for index in range(guests):
            name = f"guest{index}"
            sex = "m" if index % 2 == 0 else "f"
            facts.append((f"guest-{p}", {"name": name, "sex": sex}))
            facts.append((f"hobby-{p}", {"name": name, "h": "h0"}))
            for hobby in rng.sample(pool, _HOBBIES_PER_GUEST - 1):
                facts.append((f"hobby-{p}", {"name": name, "h": hobby}))
    return rules, facts


def manners_reference(guests: int) -> int:
    """Firings of a complete run: per party one seed-first-seat,
    ``guests - 1`` extend-seating and one all-seated."""
    return MANNERS_PARTIES * (guests + 1)


# ---------------------------------------------------------------------------
# "Lanes": the conflict-degree knob on a real rule program
# ---------------------------------------------------------------------------
#
# Each job counts down `depth` times.  Every firing reads its lane's
# gauge; a `bump` job (a share `conflict` of all jobs -- Section 5.1's
# degree of conflict) also writes it, which under Rc aborts every
# other candidate holding an Rc lock on that gauge and under 2PL
# defers the writer while readers hold it.

_LANES_RULES = """
(p work
   (job ^id <j> ^kind "work" ^gauge <g> ^left <n> ^left > 0)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left (<n> - 1)))

(p bump
   (job ^id <j> ^kind "bump" ^gauge <g> ^left <n> ^left > 0)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left (<n> - 1))
   (modify 2 ^level (<v> + 1)))
"""


def lanes_program(
    jobs: int, depth: int, gauges: int, conflict: float, seed: int
) -> tuple[str, list[Fact]]:
    """``jobs`` jobs dealt round-robin over ``gauges`` lanes; in load
    order, every ``1/conflict``-th round of jobs are the writers.

    The seed only relabels: it permutes the job ids and the gauge ids.
    Which load positions write is fixed, because wave dynamics under
    LEX are chaotic in it -- placing the same number of writers at
    random moves ``commits_per_cycle`` by 6-15 % between seeds
    (measured), which would drown a metric that is otherwise exact.
    """
    rng = random.Random(seed)
    job_ids = rng.sample(range(jobs), jobs)
    gauge_ids = rng.sample(range(gauges), gauges)
    every = round(1 / conflict)
    facts: list[Fact] = [
        ("gauge", {"id": g, "level": 0}) for g in gauge_ids
    ]
    for position in range(jobs):
        writer = (position // gauges) % every == 0
        facts.append(
            (
                "job",
                {
                    "id": job_ids[position],
                    "kind": "bump" if writer else "work",
                    "gauge": gauge_ids[position % gauges],
                    "left": depth,
                },
            )
        )
    return _LANES_RULES, facts


# ---------------------------------------------------------------------------
# Order pipeline: the long-RHS, write-path program
# ---------------------------------------------------------------------------
#
# reserve -> pick -> pack -> ship; no negated condition elements; four
# actions per RHS.  Per order: 6 + 5 + 5 + 5 = 21 working-memory
# deltas (a modify is a remove plus an add).

_ORDERS_RULES = """
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

ORDERS_RULES_PER_ORDER = 4
ORDERS_DELTAS_PER_ORDER = 21


def orders_program(
    orders: int, skus: int, seed: int
) -> tuple[str, list[Fact]]:
    """``orders`` orders, each for a seed-chosen SKU, in seed-shuffled
    load order; every SKU is stocked for all of them so no reserve
    ever fails."""
    rng = random.Random(seed)
    facts: list[Fact] = [
        ("stock", {"sku": f"sku{s}", "qty": orders}) for s in range(skus)
    ]
    order_facts: list[Fact] = [
        (
            "order",
            {
                "id": index,
                "sku": f"sku{rng.randrange(skus)}",
                "state": "new",
            },
        )
        for index in range(orders)
    ]
    rng.shuffle(order_facts)
    return _ORDERS_RULES, facts + order_facts


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``size`` and ``smoke`` are keyword arguments of ``program``;
    ``engine`` is how the child builds the engine under test.
    """

    name: str
    program: str  # "manners" | "lanes" | "orders"
    size: dict
    smoke: dict
    engine: dict

    def sizes(self, smoke: bool = False) -> dict:
        return dict(self.smoke if smoke else self.size)


_LANES_SIZE = {"jobs": 64, "depth": 32, "gauges": 4, "conflict": 0.25}
_LANES_SMOKE = {"jobs": 16, "depth": 6, "gauges": 2, "conflict": 0.25}
_LANES_ENGINE = {
    "kind": "parallel", "matcher": "rete", "strategy": "lex",
    "processors": 8,
}

_MANNERS_ENGINE = {
    "kind": "interpreter", "matcher": "rete", "strategy": "priority",
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "manners_serial", "manners", {"guests": 72}, {"guests": 10},
            _MANNERS_ENGINE,
        ),
        Workload(
            "manners_proc2", "manners", {"guests": 72}, {"guests": 10},
            {**_MANNERS_ENGINE, "matcher": "partitioned:rete:2:process"},
        ),
        Workload(
            "manners_rc", "manners", {"guests": 52}, {"guests": 8},
            {"kind": "parallel", "scheme": "rc", "matcher": "rete",
             "strategy": "priority", "processors": None},
        ),
        Workload(
            "hot_rc", "lanes", _LANES_SIZE, _LANES_SMOKE,
            {**_LANES_ENGINE, "scheme": "rc"},
        ),
        Workload(
            "hot_2pl", "lanes", _LANES_SIZE, _LANES_SMOKE,
            {**_LANES_ENGINE, "scheme": "2pl"},
        ),
        # "batch": flush per WAL record, fsync at segment seals and on
        # close.  Under "always" 0.7 of the run is fsync, whose cost on
        # the recorded host moves by 2x between minutes (README).
        Workload(
            "orders_durable", "orders", {"orders": 400, "skus": 20},
            {"orders": 30, "skus": 5},
            {"kind": "interpreter", "matcher": "rete", "strategy": "lex",
             "durable": "batch"},
        ),
    )
}

_PROGRAMS = {
    "manners": manners_program,
    "lanes": lanes_program,
    "orders": orders_program,
}


def generate(workload: Workload, sizes: dict, seed: int):
    """``(rule text, facts)`` for ``workload`` at ``sizes``."""
    return _PROGRAMS[workload.program](seed=seed, **sizes)


def reference_firings(workload: Workload, sizes: dict) -> int:
    """Committed firings of a complete, correct run — the workload's
    pinned operation count; holds for every seed."""
    if workload.program == "manners":
        return manners_reference(sizes["guests"])
    if workload.program == "lanes":
        return sizes["jobs"] * sizes["depth"]
    return sizes["orders"] * ORDERS_RULES_PER_ORDER


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
