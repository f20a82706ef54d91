"""Interference detection between productions.

Footnote 3 defines interference behaviorally: "Production P1 interferes
with production P2 if the execution of P1's RHS can cause P2's LHS to
become false."  Footnote 4 observes the operational criterion:
"Incidentally, these criteria are identical to detecting conflicting
database operations [PAPA 86]" — i.e. read-write or write-write overlap
on data objects.

Two levels are provided:

* **static / template level** (used by Section 4.1's static approach):
  relations a production may read vs. relations another may write,
  from the productions' access templates.  Sound but conservative —
  the "false interference" problem the paper describes for
  hierarchically structured data.
* **dynamic / instantiation level**: concrete data-object footprints
  of two instantiations about to fire; exact for the objects known at
  run time, which is why the dynamic approach wins.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.lang.production import Production
from repro.match.instantiation import Instantiation
from repro.txn.transaction import DataObject
from repro.wm.schema import Catalog


def interferes(first: Production, second: Production) -> bool:
    """Static (template-level) interference test.

    True when a read-write or write-write overlap exists between the
    relations the two productions touch.  Symmetric by construction
    (the static partitioning needs an undirected relation).
    """
    if first.name == second.name:
        return True
    r1, w1 = first.read_relations(), first.write_relations()
    r2, w2 = second.read_relations(), second.write_relations()
    return bool((w1 & r2) or (w2 & r1) or (w1 & w2))


def interference_graph(
    productions: Sequence[Production],
) -> dict[str, set[str]]:
    """Undirected interference graph over production names."""
    graph: dict[str, set[str]] = {p.name: set() for p in productions}
    for i, first in enumerate(productions):
        for second in productions[i + 1:]:
            if interferes(first, second):
                graph[first.name].add(second.name)
                graph[second.name].add(first.name)
    return graph


# ---------------------------------------------------------------------------
# Dynamic (instantiation-level) interference
# ---------------------------------------------------------------------------


def instantiation_read_objects(
    instantiation: Instantiation,
) -> frozenset[DataObject]:
    """Data objects the instantiation's LHS read (see
    :meth:`~repro.match.instantiation.Instantiation.lock_footprint`)."""
    return frozenset(instantiation.lock_footprint()[0])


def instantiation_write_objects(
    instantiation: Instantiation,
) -> frozenset[DataObject]:
    """Data objects the instantiation's RHS will write (see
    :meth:`~repro.match.instantiation.Instantiation.lock_footprint`)."""
    return frozenset(instantiation.lock_footprint()[1])


def conflicting_objects(
    first: Instantiation, second: Instantiation
) -> frozenset[DataObject]:
    """Objects on which the two instantiations dynamically conflict.

    Read-write and write-write overlaps count; read-read does not —
    the [PAPA86] criterion at instantiation granularity.  Relation-
    level (catalog) objects intersect tuple-level objects of the same
    relation, modelling the containment of escalated locks.
    """
    r1, w1 = instantiation_read_objects(first), instantiation_write_objects(first)
    r2, w2 = instantiation_read_objects(second), instantiation_write_objects(second)

    def overlap(
        left: frozenset[DataObject], right: frozenset[DataObject]
    ) -> set[DataObject]:
        direct = set(left & right)
        for obj in left:
            for other in right:
                if _covers(obj, other) or _covers(other, obj):
                    direct.add(obj)
                    direct.add(other)
        return direct

    return frozenset(overlap(w1, r2) | overlap(w2, r1) | overlap(w1, w2))


def dynamic_interferes(first: Instantiation, second: Instantiation) -> bool:
    """True when two instantiations conflict on at least one object."""
    return bool(conflicting_objects(first, second))


def _covers(coarse: DataObject, fine: DataObject) -> bool:
    """Relation-level catalog object covers tuple objects of the relation."""
    if not (isinstance(coarse, tuple) and isinstance(fine, tuple)):
        return False
    if len(coarse) != 2 or len(fine) != 2:
        return False
    if coarse[0] != Catalog.SYSTEM_RELATION:
        return False
    return coarse[1] == fine[0]


def noninterfering_classes(
    productions: Sequence[Production],
) -> list[frozenset[str]]:
    """Connected components of the interference graph.

    Productions in *different* components can always run in parallel;
    this is the coarsest sound static partitioning (finer ones are in
    :mod:`repro.core.static_partition`).
    """
    graph = interference_graph(productions)
    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for start in graph:
        if start in seen:
            continue
        stack = [start]
        component: set[str] = set()
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(graph[node] - component)
        seen |= component
        components.append(frozenset(component))
    return components
