"""Secondary indexes over working memory.

The match phase of a *database* production system is a query workload:
condition elements are selections on relations.  A hash index per
(relation, attribute, value) triple lets the naive matcher and the Rete
alpha network avoid full scans, standing in for the DBMS indexes the
paper's setting assumes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.wm.element import Scalar, Timetag, WME


class AttributeIndex:
    """Hash index mapping (relation, attribute, value) to WME timetags.

    The index stores timetags rather than WMEs so that it never pins an
    element that the store has removed; lookups are resolved against
    the live store by :class:`~repro.wm.memory.WorkingMemory`.
    """

    def __init__(self) -> None:
        self._by_relation: dict[str, set[Timetag]] = defaultdict(set)
        self._by_value: dict[
            tuple[str, str, Scalar], set[Timetag]
        ] = defaultdict(set)

    def add(self, wme: WME) -> None:
        """Index ``wme`` under its relation and every attribute value."""
        self._by_relation[wme.relation].add(wme.timetag)
        for name, value in wme.items:
            if _hashable(value):
                self._by_value[(wme.relation, name, value)].add(wme.timetag)

    def remove(self, wme: WME) -> None:
        """Remove ``wme`` from all postings; absent entries are ignored."""
        self._by_relation[wme.relation].discard(wme.timetag)
        for name, value in wme.items:
            if _hashable(value):
                self._by_value[(wme.relation, name, value)].discard(
                    wme.timetag
                )

    def relation(self, relation: str) -> frozenset[Timetag]:
        """Timetags of all live elements of ``relation``."""
        return frozenset(self._by_relation.get(relation, ()))

    def equal(
        self, relation: str, attribute: str, value: Scalar
    ) -> frozenset[Timetag]:
        """Timetags of elements of ``relation`` with ``attribute == value``."""
        return frozenset(self._by_value.get((relation, attribute, value), ()))

    def lookup(
        self,
        relation: str,
        equalities: Iterable[tuple[str, Scalar]] = (),
    ) -> frozenset[Timetag]:
        """Intersect the postings of every equality.

        Returns the candidate timetag set for a conjunctive selection.
        Value postings are per relation already, so the relation's own
        posting set is only materialised when there is no equality (a
        relation scan); otherwise the cost is that of the smallest
        posting, not of the relation.
        """
        by_value = self._by_value
        postings = [
            by_value.get((relation, attribute, value))
            for attribute, value in equalities
        ]
        if not postings:
            return self.relation(relation)
        if not all(postings):
            return frozenset()
        postings.sort(key=len)
        return frozenset(postings[0]).intersection(*postings[1:])

    def relations(self) -> Iterator[str]:
        """Iterate over relation names that have (or had) postings."""
        return iter(self._by_relation)

    def cardinality(self, relation: str) -> int:
        """Number of live elements currently indexed for ``relation``."""
        return len(self._by_relation.get(relation, ()))


def _hashable(value: Scalar) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True
