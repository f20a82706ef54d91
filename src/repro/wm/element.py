"""Working-memory elements (WMEs).

Section 2 of the paper: *"Items in the working memory are called
working memory elements (WMEs)."*  Following OPS5, a WME is a typed
record: a relation (class) name plus attribute/value pairs.  WMEs are
immutable; a ``modify`` is represented at the store level as a
remove-then-make that preserves identity history through timetags, the
same device OPS5 uses for recency-based conflict resolution (LEX/MEA).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

# Values allowed inside a WME.  Keeping the domain small keeps equality,
# hashing and the DSL printer simple; it matches OPS5's symbol/number
# value domain.
Scalar = str | int | float | bool | None

Timetag = int

_timetag_counter = itertools.count(1)


def next_timetag() -> Timetag:
    """Return a fresh, process-unique, monotonically increasing timetag.

    Timetags order WMEs by creation recency.  The LEX and MEA conflict
    resolution strategies (Section 3: "heuristics that strongly favor
    some sequences over others") compare instantiations by the timetags
    of the WMEs they matched.
    """
    return next(_timetag_counter)


def ensure_timetag_floor(minimum: Timetag) -> None:
    """Advance the timetag counter past ``minimum``.

    Called when loading persisted working memory so that freshly
    created elements never collide with (or sort below) reloaded ones.
    """
    global _timetag_counter
    current = next(_timetag_counter)
    start = max(current, minimum + 1)
    _timetag_counter = itertools.count(start)


@dataclass(frozen=True)
class WME:
    """An immutable working-memory element.

    Parameters
    ----------
    relation:
        The class (relation) name, e.g. ``"order"``.
    values:
        Attribute/value mapping.  Stored as a sorted tuple of pairs so
        the element is hashable and its identity is value-based.
    timetag:
        Creation timetag.  Two WMEs with equal relation and values but
        different timetags are *different* elements; working memory is
        a bag keyed by timetag, exactly as in OPS5.
    """

    relation: str
    items: tuple[tuple[str, Scalar], ...]
    timetag: Timetag = field(default=0)

    @staticmethod
    def make(
        relation: str,
        values: Mapping[str, Scalar] | None = None,
        timetag: Timetag | None = None,
        **kwargs: Scalar,
    ) -> "WME":
        """Build a WME from a mapping and/or keyword attribute values.

        >>> w = WME.make("order", {"id": 1}, status="open")
        >>> w["status"]
        'open'
        """
        merged: dict[str, Scalar] = dict(values or {})
        merged.update(kwargs)
        tag = next_timetag() if timetag is None else timetag
        return WME(relation, tuple(sorted(merged.items())), tag)

    # -- mapping-style access ------------------------------------------------

    def __getitem__(self, attribute: str) -> Scalar:
        for name, value in self.items:
            if name == attribute:
                return value
        raise KeyError(attribute)

    def get(self, attribute: str, default: Scalar = None) -> Scalar:
        for name, value in self.items:
            if name == attribute:
                return value
        return default

    def __contains__(self, attribute: object) -> bool:
        return any(name == attribute for name, _ in self.items)

    def attributes(self) -> Iterator[str]:
        """Iterate over the attribute names, in sorted order."""
        return (name for name, _ in self.items)

    def as_dict(self) -> dict[str, Scalar]:
        """Return the attribute/value pairs as a fresh ``dict``."""
        return dict(self.items)

    def mapping(self) -> dict[str, Scalar]:
        """The attribute/value pairs as a cached ``dict``.

        The compiled condition closures look attributes up by hash
        instead of scanning ``items``; the dict is built once per
        element and shared, so callers must not mutate it.  (The
        first-call race under threads is benign: both sides build the
        same dict.)
        """
        try:
            return self._mapping
        except AttributeError:
            mapping = dict(self.items)
            object.__setattr__(self, "_mapping", mapping)
            return mapping

    def __reduce__(self):
        # The cached mapping and data-object key are derived state;
        # pickle only the fields.
        return (WME, (self.relation, self.items, self.timetag))

    # -- derivation ----------------------------------------------------------

    def replaced(self, changes: Mapping[str, Scalar]) -> "WME":
        """Return a new WME with ``changes`` applied and a fresh timetag.

        This is the value-level half of OPS5's ``modify``: the store
        pairs it with a removal of the old element.
        """
        merged = self.as_dict()
        merged.update(changes)
        return WME.make(self.relation, merged)

    def same_value(self, other: "WME") -> bool:
        """True when relation and attribute values match, ignoring timetags."""
        return self.relation == other.relation and self.items == other.items

    # -- presentation ---------------------------------------------------------

    def __str__(self) -> str:
        inner = " ".join(f"^{name} {value!r}" for name, value in self.items)
        return f"({self.relation} {inner}) @{self.timetag}"

    def identity(self) -> tuple[str, tuple[tuple[str, Scalar], ...]]:
        """The value identity of the element (relation + values, no timetag)."""
        return (self.relation, self.items)


def data_object_key(wme: WME) -> tuple[str, Any]:
    """The lockable *data object* a WME belongs to.

    Section 4 locks "data objects" in working memory.  We lock at the
    granularity of the WME's value identity when it carries a ``key``
    or ``id`` attribute (tuple-level locking) and otherwise at its full
    value identity.  Relation-level escalation is handled separately by
    :mod:`repro.locks.escalation`.

    Cached on the element the way :meth:`WME.mapping` caches its dict:
    every lock footprint naming the element asks again.
    """
    try:
        return wme._data_object_key
    except AttributeError:
        mapping = wme.mapping()
        if "key" in mapping:
            key = (wme.relation, mapping["key"])
        elif "id" in mapping:
            key = (wme.relation, mapping["id"])
        else:
            key = (wme.relation, wme.items)
        object.__setattr__(wme, "_data_object_key", key)
        return key
