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
from bisect import bisect_left
from operator import attrgetter
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


class Record:
    """A plain record: ``==`` and repr over the fields its class body
    annotates, and a constructor taking them in that order, by position
    or keyword (a class-level value is the field's default), that ends
    with ``__post_init__`` where the class has one.

    What ``@dataclass`` generates, without generating code: importing a
    record class runs no ``exec`` and loads neither ``dataclasses`` nor
    ``inspect``, which every fresh process would compile and run inside
    its start-up.  Attributes outside the fields (caches) take no part.
    Unhashable, like a mutable dataclass.  A record built per delta or
    per firing writes its own ``__init__``.
    """

    __slots__ = ()
    __hash__ = None
    #: Field names, in constructor order; ``_key(record)`` their values.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(vars(cls).get("__annotations__", ()))
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._key = staticmethod(lambda record: (get(record),))
        else:
            cls._key = staticmethod(
                attrgetter(*fields) if fields else lambda record: ()
            )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments "
                f"but {len(args)} were given"
            )
        set_ = object.__setattr__
        for name, value in zip(fields, args):
            set_(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                set_(self, name, kwargs.pop(name))
            elif not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing {name!r}")
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got unexpected or repeated "
                f"argument(s) {sorted(kwargs)}"
            )
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` that refuses assignment once built, hashes by
    its fields and pickles as its constructor call on them, so a cache
    set with ``object.__setattr__`` never reaches a pickle."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._key(self))


class WME(FrozenRecord):
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

    __slots__ = (
        "relation", "items", "timetag", "_mapping", "_data_object_key"
    )
    relation: str
    items: tuple[tuple[str, Scalar], ...]
    timetag: Timetag

    def __init__(
        self, relation: str, items: tuple, timetag: Timetag = 0
    ) -> None:
        # Every construction path — make, replaced, the direct
        # constructor, unpickling — builds the attribute dict here, once;
        # the data-object key is set on first use.
        set_ = object.__setattr__
        set_(self, "relation", relation)
        set_(self, "items", items)
        set_(self, "timetag", timetag)
        set_(self, "_mapping", dict(items))

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
        merged = {**(values or {}), **kwargs} if kwargs else values or {}
        tag = next_timetag() if timetag is None else timetag
        return WME(relation, tuple(sorted(merged.items())), tag)

    # -- mapping-style access ------------------------------------------------

    def __getitem__(self, attribute: str) -> Scalar:
        return self._mapping[attribute]

    def get(self, attribute: str, default: Scalar = None) -> Scalar:
        return self._mapping.get(attribute, default)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._mapping

    def attributes(self) -> Iterator[str]:
        """Iterate over the attribute names, in sorted order."""
        return (name for name, _ in self.items)

    def as_dict(self) -> dict[str, Scalar]:
        """Return the attribute/value pairs as a fresh ``dict``."""
        return dict(self.items)

    def mapping(self) -> dict[str, Scalar]:
        """The attribute/value pairs as a ``dict``, built with the
        element and shared: the compiled condition closures look
        attributes up by hash instead of scanning ``items``, so callers
        must not mutate it."""
        return self._mapping

    # -- derivation ----------------------------------------------------------

    def replaced(self, changes: Mapping[str, Scalar]) -> "WME":
        """Return a new WME with ``changes`` applied and a fresh timetag.

        This is the value-level half of OPS5's ``modify``: the store
        pairs it with a removal of the old element.  It shares the
        pairs, and the data-object key, that the modify leaves alone.
        """
        items = list(self.items)
        for name, value in changes.items():
            at = bisect_left(items, (name,))  # items are sorted by name
            present = at < len(items) and items[at][0] == name
            items[at:at + present] = [(name, value)]  # replace or insert
        new = WME(self.relation, tuple(items), next_timetag())
        key = getattr(self, "_data_object_key", None)  # not if the identity
        if key and key[1] is not self.items and not (
            changes.keys() & {"key", "id"}
        ):
            object.__setattr__(new, "_data_object_key", key)
        return new

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
    value identity.  Relation-level escalation (the catalog key) is
    added by :meth:`repro.match.instantiation.Instantiation.lock_footprint`.

    Cached on the element: every lock footprint naming the element
    asks again.
    """
    try:
        return wme._data_object_key
    except AttributeError:
        mapping = wme._mapping
        if "key" in mapping:
            key = (wme.relation, mapping["key"])
        elif "id" in mapping:
            key = (wme.relation, mapping["id"])
        else:
            key = (wme.relation, wme.items)
        object.__setattr__(wme, "_data_object_key", key)
        return key
