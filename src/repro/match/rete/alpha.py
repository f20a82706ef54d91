"""Alpha network: constant tests, alpha memories and their hash indexes.

The alpha network filters WMEs by the tests that need no variable
context — relation name, constant equalities, constant predicates.
One :class:`AlphaMemory` exists per distinct
:meth:`~repro.lang.ast.ConditionElement.alpha_key`, shared across every
production (and across positive/negated uses), implementing Rete's
"sharing of common subexpressions among LHS's of different
productions".  Memories are grouped by relation, so a WM delta only
meets the memories of its own relation.

Hashed memories
---------------
A join is a probe, not a scan: every join/negative node reads its two
inputs — an alpha memory and a token store — through a
:class:`HashIndex` on the node's *join key* (the ``(attribute, slot)``
pairs of :attr:`~repro.lang.compile.SlottedStep.probe_items`).  The
alpha side is keyed by the WME's values of the key attributes, the
token side by the token's values of the key slots; a left activation
looks the token's key up in the alpha index, a right activation the
WME's key in the token index.  :class:`IndexSet` is the part both
kinds of memory share: one index per key spec a reader asked for,
filled from the memory on request and kept on every insert/delete.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Hashable

from repro.errors import MatchError
from repro.lang.ast import ConditionElement
from repro.wm.element import WME

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.match.rete.nodes import RightActivatable

#: Key component of a WME that lacks a key attribute.  No token carries
#: it (key slots are bound to WME values), so such a WME — which the
#: join test rejects anyway — lands in a bucket nothing probes.
_ABSENT = object()


def wme_key(attributes: tuple[str, ...]) -> Callable[[WME], Hashable]:
    """``wme -> key`` over ``attributes``: ``()`` for none, the bare
    value for one, a tuple for several (the shapes of
    :func:`token_key`, so both sides of a join build equal keys)."""
    if not attributes:
        return lambda wme: ()
    if len(attributes) == 1:
        (attribute,) = attributes
        return lambda wme: wme.mapping().get(attribute, _ABSENT)

    def key(wme: WME) -> tuple:
        get = wme.mapping().get
        return tuple([get(attribute, _ABSENT) for attribute in attributes])

    return key


def token_key(spec: tuple) -> Callable[[object], Hashable]:
    """``token data -> key`` over ``spec``, the key slots of a slot
    tuple."""
    if not spec:
        return lambda data: ()
    return itemgetter(*spec)


class HashIndex:
    """``key -> bucket`` over one memory, for one key spec.

    A bucket is an insertion-ordered ``{member: value}`` dict, so it
    lists its members in the relative order a scan of the whole memory
    would meet them; an emptied bucket is dropped.  The index is a
    pre-filter, never the judge: equal values hash equal (``1``,
    ``1.0`` and ``True`` share a bucket), so a bucket holds *at least*
    every member the join test would accept for its key, and the
    compiled test still runs on each.  The empty spec has the one key
    ``()``, whose bucket is the whole memory — an unkeyed join is the
    degenerate case of the same probe.
    """

    __slots__ = ("key_of", "buckets", "users")

    def __init__(self, key_of: Callable[[object], Hashable]) -> None:
        self.key_of = key_of
        self.buckets: dict[Hashable, dict] = {}
        #: Nodes probing this index; it goes with the last of them.
        self.users = 0

    def insert(self, source, member, value) -> None:
        key = self.key_of(source)
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = {member: value}
        else:
            bucket[member] = value

    def discard(self, source, member) -> None:
        key = self.key_of(source)
        bucket = self.buckets.get(key)
        if bucket is not None:
            bucket.pop(member, None)
            if not bucket:
                del self.buckets[key]


class IndexSet:
    """The hash indexes of one memory, one per requested key spec.

    ``members`` is the memory's own insertion-ordered ``{member:
    value}`` dict and ``source_of(member, value)`` the object a key is
    read from (the WME, the token's payload); ``make_key(spec)`` builds
    an index's key function.  An index requested after the memory
    already holds content (a back-filled alpha memory, a shared store
    gaining a child with a new key spec) is filled from ``members``.
    """

    __slots__ = ("_make_key", "_members", "_source_of", "by_spec")

    def __init__(
        self,
        make_key: Callable[[tuple], Callable[[object], Hashable]],
        members: dict,
        source_of: Callable[[object, object], object],
    ) -> None:
        self._make_key = make_key
        self._members = members
        self._source_of = source_of
        #: Key spec -> index, for every spec a live reader holds.
        self.by_spec: dict[tuple, HashIndex] = {}

    def acquire(self, spec: tuple) -> HashIndex:
        """The index on ``spec`` for one more reader."""
        index = self.by_spec.get(spec)
        if index is None:
            index = self.by_spec[spec] = self._filled(spec)
        index.users += 1
        return index

    def release(self, spec: tuple) -> None:
        """One reader of the index on ``spec`` is gone."""
        index = self.by_spec[spec]
        index.users -= 1
        if not index.users:
            del self.by_spec[spec]

    def _filled(self, spec: tuple) -> HashIndex:
        index = HashIndex(self._make_key(spec))
        source_of = self._source_of
        for member, value in self._members.items():
            index.insert(source_of(member, value), member, value)
        return index

    def insert(self, member, value=None) -> None:
        """Index a member the memory just stored."""
        source = self._source_of(member, value)
        for index in self.by_spec.values():
            index.insert(source, member, value)

    def discard(self, member, value=None) -> None:
        """Unindex a member the memory just dropped."""
        source = self._source_of(member, value)
        for index in self.by_spec.values():
            index.discard(source, member)

    def audit(self, owner: str) -> None:
        """Recompute every index from the memory and compare, bucket
        order included; raises :class:`MatchError` on drift."""
        for spec, index in self.by_spec.items():
            expected = self._filled(spec).buckets
            if _listed(index.buckets) != _listed(expected):
                raise MatchError(
                    f"{owner}: hash index on {spec!r} drifted from its "
                    f"memory: {index.buckets!r} != {expected!r}"
                )


def _listed(buckets: dict) -> dict:
    return {key: list(bucket.items()) for key, bucket in buckets.items()}


def _wme_of(timetag: int, wme: WME) -> WME:
    return wme


class AlphaMemory:
    """Stores the WMEs passing one alpha pattern.

    ``successors`` are the join/negative nodes reading this memory;
    they are right-activated on every add/remove, and each probes the
    memory through the index in ``indexes`` on its own join key.
    """

    def __init__(self, pattern: ConditionElement) -> None:
        # The pattern is stored stripped of variable tests: only the
        # relation/constant part matters here; variable tests are
        # evaluated by the join nodes.
        self.pattern = pattern
        self.items: dict[int, WME] = {}
        self.indexes = IndexSet(wme_key, self.items, _wme_of)
        self.successors: list["RightActivatable"] = []
        #: Compiled constant-test check, bound once — the alpha
        #: network probes the relation's memories on every WM delta.
        self.accepts = pattern.compiled().alpha

    def insert(self, wme: WME) -> None:
        """Store ``wme`` and index it (the one way in: activation and
        back-fill alike)."""
        self.items[wme.timetag] = wme
        self.indexes.insert(wme.timetag, wme)

    def discard(self, wme: WME) -> bool:
        """Drop ``wme`` from the memory and its indexes; False when
        it was not held."""
        if self.items.pop(wme.timetag, None) is None:
            return False
        self.indexes.discard(wme.timetag, wme)
        return True

    def activate(self, wme: WME) -> None:
        """Insert ``wme`` and right-activate the successors."""
        self.insert(wme)
        for successor in list(self.successors):
            successor.on_wme_added(wme)

    def deactivate(self, wme: WME) -> None:
        """Remove ``wme`` and notify successors of the retraction."""
        if self.discard(wme):
            for successor in list(self.successors):
                successor.on_wme_removed(wme)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, wme: object) -> bool:
        return isinstance(wme, WME) and wme.timetag in self.items


class AlphaNetwork:
    """The set of alpha memories, keyed for sharing and grouped by
    relation for dispatch."""

    def __init__(self) -> None:
        self._by_relation: dict[str, dict[tuple, AlphaMemory]] = {}

    def build_or_share(
        self, element: ConditionElement
    ) -> tuple[AlphaMemory, bool]:
        """The alpha memory for ``element``'s constant pattern, and
        whether this call created it.

        The caller back-fills a created memory from the live store
        (the network does not know the store).
        """
        group = self._by_relation.setdefault(element.relation, {})
        key = element.alpha_key()
        memory = group.get(key)
        if memory is not None:
            return memory, False
        memory = group[key] = AlphaMemory(element)
        return memory, True

    def discard(self, memory: AlphaMemory) -> None:
        """Forget a memory no node reads any more."""
        relation = memory.pattern.relation
        group = self._by_relation[relation]
        del group[memory.pattern.alpha_key()]
        if not group:
            del self._by_relation[relation]

    def add_wme(self, wme: WME) -> None:
        """Route an added WME to its relation's accepting memories."""
        group = self._by_relation.get(wme.relation)
        if group:
            for memory in group.values():
                if memory.accepts(wme):
                    memory.activate(wme)

    def remove_wme(self, wme: WME) -> None:
        """Route a removed WME to its relation's memories."""
        group = self._by_relation.get(wme.relation)
        if group:
            for memory in group.values():
                memory.deactivate(wme)

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_relation.values())

    def memories(self) -> list[AlphaMemory]:
        """All alpha memories (stable order not guaranteed)."""
        return [
            memory
            for group in self._by_relation.values()
            for memory in group.values()
        ]
