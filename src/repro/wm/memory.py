"""The working-memory store.

:class:`WorkingMemory` holds the live set of WMEs and implements the
three RHS operations of the paper's model (Section 2): *create*,
*modify* and *delete* ("which respectively add to, modify, and remove
items from the database").

Change propagation is delta-based: every mutation produces a
:class:`WMDelta` that is pushed to registered listeners.  The Rete and
TREAT matchers subscribe to these deltas for incremental matching; the
undo log subscribes to support transactional abort.

The store keeps what the Rete path reads and nothing more: timetag →
WME, and relation → its WMEs by timetag.  It keeps no value postings —
:meth:`WorkingMemory.select` is a scan-and-filter of one relation, for
the naive oracle, and TREAT keeps postings of its own on the pairs its
rules probe.

Deltas group into *units* (:meth:`WorkingMemory.atomic`): a production
execution is one unit, a ``modify`` is one unit, a mutation outside any
bracket is a unit of one.  Unit listeners — the durable store — hear
where a unit opens and where it commits, so what they persist is always
the state after a whole number of units.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import UnknownElementError
from repro.wm.element import Record, Scalar, Timetag, WME
from repro.wm.schema import Catalog

#: Signature of a working-memory change listener.
DeltaListener = Callable[["WMDelta"], None]
#: The two halves of a unit listener: ``opened(label)`` when an
#: outermost :meth:`WorkingMemory.atomic` bracket opens, ``committed()``
#: at its commit point.
UnitOpened = Callable[["str | None"], None]
UnitCommitted = Callable[[], None]


class WMDelta(Record):
    """One atomic change to working memory (a slotted value).

    ``kind`` is ``"add"`` or ``"remove"``.  A ``modify`` is published
    as a remove of the old element followed by an add of the new one,
    the standard OPS5/Rete decomposition.
    """

    __slots__ = ("kind", "wme")
    kind: str
    wme: WME

    def __init__(self, kind: str, wme: WME) -> None:
        self.kind = kind
        self.wme = wme

    def __hash__(self) -> int:
        return hash((self.kind, self.wme))

    def inverted(self) -> "WMDelta":
        """The delta that undoes this one."""
        return WMDelta("remove" if self.kind == "add" else "add", self.wme)


class WorkingMemory:
    """The mutable store of working-memory elements.

    Parameters
    ----------
    catalog:
        Optional system catalog; when provided, every inserted WME is
        validated against its declared schema.
    thread_safe:
        When true, mutations take an internal lock.  The real-threads
        parallel engine (:mod:`repro.engine.threaded`) enables this;
        the deterministic simulator does not need it.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        thread_safe: bool = False,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self._elements: dict[Timetag, WME] = {}
        #: relation -> its live elements by timetag.
        self._by_relation: dict[str, dict[Timetag, WME]] = {}
        self._listeners: list[DeltaListener] = []
        self._unit_listeners: list[tuple[UnitOpened, UnitCommitted]] = []
        self._retirees: dict[Callable, None] = {}
        self._removed: list[Timetag] = []  # since the last commit, if heard
        #: Open :meth:`atomic` brackets (the outermost counts 1).
        self._unit_depth = 0
        self._mutex = threading.RLock() if thread_safe else None

    # -- listeners ------------------------------------------------------------

    def subscribe(self, listener: DeltaListener) -> None:
        """Register ``listener`` to be called after each delta."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: DeltaListener) -> None:
        """Remove a previously registered listener."""
        self._listeners.remove(listener)

    def subscribe_units(
        self, opened: UnitOpened, committed: UnitCommitted
    ) -> None:
        """Register a unit listener (see :meth:`atomic`)."""
        self._unit_listeners.append((opened, committed))

    def unsubscribe_units(
        self, opened: UnitOpened, committed: UnitCommitted
    ) -> None:
        """Remove a previously registered unit listener."""
        self._unit_listeners.remove((opened, committed))

    def subscribe_retired(self, listener: Callable[[list[int]], None]) -> None:
        """Register ``listener`` to hear, once every unit listener accepted
        a commit, the timetags removed since the last and not re-added."""
        self._retirees[listener] = None

    def unsubscribe_retired(self, listener: Callable) -> None:
        """Remove a retirement listener (a no-op when absent)."""
        self._retirees.pop(listener, None)

    def _publish(self, delta: WMDelta) -> None:
        if self._unit_depth or not (self._unit_listeners or self._retirees):
            for listener in self._listeners:
                listener(delta)
        else:
            # A mutation outside any bracket is a unit of one.
            with Unit(self, None):
                for listener in self._listeners:
                    listener(delta)

    # -- units -----------------------------------------------------------------

    def atomic(self, label: str | None = None) -> "Unit":
        """Bracket the mutations that must persist together or not at
        all — one production execution (``label`` its rule name).

        Re-entrant: an inner bracket joins the outermost one.  The
        bracket holds :meth:`locked` for its duration, so on a
        thread-safe memory units serialise.  Delta listeners (matchers,
        the undo log) are untouched and hear every delta at once; unit
        listeners hear ``opened(label)`` when the outermost bracket
        opens and ``committed()`` at its *commit point*: a clean exit,
        or :meth:`Unit.commit` called inside it — each ``committed()``
        covers the deltas since the one before.  A bracket left by an
        exception commits nothing — its deltas are abandoned by the
        unit listeners, **not** undone: the bracket adds no undo log,
        so without one (the single-thread interpreter) memory keeps the
        partial change while the log stays at the unit before it.
        """
        return Unit(self, label)

    @property
    def in_unit(self) -> bool:
        """Is an :meth:`atomic` bracket open (on this thread, when the
        caller holds :meth:`locked`)?"""
        return self._unit_depth > 0

    # -- mutation -------------------------------------------------------------

    def add(self, wme: WME) -> WME:
        """Insert ``wme`` (validated).  Re-adding an element whose
        removal committed is outside the refraction contract."""
        with self._maybe_locked():
            self.catalog.validate(wme)
            if wme.timetag in self._elements:
                raise UnknownElementError(
                    f"timetag {wme.timetag} already present"
                )
            self._elements[wme.timetag] = wme
            bucket = self._by_relation.get(wme.relation)
            if bucket is None:
                self._by_relation[wme.relation] = {wme.timetag: wme}
            else:
                bucket[wme.timetag] = wme
            self._publish(WMDelta("add", wme))
            return wme

    def make(
        self,
        relation: str,
        values: Mapping[str, Scalar] | None = None,
        **kwargs: Scalar,
    ) -> WME:
        """Create and insert a fresh WME (the RHS ``create`` operation)."""
        return self.add(WME.make(relation, values, **kwargs))

    def remove(self, target: WME | Timetag) -> WME:
        """Remove an element (the RHS ``delete`` operation).

        Accepts either a WME or its timetag; raises
        :class:`UnknownElementError` when absent.
        """
        with self._maybe_locked():
            timetag = target.timetag if isinstance(target, WME) else target
            wme = self._elements.pop(timetag, None)
            if wme is None:
                raise UnknownElementError(f"no element with timetag {timetag}")
            bucket = self._by_relation[wme.relation]
            del bucket[timetag]
            if not bucket:
                del self._by_relation[wme.relation]
            if self._retirees:
                self._removed.append(timetag)
            self._publish(WMDelta("remove", wme))
            return wme

    def modify(
        self,
        target: WME | Timetag,
        changes: Mapping[str, Scalar],
    ) -> WME:
        """Replace attribute values of an element (the RHS ``modify``).

        Implemented, as in OPS5, as remove-old + add-new: the new
        element gets a fresh timetag so recency ordering observes the
        modification.
        """
        with self._maybe_locked():
            timetag = target.timetag if isinstance(target, WME) else target
            old = self._elements.get(timetag)
            if old is None:
                raise UnknownElementError(f"no element with timetag {timetag}")
            new = old.replaced(changes)
            # The remove and the add persist together: inside a unit
            # they join it, outside they are a unit of their own.
            with _JOINED if self._unit_depth else Unit(self, None):
                self.remove(old)
                self.add(new)
            return new

    def apply(self, delta: WMDelta) -> None:
        """Apply a raw delta; used by the undo log to roll back."""
        if delta.kind == "add":
            self.add(delta.wme)
        else:
            self.remove(delta.wme)

    def clear(self) -> None:
        """Remove every element, publishing a delta per removal."""
        for timetag in list(self._elements):
            self.remove(timetag)

    # -- queries --------------------------------------------------------------

    def get(self, timetag: Timetag) -> WME | None:
        """Return the live element with ``timetag``, or ``None``."""
        return self._elements.get(timetag)

    def __contains__(self, target: object) -> bool:
        if isinstance(target, WME):
            return target.timetag in self._elements
        return target in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[WME]:
        return iter(list(self._elements.values()))

    def elements(self, relation: str | None = None) -> list[WME]:
        """All live elements, or one relation's in timetag order."""
        if relation is None:
            return list(self._elements.values())
        bucket = self._by_relation.get(relation)
        if not bucket:
            return []
        return [bucket[t] for t in sorted(bucket)]

    def select(
        self,
        relation: str,
        equalities: Iterable[tuple[str, Scalar]] = (),
    ) -> list[WME]:
        """Conjunctive selection over one relation, in timetag order.

        A scan of the relation: only the naive oracle selects through
        working memory (TREAT keeps postings of its own).

        >>> wm = WorkingMemory()
        >>> _ = wm.make("order", id=1, status="open")
        >>> _ = wm.make("order", id=2, status="closed")
        >>> [w["id"] for w in wm.select("order", [("status", "open")])]
        [1]
        """
        matches = self.elements(relation)
        for attribute, value in equalities:
            matches = [
                w for w in matches
                if w._mapping.get(attribute, _MISSING) == value
            ]
        return matches

    def count(self, relation: str) -> int:
        """Number of live elements of ``relation``."""
        return len(self._by_relation.get(relation, ()))

    def value_identity_set(self) -> frozenset[tuple]:
        """The set of value identities of live elements (timetag-free).

        Two working memories with equal value-identity sets are
        equivalent database states in the sense of Section 3's state
        space — this is the equality the semantic-consistency checker
        uses.
        """
        return frozenset(w.identity() for w in self._elements.values())

    # -- locking helper ---------------------------------------------------------

    def locked(self):
        """Context manager holding the store's mutation lock.

        A no-op context for non-thread-safe memories.  External
        components that must observe an atomic (state, event-order)
        pair — e.g. the durable store capturing a checkpoint — take
        this lock *first* and their own lock second, mirroring the
        mutation path (which holds this lock across delta publication),
        so the two lock orders can never deadlock.
        """
        return self._maybe_locked()

    def _maybe_locked(self):
        if self._mutex is not None:
            return self._mutex
        return _JOINED


class Unit:
    """One :meth:`WorkingMemory.atomic` bracket."""

    __slots__ = ("_memory", "_label")

    def __init__(self, memory: WorkingMemory, label: str | None) -> None:
        self._memory = memory
        self._label = label

    def __enter__(self) -> "Unit":
        memory = self._memory
        if memory._mutex is not None:
            memory._mutex.acquire()
        try:
            if not memory._unit_depth:
                for opened, _ in memory._unit_listeners:
                    opened(self._label)
        except BaseException:
            if memory._mutex is not None:
                memory._mutex.release()
            raise
        memory._unit_depth += 1
        return self

    def commit(self) -> None:
        """The commit point, taken early: tell the unit listeners now
        (a no-op inside an outer bracket).  When one raises, the unit
        is still open — undo inside it and nothing is left to commit.
        """
        memory = self._memory
        if memory._unit_depth == 1:
            for _, committed in memory._unit_listeners:
                committed()
            if memory._removed:
                retired = [t for t in memory._removed if t not in memory]
                memory._removed.clear()
                for listener in memory._retirees:
                    listener(retired)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        memory = self._memory
        try:
            if exc_type is None:
                self.commit()
        finally:
            memory._unit_depth -= 1
            if memory._mutex is not None:
                memory._mutex.release()


#: The shared no-op context: an operation's bracket inside an open
#: unit, and the lock of a memory that is not thread-safe.
_JOINED = nullcontext()

#: Absent-attribute sentinel of :meth:`WorkingMemory.select`.
_MISSING = object()
