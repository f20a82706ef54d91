"""Instantiations: a production paired with the WMEs that satisfy it.

The conflict set contains *instantiations*, not bare productions: the
same rule can be active several times against different data.  An
instantiation records the matched WMEs (one per positive condition
element, in LHS order) and the variable bindings the match produced.

Instantiations are value objects — equality is (production name,
matched timetags) — so the conflict set can diff cheaply across cycles
and the refraction rule ("don't fire the same instantiation twice") is
a set-membership test.

Bindings are stored in the form they arrive in: matchers pass the raw
slot vector plus the production's
:class:`~repro.lang.compile.VariableIndex` (:meth:`Instantiation.
from_slots`) and ``bindings_items`` materializes lazily on first
access; the constructor and :meth:`Instantiation.build` take the
``(name, value)`` pairs or a mapping directly (unpickling, worker
replies, hand-built instantiations).  Identity, hashing, and ordering
never touch bindings, so a conflict-set entry that is never fired never
pays for materializing them, nor one that is never ranked for its keys.
"""

from __future__ import annotations

from operator import attrgetter, neg
from typing import TYPE_CHECKING, Hashable, Mapping

from repro.lang.ast import MakeAction, ModifyAction, RemoveAction
from repro.lang.production import Production
from repro.wm.element import Scalar, WME, data_object_key
from repro.wm.schema import Catalog

_TIMETAG = attrgetter("timetag")

if TYPE_CHECKING:
    from repro.lang.compile import SlotToken, VariableIndex


class Instantiation:
    """One satisfied LHS.

    Parameters
    ----------
    production:
        The matched rule.
    wmes:
        The WMEs matched by the *positive* condition elements, in LHS
        order (negated elements match absence, so contribute no WME).
    bindings_items:
        Variable bindings established by the match, as a sorted tuple
        of pairs (hashable form).  Prefer :meth:`build` /
        :meth:`from_slots` over constructing directly.
    """

    __slots__ = (
        "production",
        "wmes",
        "_bindings_items",
        "_slot_token",
        "_slot_index",
        "_bindings",
        "_timetags",
        "_identity",
        "_hash",
        "_newest",
        "_mea_key",
        "_lex_key",
        "_lock_footprint",
    )

    def __init__(
        self,
        production: Production,
        wmes: tuple[WME, ...],
        bindings_items: tuple[tuple[str, Scalar], ...] = (),
    ) -> None:
        self.production = production
        self.wmes = wmes
        self._bindings_items = tuple(bindings_items)
        self._slot_token = None
        self._slot_index = None
        self._bindings = None
        self._init_keys()

    def _init_keys(self) -> None:
        # The ranking keys wait for a strategy's first read.
        timetags = tuple(map(_TIMETAG, self.wmes))
        identity = (self.production.name, timetags)
        self._timetags = timetags
        self._identity = identity
        self._hash = hash(identity)
        # -1, not 0: timetags are non-negative and a freshly recovered
        # store legitimately starts at timetag 0, so 0 as the no-WMEs
        # sentinel would tie an all-negated instantiation with one
        # whose goal element matched timetag 0.
        self._newest = max(timetags) if timetags else -1
        self._mea_key = self._lex_key = None
        self._lock_footprint = None

    @staticmethod
    def build(
        production: Production,
        wmes: tuple[WME, ...],
        bindings: Mapping[str, Scalar],
    ) -> "Instantiation":
        return Instantiation(
            production, wmes, tuple(sorted(bindings.items()))
        )

    @classmethod
    def from_slots(
        cls,
        production: Production,
        wmes: tuple[WME, ...],
        token: "SlotToken",
        index: "VariableIndex",
    ) -> "Instantiation":
        """Build from a full-width slot token without materializing the
        sorted pairs — they are derived lazily on first access."""
        inst = cls.__new__(cls)
        inst.production = production
        inst.wmes = wmes
        inst._bindings_items = None
        inst._slot_token = token
        inst._slot_index = index
        inst._bindings = None
        inst._init_keys()
        return inst

    @property
    def bindings_items(self) -> tuple[tuple[str, Scalar], ...]:
        """The bindings as a sorted tuple of pairs (lazy, cached)."""
        items = self._bindings_items
        if items is None:
            items = self._slot_index.bindings_items(self._slot_token)
            self._bindings_items = items
        return items

    @property
    def bindings(self) -> dict[str, Scalar]:
        """The variable bindings as a dict (cached — treat as frozen).

        Callers that mutate (the RHS ``bind`` action) copy first.
        """
        cached = self._bindings
        if cached is None:
            cached = dict(self.bindings_items)
            self._bindings = cached
        return cached

    def slot_token(self, index: "VariableIndex") -> "SlotToken":
        """The bindings as a full-width token of ``index``'s layout.

        Free when the instantiation was built from slots with the
        same index; otherwise rebuilt (and cached) from the pairs.
        """
        token = self._slot_token
        if token is not None and self._slot_index is index:
            return token
        token = index.token_from_items(self.bindings_items)
        if self._slot_token is None:
            self._slot_token = token
            self._slot_index = index
        return token

    def slots(self) -> "tuple[VariableIndex, SlotToken]":
        """``(index, token)``: the matcher's slot layout and token, or
        the written-order layout rebuilt from the pairs."""
        index = self._slot_index
        if index is None:
            index = self.production.token_plan().index
            return index, self.slot_token(index)
        return index, self._slot_token

    @property
    def rule_name(self) -> str:
        """The name of the matched production."""
        return self.production.name

    def timetags(self) -> tuple[int, ...]:
        """Timetags of the matched WMEs, in LHS order (cached)."""
        return self._timetags

    def recency_key(self) -> tuple[int, ...]:
        """Timetags sorted descending — the LEX recency ordering.

        LEX compares instantiations by their sorted-descending timetag
        vectors, lexicographically; larger means more recent, i.e.
        preferred.  The first part of :meth:`lex_key`, built with it.
        """
        return self.lex_key()[0]

    def mea_key(self) -> tuple[int, ...]:
        """MEA ordering key: first-element recency, then LEX.

        MEA gives absolute priority to the recency of the WME matching
        the *first* condition element (the "means-ends" goal element),
        breaking ties with LEX.  Built on first read; ``-1`` marks the
        no-positive-WMEs case (real timetags are non-negative).
        """
        if self._mea_key is None:
            first = self._timetags[0] if self._timetags else -1
            self._mea_key = (first, *self.lex_key()[0])
        return self._mea_key

    def lex_key(self) -> tuple:
        """The complete LEX rank, larger preferred: recency, then the
        production's :meth:`~repro.lang.production.Production.lex_static`
        (specificity, name tiebreak), then the timetags in LHS order.
        Built on first read and cached.  A total order: two
        instantiations with equal keys have equal identities.
        """
        if self._lex_key is None:
            # The LHS-order timetags end it: without them one rule over
            # the same timetags in two LHS orders would tie.
            self._lex_key = (
                tuple(sorted(self._timetags, reverse=True)),
                self.production.lex_static(),
                self._timetags,
            )
        return self._lex_key

    def lock_footprint(
        self,
    ) -> tuple[tuple[Hashable, ...], tuple[Hashable, ...]]:
        """``(reads, writes)``: the data objects the LHS read and the
        RHS will write, each without repeats, in LHS / RHS order.
        Computed on first use and cached: a candidate that loses a
        wave asks again the next.  Deciding a wave from footprints
        needs no order; whoever requests real locks sorts them
        (:meth:`~repro.engine.threaded.ThreadedWaveExecutor._block_on`).

        Reads: matched WMEs at tuple granularity; negated condition
        elements read *absence*, protected at relation level via the
        catalog key (Section 4.3's escalation argument).  Writes:
        ``modify``/``remove`` write the matched tuple; every change of
        a relation's membership (``make``'s fresh tuple has no key
        before execution) also writes the relation's catalog key,
        which is what invalidates those negative conditions.
        """
        footprint = self._lock_footprint
        if footprint is None:
            production = self.production
            wmes = self.wmes
            # dicts, not sets: insertion order is the same in every
            # process (a set of string keys is not, under hash
            # randomization), so whatever walks a footprint in order —
            # the fault sites, the trace — repeats run to run.
            reads = dict.fromkeys(data_object_key(w) for w in wmes)
            for element in production.negative_elements():
                reads[Catalog.catalog_lock_key(element.relation)] = None
            positive = production.positive_indices()
            writes = {}
            for action in production.rhs:
                if isinstance(action, (ModifyAction, RemoveAction)):
                    wme = wmes[positive.index(action.ce_index - 1)]
                    writes[data_object_key(wme)] = None
                    writes[Catalog.catalog_lock_key(wme.relation)] = None
                elif isinstance(action, MakeAction):
                    writes[Catalog.catalog_lock_key(action.relation)] = None
            footprint = self._lock_footprint = (tuple(reads), tuple(writes))
        return footprint

    def merge_key(self) -> tuple:
        """Ascending sort key of the partitioned merge and of worker
        replies: most recent first, rule name as tiebreak."""
        return (tuple(map(neg, self.recency_key())), self.production.name)

    def mentions(self, wme: WME) -> bool:
        """True when ``wme`` is one of the matched elements."""
        return wme.timetag in self._timetags

    def identity(self) -> tuple[str, tuple[int, ...]]:
        """Equality/hashing identity: rule name + matched timetags."""
        return self._identity

    def __reduce__(self):
        # Materialize the pairs so pickles carry plain data, never the
        # slot index (whose plan closures don't pickle).
        return (
            Instantiation,
            (self.production, self.wmes, self.bindings_items),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instantiation):
            return NotImplemented
        return self._identity == other._identity

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Instantiation(production={self.production.name!r}, "
            f"timetags={self._timetags!r})"
        )

    def __str__(self) -> str:
        tags = ",".join(str(t) for t in self.timetags())
        return f"{self.production.name}[{tags}]"
