"""The TREAT matcher [MIRA84].

TREAT keeps *alpha* memories and the *conflict set* across cycles but —
unlike Rete — stores no intermediate join results (beta memories).  On
each working-memory delta it:

* **add(w)**: for every production and every positive condition element
  whose constant tests accept ``w``, enumerates the instantiations that
  use ``w`` in that position (joining the other positions against the
  live store) and adds them; and for every *negated* element accepting
  ``w``, retracts the instantiations ``w`` now invalidates.
* **remove(w)**: retracts the instantiations that mention ``w``
  (conflict-set retention makes this a filter, no re-join needed); for
  productions with a negated element accepting ``w``, conservatively
  recomputes the rule, since removing a blocker can create matches.

The filter reads TREAT's own index, WME timetag → the instantiations
whose match used it, kept at the matcher's own add/remove sites and
dropped with the conflict set on :meth:`TreatMatcher.rebuild`.  No
other matcher reads such an index, so the shared
:class:`~repro.match.conflict_set.ConflictSet` does not keep one.

The joins draw their candidates from TREAT's own *postings*, relation
→ attribute → value → the live elements, kept only on the
``(relation, attribute)`` pairs the registered rules' steps probe (a
constant equality or a join key) and maintained from the deltas the
matcher hears.  Working memory keeps no value postings: Rete, the
matcher every engine runs, never reads them.

The TREAT-vs-Rete trade (state kept vs join work redone) is measured by
``benchmarks/bench_match_algorithms.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.lang.compile import SlottedPlan
from repro.lang.production import Production
from repro.match.base import BaseMatcher
from repro.match.instantiation import Instantiation
from repro.match.naive import match_production
from repro.wm.element import Scalar, WME, Timetag
from repro.wm.memory import WMDelta, WorkingMemory

#: Absent-attribute sentinel of the postings.
_MISSING = object()


class TreatMatcher(BaseMatcher):
    """Conflict-set-retaining matcher implementing :class:`Matcher`."""

    def __init__(self, memory: WorkingMemory) -> None:
        super().__init__(memory)
        #: Join enumerations performed, exposed for benchmarks.
        self.join_count = 0
        # Timetag -> the members whose match used it (dict-as-ordered-
        # set); a bucket goes when its last member does.
        self._by_wme: dict[Timetag, dict[Instantiation, None]] = {}
        #: relation -> attribute -> value -> {timetag: WME}: postings on
        #: the pairs the registered rules probe (:meth:`_repost`).
        self._postings: dict[str, dict[str, dict]] = {}

    # -- postings ----------------------------------------------------------------------

    def select(
        self, relation: str, equalities: Iterable[tuple[str, Scalar]] = ()
    ) -> list[WME]:
        """:meth:`WorkingMemory.select` answered from the postings: the
        smallest posted equality's bucket, filtered, in timetag order."""
        equalities = list(equalities)
        posted = self._postings.get(relation, {})
        buckets = [
            posted[attribute].get(value, {})
            for attribute, value in equalities
            if attribute in posted
        ]
        if not buckets:
            return self.memory.select(relation, equalities)
        best = min(buckets, key=len)
        matches = [best[t] for t in sorted(best)]
        for attribute, value in equalities:
            matches = [
                w for w in matches
                if w._mapping.get(attribute, _MISSING) == value
            ]
        return matches

    def _repost(self) -> None:
        """Post, afresh from memory, the ``(relation, attribute)`` pairs
        the registered rules' steps probe: their constant equalities
        and join keys."""
        self._postings = postings = {}
        for plan in self._plans.values():
            for step in plan.steps:
                probed = (*step.constant_equalities, *step.probe_items)
                for attribute, _ in probed:
                    postings.setdefault(step.relation, {})[attribute] = {}
        for relation, posted in postings.items():
            for wme in self.memory.elements(relation):
                self._post(wme, posted, True)

    @staticmethod
    def _post(wme: WME, posted, add: bool) -> None:
        """File ``wme`` in (``add``) or out of one relation's postings;
        a bucket goes with its last element."""
        for attribute, values in posted.items():
            value = wme._mapping.get(attribute, _MISSING)
            if value is _MISSING:
                continue
            if add:
                values.setdefault(value, {})[wme.timetag] = wme
                continue
            bucket = values.get(value, {})
            bucket.pop(wme.timetag, None)
            if not bucket:
                values.pop(value, None)

    def mentioning(self, wme: WME | Timetag) -> list[Instantiation]:
        """The conflict-set members whose match used ``wme``.

        Index-backed: O(instantiations mentioning the WME), not
        O(|CS|) — this is what keeps ``remove(w)`` a filter.
        """
        timetag = wme.timetag if isinstance(wme, WME) else wme
        return list(self._by_wme.get(timetag, ()))

    def _add(self, instantiation: Instantiation) -> None:
        if self.conflict_set.add(instantiation):
            by_wme = self._by_wme
            for wme in instantiation.wmes:
                bucket = by_wme.get(wme.timetag)
                if bucket is None:
                    by_wme[wme.timetag] = {instantiation: None}
                else:
                    bucket[instantiation] = None

    def _remove(self, instantiation: Instantiation) -> None:
        if self.conflict_set.remove(instantiation):
            by_wme = self._by_wme
            # A WME matched at two positions is listed twice.
            for wme in instantiation.wmes:
                bucket = by_wme.get(wme.timetag)
                if bucket is not None:
                    bucket.pop(instantiation, None)
                    if not bucket:
                        del by_wme[wme.timetag]

    def add_production(self, production: Production) -> None:
        self._register(production)
        if self._attached:
            self._repost()
            for instantiation in match_production(
                production, self.memory, self.select
            ):
                self._add(instantiation)

    def remove_production(self, name: str) -> None:
        self._unregister(name)
        if self._attached:
            self._repost()
        for instantiation in self.conflict_set.for_rule(name):
            self._remove(instantiation)

    def rebuild(self) -> None:
        self.conflict_set.clear()
        self._by_wme.clear()
        self._repost()
        for production in self._productions.values():
            for instantiation in match_production(
                production, self.memory, self.select
            ):
                self._add(instantiation)

    # -- incremental delta handling ----------------------------------------------------

    def _on_delta(self, delta: WMDelta) -> None:
        wme, add = delta.wme, delta.kind == "add"
        self._post(wme, self._postings.get(wme.relation, {}), add)
        if add:
            self._on_add(wme)
        else:
            self._on_remove(wme)

    def _on_add(self, wme: WME) -> None:
        for name, production in self._productions.items():
            plan = self._plans[name]
            for index, step in enumerate(plan.steps):
                if not step.alpha(wme):
                    continue
                if step.negated:
                    self._invalidate(production, plan, index, wme)
                else:
                    self.join_count += 1
                    for instantiation in match_production(
                        production, self.memory, self.select, (index, wme)
                    ):
                        self._add(instantiation)

    def _invalidate(
        self, production: Production, plan: SlottedPlan, index: int, wme: WME
    ) -> None:
        """Retract instantiations whose negated element now matches ``wme``.

        The probe sees what written-order matching saw: the bindings
        the instantiation had on reaching the negated element.  A
        variable a later positive element binds is still existential
        inside the negation.  ``wme`` already passed the step's alpha.
        """
        step = plan.steps[index]
        beta = step.beta
        prefix_of = step.prefix_of
        token_of = plan.token_of
        for instantiation in self.conflict_set.for_rule(production.name):
            if beta(wme, prefix_of(token_of(instantiation))) is not None:
                self._remove(instantiation)

    def _on_remove(self, wme: WME) -> None:
        # Conflict-set retention: drop instantiations that used the WME,
        # found through the matcher's own index — O(affected), not a
        # scan of every member per removal.
        for instantiation in self.mentioning(wme):
            self._remove(instantiation)
        # Removing a blocker of a negated element can create matches;
        # recompute the affected rules (TREAT's conservative case).
        for name, production in self._productions.items():
            plan = self._plans[name]
            if any(
                step.negated and step.alpha(wme) for step in plan.steps
            ):
                self.join_count += 1
                current = set(
                    match_production(production, self.memory, self.select)
                )
                for stale in (
                    set(self.conflict_set.for_rule(production.name)) - current
                ):
                    self._remove(stale)
                for fresh in current:
                    self._add(fresh)
