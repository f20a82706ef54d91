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

The TREAT-vs-Rete trade (state kept vs join work redone) is measured by
``benchmarks/bench_match_algorithms.py``.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang.compile import SlottedPlan
from repro.lang.production import Production
from repro.match.base import BaseMatcher
from repro.match.instantiation import Instantiation
from repro.match.naive import match_production
from repro.wm.element import WME
from repro.wm.memory import WMDelta, WorkingMemory


def match_with_fixed(
    production: Production,
    memory: WorkingMemory,
    fixed_index: int,
    fixed_wme: WME,
) -> Iterator[Instantiation]:
    """Instantiations of ``production`` using ``fixed_wme`` at LHS
    position ``fixed_index`` (0-based, must be a positive element)."""
    plan = production.token_plan()
    yield from _extend_fixed(
        plan, memory, 0, (), plan.empty_token(), fixed_index, fixed_wme
    )


def _extend_fixed(
    plan: SlottedPlan,
    memory: WorkingMemory,
    index: int,
    matched: tuple[WME, ...],
    token,
    fixed_index: int,
    fixed_wme: WME,
) -> Iterator[Instantiation]:
    if index == len(plan.steps):
        yield plan.instantiate(matched, token)
        return
    step = plan.steps[index]
    match = step.match
    if step.negated:
        for wme in memory.select(step.relation):
            if match(wme, token) is not None:
                return
        yield from _extend_fixed(
            plan, memory, index + 1, matched, step.carry(token),
            fixed_index, fixed_wme,
        )
        return
    if index == fixed_index:
        candidates = [fixed_wme]
    else:
        candidates = memory.select(
            step.relation, step.probe_equalities(token)
        )
    for wme in candidates:
        extended = match(wme, token)
        if extended is not None:
            yield from _extend_fixed(
                plan, memory, index + 1, matched + (wme,), extended,
                fixed_index, fixed_wme,
            )


class TreatMatcher(BaseMatcher):
    """Conflict-set-retaining matcher implementing :class:`Matcher`."""

    def __init__(self, memory: WorkingMemory) -> None:
        super().__init__(memory)
        #: Join enumerations performed, exposed for benchmarks.
        self.join_count = 0

    def add_production(self, production: Production) -> None:
        self._register(production)
        if self._attached:
            for instantiation in match_production(production, self.memory):
                self.conflict_set.add(instantiation)

    def remove_production(self, name: str) -> None:
        self._unregister(name)
        for instantiation in self.conflict_set.for_rule(name):
            self.conflict_set.remove(instantiation)

    def rebuild(self) -> None:
        self.conflict_set.clear()
        for production in self._productions.values():
            for instantiation in match_production(production, self.memory):
                self.conflict_set.add(instantiation)

    # -- incremental delta handling ----------------------------------------------------

    def _on_delta(self, delta: WMDelta) -> None:
        if delta.kind == "add":
            self._on_add(delta.wme)
        else:
            self._on_remove(delta.wme)

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
                    for instantiation in match_with_fixed(
                        production, self.memory, index, wme
                    ):
                        self.conflict_set.add(instantiation)

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
                self.conflict_set.remove(instantiation)

    def _on_remove(self, wme: WME) -> None:
        # Conflict-set retention: drop instantiations that used the WME.
        # The conflict set's WME→instantiations mentions index makes
        # this O(affected), not a scan of every member per removal.
        for instantiation in self.conflict_set.mentioning(wme):
            self.conflict_set.remove(instantiation)
        # Removing a blocker of a negated element can create matches;
        # recompute the affected rules (TREAT's conservative case).
        for name, production in self._productions.items():
            plan = self._plans[name]
            if any(
                step.negated and step.alpha(wme) for step in plan.steps
            ):
                self.join_count += 1
                current = set(match_production(production, self.memory))
                for stale in (
                    set(self.conflict_set.for_rule(production.name)) - current
                ):
                    self.conflict_set.remove(stale)
                for fresh in current:
                    self.conflict_set.add(fresh)
