"""The naive from-scratch matcher.

Re-evaluates every production's LHS against the whole working memory
after each delta.  Quadratically slower than Rete on incremental
workloads — which is precisely the comparison
``benchmarks/bench_match_algorithms.py`` draws — but its directness
makes it the oracle the property-based tests check Rete and TREAT
against.

Negation semantics (OPS5): a negated condition element succeeds when no
WME matches it under the bindings accumulated so far; variables that
appear only inside the negated element are existentially quantified
within it.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang.compile import SlottedPlan
from repro.lang.production import Production
from repro.match.base import BaseMatcher
from repro.match.instantiation import Instantiation
from repro.wm.element import WME
from repro.wm.memory import WMDelta, WorkingMemory


def match_production(
    production: Production, memory: WorkingMemory
) -> Iterator[Instantiation]:
    """Enumerate every instantiation of ``production`` against ``memory``.

    Pure function — the heart of the oracle.  Processes condition
    elements in written order, branching on positive elements and
    pruning on negated ones, along the compiled per-element steps of
    the production's token plan.
    """
    plan = production.token_plan()
    yield from _extend(plan, memory, 0, (), plan.empty_token())


def _extend(
    plan: SlottedPlan,
    memory: WorkingMemory,
    index: int,
    matched: tuple[WME, ...],
    token,
) -> Iterator[Instantiation]:
    if index == len(plan.steps):
        yield plan.instantiate(matched, token)
        return
    step = plan.steps[index]
    if step.negated:
        if _exists_match(step, memory, token):
            return
        yield from _extend(
            plan, memory, index + 1, matched, step.carry(token)
        )
        return
    match = step.match
    for wme in _candidates(step, memory, token):
        extended = match(wme, token)
        if extended is not None:
            yield from _extend(
                plan, memory, index + 1, matched + (wme,), extended
            )


def _exists_match(step, memory: WorkingMemory, token) -> bool:
    """Existential check for negated elements.

    The extended token (carrying the negation's local bindings) is
    discarded — locals are quantified within the element, so they never
    escape into persisted tokens.
    """
    match = step.match
    for wme in _candidates(step, memory, token):
        if match(wme, token) is not None:
            return True
    return False


def _candidates(step, memory: WorkingMemory, token) -> list[WME]:
    """Index-assisted candidate selection for one condition element.

    Uses constant equality tests, plus variable tests whose variable is
    already bound (they are equalities at this point), to narrow the
    scan via the store's attribute index.  The step precomputes the
    constant pairs and the (attribute, slot) probe items.
    """
    return memory.select(step.relation, step.probe_equalities(token))


class NaiveMatcher(BaseMatcher):
    """From-scratch matcher implementing the :class:`Matcher` protocol."""

    def __init__(self, memory: WorkingMemory) -> None:
        super().__init__(memory)
        #: Count of full recomputations, exposed for benchmarks.
        self.recompute_count = 0

    def add_production(self, production: Production) -> None:
        self._register(production)
        if self._attached:
            self._refresh_rule(production)

    def remove_production(self, name: str) -> None:
        self._unregister(name)
        for instantiation in self.conflict_set.for_rule(name):
            self.conflict_set.remove(instantiation)

    def rebuild(self) -> None:
        self.recompute_count += 1
        current: set[Instantiation] = set()
        for production in self._productions.values():
            current.update(match_production(production, self.memory))
        for stale in self.conflict_set.members() - current:
            self.conflict_set.remove(stale)
        for fresh in current:
            self.conflict_set.add(fresh)

    def _refresh_rule(self, production: Production) -> None:
        current = set(match_production(production, self.memory))
        for stale in set(self.conflict_set.for_rule(production.name)) - current:
            self.conflict_set.remove(stale)
        for fresh in current:
            self.conflict_set.add(fresh)

    def _on_delta(self, delta: WMDelta) -> None:
        # From-scratch: any delta invalidates everything.  (A real
        # system would at least restrict to productions mentioning the
        # delta's relation; we keep the oracle maximally simple.)
        self.rebuild()
