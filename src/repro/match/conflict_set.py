"""The conflict set (the paper's *set of active productions*, ``PA``).

Matchers deposit instantiation adds/removes here.  The set also keeps a
per-cycle delta so the engine can observe exactly which instantiations
a firing activated or deactivated — the concrete realization of the
paper's add sets :math:`A_i^a` and delete sets :math:`A_i^d`
(Section 3.3): "the commit of P_i adds (subtracts) the set A_i^a
(A_i^d) to (from) the conflict set PA".

Two secondary indexes are maintained alongside the membership map, kept
in sync by :meth:`ConflictSet.add`/:meth:`ConflictSet.remove`:

* rule name → instantiations, backing :meth:`for_rule` and
  :meth:`rule_names` (called on per-delta paths by the TREAT matcher's
  negation handling and by ``remove_production``);
* WME timetag → instantiations that mention it, backing
  :meth:`mentioning` (the TREAT ``remove(w)`` retraction path), so a
  WME removal never scans the whole set.

Refraction semantics (pinned here deliberately — OPS5): *an
instantiation that has fired never fires again*.  Refraction is keyed
on instantiation **identity** (rule name + matched timetags), and the
fired mark **survives retraction**: an instantiation retracted and
re-derived with the *same* timetags within one wave (matcher churn,
negation flicker, transactional rollback) does not regain eligibility
and cannot fire twice.  Genuine re-derivations are unaffected, because
working-memory ``modify``/``make`` assign fresh timetags, producing a
*distinct* instantiation that has never fired.  The fired memory is
bounded by the number of firings in a run and is dropped only by
:meth:`forget_fired` (used by tests) — never implicitly by
:meth:`remove` or :meth:`clear`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.match.instantiation import Instantiation
from repro.wm.element import Timetag, WME


@dataclass(frozen=True)
class ConflictSetDelta:
    """Instantiations added and removed since the delta was opened."""

    added: frozenset[Instantiation]
    removed: frozenset[Instantiation]

    def is_empty(self) -> bool:
        return not self.added and not self.removed


class ConflictSet:
    """A mutable set of instantiations with delta tracking."""

    def __init__(self) -> None:
        self._members: dict[Instantiation, Instantiation] = {}
        self._fired: set[Instantiation] = set()
        # Members that have not fired, in membership order (dict-as-
        # ordered-set), kept in step by add/remove/mark_fired so that
        # eligible() never scans the membership.
        self._eligible: dict[Instantiation, None] = {}
        self._added: set[Instantiation] = set()
        self._removed: set[Instantiation] = set()
        # Secondary indexes (insertion-ordered via dict-as-set so the
        # derived views are deterministic).
        self._by_rule: dict[str, dict[Instantiation, None]] = {}
        self._by_wme: dict[Timetag, dict[Instantiation, None]] = {}

    # -- mutation (called by matchers) ---------------------------------------------

    def add(self, instantiation: Instantiation) -> bool:
        """Insert; returns False when already present."""
        if instantiation in self._members:
            return False
        self._members[instantiation] = instantiation
        if instantiation not in self._fired:
            self._eligible[instantiation] = None
        self._by_rule.setdefault(instantiation.production.name, {})[
            instantiation
        ] = None
        for wme in instantiation.wmes:
            self._by_wme.setdefault(wme.timetag, {})[instantiation] = None
        if instantiation in self._removed:
            self._removed.discard(instantiation)
        else:
            self._added.add(instantiation)
        return True

    def remove(self, instantiation: Instantiation) -> bool:
        """Delete; returns False when absent.

        Refraction state is *preserved* (see the module docstring): a
        subsequent re-add of the identical instantiation remains
        ineligible.
        """
        if instantiation not in self._members:
            return False
        del self._members[instantiation]
        self._eligible.pop(instantiation, None)
        rule_bucket = self._by_rule.get(instantiation.production.name)
        if rule_bucket is not None:
            rule_bucket.pop(instantiation, None)
            if not rule_bucket:
                del self._by_rule[instantiation.production.name]
        for wme in instantiation.wmes:
            wme_bucket = self._by_wme.get(wme.timetag)
            if wme_bucket is not None:
                wme_bucket.pop(instantiation, None)
                if not wme_bucket:
                    del self._by_wme[wme.timetag]
        if instantiation in self._added:
            self._added.discard(instantiation)
        else:
            self._removed.add(instantiation)
        return True

    def clear(self) -> None:
        """Remove everything (used when a matcher rebuilds from scratch).

        Fired marks survive, so a rebuild cannot resurrect eligibility.
        """
        for instantiation in list(self._members):
            self.remove(instantiation)

    # -- refraction -------------------------------------------------------------------

    def mark_fired(self, instantiation: Instantiation) -> None:
        """Record that ``instantiation`` has fired (refraction)."""
        self._fired.add(instantiation)
        self._eligible.pop(instantiation, None)

    def has_fired(self, instantiation: Instantiation) -> bool:
        """True when the instantiation has ever fired.

        Persists across retraction: a fired instantiation that leaves
        and re-enters the set (same rule, same timetags) still reports
        True and stays ineligible.
        """
        return instantiation in self._fired

    def forget_fired(self, instantiation: Instantiation) -> None:
        """Drop the fired mark, restoring eligibility (test hook)."""
        self._fired.discard(instantiation)
        if instantiation in self._members:
            # Rebuild rather than append: the member regains its
            # membership-order position, not the end of the line.
            fired = self._fired
            self._eligible = {
                m: None for m in self._members if m not in fired
            }

    def eligible(self) -> list[Instantiation]:
        """Members that have not fired — the candidates for *select*,
        in membership order."""
        return list(self._eligible)

    # -- delta tracking ------------------------------------------------------------------

    def take_delta(self) -> ConflictSetDelta:
        """Return and reset the accumulated delta.

        The returned delta is exactly (A^a, A^d) of the firings since
        the previous call.
        """
        delta = ConflictSetDelta(
            frozenset(self._added), frozenset(self._removed)
        )
        self._added.clear()
        self._removed.clear()
        return delta

    def peek_delta(self) -> ConflictSetDelta:
        """The accumulated delta, without resetting it."""
        return ConflictSetDelta(
            frozenset(self._added), frozenset(self._removed)
        )

    # -- queries --------------------------------------------------------------------------

    def __contains__(self, instantiation: object) -> bool:
        return instantiation in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Instantiation]:
        return iter(self.ordered())

    def ordered(self) -> list[Instantiation]:
        """A snapshot of the membership, in membership order."""
        return list(self._members)

    def members(self) -> frozenset[Instantiation]:
        """An immutable view of the current membership."""
        return frozenset(self._members)

    def rule_names(self) -> frozenset[str]:
        """Names of productions with at least one active instantiation.

        This is the paper's production-level view of ``PA`` (its
        examples track rule names, not instantiations).  Index-backed:
        O(active rules), not O(|CS|).
        """
        return frozenset(self._by_rule)

    def for_rule(self, name: str) -> list[Instantiation]:
        """All active instantiations of the production called ``name``.

        Index-backed: O(instantiations of that rule), not O(|CS|).
        """
        return list(self._by_rule.get(name, ()))

    def mentioning(self, wme: WME | Timetag) -> list[Instantiation]:
        """All active instantiations whose match used ``wme``.

        Index-backed: O(instantiations mentioning the WME), not
        O(|CS|) — this is what keeps TREAT's ``remove(w)`` retraction
        a filter instead of a full conflict-set scan.
        """
        timetag = wme.timetag if isinstance(wme, WME) else wme
        return list(self._by_wme.get(timetag, ()))

    def is_empty(self) -> bool:
        """Empty conflict set — the termination condition of Section 2."""
        return not self._members
