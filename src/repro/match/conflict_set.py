"""The conflict set (the paper's *set of active productions*, ``PA``).

Matchers deposit instantiation adds/removes here: "the commit of P_i
adds (subtracts) the set A_i^a (A_i^d) to (from) the conflict set PA"
(Section 3.3).  Most of that churn never fires — a modify retracts and
re-derives every instantiation joined to the element — so an add or a
remove keeps only what the engines and the matchers read:

* the membership, in membership order;
* the eligible view (members not yet fired), kept in step so that
  :meth:`ConflictSet.eligible` never scans the membership;
* the refraction marks;
* rule name → instantiations, backing :meth:`for_rule` and
  :meth:`rule_names` (the naive, ``cond`` and TREAT matchers'
  per-rule recomputation and ``remove_production``).

Two structures live with their only readers instead: TREAT keeps its
own WME timetag → instantiations index
(:class:`~repro.match.treat.TreatMatcher`), and the delta log
(``take_delta``, the paper's ``A^a`` / ``A^d`` since the last call) is
kept only by a partitioned shard's conflict set
(:class:`~repro.match.partitioned.ShardConflictSet`), which the shard
merge reads.

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
:meth:`forget_fired` — the parallel engine's rollback of a firing that
did not commit — never implicitly by :meth:`remove` or :meth:`clear`.
"""

from __future__ import annotations

from typing import Iterator

from repro.match.instantiation import Instantiation


class ConflictSet:
    """A mutable set of instantiations with refraction marks."""

    def __init__(self) -> None:
        self._members: dict[Instantiation, None] = {}
        self._fired: set[Instantiation] = set()
        # Members that have not fired, in membership order (dict-as-
        # ordered-set), kept in step by add/remove/mark_fired so that
        # eligible() never scans the membership.
        self._eligible: dict[Instantiation, None] = {}
        # Rule name -> its members (insertion-ordered via dict-as-set
        # so the derived views are deterministic).
        self._by_rule: dict[str, dict[Instantiation, None]] = {}

    # -- mutation (called by matchers) ---------------------------------------------

    def add(self, instantiation: Instantiation) -> bool:
        """Insert; returns False when already present."""
        if instantiation in self._members:
            return False
        self._members[instantiation] = None
        if instantiation not in self._fired:
            self._eligible[instantiation] = None
        name = instantiation.production.name
        bucket = self._by_rule.get(name)
        if bucket is None:
            self._by_rule[name] = {instantiation: None}
        else:
            bucket[instantiation] = None
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
        name = instantiation.production.name
        bucket = self._by_rule[name]
        del bucket[instantiation]
        if not bucket:
            del self._by_rule[name]
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
        """Drop the fired mark, restoring eligibility.

        The parallel engine calls this when it rolls back a firing
        that did not commit.  O(|CS|) when ``instantiation`` is a
        member: the eligible view is rebuilt rather than appended to,
        so the member regains its membership-order position, not the
        end of the line.
        """
        self._fired.discard(instantiation)
        if instantiation in self._members:
            fired = self._fired
            self._eligible = {
                m: None for m in self._members if m not in fired
            }

    def eligible(self) -> list[Instantiation]:
        """Members that have not fired — the candidates for *select*,
        in membership order."""
        return list(self._eligible)

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

    def is_empty(self) -> bool:
        """Empty conflict set — the termination condition of Section 2."""
        return not self._members
