"""The conflict set (the paper's *set of active productions*, ``PA``).

Matchers deposit instantiation adds/removes here: "the commit of P_i
adds (subtracts) the set A_i^a (A_i^d) to (from) the conflict set PA"
(Section 3.3).  Most of that churn never fires — a modify retracts and
re-derives every instantiation joined to the element — so an add or a
remove keeps only what the engines and the matchers read:

* the membership, in membership order;
* the eligible members (not yet fired), grouped by the installed
  strategy's head (:meth:`ConflictSet.rank_by`), so that the ranking
  finds its lead group by one ``max``, sorts the other heads only
  once it gets past that group, and never scans the membership;
* the *pending seeds* a Rete tail files, under a ``lazy`` head, by
  the head of the matches they stand for (:mod:`repro.match.rete.
  tail`).  :meth:`Eligible.ranked` is the one ranking of the set: a
  select is its first item, ``order(·, k)`` its first ``k`` and a
  wave pulls it a candidate at a time, and a seed builds a match only
  when the ranking yields it; :meth:`settle` drains it, building all;
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
re-derived with the *same* timetags (matcher churn, negation flicker,
transactional rollback) does not regain eligibility and cannot fire
twice.  Genuine re-derivations are unaffected, because working-memory
``modify``/``make`` assign fresh timetags, producing a *distinct*
instantiation that has never fired.  A mark goes by :meth:`expire` once
a unit that removed one of its positive elements has *committed* (only
a rollback re-adds an element, and before), or by :meth:`forget_fired`,
never by :meth:`remove` or :meth:`clear`: marks follow working memory.
Re-adding an element whose removal committed is outside this contract.

Membership is the built members plus the pending seeds.  ``len()`` and
``bool()`` of the set and of the eligible view count a seed as one,
whatever it holds (maybe nothing): they never enumerate.  ``in``,
``members()``, ``for_rule()`` and iterating the set read the built
members; iterating the view builds the rest first
(:meth:`~ConflictSet.settle`).
"""

from __future__ import annotations

from heapq import merge
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.match.instantiation import Instantiation

#: A strategy's ``head``: a coarse rank, larger preferred, never None.
Head = Callable[[Instantiation], object]

_ABSENT = object()


class Eligible:
    """A conflict set's eligible members, read in place (not a copy)."""

    __slots__ = ("_cs",)

    def __init__(self, cs: "ConflictSet") -> None:
        self._cs = cs

    def __len__(self) -> int:
        return len(self._cs._members) - self._cs._spent + self._cs._waiting

    def __iter__(self) -> Iterator[Instantiation]:
        self._cs.settle()
        return chain.from_iterable(self._cs._buckets.values())

    def ranked(
        self, head, key, descending: bool, spent=None
    ) -> Iterator[Instantiation]:
        """Every member by ``key`` (refining ``head``; largest first
        when ``descending``), pulled one at a time: the one ranking of
        the conflict set.  Of a set ranked by ``head``, the groups by
        head: the lead by one ``max``, the rest sorted only once the
        walk gets past it; in each, the built members merged with its
        seeds' matches, each built when taken (:meth:`~repro.match.
        rete.tail._Pending.matches`).  A seed ``spent`` holds for
        yields no more; what is left unbuilt stays filed.  Of a set
        ranked by another head, every seed is built first and the
        members rank as one group."""
        cs = self._cs
        if head is not cs._head:
            yield from sorted(self, key=key, reverse=descending)
            return
        buckets, pending = cs._buckets, cs._pending
        if not (buckets or pending):
            return
        spent = spent or _unspent
        lead = max(chain(buckets, pending)) if pending else max(buckets)
        yield from self._group(lead, key, descending, spent)
        for group in sorted({*buckets, *pending}, reverse=True):
            if group < lead:
                yield from self._group(group, key, descending, spent)

    def _group(self, group, key, descending: bool, spent) -> Iterable:
        """:meth:`ranked`'s members with head ``group`` (a list when
        no seed has it: a select's common case makes no generator)."""
        cs = self._cs
        built = list(cs._buckets.get(group, ()))
        if len(built) > 1:  # a lone member ranks without a key
            built.sort(key=key, reverse=descending)
        seeds = cs._pending.get(group)
        if not seeds:
            return built
        return self._merged(built, seeds, key, descending, spent)

    def _merged(self, built, seeds, key, descending: bool, spent):
        """The sorted ``built`` merged with the walks of ``seeds``."""
        cs = self._cs
        skip = set(built)
        streams = [
            seed.matches(key, descending, skip, spent) for seed in list(seeds)
        ]
        if built:
            streams.append([(member, None, None) for member in built])
        for candidate, seed, emit in merge(
            *streams, key=lambda entry: key(entry[0]), reverse=descending
        ):
            if seed is not None:
                if spent(seed):
                    continue
                if candidate not in cs:  # else a sibling rule built it
                    seed.build(emit)
            yield candidate


def _unspent(seed) -> bool:
    return False


class ConflictSet:
    """A mutable set of instantiations with refraction marks."""

    def __init__(self) -> None:
        # Member -> its head (0 unranked; None once fired).
        self._members: dict[Instantiation, object] = {}
        self._fired: set[Instantiation] = set()
        self._marks: dict[int, set[Instantiation]] = {}  # timetag -> its marks
        self._fresh: list[Instantiation] = []  # marked since the last expiry
        self._spent = 0  # members that have fired
        # Rule name -> its members (insertion-ordered via dict-as-set
        # so the derived views are deterministic).
        self._by_rule: dict[str, dict[Instantiation, None]] = {}
        # Head -> the eligible members with it, in membership order,
        # kept in step so that eligible() never scans the membership.
        self._head: Head | None = None
        self._buckets: dict[object, dict[Instantiation, None]] = {}
        self.lazy = False  # a tail may pend its seeds
        self._pending: dict[object, dict] = {}  # head -> seeds with it
        self._waiting = 0

    def rank_by(self, head: Head | None, lazy: bool = False) -> None:
        """Group the eligible members by ``head`` (None: one group);
        ``lazy``: it reads only ``production`` and ``_newest``."""
        if head is not self._head or not lazy:
            self.settle()
        members, self._members = self._members, {}
        self._head, self._buckets, self._spent = head, {}, 0
        self.lazy = lazy and head is not None
        for instantiation in members:  # refiling, not churn: no override
            ConflictSet.add(self, instantiation)

    # -- mutation (called by matchers) ---------------------------------------------

    def add(self, instantiation: Instantiation) -> bool:
        """Insert; returns False when already present."""
        if instantiation in self._members:
            return False
        name = instantiation.production.name
        rule = self._by_rule.get(name)
        if rule is None:
            rule = self._by_rule[name] = {}
        rule[instantiation] = None
        if instantiation in self._fired:
            self._members[instantiation] = None
            self._spent += 1
            return True
        key = 0 if self._head is None else self._head(instantiation)
        self._members[instantiation] = key
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {instantiation: None}
        else:
            bucket[instantiation] = None
        return True

    def remove(self, instantiation: Instantiation) -> bool:
        """Delete; returns False when absent.

        Refraction state is *preserved* (see the module docstring): a
        subsequent re-add of the identical instantiation remains
        ineligible.
        """
        key = self._members.pop(instantiation, _ABSENT)
        if key is _ABSENT:
            return False
        name = instantiation.production.name
        rule = self._by_rule[name]
        del rule[instantiation]
        if not rule:
            del self._by_rule[name]
        if key is None:
            self._spent -= 1
            return True
        bucket = self._buckets[key]
        del bucket[instantiation]
        if not bucket:
            del self._buckets[key]
        return True

    def clear(self) -> None:
        """Remove everything (used when a matcher rebuilds from scratch).

        Fired marks survive, so a rebuild cannot resurrect eligibility.
        """
        for instantiation in list(self._members):
            self.remove(instantiation)
        self._pending.clear()
        self._waiting = 0

    # -- pending seeds (called by a Rete tail) ---------------------------------------

    def pend(self, seed) -> None:
        self._pending.setdefault(self._head(seed), {})[seed] = None
        self._waiting += 1

    def unpend(self, seed) -> None:
        head = self._head(seed)
        if self._pending.get(head, {}).pop(seed, _ABSENT) is None:
            self._waiting -= 1
            if not self._pending[head]:
                del self._pending[head]

    def settle(self) -> None:
        """Build every pending seed's matches: drain their groups of
        the ranking."""
        view = self.eligible()
        while self._pending:
            group = next(iter(self._pending))
            for _ in view._group(group, Instantiation.lex_key, True, _unspent):
                pass

    # -- refraction -------------------------------------------------------------------

    def mark_fired(self, instantiation: Instantiation) -> None:
        """Record that ``instantiation`` has fired (refraction)."""
        self._fired.add(instantiation)
        self._fresh.append(instantiation)  # indexed at the next expiry
        key = self._members.get(instantiation)
        if key is not None:
            self._members[instantiation] = None
            self._spent += 1
            bucket = self._buckets[key]
            del bucket[instantiation]
            if not bucket:
                del self._buckets[key]

    def has_fired(self, instantiation: Instantiation) -> bool:
        """True when the instantiation has ever fired.

        Persists across retraction: a fired instantiation that leaves
        and re-enters the set (same rule, same timetags) still reports
        True and stays ineligible, until :meth:`expire`.
        """
        return instantiation in self._fired

    def fired(self) -> frozenset[Instantiation]:
        """The marks held now."""
        return frozenset(self._fired)

    def expire(self, timetags: list[int]) -> None:
        """Drop the marks naming any of ``timetags``, retired by a commit."""
        gone = set(timetags)
        for instantiation in self._fresh:  # most go with their own firing
            if not gone.isdisjoint(instantiation.timetags()):
                self._fired.discard(instantiation)
            elif instantiation in self._fired:
                for tag in instantiation.timetags():
                    self._marks.setdefault(tag, set()).add(instantiation)
        self._fresh.clear()
        for tag in gone:
            for instantiation in self._marks.pop(tag, ()):
                self._unmark(instantiation)

    def _unmark(self, instantiation: Instantiation) -> None:
        self._fired.discard(instantiation)
        for tag in instantiation.timetags():
            if tag in self._marks:  # an emptied set goes with its element
                self._marks[tag].discard(instantiation)

    def forget_fired(self, instantiation: Instantiation) -> None:
        """Drop the fired mark, restoring eligibility.

        The parallel engine calls this when it rolls back a firing
        that did not commit.  O(|CS|) when ``instantiation`` is a
        member: the buckets are rebuilt rather than appended to, so
        the member regains its membership-order position, not the end
        of the line.
        """
        self._fired.discard(instantiation)
        if instantiation in self._members:
            self.rank_by(self._head, self.lazy)

    def eligible(self) -> Eligible:
        """Members that have not fired — the candidates for *select*,
        in membership order within each bucket: a live view
        (``list(...)`` keeps it)."""
        return Eligible(self)

    # -- queries --------------------------------------------------------------------------

    def __contains__(self, instantiation: object) -> bool:
        return instantiation in self._members

    def __len__(self) -> int:
        return len(self._members) + self._waiting

    def __iter__(self) -> Iterator[Instantiation]:
        return iter(self.ordered())

    def ordered(self) -> list[Instantiation]:
        """A snapshot of the membership, in membership order."""
        return list(self._members)

    def members(self) -> frozenset[Instantiation]:
        """An immutable view of the built membership."""
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
        return not self._members and not self._waiting
