"""Regression tests for TREAT's index-backed removal path.

``TreatMatcher._on_remove`` used to scan the entire conflict set per
removed WME (``instantiation.mentions(wme)`` over all members).  It now
reads TREAT's own WME→instantiations index (``TreatMatcher.
mentioning``), which the shared conflict set no longer keeps.  These
tests pin the fix: retractions are *identical* to the naive oracle, the
removal path performs *no full-set scan* and *no per-member mentions()
probing* (asserted via counting shims), and the index equals its
definition after every working-memory operation.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match.conflict_set import ConflictSet
from repro.match.instantiation import Instantiation
from repro.match.naive import NaiveMatcher
from repro.match.rete.network import ReteMatcher
from repro.match.treat import TreatMatcher
from repro.wm import WorkingMemory


def _join_program():
    # Joins only (no negation), so TREAT's remove path is pure
    # conflict-set retention — the path the index serves.
    return [
        RuleBuilder("pair")
        .when("a", k=var("x"))
        .when("b", k=var("x"))
        .remove(1)
        .build(),
        RuleBuilder("any-a")
        .when("a", v=var("v"))
        .remove(1)
        .build(),
    ]


class CountingConflictSet(ConflictSet):
    """Shim that counts full-membership enumerations."""

    def __init__(self) -> None:
        super().__init__()
        self.full_scans = 0

    def __iter__(self):
        self.full_scans += 1
        return super().__iter__()

    def members(self):
        self.full_scans += 1
        return super().members()


def _populate(memory: WorkingMemory, n: int = 12) -> None:
    for k in range(n):
        memory.make("a", k=k, v=k * 2)
        memory.make("b", k=k)


def test_removal_does_not_scan_conflict_set(monkeypatch):
    memory = WorkingMemory()
    matcher = TreatMatcher(memory)
    counting = CountingConflictSet()
    matcher.conflict_set = counting
    matcher.add_productions(_join_program())
    matcher.attach()
    _populate(memory)
    assert len(counting) > 0

    mention_calls = {"n": 0}
    real_mentions = Instantiation.mentions

    def counted_mentions(self, wme):
        mention_calls["n"] += 1
        return real_mentions(self, wme)

    monkeypatch.setattr(Instantiation, "mentions", counted_mentions)
    counting.full_scans = 0

    for wme in list(memory.elements("a"))[:4]:
        memory.remove(wme)

    assert counting.full_scans == 0, (
        "TREAT removal enumerated the whole conflict set"
    )
    assert mention_calls["n"] == 0, (
        "TREAT removal probed mentions() per member instead of using "
        "the index"
    )


def test_retractions_identical_to_naive_oracle():
    treat_memory, naive_memory = WorkingMemory(), WorkingMemory()
    treat = TreatMatcher(treat_memory)
    naive = NaiveMatcher(naive_memory)
    for matcher, memory in ((treat, treat_memory), (naive, naive_memory)):
        matcher.add_productions(_join_program())
        matcher.attach()
        _populate(memory)

    def signatures(matcher):
        return {
            (i.production.name, tuple(w.identity() for w in i.wmes))
            for i in matcher.conflict_set
        }

    assert signatures(treat) == signatures(naive)
    # Interleave removals of joined and lone elements; the conflict
    # sets must track each other exactly, step by step.
    for index in (0, 3, 1):
        for memory in (treat_memory, naive_memory):
            live = sorted(memory.elements("a"), key=lambda w: w.timetag)
            memory.remove(live[index % len(live)])
            live_b = sorted(memory.elements("b"), key=lambda w: w.timetag)
            memory.remove(live_b[index % len(live_b)])
        assert signatures(treat) == signatures(naive)


def _index_program():
    # Joins, negation (both TREAT retraction paths) and a self-join
    # that can match one element at two positions.
    return _join_program() + [
        RuleBuilder("lonely-a")
        .when("a", k=var("x"))
        .when_not("b", k=var("x"))
        .remove(1)
        .build(),
        RuleBuilder("twin-a")
        .when("a", k=var("x"))
        .when("a", k=var("x"))
        .remove(1)
        .build(),
    ]


_index_operation = st.one_of(
    st.tuples(
        st.just("make"), st.sampled_from(["a", "b"]), st.integers(0, 2)
    ),
    st.tuples(st.just("modify"), st.integers(0, 20), st.integers(0, 2)),
    st.tuples(st.just("remove"), st.integers(0, 20)),
)


def _defined_index(matcher: TreatMatcher) -> dict:
    """The index by definition: members grouped by matched timetag,
    in membership order."""
    index: dict = {}
    for instantiation in matcher.conflict_set.ordered():
        for wme in instantiation.wmes:
            bucket = index.setdefault(wme.timetag, [])
            if instantiation not in bucket:
                bucket.append(instantiation)
    return index


@given(operations=st.lists(_index_operation, max_size=25))
@settings(max_examples=150, deadline=None)
def test_wme_index_tracks_its_definition(operations):
    memory = WorkingMemory()
    matcher = TreatMatcher(memory)
    matcher.add_productions(_index_program())
    matcher.attach()

    def check() -> None:
        index = {
            timetag: list(bucket)
            for timetag, bucket in matcher._by_wme.items()
        }
        assert index == _defined_index(matcher)
        assert all(index.values()), "an empty bucket was kept"
        if not len(memory):
            assert not index

    for operation in operations:
        live = sorted(memory, key=lambda w: w.timetag)
        if operation[0] == "make":
            memory.make(operation[1], k=operation[2])
        elif live and operation[0] == "modify":
            memory.modify(
                live[operation[1] % len(live)], {"k": operation[2]}
            )
        elif live:
            memory.remove(live[operation[1] % len(live)])
        check()
    for wme in list(memory):
        memory.remove(wme)
        check()
    assert not matcher._by_wme


def _pairs(matcher: TreatMatcher) -> set:
    return {
        (relation, attribute)
        for relation, posted in matcher._postings.items()
        for attribute in posted
    }


def _defined_postings(matcher: TreatMatcher, memory) -> dict:
    """TREAT's postings by definition: for each probed ``(relation,
    attribute)`` pair, value -> the live elements holding it."""
    postings: dict = {}
    for relation, attribute in _pairs(matcher):
        values = postings.setdefault(relation, {}).setdefault(attribute, {})
        for wme in memory.elements(relation):
            if attribute in wme:
                values.setdefault(wme[attribute], {})[wme.timetag] = wme
    return postings


@given(operations=st.lists(_index_operation, max_size=25))
@settings(max_examples=150, deadline=None)
def test_postings_track_their_definition(operations):
    """TREAT's own postings replace working memory's value index: they
    equal their definition after every make / modify / remove, keep no
    emptied bucket (a counter attribute must not grow one per value it
    ever held), and hold nothing once memory is empty."""
    memory = WorkingMemory()
    matcher = TreatMatcher(memory)
    rules = _index_program() + [
        RuleBuilder("two").when("b", k=2).remove(1).build()
    ]
    # ``any-a`` probes nothing; the others arrive halfway, attached,
    # and their pairs' postings are built from the live memory.
    matcher.add_productions(r for r in rules if r.name == "any-a")
    matcher.attach()
    assert _pairs(matcher) == set()

    def check() -> None:
        assert matcher._postings == _defined_postings(matcher, memory)
        for by_attribute in matcher._postings.values():
            for values in by_attribute.values():
                assert all(values.values()), "an empty bucket was kept"
                if not len(memory):
                    assert not values

    for step, operation in enumerate(operations):
        if step == len(operations) // 2:
            matcher.add_productions(r for r in rules if r.name != "any-a")
            assert _pairs(matcher) == {("a", "k"), ("b", "k")}
            check()
        live = sorted(memory, key=lambda w: w.timetag)
        if operation[0] == "make":
            memory.make(operation[1], k=operation[2])
        elif live and operation[0] == "modify":
            memory.modify(
                live[operation[1] % len(live)], {"k": operation[2]}
            )
        elif live:
            memory.remove(live[operation[1] % len(live)])
        check()
    for wme in list(memory):
        memory.remove(wme)
        check()
    for name in list(matcher.productions):
        matcher.remove_production(name)
    assert matcher._postings == {}


def test_rete_conflict_set_keeps_no_wme_index_or_delta_log():
    """The WME index is TREAT's and the delta log a partitioned
    shard's: a Rete run's adds and removes pay for neither."""
    matcher = ReteMatcher(WorkingMemory())
    conflict_set = matcher.conflict_set
    assert type(conflict_set) is ConflictSet
    for name in ("mentioning", "take_delta", "peek_delta"):
        assert not hasattr(conflict_set, name), name
