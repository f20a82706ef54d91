"""Tests for the selections that replaced the attribute index.

Working memory keeps no value postings: ``WorkingMemory.select`` is a
scan-and-filter of one relation in timetag order (the naive oracle's
candidate source), and TREAT keeps postings of its own on the
``(relation, attribute)`` pairs its rules probe
(``TreatMatcher.select``).  The class keeps the name of the index it
replaced; each test asks both selections the old index's question.
"""

import pytest

from repro.lang import RuleBuilder
from repro.match.treat import TreatMatcher
from repro.wm import WMDelta, WorkingMemory
from repro.wm.element import WME

#: The attributes the probe rule's constant tests make TREAT post.
_POSTED = ("a", "b", "c", "id", "region", "status")


@pytest.fixture
def stores():
    """``(memory, treat)``: an empty memory and an attached TREAT
    matcher posting every attribute these tests select on."""
    memory = WorkingMemory()
    treat = TreatMatcher(memory)
    treat.add_production(
        RuleBuilder("probe")
        .when("order", **{name: "?" for name in _POSTED})
        .remove(1)
        .build()
    )
    treat.attach()
    return memory, treat


def _both(stores, relation, equalities=()):
    """The two selections' answers, checked equal, as timetags."""
    memory, treat = stores
    scanned = memory.select(relation, equalities)
    posted = treat.select(relation, equalities)
    assert scanned == posted
    return [w.timetag for w in scanned]


def _postings(treat, attribute):
    """TREAT's ``order`` postings for ``attribute`` as value ->
    timetags."""
    return {
        value: sorted(bucket)
        for value, bucket in treat._postings["order"][attribute].items()
    }


class TestAttributeIndex:
    def test_relation_postings(self, stores):
        memory, _ = stores
        a, b = memory.make("order", id=1), memory.make("order", id=2)
        assert _both(stores, "order") == [a.timetag, b.timetag]
        assert memory.elements("order") == [a, b]
        assert _both(stores, "ghost") == []

    def test_equal_postings(self, stores):
        memory, treat = stores
        a = memory.make("order", status="open")
        b = memory.make("order", status="closed")
        assert _both(stores, "order", [("status", "open")]) == [a.timetag]
        assert _postings(treat, "status") == {
            "open": [a.timetag], "closed": [b.timetag]
        }

    def test_lookup_intersects(self, stores):
        memory, _ = stores
        memory.make("order", status="open", region="eu")
        b = memory.make("order", status="open", region="us")
        got = _both(stores, "order", [("status", "open"), ("region", "us")])
        assert got == [b.timetag]

    def test_lookup_equals_the_intersection_of_its_postings(self, stores):
        memory, _ = stores
        for n in range(24):
            memory.make("order", a=n % 2, b=n % 3, c=n % 4)
        memory.make("other", a=0, b=0, c=0)
        for equalities in (
            [],
            [("a", 1)],
            [("c", 3), ("a", 1)],
            [("a", 0), ("b", 2), ("c", 2)],
            [("a", 0), ("b", 7)],
            [("ghost", 0), ("a", 0)],
        ):
            expected = [
                w.timetag
                for w in sorted(memory, key=lambda w: w.timetag)
                if w.relation == "order"
                and all(w.get(k, object()) == v for k, v in equalities)
            ]
            assert _both(stores, "order", equalities) == expected

    def test_lookup_returns_a_copy(self, stores):
        memory, treat = stores
        a = memory.make("order", status="open")
        scanned = memory.select("order", [("status", "open")])
        posted = treat.select("order", [("status", "open")])
        memory.remove(a)
        assert scanned == posted == [a]

    def test_lookup_short_circuits_on_empty(self, stores):
        assert _both(stores, "order", [("a", 1), ("b", 2)]) == []

    def test_remove_clears_postings(self, stores):
        """An emptied bucket goes: a counter attribute such as
        ``^seat`` must not leave one behind per value it ever held."""
        memory, treat = stores
        a = memory.make("order", status="open")
        for n in range(5):
            a = memory.modify(a, {"status": n})
        memory.remove(a)
        assert _both(stores, "order") == []
        assert _both(stores, "order", [("status", "open")]) == []
        assert all(not _postings(treat, name) for name in _POSTED)

    def test_remove_absent_is_noop(self, stores):
        memory, treat = stores
        kept = memory.make("order", id=2)
        treat.feed(WMDelta("remove", WME.make("order", id=1)))
        assert _postings(treat, "id") == {2: [kept.timetag]}

    def test_cardinality(self, stores):
        memory, _ = stores
        memory.make("order", id=1)
        memory.make("order", id=2)
        assert memory.count("order") == 2
        assert memory.count("ghost") == 0

    def test_none_values_are_indexed(self, stores):
        memory, treat = stores
        w = memory.make("order", status=None)
        assert _both(stores, "order", [("status", None)]) == [w.timetag]
        assert _postings(treat, "status") == {None: [w.timetag]}
