"""Tests for the attribute index."""

from repro.wm.element import WME
from repro.wm.index import AttributeIndex


def _w(**kwargs):
    return WME.make("order", **kwargs)


class TestAttributeIndex:
    def test_relation_postings(self):
        index = AttributeIndex()
        a, b = _w(id=1), _w(id=2)
        index.add(a)
        index.add(b)
        assert index.relation("order") == {a.timetag, b.timetag}
        assert index.relation("ghost") == frozenset()

    def test_equal_postings(self):
        index = AttributeIndex()
        a, b = _w(status="open"), _w(status="closed")
        index.add(a)
        index.add(b)
        assert index.equal("order", "status", "open") == {a.timetag}

    def test_lookup_intersects(self):
        index = AttributeIndex()
        a = _w(status="open", region="eu")
        b = _w(status="open", region="us")
        for w in (a, b):
            index.add(w)
        got = index.lookup(
            "order", [("status", "open"), ("region", "us")]
        )
        assert got == {b.timetag}

    def test_lookup_equals_the_intersection_of_its_postings(self):
        index = AttributeIndex()
        for n in range(24):
            index.add(_w(a=n % 2, b=n % 3, c=n % 4))
        index.add(WME.make("other", a=0, b=0, c=0))
        for equalities in (
            [],
            [("a", 1)],
            [("c", 3), ("a", 1)],
            [("a", 0), ("b", 2), ("c", 2)],
            [("a", 0), ("b", 7)],
            [("ghost", 0), ("a", 0)],
        ):
            expected = index.relation("order")
            for attribute, value in equalities:
                expected &= index.equal("order", attribute, value)
            assert index.lookup("order", equalities) == expected

    def test_lookup_returns_a_copy(self):
        index = AttributeIndex()
        a = _w(status="open")
        index.add(a)
        got = index.lookup("order", [("status", "open")])
        index.remove(a)
        assert got == {a.timetag}

    def test_lookup_short_circuits_on_empty(self):
        index = AttributeIndex()
        assert index.lookup("order", [("a", 1), ("b", 2)]) == frozenset()

    def test_remove_clears_postings(self):
        index = AttributeIndex()
        a = _w(status="open")
        index.add(a)
        index.remove(a)
        assert index.relation("order") == frozenset()
        assert index.equal("order", "status", "open") == frozenset()

    def test_remove_absent_is_noop(self):
        index = AttributeIndex()
        index.remove(_w(id=1))

    def test_cardinality(self):
        index = AttributeIndex()
        index.add(_w(id=1))
        index.add(_w(id=2))
        assert index.cardinality("order") == 2
        assert index.cardinality("ghost") == 0

    def test_none_values_are_indexed(self):
        index = AttributeIndex()
        w = _w(status=None)
        index.add(w)
        assert index.equal("order", "status", None) == {w.timetag}
