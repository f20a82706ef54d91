"""Tests for working-memory elements (WMEs)."""

import pytest

from repro.wm.element import WME, data_object_key, next_timetag


class TestConstruction:
    def test_make_assigns_fresh_timetag(self):
        a = WME.make("item", value=1)
        b = WME.make("item", value=1)
        assert a.timetag != b.timetag
        assert b.timetag > a.timetag

    def test_make_merges_mapping_and_kwargs(self):
        w = WME.make("order", {"id": 1}, status="open")
        assert w["id"] == 1
        assert w["status"] == "open"

    def test_kwargs_override_mapping(self):
        w = WME.make("order", {"status": "old"}, status="new")
        assert w["status"] == "new"

    def test_explicit_timetag_is_respected(self):
        w = WME.make("item", {"a": 1}, timetag=42)
        assert w.timetag == 42

    def test_items_stored_sorted(self):
        w = WME.make("r", z=1, a=2, m=3)
        assert [name for name, _ in w.items] == ["a", "m", "z"]

    def test_timetags_monotonic(self):
        first = next_timetag()
        second = next_timetag()
        assert second == first + 1


class TestAccess:
    def test_getitem_and_get(self):
        w = WME.make("r", a=1)
        assert w["a"] == 1
        assert w.get("a") == 1
        assert w.get("missing") is None
        assert w.get("missing", 7) == 7

    def test_getitem_missing_raises_keyerror(self):
        w = WME.make("r", a=1)
        with pytest.raises(KeyError):
            w["nope"]

    def test_contains(self):
        w = WME.make("r", a=1)
        assert "a" in w
        assert "b" not in w

    def test_attributes_iterates_names(self):
        w = WME.make("r", b=1, a=2)
        assert list(w.attributes()) == ["a", "b"]

    def test_as_dict_returns_fresh_copy(self):
        w = WME.make("r", a=1)
        d = w.as_dict()
        d["a"] = 99
        assert w["a"] == 1


class TestDerivation:
    def test_replaced_changes_values_and_timetag(self):
        old = WME.make("order", status="open", id=1)
        new = old.replaced({"status": "shipped"})
        assert new["status"] == "shipped"
        assert new["id"] == 1
        assert new.timetag > old.timetag

    def test_same_value_ignores_timetags(self):
        a = WME.make("r", x=1)
        b = WME.make("r", x=1)
        assert a.same_value(b)
        assert a.timetag != b.timetag

    def test_same_value_false_on_different_relation(self):
        assert not WME.make("r", x=1).same_value(WME.make("s", x=1))

    def test_identity_excludes_timetag(self):
        a = WME.make("r", x=1)
        b = WME.make("r", x=1)
        assert a.identity() == b.identity()

    def test_equal_wmes_differ_when_timetags_differ(self):
        a = WME.make("r", x=1)
        b = WME.make("r", x=1)
        assert a != b  # record equality includes timetag

    def test_str_shows_relation_and_values(self):
        text = str(WME.make("order", id=1))
        assert "order" in text
        assert "^id" in text


class TestDataObjectKey:
    def test_uses_key_attribute_when_present(self):
        w = WME.make("order", key=7, other="x")
        assert data_object_key(w) == ("order", 7)

    def test_uses_id_attribute_when_no_key(self):
        w = WME.make("order", id=3, other="x")
        assert data_object_key(w) == ("order", 3)

    def test_key_preferred_over_id(self):
        w = WME.make("order", key=1, id=2)
        assert data_object_key(w) == ("order", 1)

    def test_falls_back_to_full_identity(self):
        w = WME.make("order", status="open")
        relation, rest = data_object_key(w)
        assert relation == "order"
        assert rest == w.items

    def test_two_versions_of_same_tuple_share_key(self):
        old = WME.make("order", id=5, status="open")
        new = old.replaced({"status": "shipped"})
        assert data_object_key(old) == data_object_key(new)

    def test_key_is_cached_on_the_element_and_never_pickled(self):
        import pickle

        w = WME.make("order", id=5, status="open")
        twin = WME("order", w.items, w.timetag)
        assert data_object_key(w) is data_object_key(w)
        # Derived state: no part of equality, hashing or the pickle.
        assert w == twin and hash(w) == hash(twin)
        data = pickle.dumps(w)
        assert b"_data_object_key" not in data
        assert data_object_key(pickle.loads(data)) == ("order", 5)


class TestMapping:
    def test_every_construction_path_builds_the_same_mapping(self):
        """``make``, ``replaced``, the direct constructor and a pickle
        round trip each build the attribute dict once, at
        construction; equality and hashing still read the fields
        only."""
        import pickle

        made = WME.make("order", {"id": 1, "status": "open"}, timetag=7)
        replaced = WME.make("order", {"id": 1, "status": "new"}).replaced(
            {"status": "open"}
        )
        direct = WME("order", made.items, 7)
        unpickled = pickle.loads(pickle.dumps(made))
        for wme in (made, replaced, direct, unpickled):
            assert wme.mapping() == {"id": 1, "status": "open"}
            assert wme["status"] == "open" and wme.get("id") == 1
            assert "id" in wme and "qty" not in wme
        assert made == direct == unpickled
        assert hash(made) == hash(direct) == hash(unpickled)
        assert replaced != made and replaced.same_value(made)
