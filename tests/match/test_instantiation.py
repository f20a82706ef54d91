"""Tests for instantiations and their ordering keys."""

from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match.instantiation import Instantiation
from repro.wm.element import WME


def _rule(name="r"):
    return RuleBuilder(name).when("item", v=var("x")).remove(1).build()


def _inst(rule, *timetags, bindings=None):
    wmes = tuple(
        WME.make("item", {"v": i}, timetag=t) for i, t in enumerate(timetags)
    )
    return Instantiation.build(rule, wmes, bindings or {})


class TestIdentity:
    def test_equality_by_rule_and_timetags(self):
        rule = _rule()
        assert _inst(rule, 1, 2) == _inst(rule, 1, 2)
        assert _inst(rule, 1, 2) != _inst(rule, 1, 3)

    def test_different_rules_not_equal(self):
        assert _inst(_rule("a"), 1) != _inst(_rule("b"), 1)

    def test_hashable_for_sets(self):
        rule = _rule()
        assert len({_inst(rule, 1), _inst(rule, 1)}) == 1

    def test_bindings_roundtrip(self):
        inst = _inst(_rule(), 1, bindings={"x": 42})
        assert inst.bindings == {"x": 42}

    def test_mentions(self):
        rule = _rule()
        inst = _inst(rule, 5)
        assert inst.mentions(WME.make("item", {"v": 0}, timetag=5))
        assert not inst.mentions(WME.make("item", {"v": 0}, timetag=6))


class TestOrderingKeys:
    def test_recency_key_sorted_descending(self):
        inst = _inst(_rule(), 3, 9, 1)
        assert inst.recency_key() == (9, 3, 1)

    def test_lex_prefers_more_recent(self):
        rule = _rule()
        older = _inst(rule, 1, 2)
        newer = _inst(rule, 1, 5)
        assert newer.recency_key() > older.recency_key()

    def test_mea_key_prefers_first_element_recency(self):
        rule = _rule()
        a = _inst(rule, 10, 1)   # first element very recent
        b = _inst(rule, 2, 50)   # later elements recent, first old
        assert a.mea_key() > b.mea_key()

    def test_empty_wmes_mea_key(self):
        # -1, not 0: timetags are non-negative, so the no-WMEs sentinel
        # must sort strictly below any real first-element timetag.
        inst = Instantiation.build(_rule(), (), {})
        assert inst.mea_key() == (-1,)

    def test_empty_wmes_sorts_below_timetag_zero(self):
        # A freshly recovered store legitimately hands out timetag 0;
        # an instantiation whose goal element matched it must still
        # outrank the all-negated (no-WMEs) instantiation under MEA.
        rule = _rule()
        grounded = _inst(rule, 0)
        ungrounded = Instantiation.build(rule, (), {})
        assert grounded.mea_key() > ungrounded.mea_key()
        assert sorted(
            [grounded, ungrounded], key=Instantiation.mea_key
        ) == [ungrounded, grounded]

    def test_str_contains_rule_and_tags(self):
        text = str(_inst(_rule("my-rule"), 4))
        assert "my-rule" in text
        assert "4" in text


class TestCachedKeys:
    """The keys are computed once at construction, not per call.

    LEX/MEA strategy comparisons and conflict-set hashing call these on
    every cycle; re-sorting or rebuilding tuples per call was a
    measurable slice of the match-select hot path.
    """

    def test_keys_are_cached_objects(self):
        inst = _inst(_rule(), 3, 9, 1)
        assert inst.timetags() is inst.timetags()
        assert inst.recency_key() is inst.recency_key()
        assert inst.mea_key() is inst.mea_key()
        assert inst.lex_key() is inst.lex_key()
        assert inst.identity() is inst.identity()

    def test_hash_stable_and_consistent_with_identity(self):
        rule = _rule()
        inst = _inst(rule, 1, 2)
        assert hash(inst) == hash(inst)
        assert hash(inst) == hash(_inst(rule, 1, 2))
        assert hash(inst) == hash(inst.identity())

    def test_key_values_unchanged_by_caching(self):
        inst = _inst(_rule(), 3, 9, 1)
        assert inst.timetags() == (3, 9, 1)
        assert inst.recency_key() == (9, 3, 1)
        assert inst.mea_key() == (3, 9, 3, 1)
        assert inst.identity() == ("r", (3, 9, 1))

    def test_lex_key_is_recency_then_the_rules_static_rank(self):
        rule = _rule("ab")
        inst = _inst(rule, 3, 9, 1)
        specificity = sum(len(ce.tests) for ce in rule.lhs)
        assert rule.lex_static() == (specificity, (-ord("a"), -ord("b")))
        assert rule.lex_static() is rule.lex_static()
        # ... and ends in the LHS-order timetags, so no two distinct
        # instantiations tie.
        assert inst.lex_key() == ((9, 3, 1), rule.lex_static(), (3, 9, 1))
        assert inst.lex_key()[1] is rule.lex_static()
        assert inst.lex_key()[2] is inst.timetags()

    def test_merge_key_is_most_recent_first_then_rule_name(self):
        inst = _inst(_rule("ab"), 3, 9, 1)
        assert inst.merge_key() == ((-9, -3, -1), "ab")

    def test_hot_path_is_allocation_free(self):
        # The cached accessors must not build fresh objects per call:
        # repeated calls return the very same tuples and never trip a
        # sort.  tracemalloc pins the no-allocation claim.
        import tracemalloc

        inst = _inst(_rule(), 5, 2, 8)
        inst.recency_key(), inst.mea_key(), inst.identity()  # warm
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            inst.recency_key()
            inst.mea_key()
            inst.identity()
            inst.timetags()
            hash(inst)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before < 1024

    def test_bindings_dict_is_cached(self):
        # TREAT's retraction re-match reads .bindings once per
        # surviving instantiation per delta; rebuilding the dict each
        # access made retraction allocation-bound.
        import tracemalloc

        inst = _inst(_rule(), 7, bindings={"x": 1, "y": 2})
        assert inst.bindings is inst.bindings
        first = inst.bindings  # warm the cache
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            inst.bindings
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before < 1024
        assert first == {"x": 1, "y": 2}

    def test_lazy_bindings_items_from_slots(self):
        # The slotted path materializes the sorted pairs on demand and
        # they match what the dict path would have produced.
        from repro.lang.compile import VariableIndex

        rule = _rule()
        index = VariableIndex(rule.lhs)
        wme = WME.make("item", {"v": 42}, timetag=3)
        inst = Instantiation.from_slots(rule, (wme,), (42,), index)
        assert inst.bindings_items == (("x", 42),)
        assert inst.bindings == {"x": 42}
        # Round-trip: the slot token is handed back without rebuilding.
        assert inst.slot_token(index) == (42,)
