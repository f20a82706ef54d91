"""The compiled-condition layer: closures ≡ the seed's interpreted walks.

Hypothesis drives randomized condition elements against randomized WMEs
and bindings, asserting the compiled alpha closure and the slotted join
closure agree with the interpreted oracle
(``tests/match/reference_matcher.py``) on every outcome: acceptance,
the extended bindings, rejection, and the unbound-variable
``ValidationError``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import ValidationError
from repro.lang.ast import (
    ConditionElement,
    ConstantTest,
    PredicateTest,
    VariableTest,
)
from repro.lang.compile import (
    _MISSING,
    VariableIndex,
    compile_alpha,
    compile_beta_slots,
)
from repro.wm.element import WME

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "match"))
from reference_matcher import interpreted_alpha, interpreted_beta  # noqa: E402

_ATTRS = ["a", "b", "c"]
_VARS = ["x", "y"]
_OPS = ["=", "<>", "<", "<=", ">", ">="]

# Mixed-type scalars on purpose: ordering predicates across unlike
# types must be False/None in both evaluator families (TypeError path).
_scalar = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["red", "blue", ""]),
    st.booleans(),
    st.none(),
)

_test = st.one_of(
    st.builds(ConstantTest, st.sampled_from(_ATTRS), _scalar),
    st.builds(VariableTest, st.sampled_from(_ATTRS), st.sampled_from(_VARS)),
    st.builds(
        PredicateTest,
        st.sampled_from(_ATTRS),
        st.sampled_from(_OPS),
        _scalar,
        st.just(False),
    ),
    st.builds(
        PredicateTest,
        st.sampled_from(_ATTRS),
        st.sampled_from(_OPS),
        st.sampled_from(_VARS),
        st.just(True),
    ),
)

_element = st.builds(
    ConditionElement,
    st.sampled_from(["r1", "r2"]),
    st.lists(_test, max_size=5).map(tuple),
    st.booleans(),
)

_wme = st.builds(
    lambda relation, values: WME.make(relation, values),
    st.sampled_from(["r1", "r2"]),
    st.dictionaries(st.sampled_from(_ATTRS), _scalar, max_size=3),
)

_bindings = st.dictionaries(st.sampled_from(_VARS), _scalar, max_size=2)


def slotted_beta(element, wme, bindings):
    """``element``'s slotted join test, over binding dicts.

    ``bindings`` enter as the token a binder element fills ahead of
    ``element``; the result leaves as the bound ``{name: value}``
    pairs, or ``None`` on rejection.
    """
    binder = ConditionElement(
        "pre",
        tuple(VariableTest(f"v{i}", name) for i, name in enumerate(bindings)),
    )
    index = VariableIndex((binder, element))
    in_width, out_width = index.prefix_widths[1:3]
    token = tuple(bindings[name] for name in index.names[:in_width])
    result = compile_beta_slots(element, index, in_width, out_width)(
        wme, token
    )
    if result is None:
        return None
    full = result + (_MISSING,) * (index.width - len(result))
    return dict(index.bindings_items(full))


def _beta_outcome(beta, wme, bindings):
    """Normalize a beta evaluation to a comparable value."""
    try:
        return ("ok", beta(wme, dict(bindings)))
    except ValidationError as exc:
        return ("error", str(exc))


class TestCompiledVsInterpreted:
    @given(element=_element, wme=_wme)
    @settings(max_examples=300, deadline=None)
    def test_alpha_agrees(self, element, wme):
        assert compile_alpha(element)(wme) == interpreted_alpha(element)(wme)

    @given(element=_element, wme=_wme, bindings=_bindings)
    @settings(max_examples=300, deadline=None)
    def test_beta_agrees(self, element, wme, bindings):
        compiled = _beta_outcome(
            lambda w, b: slotted_beta(element, w, b), wme, bindings
        )
        interpreted = _beta_outcome(interpreted_beta(element), wme, bindings)
        assert compiled == interpreted

    @given(element=_element, wme=_wme, bindings=_bindings)
    @settings(max_examples=200, deadline=None)
    def test_matches_entry_point_agrees(self, element, wme, bindings):
        def full(alpha, beta):
            if not alpha(wme):
                return ("ok", None)
            return _beta_outcome(beta, wme, bindings)

        assert full(
            compile_alpha(element),
            lambda w, b: slotted_beta(element, w, b),
        ) == full(interpreted_alpha(element), interpreted_beta(element))

    @given(element=_element, wme=_wme, bindings=_bindings)
    @settings(max_examples=100, deadline=None)
    def test_element_methods_match_oracle(self, element, wme, bindings):
        # The element's own (compiled-delegating) alpha test, and the
        # join test compiled against a slotted layout after it, agree
        # with the interpreted oracle end to end.
        alpha = interpreted_alpha(element)
        beta = interpreted_beta(element)
        assert element.alpha_matches(wme) == alpha(wme)
        assert element.compiled().alpha(wme) == alpha(wme)
        if element.alpha_matches(wme):
            assert _beta_outcome(
                lambda w, b: slotted_beta(element, w, b), wme, bindings
            ) == _beta_outcome(beta, wme, bindings)


class TestCompiledCondition:
    def test_cached_on_element(self):
        element = ConditionElement("r", (ConstantTest("a", 1),))
        assert element.compiled() is element.compiled()

    def test_constant_equalities_and_variable_items(self):
        element = ConditionElement(
            "r",
            (
                ConstantTest("a", 1),
                VariableTest("b", "x"),
                PredicateTest("c", ">", 2),
            ),
        )
        compiled = element.compiled()
        assert compiled.constant_equalities == (("a", 1),)
        assert compiled.variable_items == (("b", "x"),)

    def test_none_valued_attribute_binds(self):
        # The _MISSING sentinel distinguishes absent attributes from
        # stored None: a None value must bind, not raise or reject.
        element = ConditionElement("r", (VariableTest("a", "x"),))
        wme = WME.make("r", a=None)
        assert slotted_beta(element, wme, {}) == {"x": None}

    def test_unbound_predicate_operand_still_raises_per_probe(self):
        # Bare elements (no Production wrapper) keep the runtime guard.
        element = ConditionElement(
            "r", (PredicateTest("a", ">", "ghost", True),)
        )
        wme = WME.make("r", a=1)
        with pytest.raises(ValidationError, match="ghost"):
            slotted_beta(element, wme, {})

    def test_operand_bound_to_none_does_not_raise(self):
        element = ConditionElement(
            "r", (PredicateTest("a", ">", "x", True),)
        )
        wme = WME.make("r", a=1)
        # Seed semantics: a variable bound to None is bound; the
        # comparison is attempted and TypeError rejects quietly.
        assert slotted_beta(element, wme, {"x": None}) is None

    def test_memoized_partitions_are_stable(self):
        element = ConditionElement(
            "r",
            (
                ConstantTest("a", 1),
                VariableTest("b", "x"),
                PredicateTest("c", ">", 0),
                PredicateTest("d", "<", "x", True),
            ),
        )
        assert element.constant_tests() is element.constant_tests()
        assert element.constant_predicates() is element.constant_predicates()
        assert element.variable_tests() is element.variable_tests()
        assert element.variable_predicates() is element.variable_predicates()
        assert element.alpha_key() is element.alpha_key()
        assert element.variables() is element.variables()

    def test_caches_do_not_leak_into_equality_or_pickle(self):
        import pickle

        left = ConditionElement("r", (ConstantTest("a", 1),))
        right = ConditionElement("r", (ConstantTest("a", 1),))
        left.compiled()  # populate caches on one side only
        left.alpha_key()
        assert left == right
        assert hash(left) == hash(right)
        clone = pickle.loads(pickle.dumps(left))
        assert clone == left

    def test_wme_mapping_cached_and_picklable(self):
        import pickle

        wme = WME.make("r", a=1, b="z")
        assert wme.mapping() is wme.mapping()
        assert wme.mapping() == {"a": 1, "b": "z"}
        clone = pickle.loads(pickle.dumps(wme))
        assert clone == wme and clone.timetag == wme.timetag


def _bytes_over_1000_probes(beta, wme, token) -> int:
    import tracemalloc

    beta(wme, token)  # warm
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(1000):
        beta(wme, token)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return after - before


class TestTestFreeBetaFastPath:
    """A test-free element hands the incoming token back unchanged —
    no per-probe copy — whatever an earlier element bound."""

    @staticmethod
    def _after_binder(element):
        binder = ConditionElement("pre", (VariableTest("b", "x"),))
        index = VariableIndex((binder, element))
        return compile_beta_slots(element, index, 1, 1)

    def test_returns_incoming_token_object(self):
        element = ConditionElement("r", (ConstantTest("a", 1),))
        beta = self._after_binder(element)
        token = (1,)
        assert beta(WME.make("r", a=1), token) is token

    def test_no_allocations_per_probe(self):
        element = ConditionElement("r", (ConstantTest("a", 1),))
        beta = self._after_binder(element)
        wme = WME.make("r", a=1)
        assert _bytes_over_1000_probes(beta, wme, (1,)) < 1024

    def test_slotted_fast_paths(self):
        # Same-width pass returns the identical tuple; widening pads
        # with _MISSING only.
        element = ConditionElement("r", (ConstantTest("a", 1),))
        index = VariableIndex((element,))
        wme = WME.make("r", a=1)
        passer = compile_beta_slots(element, index, 0, 0)
        token = ()
        assert passer(wme, token) is token
        binder = ConditionElement("r", (VariableTest("b", "x"),))
        index2 = VariableIndex((element, binder))
        padder = compile_beta_slots(element, index2, 0, 1)
        assert padder(wme, ()) == (_MISSING,)
        # A join fast path that binds nothing new returns the incoming
        # tuple object itself (no copy).
        join = compile_beta_slots(binder, index2, 1, 1)
        bound = (2,)
        wme = WME.make("r", b=2)
        assert join(wme, bound) is bound
        assert _bytes_over_1000_probes(join, wme, bound) < 1024


class TestSlottedLayout:
    def test_variable_index_first_occurrence_order(self):
        lhs = (
            ConditionElement(
                "r", (VariableTest("a", "x"), VariableTest("b", "y"))
            ),
            ConditionElement(
                "r",
                (VariableTest("a", "y"), PredicateTest("b", ">", "z", True)),
                negated=True,
            ),
            ConditionElement(
                "r", (VariableTest("c", "z"), VariableTest("a", "x"))
            ),
        )
        index = VariableIndex(lhs)
        # Negation locals (z, via the predicate operand) get slots too.
        assert index.names == ("x", "y", "z")
        assert index.prefix_widths == (0, 2, 3, 3)
        assert index.width == 3
        assert index.empty == (_MISSING,) * 3
        assert "z" in index and index.slot("z") == 2

    def test_bindings_items_skips_missing_and_sorts(self):
        element = ConditionElement(
            "r", (VariableTest("a", "y"), VariableTest("b", "x"))
        )
        index = VariableIndex((element,))
        assert index.names == ("y", "x")  # test order, not sorted
        token = (5, _MISSING)
        assert index.bindings_items(token) == (("y", 5),)
        assert index.token_from_items((("y", 5),)) == (5, _MISSING)

    def test_production_survives_pickle_without_plan_caches(self):
        import pickle

        from repro.lang import RuleBuilder
        from repro.lang.builder import var

        rule = RuleBuilder("r").when("a", k=var("x")).remove(1).build()
        assert rule.token_plan() is rule.token_plan()  # cached
        VariableIndex.for_production(rule)
        clone = pickle.loads(pickle.dumps(rule))
        assert clone == rule
        assert not hasattr(clone, "_token_plan")

    @given(element=_element, wme=_wme, bindings=_bindings)
    @settings(max_examples=300, deadline=None)
    def test_slotted_beta_agrees_with_dict_beta(
        self, element, wme, bindings
    ):
        """The slotted closure and the interpreted dict walk
        accept/reject/raise identically and produce the same bound
        pairs, for any incoming bindings (modeled as a binder element
        providing x and y, unbound slots left missing)."""
        binder = ConditionElement(
            "pre", (VariableTest("a", "x"), VariableTest("b", "y"))
        )
        index = VariableIndex((binder, element))
        in_width = index.prefix_widths[1]
        out_width = index.prefix_widths[2]
        slotted = compile_beta_slots(element, index, in_width, out_width)
        token = tuple(
            bindings.get(name, _MISSING) for name in index.names[:in_width]
        )

        def _slot_outcome():
            try:
                result = slotted(wme, token)
            except ValidationError as exc:
                return ("error", str(exc))
            if result is None:
                return ("ok", None)
            full = result + (_MISSING,) * (index.width - len(result))
            return ("ok", dict(index.bindings_items(full)))

        assert _slot_outcome() == _beta_outcome(
            interpreted_beta(element), wme, bindings
        )
