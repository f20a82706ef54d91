"""Tests for the AST: condition tests, compiled expressions, actions."""

import pytest

from repro.errors import ValidationError
from repro.lang.ast import (
    BinaryExpr,
    ConditionElement,
    Constant,
    ConstantTest,
    MakeAction,
    ModifyAction,
    PredicateTest,
    VariableRef,
    VariableTest,
    as_expr,
)
from repro.lang.compile import VariableIndex, compile_beta_slots, compile_value
from repro.wm.element import WME
from test_compile import slotted_beta as join


def ce(relation, *tests, negated=False):
    return ConditionElement(relation, tuple(tests), negated)


def evaluate(expr, bindings):
    """``expr``'s compiled value (:func:`compile_value`) under
    ``bindings``, laid out one slot per name."""
    names = sorted(bindings)
    compiled = compile_value(expr, {name: i for i, name in enumerate(names)})
    return compiled(tuple(bindings[name] for name in names))


def matches(element, wme):
    """Alpha test, then the join test from no bindings."""
    return join(element, wme, {}) if element.alpha_matches(wme) else None


class TestAlphaMatching:
    def test_relation_must_match(self):
        element = ce("order")
        assert element.alpha_matches(WME.make("order"))
        assert not element.alpha_matches(WME.make("customer"))

    def test_constant_test(self):
        element = ce("order", ConstantTest("status", "open"))
        assert element.alpha_matches(WME.make("order", status="open"))
        assert not element.alpha_matches(WME.make("order", status="closed"))
        assert not element.alpha_matches(WME.make("order"))

    def test_constant_predicate(self):
        element = ce("order", PredicateTest("total", ">", 100))
        assert element.alpha_matches(WME.make("order", total=150))
        assert not element.alpha_matches(WME.make("order", total=50))
        assert not element.alpha_matches(WME.make("order", total=100))

    def test_predicate_with_incomparable_types_is_false(self):
        element = ce("order", PredicateTest("total", ">", 100))
        assert not element.alpha_matches(WME.make("order", total="high"))

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 5, True),
            ("<>", 5, False),
            ("<", 6, True),
            ("<=", 5, True),
            (">", 4, True),
            (">=", 6, False),
        ],
    )
    def test_predicate_operators(self, op, value, expected):
        element = ce("r", PredicateTest("v", op, value))
        assert element.alpha_matches(WME.make("r", v=5)) is expected

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValidationError):
            PredicateTest("v", "~=", 1)


class TestBetaMatching:
    def test_variable_binds_on_first_occurrence(self):
        element = ce("order", VariableTest("id", "x"))
        bindings = join(element, WME.make("order", id=7), {})
        assert bindings == {"x": 7}

    def test_variable_join_consistency(self):
        element = ce("line", VariableTest("order", "x"))
        wme = WME.make("line", order=7)
        assert join(element, wme, {"x": 7}) == {"x": 7}
        assert join(element, wme, {"x": 8}) is None

    def test_missing_attribute_fails(self):
        element = ce("r", VariableTest("v", "x"))
        assert join(element, WME.make("r"), {}) is None

    def test_variable_predicate(self):
        element = ce("bid", PredicateTest("amount", ">", "limit", True))
        wme = WME.make("bid", amount=120)
        assert join(element, wme, {"limit": 100}) is not None
        assert join(element, wme, {"limit": 200}) is None

    def test_variable_predicate_unbound_raises(self):
        element = ce("bid", PredicateTest("amount", ">", "limit", True))
        with pytest.raises(ValidationError):
            join(element, WME.make("bid", amount=1), {})

    def test_matches_combines_alpha_and_beta(self):
        element = ce(
            "order",
            ConstantTest("status", "open"),
            VariableTest("id", "x"),
        )
        good = WME.make("order", status="open", id=1)
        assert matches(element, good) == {"x": 1}
        assert matches(element, WME.make("order", status="closed", id=1)) is None

    def test_bindings_are_not_mutated(self):
        element = ce("r", VariableTest("v", "y"))
        binder = ce("pre", VariableTest("x", "x"))
        index = VariableIndex((binder, element))
        beta = compile_beta_slots(element, index, 1, 2)
        original = (1,)
        extended = beta(WME.make("r", v=2), original)
        # A binding extends a copy; the incoming token stays as it was.
        assert extended == (1, 2) and extended is not original
        assert join(element, WME.make("r", v=2), {"x": 1}) == {
            "x": 1, "y": 2,
        }


class TestClassification:
    def test_test_partitioning(self):
        element = ce(
            "r",
            ConstantTest("a", 1),
            VariableTest("b", "x"),
            PredicateTest("c", ">", 5),
            PredicateTest("d", "<", "x", True),
        )
        assert len(element.constant_tests()) == 1
        assert len(element.variable_tests()) == 1
        assert len(element.constant_predicates()) == 1
        assert len(element.variable_predicates()) == 1

    def test_variables_collects_all(self):
        element = ce(
            "r",
            VariableTest("b", "x"),
            PredicateTest("d", "<", "y", True),
        )
        assert element.variables() == {"x", "y"}

    def test_alpha_key_shared_across_negation(self):
        positive = ce("r", ConstantTest("a", 1))
        negative = ce("r", ConstantTest("a", 1), negated=True)
        assert positive.alpha_key() == negative.alpha_key()

    def test_alpha_key_ignores_variable_tests(self):
        with_var = ce("r", ConstantTest("a", 1), VariableTest("b", "x"))
        without = ce("r", ConstantTest("a", 1))
        assert with_var.alpha_key() == without.alpha_key()


class TestExpressions:
    def test_constant(self):
        assert evaluate(Constant(5), {}) == 5

    def test_variable_ref(self):
        assert evaluate(VariableRef("x"), {"x": 3}) == 3

    def test_unbound_variable_raises(self):
        with pytest.raises(ValidationError):
            evaluate(VariableRef("x"), {})

    @pytest.mark.parametrize(
        "op,expected",
        [("+", 7), ("-", 3), ("*", 10), ("/", 2.5), ("//", 2), ("%", 1)],
    )
    def test_arithmetic(self, op, expected):
        expr = BinaryExpr(op, Constant(5), Constant(2))
        assert evaluate(expr, {}) == expected

    def test_division_by_zero_raises_validation_error(self):
        with pytest.raises(ValidationError):
            evaluate(BinaryExpr("/", Constant(1), Constant(0)), {})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError):
            BinaryExpr("**", Constant(1), Constant(2))

    def test_nested_expression_variables(self):
        expr = BinaryExpr(
            "+", VariableRef("a"), BinaryExpr("*", VariableRef("b"), Constant(2))
        )
        assert expr.variables() == {"a", "b"}
        assert evaluate(expr, {"a": 1, "b": 3}) == 7

    def test_as_expr_wraps_scalars(self):
        assert as_expr(5) == Constant(5)
        assert as_expr(Constant(5)) == Constant(5)


class TestActionValues:
    def test_make_action_build_sorts_values(self):
        action = MakeAction.build("r", {"z": 1, "a": 2})
        assert [name for name, _ in action.values] == ["a", "z"]

    def test_action_variables(self):
        action = MakeAction.build("r", {"v": VariableRef("x")})
        assert action.variables() == {"x"}

    def test_modify_action_variables(self):
        action = ModifyAction.build(
            1, {"v": BinaryExpr("+", VariableRef("x"), Constant(1))}
        )
        assert action.variables() == {"x"}
