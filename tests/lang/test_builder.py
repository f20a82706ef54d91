"""Tests for the fluent rule builder."""

import pytest

from repro.errors import ValidationError
from repro.lang import RuleBuilder, parse_production
from repro.lang.ast import (
    ConstantTest,
    PredicateTest,
    VariableTest,
)
from repro.lang.builder import ge, gt, le, lt, ne, var
from test_ast import evaluate


class TestLhsBuilding:
    def test_when_with_constant(self):
        p = RuleBuilder("r").when("order", status="open").remove(1).build()
        assert p.lhs[0].tests == (ConstantTest("status", "open"),)

    def test_when_with_variable(self):
        p = RuleBuilder("r").when("order", id=var("x")).remove(1).build()
        assert p.lhs[0].tests == (VariableTest("id", "x"),)

    @pytest.mark.parametrize(
        "marker,op",
        [(gt(5), ">"), (ge(5), ">="), (lt(5), "<"), (le(5), "<="), (ne(5), "<>")],
    )
    def test_when_with_predicates(self, marker, op):
        p = RuleBuilder("r").when("order", total=marker).remove(1).build()
        assert p.lhs[0].tests == (PredicateTest("total", op, 5, False),)

    def test_predicate_against_variable(self):
        p = (
            RuleBuilder("r")
            .when("limit", value=var("lim"))
            .when("order", total=gt(var("lim")))
            .remove(1)
            .build()
        )
        assert p.lhs[1].tests == (PredicateTest("total", ">", "lim", True),)

    def test_when_not_builds_negated(self):
        p = (
            RuleBuilder("r")
            .when("order", id=var("x"))
            .when_not("hold", order=var("x"))
            .remove(1)
            .build()
        )
        assert p.lhs[1].negated

    def test_tests_sorted_by_attribute(self):
        p = RuleBuilder("r").when("a", z=1, b=2).remove(1).build()
        assert [t.attribute for t in p.lhs[0].tests] == ["b", "z"]


class TestRhsBuilding:
    def test_make_with_variable(self):
        p = (
            RuleBuilder("r")
            .when("order", id=var("x"))
            .make("audit", order=var("x"))
            .build()
        )
        assert p.rhs[0].relation == "audit"

    def test_modify_and_remove(self):
        p = (
            RuleBuilder("r")
            .when("order", id=var("x"))
            .modify(1, status="done")
            .remove(1)
            .build()
        )
        assert p.rhs[0].ce_index == 1

    def test_var_arithmetic_sugar(self):
        p = (
            RuleBuilder("r")
            .when("acct", balance=var("b"))
            .modify(1, balance=var("b") + 10)
            .build()
        )
        assert evaluate(p.rhs[0].values[0][1], {"b": 5}) == 15

    def test_var_sub_and_mul(self):
        assert evaluate(var("x") - 1, {"x": 3}) == 2
        assert evaluate(var("x") * 4, {"x": 3}) == 12

    def test_bind_accepts_var_or_name(self):
        p = (
            RuleBuilder("r")
            .when("a", v=var("n"))
            .bind(var("m"), var("n") + 1)
            .bind("k", 5)
            .make("out", value=var("m"), konst=var("k"))
            .build()
        )
        assert p.name == "r"

    def test_write_and_halt(self):
        p = (
            RuleBuilder("r")
            .when("a", v=var("n"))
            .write("value is", var("n"))
            .halt()
            .build()
        )
        assert len(p.rhs) == 2

    def test_priority_passthrough(self):
        p = RuleBuilder("r", priority=9).when("a", v=1).remove(1).build()
        assert p.priority == 9

    def test_build_validates(self):
        with pytest.raises(ValidationError):
            RuleBuilder("r").when("a", v=1).make(
                "out", value=var("ghost")
            ).build()


class TestDslEquivalence:
    def test_builder_matches_parsed_dsl(self):
        built = (
            RuleBuilder("ship")
            .when("order", id=var("x"), status="open", total=gt(100))
            .when_not("hold", order=var("x"))
            .modify(1, status="shipped")
            .make("shipment", order=var("x"))
            .build()
        )
        parsed = parse_production(
            """
            (p ship
               (order ^id <x> ^status "open" ^total > 100)
               -(hold ^order <x>)
               -->
               (modify 1 ^status "shipped")
               (make shipment ^order <x>))
            """
        )
        assert built.lhs == parsed.lhs
        assert built.rhs == parsed.rhs
