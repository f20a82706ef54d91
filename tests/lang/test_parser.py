"""Tests for the rule-DSL parser."""

import pytest

from repro.errors import ParseError
from repro.lang import parse_production, parse_program
from repro.lang.ast import (
    BinaryExpr,
    BindAction,
    ConstantTest,
    HaltAction,
    MakeAction,
    ModifyAction,
    PredicateTest,
    RemoveAction,
    VariableTest,
    WriteAction,
)

SHIP = """
(p ship-order
   (order ^id <x> ^status "open" ^total > 100)
   -(hold ^order <x>)
   -->
   (modify 1 ^status "shipped")
   (make shipment ^order <x>))
"""


class TestProductionStructure:
    def test_name_and_shape(self):
        p = parse_production(SHIP)
        assert p.name == "ship-order"
        assert len(p.lhs) == 2
        assert len(p.rhs) == 2

    def test_negation_flag(self):
        p = parse_production(SHIP)
        assert not p.lhs[0].negated
        assert p.lhs[1].negated

    def test_priority(self):
        p = parse_production("(p x 7 (a ^v 1) --> (remove 1))")
        assert p.priority == 7

    def test_default_priority_zero(self):
        p = parse_production("(p x (a ^v 1) --> (remove 1))")
        assert p.priority == 0


class TestConditionTests:
    def test_constant_test(self):
        p = parse_production('(p x (a ^k "v") --> (remove 1))')
        assert p.lhs[0].tests == (ConstantTest("k", "v"),)

    def test_bare_symbol_constant(self):
        p = parse_production("(p x (a ^k open) --> (remove 1))")
        assert p.lhs[0].tests == (ConstantTest("k", "open"),)

    def test_keyword_literals(self):
        p = parse_production(
            "(p x (a ^t true ^f false ^n nil) --> (remove 1))"
        )
        values = {t.attribute: t.value for t in p.lhs[0].tests}
        assert values == {"t": True, "f": False, "n": None}

    def test_variable_test(self):
        p = parse_production("(p x (a ^k <v>) --> (remove 1))")
        assert p.lhs[0].tests == (VariableTest("k", "v"),)

    def test_explicit_equality_to_variable(self):
        p = parse_production("(p x (a ^k = <v>) --> (remove 1))")
        assert p.lhs[0].tests == (VariableTest("k", "v"),)

    def test_predicate_against_literal(self):
        p = parse_production("(p x (a ^k > 5) --> (remove 1))")
        assert p.lhs[0].tests == (PredicateTest("k", ">", 5, False),)

    def test_predicate_against_variable(self):
        p = parse_production(
            "(p x (a ^k <v>) (b ^j < <v>) --> (remove 1))"
        )
        assert p.lhs[1].tests == (PredicateTest("j", "<", "v", True),)

    def test_equality_operator_to_literal_is_constant(self):
        p = parse_production("(p x (a ^k = 5) --> (remove 1))")
        assert p.lhs[0].tests == (ConstantTest("k", 5),)

    def test_negative_number_in_test(self):
        p = parse_production("(p x (a ^k -3) --> (remove 1))")
        assert p.lhs[0].tests == (ConstantTest("k", -3),)


class TestActions:
    def test_make(self):
        p = parse_production(SHIP)
        make = p.rhs[1]
        assert isinstance(make, MakeAction)
        assert make.relation == "shipment"

    def test_modify(self):
        p = parse_production(SHIP)
        modify = p.rhs[0]
        assert isinstance(modify, ModifyAction)
        assert modify.ce_index == 1

    def test_remove(self):
        p = parse_production("(p x (a ^v 1) --> (remove 1))")
        assert p.rhs == (RemoveAction(1),)

    def test_bind_and_write_and_halt(self):
        p = parse_production(
            """
            (p x (a ^v <n>)
               -->
               (bind <m> (<n> * 2))
               (write <m> "done")
               (halt))
            """
        )
        assert isinstance(p.rhs[0], BindAction)
        assert isinstance(p.rhs[0].expr, BinaryExpr)
        assert isinstance(p.rhs[1], WriteAction)
        assert isinstance(p.rhs[2], HaltAction)

    def test_nested_arithmetic(self):
        p = parse_production(
            "(p x (a ^v <n>) --> (bind <m> ((<n> + 1) * 2)) (remove 1))"
        )
        expr = p.rhs[0].expr
        assert isinstance(expr, BinaryExpr)
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryExpr)

    def test_unknown_action_rejected(self):
        with pytest.raises(ParseError):
            parse_production("(p x (a ^v 1) --> (explode 1))")


class TestErrors:
    def test_missing_arrow(self):
        # Without the arrow, "(remove 1)" reads as a condition element
        # and its bare number fails the CE grammar.
        with pytest.raises(ParseError):
            parse_production("(p x (a ^v 1) (remove 1))")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_production("(p x (a ^v 1) --> (remove 1)) junk")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_production("(p x\n(a ^v @) --> (remove 1))")
        assert err.value.line == 2

    def test_fractional_priority_names_its_token(self):
        with pytest.raises(ParseError) as err:
            parse_production("(p r\n  2.5 (a ^v 1) --> (remove 1))")
        assert "'2.5'" in str(err.value)
        assert (err.value.line, err.value.column) == (2, 3)

    @pytest.mark.parametrize("action", ["(remove 1.5)", "(modify 1.5)"])
    def test_fractional_designator_names_its_token(self, action):
        with pytest.raises(ParseError, match="designator.*'1.5'"):
            parse_production(f"(p r (a ^v 1) --> {action})")

    def test_arithmetic_operator_in_test_rejected(self):
        with pytest.raises(ParseError):
            parse_production("(p x (a ^v + 1) --> (remove 1))")

    def test_predicate_in_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_production(
                "(p x (a ^v <n>) --> (bind <m> (<n> > 2)) (remove 1))"
            )


class TestProgram:
    def test_multiple_productions(self):
        program = parse_program(
            "(p a (x ^v 1) --> (remove 1))\n(p b (y ^v 2) --> (remove 1))"
        )
        assert [p.name for p in program] == ["a", "b"]

    def test_empty_program(self):
        assert parse_program("  ; just a comment\n") == []

    def test_duplicate_names_rejected(self):
        with pytest.raises(Exception):
            parse_program(
                "(p a (x ^v 1) --> (remove 1))(p a (y ^v 2) --> (remove 1))"
            )

    def test_roundtrip_through_str(self):
        p = parse_production(SHIP)
        # The printed form must parse back to an equivalent production.
        q = parse_production(str(p))
        assert q.name == p.name
        assert q.lhs == p.lhs
        assert q.rhs == p.rhs
