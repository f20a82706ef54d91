"""Tests for production validation and access templates."""

import pytest

from repro.errors import ValidationError
from repro.lang import RuleBuilder, parse_production
from repro.lang.builder import var
from repro.lang.production import check_unique_names, productions_by_name


def rule(text):
    return parse_production(text)


class TestValidation:
    def test_empty_lhs_rejected(self):
        with pytest.raises(ValidationError):
            rule("(p x --> (halt))")

    def test_all_negated_lhs_rejected(self):
        with pytest.raises(ValidationError):
            rule("(p x -(a ^v 1) --> (halt))")

    def test_designator_out_of_range(self):
        with pytest.raises(ValidationError):
            rule("(p x (a ^v 1) --> (remove 2))")

    def test_designator_zero_rejected(self):
        with pytest.raises(ValidationError):
            rule("(p x (a ^v 1) --> (remove 0))")

    def test_designator_on_negated_element_rejected(self):
        with pytest.raises(ValidationError):
            rule("(p x (a ^v 1) -(b ^w 2) --> (modify 2 ^w 3))")

    def test_unbound_rhs_variable_rejected(self):
        with pytest.raises(ValidationError):
            rule("(p x (a ^v 1) --> (make b ^w <ghost>))")

    def test_variable_bound_by_negated_element_not_usable(self):
        # Negated elements match absence; they bind nothing.
        with pytest.raises(ValidationError):
            rule("(p x (a ^v 1) -(b ^w <y>) --> (make c ^z <y>))")

    def test_bind_makes_variable_available_later(self):
        p = rule(
            "(p x (a ^v <n>) --> (bind <m> (<n> + 1)) (make b ^w <m>))"
        )
        assert p.name == "x"

    def test_bind_order_matters(self):
        with pytest.raises(ValidationError):
            rule(
                "(p x (a ^v <n>) --> (make b ^w <m>) (bind <m> 1))"
            )

    def test_valid_production_passes(self):
        p = rule("(p x (a ^v <n>) --> (modify 1 ^v (<n> + 1)))")
        assert p.positive_indices() == (0,)


class TestUnboundPredicateOperands:
    """Malformed rules fail at load, not per-WME at match time.

    The seed raised ValidationError inside the per-element join test — so
    whether a bad rule errored depended on which WMEs arrived, and
    TREAT's retraction path (which evaluates with full-instantiation
    bindings) could disagree with Rete/naive on forward references.
    """

    def test_unbound_operand_rejected_at_load(self):
        with pytest.raises(ValidationError, match="ghost"):
            rule("(p x (a ^v > <ghost>) --> (halt))")

    def test_forward_reference_rejected_at_load(self):
        # <y> is bound by the SECOND element; the first cannot see it.
        with pytest.raises(ValidationError, match="<y>"):
            rule("(p x (a ^v > <y>) (b ^w <y>) --> (halt))")

    def test_negated_element_binding_not_visible_downstream(self):
        # Negated elements bind nothing outside themselves.
        with pytest.raises(ValidationError, match="<y>"):
            rule("(p x (a ^v 1) -(b ^w <y>) (c ^z > <y>) --> (halt))")

    def test_same_element_binding_is_visible(self):
        # Variable tests evaluate before predicates within an element.
        p = rule("(p x (a ^v <n> ^w > <n>) --> (remove 1))")
        assert p.name == "x"

    def test_negated_element_may_use_own_binding(self):
        p = rule("(p x (a ^v <n>) -(b ^w <m> ^z > <m>) --> (remove 1))")
        assert p.name == "x"

    def test_earlier_positive_binding_is_visible(self):
        p = rule("(p x (a ^v <n>) (b ^w > <n>) --> (remove 1))")
        assert p.name == "x"


class TestStructureQueries:
    def test_positive_and_negative_elements(self):
        p = rule("(p x (a ^v 1) -(b ^w 2) (c ^u 3) --> (remove 1))")
        assert [e.relation for e in p.positive_elements()] == ["a", "c"]
        assert [e.relation for e in p.negative_elements()] == ["b"]
        assert p.positive_indices() == (0, 2)

    def test_lhs_variables_from_positive_only(self):
        p = rule("(p x (a ^v <n>) -(b ^w 1) --> (remove 1))")
        assert p.lhs_variables() == {"n"}

    def test_halts(self):
        assert rule("(p x (a ^v 1) --> (halt))").halts()
        assert not rule("(p x (a ^v 1) --> (remove 1))").halts()


class TestAccessTemplates:
    def test_read_relations_includes_negated(self):
        p = rule("(p x (a ^v 1) -(b ^w 2) --> (remove 1))")
        assert p.read_relations() == {"a", "b"}
        assert p.negative_read_relations() == {"b"}

    def test_write_relations_from_make(self):
        p = rule("(p x (a ^v 1) --> (make c ^u 1))")
        assert p.write_relations() == {"c"}

    def test_write_relations_from_modify_and_remove(self):
        p = rule(
            "(p x (a ^v 1) (b ^w 2) --> (modify 1 ^v 2) (remove 2))"
        )
        assert p.write_relations() == {"a", "b"}

    def test_pure_reader_has_no_writes(self):
        p = rule('(p x (a ^v 1) --> (write "seen"))')
        assert p.write_relations() == frozenset()


class TestNameRegistry:
    def _two(self):
        return [
            RuleBuilder("dup").when("a", v=1).remove(1).build(),
            RuleBuilder("dup").when("b", v=1).remove(1).build(),
        ]

    def test_check_unique_names_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            check_unique_names(self._two())

    def test_productions_by_name(self):
        p = RuleBuilder("only").when("a", v=var("x")).remove(1).build()
        assert productions_by_name([p]) == {"only": p}

    def test_productions_by_name_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            productions_by_name(self._two())

    def test_str_renders_p_form(self):
        p = rule("(p x (a ^v 1) --> (remove 1))")
        assert str(p).startswith("(p x")
