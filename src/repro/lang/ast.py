"""Abstract syntax for the OPS5-style rule language.

The structures here are deliberately value-typed (frozen records,
:class:`~repro.wm.element.FrozenRecord`): productions are immutable
programs, and the matchers hash and share condition elements across
rules (the Rete network's "sharing of common subexpressions among
LHS's of different productions", Section 2).

LHS side
--------
A :class:`ConditionElement` names a relation and carries per-attribute
*tests*:

* :class:`ConstantTest` — attribute compares against a literal,
* :class:`VariableTest` — attribute binds (or must equal) a variable,
* :class:`PredicateTest` — attribute compares (``<`` ``<=`` ``>`` ``>=``
  ``<>``) against a literal or a previously bound variable.

A condition element may be *negated*: it matches when **no** WME
satisfies it, OPS5's negation-as-absence.  Negative conditions are what
motivate relation-level lock escalation in Section 4.3 (the catalog
key in ``Instantiation.lock_footprint()``).

RHS side
--------
Actions are :class:`MakeAction`, :class:`ModifyAction`,
:class:`RemoveAction` (the paper's create/modify/delete), plus
:class:`BindAction`, :class:`WriteAction` and :class:`HaltAction`.
Values on the RHS are :class:`ValueExpr` trees; the RHS is compiled,
like the LHS, into closures over the instantiation's slot token
(:class:`~repro.lang.compile.RhsPlan`).
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping

from repro.errors import ValidationError
from repro.wm.element import FrozenRecord, Scalar, WME

#: Variable bindings produced by matching an LHS.
Bindings = Mapping[str, Scalar]

_PREDICATES: dict[str, Callable[[Scalar, Scalar], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def dsl_literal(value: Scalar) -> str:
    """Render a scalar in the DSL's literal syntax (parse round-trip).

    Strings are double-quoted with escapes; booleans/None use the
    keyword literals; numbers print bare.
    """
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    return repr(value)


# ---------------------------------------------------------------------------
# LHS tests
# ---------------------------------------------------------------------------


class ConstantTest(FrozenRecord):
    """``^attr = literal`` — attribute must equal the constant."""

    attribute: str
    value: Scalar

    def __str__(self) -> str:
        return f"^{self.attribute} {dsl_literal(self.value)}"


class VariableTest(FrozenRecord):
    """``^attr <x>`` — bind attribute to variable, or test equality.

    On first occurrence (reading an LHS left to right) the variable is
    *bound* to the attribute's value; on later occurrences the value
    must equal the existing binding (an implicit join test).
    """

    attribute: str
    variable: str

    def __str__(self) -> str:
        return f"^{self.attribute} <{self.variable}>"


class PredicateTest(FrozenRecord):
    """``^attr <op> value-or-var`` — relational comparison.

    ``operand`` is a literal when ``operand_is_variable`` is false,
    otherwise the name of a variable that must already be bound by an
    earlier test (a beta-level join test).
    """

    attribute: str
    op: str
    operand: Scalar
    operand_is_variable: bool = False

    def __post_init__(self) -> None:
        if self.op not in _PREDICATES:
            raise ValidationError(
                f"unknown predicate {self.op!r}; "
                f"expected one of {sorted(_PREDICATES)}"
            )

    def __str__(self) -> str:
        rhs = (
            f"<{self.operand}>"
            if self.operand_is_variable
            else dsl_literal(self.operand)
        )
        return f"^{self.attribute} {self.op} {rhs}"


#: Any single-attribute test usable in a condition element.
Test = ConstantTest | VariableTest | PredicateTest


# ---------------------------------------------------------------------------
# Condition elements
# ---------------------------------------------------------------------------


class ConditionElement(FrozenRecord):
    """One pattern of an LHS: a relation name plus attribute tests.

    Parameters
    ----------
    relation:
        Relation (class) name the pattern selects from.
    tests:
        Per-attribute tests, applied conjunctively.
    negated:
        When true this is a negative condition: the LHS requires that
        *no* WME matches the pattern.
    """

    relation: str
    tests: tuple[Test, ...] = ()
    negated: bool = False

    # -- classification helpers used by the matchers ---------------------------
    #
    # The test-list partitions are immutable functions of ``tests``, but
    # they used to be re-filtered on every call — and ``alpha_matches``
    # called two of them per WME probe.  They are now computed once and
    # cached on the instance (``object.__setattr__`` sidesteps the
    # frozen record's guard; non-field attributes take no part in its
    # equality, hashing or pickling).

    def _partition(self) -> tuple:
        constants = []
        constant_preds = []
        variables = []
        variable_preds = []
        for test in self.tests:
            if isinstance(test, ConstantTest):
                constants.append(test)
            elif isinstance(test, VariableTest):
                variables.append(test)
            elif test.operand_is_variable:
                variable_preds.append(test)
            else:
                constant_preds.append(test)
        parts = (
            tuple(constants),
            tuple(constant_preds),
            tuple(variables),
            tuple(variable_preds),
        )
        object.__setattr__(self, "_parts", parts)
        return parts

    def constant_tests(self) -> tuple[ConstantTest, ...]:
        """Tests resolvable without any variable context (alpha tests)."""
        try:
            return self._parts[0]
        except AttributeError:
            return self._partition()[0]

    def constant_predicates(self) -> tuple[PredicateTest, ...]:
        """Predicate tests against literals (also alpha-level)."""
        try:
            return self._parts[1]
        except AttributeError:
            return self._partition()[1]

    def variable_tests(self) -> tuple[VariableTest, ...]:
        """Variable bind/equality tests (beta-level joins)."""
        try:
            return self._parts[2]
        except AttributeError:
            return self._partition()[2]

    def variable_predicates(self) -> tuple[PredicateTest, ...]:
        """Predicate tests whose operand is a variable (beta-level)."""
        try:
            return self._parts[3]
        except AttributeError:
            return self._partition()[3]

    def variables(self) -> frozenset[str]:
        """All variable names mentioned by this condition element."""
        try:
            return self._variables
        except AttributeError:
            pass
        names = {t.variable for t in self.variable_tests()}
        names.update(str(t.operand) for t in self.variable_predicates())
        result = frozenset(names)
        object.__setattr__(self, "_variables", result)
        return result

    def alpha_key(self) -> tuple:
        """Hashable key identifying the alpha pattern for node sharing.

        Two condition elements with the same key can share one alpha
        node in the Rete network, regardless of which productions they
        belong to or whether they are negated.
        """
        try:
            return self._alpha_key
        except AttributeError:
            pass
        key = (
            self.relation,
            self.constant_tests(),
            self.constant_predicates(),
        )
        object.__setattr__(self, "_alpha_key", key)
        return key

    # -- evaluation --------------------------------------------------------------
    #
    # Evaluation delegates to the compiled closures (repro.lang.compile):
    # the element's alpha closure, built on first use and cached.  Join
    # tests compile per production, against its slotted token layout
    # (``Production.token_plan()``).

    def compiled(self):
        """The element's :class:`~repro.lang.compile.CompiledCondition`.

        Built lazily on first use and cached.
        """
        try:
            return self._compiled
        except AttributeError:
            pass
        from repro.lang.compile import CompiledCondition

        compiled = CompiledCondition(self)
        object.__setattr__(self, "_compiled", compiled)
        return compiled

    def alpha_matches(self, wme: WME) -> bool:
        """True when ``wme`` passes the relation and constant tests."""
        return self.compiled().alpha(wme)

    def __str__(self) -> str:
        inner = " ".join(str(t) for t in self.tests)
        body = f"({self.relation}{' ' + inner if inner else ''})"
        return f"-{body}" if self.negated else body


# ---------------------------------------------------------------------------
# RHS value expressions
# ---------------------------------------------------------------------------


class Constant(FrozenRecord):
    """A literal value."""

    value: Scalar

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return dsl_literal(self.value)


class VariableRef(FrozenRecord):
    """A reference to an LHS-bound variable."""

    name: str

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return f"<{self.name}>"


_ARITHMETIC: dict[str, Callable[[Scalar, Scalar], Scalar]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
}


class BinaryExpr(FrozenRecord):
    """Arithmetic over two sub-expressions (``compute`` in OPS5)."""

    op: str
    left: "ValueExpr"
    right: "ValueExpr"

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ValidationError(
                f"unknown arithmetic operator {self.op!r}; "
                f"expected one of {sorted(_ARITHMETIC)}"
            )

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


ValueExpr = Constant | VariableRef | BinaryExpr


def as_expr(value: "ValueExpr | Scalar") -> ValueExpr:
    """Coerce a raw scalar into a :class:`Constant` expression."""
    if isinstance(value, (Constant, VariableRef, BinaryExpr)):
        return value
    return Constant(value)


# ---------------------------------------------------------------------------
# RHS actions
# ---------------------------------------------------------------------------


class MakeAction(FrozenRecord):
    """``(make relation ^attr expr ...)`` — the paper's *create*."""

    relation: str
    values: tuple[tuple[str, ValueExpr], ...]

    @staticmethod
    def build(
        relation: str, values: Mapping[str, "ValueExpr | Scalar"]
    ) -> "MakeAction":
        return MakeAction(
            relation,
            tuple((k, as_expr(v)) for k, v in sorted(values.items())),
        )

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, expr in self.values:
            out |= expr.variables()
        return out

    def __str__(self) -> str:
        inner = " ".join(f"^{k} {v}" for k, v in self.values)
        return f"(make {self.relation} {inner})"


class ModifyAction(FrozenRecord):
    """``(modify <ce-index> ^attr expr ...)`` — the paper's *modify*.

    ``ce_index`` is the 1-based index of the (positive) condition
    element whose matched WME is modified, OPS5's element designator.
    """

    ce_index: int
    values: tuple[tuple[str, ValueExpr], ...]

    @staticmethod
    def build(
        ce_index: int, values: Mapping[str, "ValueExpr | Scalar"]
    ) -> "ModifyAction":
        return ModifyAction(
            ce_index,
            tuple((k, as_expr(v)) for k, v in sorted(values.items())),
        )

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, expr in self.values:
            out |= expr.variables()
        return out

    def __str__(self) -> str:
        inner = " ".join(f"^{k} {v}" for k, v in self.values)
        return f"(modify {self.ce_index} {inner})"


class RemoveAction(FrozenRecord):
    """``(remove <ce-index>)`` — the paper's *delete*."""

    ce_index: int

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return f"(remove {self.ce_index})"


class BindAction(FrozenRecord):
    """``(bind <x> expr)`` — bind an RHS-local variable."""

    variable: str
    expr: ValueExpr

    def variables(self) -> frozenset[str]:
        return self.expr.variables()

    def __str__(self) -> str:
        return f"(bind <{self.variable}> {self.expr})"


class WriteAction(FrozenRecord):
    """``(write expr ...)`` — emit values into the run's ``outputs``."""

    exprs: tuple[ValueExpr, ...]

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for expr in self.exprs:
            out |= expr.variables()
        return out

    def __str__(self) -> str:
        return f"(write {' '.join(str(e) for e in self.exprs)})"


class HaltAction(FrozenRecord):
    """``(halt)`` — request termination of the recognize-act cycle."""

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "(halt)"


Action = (
    MakeAction | ModifyAction | RemoveAction | BindAction | WriteAction | HaltAction
)
