"""The :class:`Production`: a validated LHS/RHS rule.

Beyond holding the AST, a production knows its *access templates*: over-
approximations of the relations it reads (LHS plus RHS element
designators) and writes (RHS make/modify/remove targets).  The static
approach of Section 4.1 partitions productions by intersecting these
templates; the dynamic lock schemes instead lock the concrete data
objects touched at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ValidationError
from repro.lang.ast import (
    Action,
    BindAction,
    ConditionElement,
    HaltAction,
    MakeAction,
    ModifyAction,
    RemoveAction,
    WriteAction,
)


@dataclass(frozen=True)
class Production:
    """An immutable production rule.

    Parameters
    ----------
    name:
        Unique rule name.
    lhs:
        Condition elements, in written order.  At least one positive
        (non-negated) element is required — otherwise there is nothing
        to instantiate.
    rhs:
        Actions executed when the rule fires.
    priority:
        Optional user priority (OPS5 rules are unprioritized; several
        conflict-resolution strategies here can use it as a tiebreak).
    """

    name: str
    lhs: tuple[ConditionElement, ...]
    rhs: tuple[Action, ...]
    priority: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def __reduce__(self):
        # Compiled token and join plans, the variable index and the LEX
        # static rank are cached on the instance via ``object.__setattr__``;
        # rebuild from the AST so pickles never carry closures or
        # derived data (mirrors WME.__reduce__).
        return (Production, (self.name, self.lhs, self.rhs, self.priority))

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ValidationError` on structural problems.

        Checks: non-empty LHS with ≥1 positive element; every variable
        predicate operand bound by an earlier positive element or its
        own element; element designators in range and pointing at
        positive elements; every RHS variable bound by the LHS or an
        earlier ``bind``.
        """
        if not self.lhs:
            raise ValidationError(f"production {self.name!r} has an empty LHS")
        if all(ce.negated for ce in self.lhs):
            raise ValidationError(
                f"production {self.name!r}: all condition elements are "
                f"negated; at least one positive element is required"
            )
        # A variable predicate operand must be bound by the time its
        # element is evaluated — by a variable test in an earlier
        # *positive* element, or by one in the same element (variable
        # tests run before predicates).  This used to surface as a
        # per-WME ValidationError at match time, so whether a bad rule
        # errored depended on which WMEs arrived (and the matchers
        # genuinely disagreed on rules with forward references: TREAT's
        # retraction path evaluates with full-instantiation bindings).
        # Reject once, at load.
        bound_so_far: set[str] = set()
        for element in self.lhs:
            local = {t.variable for t in element.variable_tests()}
            available = bound_so_far | local
            for pred in element.variable_predicates():
                name = str(pred.operand)
                if name not in available:
                    raise ValidationError(
                        f"production {self.name!r}: condition {element} "
                        f"predicate {pred} references variable <{name}> "
                        f"not bound by an earlier positive condition "
                        f"element"
                    )
            if not element.negated:
                bound_so_far |= local
        positives = self.positive_indices()
        bound = self.lhs_variables()
        for action in self.rhs:
            if isinstance(action, (ModifyAction, RemoveAction)):
                if not 1 <= action.ce_index <= len(self.lhs):
                    raise ValidationError(
                        f"production {self.name!r}: designator "
                        f"{action.ce_index} out of range 1..{len(self.lhs)}"
                    )
                if (action.ce_index - 1) not in positives:
                    raise ValidationError(
                        f"production {self.name!r}: designator "
                        f"{action.ce_index} names a negated condition element"
                    )
            unbound = action.variables() - bound
            if unbound:
                raise ValidationError(
                    f"production {self.name!r}: action {action} uses "
                    f"unbound variable(s) {sorted(unbound)}"
                )
            if isinstance(action, BindAction):
                bound = bound | {action.variable}
        # Matchers check this flag at registration: a production built
        # without going through validate() (e.g. via object.__new__)
        # could carry forward references the compiled beta closures no
        # longer guard per-WME.
        object.__setattr__(self, "_validated", True)

    # -- compiled match plans -----------------------------------------------------

    def token_plan(self):
        """The production's :class:`~repro.lang.compile.SlottedPlan`,
        built on first use and cached — every matcher registering the
        same rule, including a partitioned outer matcher and its inner
        shards, shares one compiled plan.
        """
        try:
            return self._token_plan
        except AttributeError:
            from repro.lang.compile import SlottedPlan

            plan = SlottedPlan(self)
            object.__setattr__(self, "_token_plan", plan)
            return plan

    def join_plan(self):
        """The plan Rete builds its join chain from: the steps in
        :func:`~repro.lang.compile.join_order`, which sinks the
        elements the rule's own RHS modifies or removes.  Cached like
        :meth:`token_plan`, and the very same object whenever the
        order is the written one.
        """
        try:
            return self._join_plan
        except AttributeError:
            from repro.lang.compile import SlottedPlan, join_order

            plan = self.token_plan()
            order = join_order(self)
            if order != plan.order:
                plan = SlottedPlan(self, order)
            object.__setattr__(self, "_join_plan", plan)
            return plan

    # -- conflict-resolution rank ---------------------------------------------------

    def lex_static(self) -> tuple[int, tuple[int, ...]]:
        """The rule-level tail of the LEX ordering: ``(specificity,
        name tiebreak)`` — the number of LHS tests, then the name
        inverted into larger-is-preferred form (stable but arbitrary;
        only reached by otherwise tied instantiations).  Cached like
        :meth:`token_plan`, so ranking never walks the LHS or the name.
        """
        try:
            return self._lex_static
        except AttributeError:
            static = (
                sum(len(ce.tests) for ce in self.lhs),
                tuple(-ord(c) for c in self.name),
            )
            object.__setattr__(self, "_lex_static", static)
            return static

    # -- structure queries --------------------------------------------------------

    def positive_indices(self) -> tuple[int, ...]:
        """0-based indices of the positive (non-negated) LHS elements."""
        return tuple(
            i for i, ce in enumerate(self.lhs) if not ce.negated
        )

    def positive_elements(self) -> tuple[ConditionElement, ...]:
        """The positive LHS elements, in order."""
        return tuple(ce for ce in self.lhs if not ce.negated)

    def negative_elements(self) -> tuple[ConditionElement, ...]:
        """The negated LHS elements, in order."""
        return tuple(ce for ce in self.lhs if ce.negated)

    def lhs_variables(self) -> frozenset[str]:
        """Variables bound by positive condition elements."""
        out: frozenset[str] = frozenset()
        for ce in self.lhs:
            if not ce.negated:
                out |= {t.variable for t in ce.variable_tests()}
        return out

    def halts(self) -> bool:
        """True when the RHS contains a ``halt`` action."""
        return any(isinstance(a, HaltAction) for a in self.rhs)

    # -- access templates (interference analysis, Section 4.1) -------------------

    def read_relations(self) -> frozenset[str]:
        """Relations whose contents the LHS depends on.

        Includes negated elements: a negative condition *reads* the
        (absence from the) relation, which is exactly why Section 4.3
        escalates its lock to relation level.
        """
        return frozenset(ce.relation for ce in self.lhs)

    def write_relations(self) -> frozenset[str]:
        """Relations the RHS may create, modify or delete tuples of."""
        out: set[str] = set()
        for action in self.rhs:
            if isinstance(action, MakeAction):
                out.add(action.relation)
            elif isinstance(action, (ModifyAction, RemoveAction)):
                out.add(self.lhs[action.ce_index - 1].relation)
        return frozenset(out)

    def negative_read_relations(self) -> frozenset[str]:
        """Relations read through negated condition elements only."""
        return frozenset(ce.relation for ce in self.lhs if ce.negated)

    # -- presentation ---------------------------------------------------------------

    def __str__(self) -> str:
        lhs = "\n    ".join(str(ce) for ce in self.lhs)
        rhs = "\n    ".join(str(a) for a in self.rhs)
        return f"(p {self.name}\n    {lhs}\n  -->\n    {rhs})"


def ensure_validated(production: Production) -> None:
    """Raise :class:`ValidationError` unless ``production`` passed
    :meth:`Production.validate`.

    Matchers call this at registration.  The compiled beta closures
    assume predicate operands are bound (load-time validation), so a
    production smuggled past ``validate()`` must be rejected before it
    reaches a join, not deep inside one.
    """
    if not getattr(production, "_validated", False):
        production.validate()


def check_unique_names(productions: Sequence[Production]) -> None:
    """Raise :class:`ValidationError` when two productions share a name."""
    seen: set[str] = set()
    for production in productions:
        if production.name in seen:
            raise ValidationError(
                f"duplicate production name {production.name!r}"
            )
        seen.add(production.name)


def productions_by_name(
    productions: Iterable[Production],
) -> dict[str, Production]:
    """Index productions by name, enforcing uniqueness."""
    out: dict[str, Production] = {}
    for production in productions:
        if production.name in out:
            raise ValidationError(
                f"duplicate production name {production.name!r}"
            )
        out[production.name] = production
    return out
