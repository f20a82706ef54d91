"""Reference matcher: the whole conflict set, re-derived by brute force.

The oracle the equivalence suites hold every matcher to.  It shares no
code with the matchers under test: conditions are evaluated by the
seed's interpreted walks (:func:`interpreted_alpha` /
:func:`interpreted_beta`, moved here verbatim from
``repro.lang.compile`` when the compiled closures became the only
evaluator in ``src/``), joins run over plain binding dicts against
every live WME, and nothing survives between calls — no indexes, no
token plans, no compiled closures, no retraction path.  A matcher bug
therefore cannot sit on both sides of a comparison.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable

from repro.errors import ValidationError
from repro.lang.ast import (
    ConditionElement,
    ConstantTest,
    PredicateTest,
    VariableTest,
)
from repro.lang.production import Production
from repro.wm.element import WME

_OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op, left, right) -> bool:
    """Apply predicate ``op``; ordering across unlike types is False."""
    try:
        return _OPERATORS[op](left, right)
    except TypeError:
        return False


def interpreted_alpha(element: ConditionElement) -> Callable[[WME], bool]:
    """The seed's per-probe interpreted alpha walk, verbatim.

    Re-filters the test list on every probe and scans the WME's
    attribute tuple per test.
    """

    def alpha(wme: WME, *, _element=element) -> bool:
        if wme.relation != _element.relation:
            return False
        for test in tuple(
            t for t in _element.tests if isinstance(t, ConstantTest)
        ):
            if test.attribute not in wme or wme[test.attribute] != test.value:
                return False
        for pred in tuple(
            t
            for t in _element.tests
            if isinstance(t, PredicateTest) and not t.operand_is_variable
        ):
            if pred.attribute not in wme:
                return False
            if not _compare(pred.op, wme[pred.attribute], pred.operand):
                return False
        return True

    return alpha


def interpreted_beta(element: ConditionElement):
    """The seed's per-probe interpreted beta walk, verbatim."""

    def beta(wme: WME, bindings, *, _element=element):
        extended = dict(bindings)
        for test in tuple(
            t for t in _element.tests if isinstance(t, VariableTest)
        ):
            if test.attribute not in wme:
                return None
            value = wme[test.attribute]
            if test.variable in extended:
                if extended[test.variable] != value:
                    return None
            else:
                extended[test.variable] = value
        for pred in tuple(
            t
            for t in _element.tests
            if isinstance(t, PredicateTest) and t.operand_is_variable
        ):
            if pred.attribute not in wme:
                return None
            operand = extended.get(str(pred.operand))
            if operand is None and str(pred.operand) not in extended:
                raise ValidationError(
                    f"predicate {pred} references unbound variable "
                    f"<{pred.operand}>"
                )
            if not _compare(pred.op, wme[pred.attribute], operand):
                return None
        return extended

    return beta


def reference_conflict_set(
    productions: Iterable[Production],
    wmes: Iterable[WME],
    evaluators=(interpreted_alpha, interpreted_beta),
) -> dict:
    """``{(rule name, matched timetags): bindings_items}`` for every
    instantiation of ``productions`` over ``wmes``.

    Elements are taken in written order; a positive element branches
    on every WME that passes, a negated one prunes when any WME passes
    under the bindings so far (its local bindings are discarded).
    ``evaluators`` is the ``(alpha_of, beta_of)`` pair of per-element
    walk builders.
    """
    wmes = list(wmes)
    alpha_of, beta_of = evaluators
    found: dict = {}
    for production in productions:
        walks = [
            (element.negated, alpha_of(element), beta_of(element))
            for element in production.lhs
        ]

        def extend(position, matched, bindings):
            if position == len(walks):
                timetags = tuple(wme.timetag for wme in matched)
                found[production.name, timetags] = tuple(
                    sorted(bindings.items())
                )
                return
            negated, alpha, beta = walks[position]
            if negated:
                if not any(
                    alpha(wme) and beta(wme, bindings) is not None
                    for wme in wmes
                ):
                    extend(position + 1, matched, bindings)
                return
            for wme in wmes:
                if alpha(wme):
                    extended = beta(wme, bindings)
                    if extended is not None:
                        extend(position + 1, matched + (wme,), extended)

        extend(0, (), {})
    return found


def conflict_set_of(matcher) -> dict:
    """A matcher's conflict set in :func:`reference_conflict_set` form."""
    return {
        inst.identity(): inst.bindings_items for inst in matcher.conflict_set
    }
