"""The AST-walking RHS interpreter, kept as a test reference.

``ActionExecutor.execute`` runs each production's compiled
:class:`~repro.lang.compile.RhsPlan`.  This module is the interpreter
it replaced: a bindings dict copied from the instantiation, an
``isinstance`` dispatch per action and a recursive walk per value
expression.  It shares no code with the compiled path, so
``test_rhs_compiled.py`` can hold the two to the same outcome, the same
memory state and the same exceptions.
"""

from __future__ import annotations

from repro.engine.actions import ActionOutcome
from repro.errors import EngineError, ValidationError
from repro.lang.ast import (
    _ARITHMETIC,
    BinaryExpr,
    BindAction,
    Constant,
    HaltAction,
    MakeAction,
    ModifyAction,
    RemoveAction,
    VariableRef,
    WriteAction,
)


def evaluate(expr, bindings):
    """The value of an RHS expression under ``bindings``."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, VariableRef):
        if expr.name not in bindings:
            raise ValidationError(f"unbound variable <{expr.name}>")
        return bindings[expr.name]
    assert isinstance(expr, BinaryExpr), expr
    left = evaluate(expr.left, bindings)
    right = evaluate(expr.right, bindings)
    try:
        return _ARITHMETIC[expr.op](left, right)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"cannot evaluate ({left!r} {expr.op} {right!r}): {exc}"
        ) from exc


def execute(memory, instantiation) -> ActionOutcome:
    """Run ``instantiation``'s RHS against ``memory``, as the
    interpreter did."""
    production = instantiation.production
    bindings = dict(instantiation.bindings)
    positive = production.positive_indices()
    #: 1-based CE index -> current WME version (None once removed).
    current = {
        ce_index + 1: instantiation.wmes[position]
        for position, ce_index in enumerate(positive)
    }
    outcome = ActionOutcome()
    for action in production.rhs:
        if isinstance(action, MakeAction):
            values = {
                name: evaluate(expr, bindings) for name, expr in action.values
            }
            outcome.created.append(memory.make(action.relation, values))
        elif isinstance(action, ModifyAction):
            target = current.get(action.ce_index)
            if target is None:
                raise EngineError(
                    f"{production.name}: modify {action.ce_index} after "
                    f"the element was removed"
                )
            changes = {
                name: evaluate(expr, bindings) for name, expr in action.values
            }
            new = memory.modify(target, changes)
            current[action.ce_index] = new
            outcome.modified.append((target, new))
        elif isinstance(action, RemoveAction):
            target = current.get(action.ce_index)
            if target is None:
                raise EngineError(
                    f"{production.name}: remove {action.ce_index} after "
                    f"the element was removed"
                )
            memory.remove(target)
            current[action.ce_index] = None
            outcome.removed.append(target)
        elif isinstance(action, BindAction):
            bindings[action.variable] = evaluate(action.expr, bindings)
        elif isinstance(action, WriteAction):
            outcome.outputs.append(
                tuple(evaluate(e, bindings) for e in action.exprs)
            )
        elif isinstance(action, HaltAction):
            outcome.halted = True
        else:
            raise EngineError(f"unknown action {action!r}")
    return outcome
