"""RHS action execution.

Executes a fired instantiation's actions against working memory: the
paper's *execute* phase ("the RHS operations of the selected production
are performed, which may cause changes to the database").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EngineError
from repro.lang.ast import (
    BindAction,
    HaltAction,
    MakeAction,
    ModifyAction,
    RemoveAction,
    WriteAction,
)
from repro.match.instantiation import Instantiation
from repro.wm.element import Scalar, WME
from repro.wm.memory import WorkingMemory

@dataclass
class ActionOutcome:
    """What one RHS execution did."""

    created: list[WME] = field(default_factory=list)
    modified: list[tuple[WME, WME]] = field(default_factory=list)
    removed: list[WME] = field(default_factory=list)
    outputs: list[tuple[Scalar, ...]] = field(default_factory=list)
    halted: bool = False

    def touched(self) -> list[WME]:
        """Every WME the RHS wrote (old and new versions)."""
        out = list(self.created) + list(self.removed)
        for old, new in self.modified:
            out.append(old)
            out.append(new)
        return out


class ActionExecutor:
    """Executes instantiations' RHSs against one working memory."""

    def __init__(self, memory: WorkingMemory) -> None:
        self.memory = memory

    def execute(self, instantiation: Instantiation) -> ActionOutcome:
        """Run every RHS action of ``instantiation`` in order.

        Element designators resolve through a live map so that a
        ``modify`` of an element followed by another action on the same
        element operates on the *current* version.  A ``halt`` is
        reported in the outcome (after completing the RHS, as OPS5
        does), not raised.
        """
        production = instantiation.production
        bindings = dict(instantiation.bindings)
        positive = production.positive_indices()
        #: 1-based CE index -> current WME version (None once removed).
        current: dict[int, WME | None] = {
            ce_index + 1: instantiation.wmes[position]
            for position, ce_index in enumerate(positive)
        }
        outcome = ActionOutcome()
        for action in production.rhs:
            if isinstance(action, MakeAction):
                values = {
                    name: expr.evaluate(bindings)
                    for name, expr in action.values
                }
                outcome.created.append(
                    self.memory.make(action.relation, values)
                )
            elif isinstance(action, ModifyAction):
                target = current.get(action.ce_index)
                if target is None:
                    raise EngineError(
                        f"{production.name}: modify {action.ce_index} after "
                        f"the element was removed"
                    )
                changes = {
                    name: expr.evaluate(bindings)
                    for name, expr in action.values
                }
                new = self.memory.modify(target, changes)
                current[action.ce_index] = new
                outcome.modified.append((target, new))
            elif isinstance(action, RemoveAction):
                target = current.get(action.ce_index)
                if target is None:
                    raise EngineError(
                        f"{production.name}: remove {action.ce_index} after "
                        f"the element was removed"
                    )
                self.memory.remove(target)
                current[action.ce_index] = None
                outcome.removed.append(target)
            elif isinstance(action, BindAction):
                bindings[action.variable] = action.expr.evaluate(bindings)
            elif isinstance(action, WriteAction):
                outcome.outputs.append(
                    tuple(e.evaluate(bindings) for e in action.exprs)
                )
            elif isinstance(action, HaltAction):
                outcome.halted = True
            else:  # pragma: no cover - exhaustive over the AST
                raise EngineError(f"unknown action {action!r}")
        return outcome
