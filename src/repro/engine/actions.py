"""RHS action execution.

Executes a fired instantiation's actions against working memory: the
paper's *execute* phase ("the RHS operations of the selected production
are performed, which may cause changes to the database").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.compile import RhsPlan
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

        The RHS runs as its compiled :class:`~repro.lang.compile.
        RhsPlan` over the instantiation's own slot token.  Element
        designators resolve through the live versions, so a ``modify``
        of an element followed by another action on the same element
        operates on the *current* version.  A ``halt`` is reported in
        the outcome (after completing the RHS, as OPS5 does), not
        raised.
        """
        index, token = instantiation.slots()
        plan = RhsPlan.of(instantiation.production, index)
        values = [*token, *plan.tail] if plan.binds else token
        wmes = instantiation.wmes
        current = list(wmes) if plan.designates else wmes
        outcome = ActionOutcome()
        memory = self.memory
        for step in plan.steps:
            step(memory, values, current, outcome)
        return outcome
