"""RHS action execution.

Executes a fired instantiation's actions against working memory: the
paper's *execute* phase ("the RHS operations of the selected production
are performed, which may cause changes to the database").
"""

from __future__ import annotations

from repro.lang.compile import RhsPlan
from repro.match.instantiation import Instantiation
from repro.wm.element import Record, Scalar, WME
from repro.wm.memory import WorkingMemory


class ActionOutcome(Record):
    """What one RHS execution did."""

    created: list[WME]
    modified: list[tuple[WME, WME]]
    removed: list[WME]
    outputs: list[tuple[Scalar, ...]]
    halted: bool

    def __init__(
        self,
        created: list[WME] | None = None,
        modified: list[tuple[WME, WME]] | None = None,
        removed: list[WME] | None = None,
        outputs: list[tuple[Scalar, ...]] | None = None,
        halted: bool = False,
    ) -> None:
        self.created = [] if created is None else created
        self.modified = [] if modified is None else modified
        self.removed = [] if removed is None else removed
        self.outputs = [] if outputs is None else outputs
        self.halted = halted

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
