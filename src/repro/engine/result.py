"""Run results: what a (single- or multiple-thread) execution did."""

from __future__ import annotations

from typing import Iterator

from repro.match.instantiation import Instantiation
from repro.wm.element import FrozenRecord, Record, Scalar


class Commit(FrozenRecord):
    """One committed firing, built once at its commit point.

    Replay reads the rule and ``value_identities`` (the matched WMEs by
    value: timetags differ in a replay); ``history_of``
    (:mod:`repro.txn.schedule`) reads the transaction, ``read_at``
    (commits certified when its condition reads were taken) and the
    footprint, which the lock-free ``Interpreter`` leaves out.
    """

    __slots__ = (
        "rule_name", "value_identities", "cycle", "txn_id", "read_at",
        "reads", "writes",
    )
    rule_name: str
    value_identities: tuple[tuple, ...]
    cycle: int
    txn_id: str | None
    read_at: int | None
    reads: tuple
    writes: tuple

    def __init__(
        self,
        rule_name: str,
        value_identities: tuple[tuple, ...],
        cycle: int,
        txn_id: str | None = None,
        read_at: int | None = None,
        reads: tuple = (),
        writes: tuple = (),
    ) -> None:
        set_ = object.__setattr__
        set_(self, "rule_name", rule_name)
        set_(self, "value_identities", value_identities)
        set_(self, "cycle", cycle)
        set_(self, "txn_id", txn_id)
        set_(self, "read_at", read_at)
        set_(self, "reads", reads)
        set_(self, "writes", writes)

    @classmethod
    def of(cls, instantiation: Instantiation, cycle: int, *footprint):
        """``instantiation``'s commit; ``footprint`` is ``txn_id,
        read_at, reads, writes`` where locks were taken."""
        return cls(
            instantiation.production.name,
            tuple(w.identity() for w in instantiation.wmes), cycle, *footprint,
        )

    def __str__(self) -> str:
        return f"{self.rule_name}@{self.cycle}"


class RunResult(Record):
    """Aggregate outcome of an engine run."""

    firings: list[Commit]
    outputs: list[tuple[Scalar, ...]]
    halted: bool
    cycles: int
    #: Why the run ended: "quiescent", "halt", or "max_cycles".
    stop_reason: str

    def __init__(
        self,
        firings: list[Commit] | None = None,
        outputs: list[tuple[Scalar, ...]] | None = None,
        halted: bool = False,
        cycles: int = 0,
        stop_reason: str = "quiescent",
    ) -> None:
        self.firings = [] if firings is None else firings
        self.outputs = [] if outputs is None else outputs
        self.halted = halted
        self.cycles = cycles
        self.stop_reason = stop_reason

    def firing_sequence(self) -> tuple[str, ...]:
        """The commit sequence as rule names — the paper's σ."""
        return tuple(f.rule_name for f in self.firings)

    def __iter__(self) -> Iterator[Commit]:
        return iter(self.firings)

    def __len__(self) -> int:
        return len(self.firings)

    def __str__(self) -> str:
        sigma = " ".join(self.firing_sequence()) or "(none)"
        return (
            f"RunResult({len(self.firings)} firings, "
            f"stop={self.stop_reason}, sigma: {sigma})"
        )
