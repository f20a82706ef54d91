"""Run results: what a (single- or multiple-thread) execution did."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.match.instantiation import Instantiation
from repro.wm.element import Scalar


@dataclass(frozen=True, slots=True)
class Commit:
    """One committed firing, built once at its commit point.

    Replay reads the rule and ``value_identities`` (the matched WMEs by
    value: timetags differ in a replay); ``history_of``
    (:mod:`repro.txn.schedule`) reads the transaction, ``read_at``
    (commits certified when its condition reads were taken) and the
    footprint, which the lock-free ``Interpreter`` leaves out.
    """

    rule_name: str
    value_identities: tuple[tuple, ...]
    cycle: int
    txn_id: str | None = None
    read_at: int | None = None
    reads: tuple = ()
    writes: tuple = ()

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


@dataclass
class RunResult:
    """Aggregate outcome of an engine run."""

    firings: list[Commit] = field(default_factory=list)
    outputs: list[tuple[Scalar, ...]] = field(default_factory=list)
    halted: bool = False
    cycles: int = 0
    #: Why the run ended: "quiescent", "halt", or "max_cycles".
    stop_reason: str = "quiescent"

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
