"""Run results: what a (single- or multiple-thread) execution did."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.match.instantiation import Instantiation
from repro.wm.element import Scalar
from repro.wm.snapshot import WMSnapshot


@dataclass(frozen=True)
class FiringRecord:
    """One committed firing.

    ``value_identities`` captures the matched WMEs by value (timetag-
    free) so replays — where timetags differ — can re-identify the
    instantiation.
    """

    rule_name: str
    timetags: tuple[int, ...]
    value_identities: tuple[tuple, ...]
    cycle: int

    @staticmethod
    def from_instantiation(
        instantiation: Instantiation, cycle: int
    ) -> "FiringRecord":
        return FiringRecord(
            rule_name=instantiation.production.name,
            timetags=instantiation.timetags(),
            value_identities=tuple(
                w.identity() for w in instantiation.wmes
            ),
            cycle=cycle,
        )

    def __str__(self) -> str:
        return f"{self.rule_name}@{self.cycle}"


@dataclass
class RunResult:
    """Aggregate outcome of an engine run."""

    firings: list[FiringRecord] = field(default_factory=list)
    outputs: list[tuple[Scalar, ...]] = field(default_factory=list)
    halted: bool = False
    cycles: int = 0
    #: Why the run ended: "quiescent", "halt", or "max_cycles".
    stop_reason: str = "quiescent"
    final_snapshot: WMSnapshot | None = None

    def firing_sequence(self) -> tuple[str, ...]:
        """The commit sequence as rule names — the paper's σ."""
        return tuple(f.rule_name for f in self.firings)

    def __iter__(self) -> Iterator[FiringRecord]:
        return iter(self.firings)

    def __len__(self) -> int:
        return len(self.firings)

    def __str__(self) -> str:
        sigma = " ".join(self.firing_sequence()) or "(none)"
        return (
            f"RunResult({len(self.firings)} firings, "
            f"stop={self.stop_reason}, sigma: {sigma})"
        )
