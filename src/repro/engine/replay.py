"""Replay validation: Definition 3.2 for real (working-memory) systems.

A parallel run is semantically consistent iff its commit sequence is a
root-originating path (or prefix) of the single-thread execution graph
from the same initial state.  For real systems we verify this
*operationally*: replay the commit sequence on a fresh single-thread
engine started from the same initial snapshot, checking at every step
that the committed instantiation is present in the replayed conflict
set, then firing exactly it.

Instantiations are re-identified across runs by (rule name, matched
WME *value identities*): timetags differ between the original run and
the replay for WMEs created mid-run, but values do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.actions import ActionExecutor
from repro.engine.interpreter import MatcherName, build_matcher
from repro.engine.result import FiringRecord
from repro.lang.production import Production
from repro.match.instantiation import Instantiation
from repro.wm.snapshot import WMSnapshot


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying a commit sequence."""

    consistent: bool
    replayed: int
    detail: str = ""
    #: Value identities of the replayed database after the last firing
    #: replayed: the node of the execution graph the sequence reaches.
    identities: frozenset[tuple] = frozenset()

    def __bool__(self) -> bool:
        return self.consistent


def _find_match(
    candidates: Iterable[Instantiation], record: FiringRecord
) -> Instantiation | None:
    """Find an instantiation matching a firing record by value."""
    for candidate in candidates:
        if candidate.production.name != record.rule_name:
            continue
        identities = tuple(w.identity() for w in candidate.wmes)
        if identities == record.value_identities:
            return candidate
    return None


def replay_commit_sequence(
    initial: WMSnapshot,
    productions: Sequence[Production],
    firings: Sequence[FiringRecord],
    matcher: MatcherName = "naive",
) -> ReplayOutcome:
    """Replay ``firings`` single-threaded from ``initial``.

    Returns an inconsistent outcome at the first firing whose
    instantiation is absent from the replayed conflict set — the exact
    violation Definition 3.2 forbids.
    """
    memory = initial.materialize()
    engine_matcher = build_matcher(matcher, memory)
    engine_matcher.add_productions(productions)
    engine_matcher.attach()
    executor = ActionExecutor(memory)
    for index, record in enumerate(firings):
        candidates = engine_matcher.conflict_set.eligible()
        chosen = _find_match(candidates, record)
        if chosen is None:
            in_set_names = sorted(
                {c.production.name for c in candidates}
            )
            return ReplayOutcome(
                consistent=False,
                replayed=index,
                detail=(
                    f"firing #{index} ({record.rule_name}) not in the "
                    f"replayed conflict set (active rules: {in_set_names})"
                ),
                identities=memory.value_identity_set(),
            )
        engine_matcher.conflict_set.mark_fired(chosen)
        executor.execute(chosen)
    return ReplayOutcome(
        consistent=True,
        replayed=len(firings),
        detail=f"all {len(firings)} firings replayed in order",
        identities=memory.value_identity_set(),
    )
