"""Working-memory snapshots.

The execution-graph construction of Section 3 ("it is possible
(conceptually) to determine the allowable sequences of state changes")
requires exploring *alternative* futures from one state: fire P_i, look
at the resulting state, rewind, fire P_j instead.  :class:`WMSnapshot`
captures a store's contents so a search can restore or fork states.

Snapshots preserve timetags exactly, so recency-based conflict
resolution behaves identically on a restored state.
"""

from __future__ import annotations

from repro.wm.element import FrozenRecord, WME
from repro.wm.memory import WorkingMemory
from repro.wm.schema import Catalog


class WMSnapshot(FrozenRecord):
    """An immutable capture of a working memory's live elements."""

    elements: tuple[WME, ...]

    @staticmethod
    def capture(memory: WorkingMemory) -> "WMSnapshot":
        """Snapshot the current live elements of ``memory``.

        WMEs are immutable, so capturing is a shallow copy: O(n) time,
        no per-element cloning.
        """
        return WMSnapshot(tuple(sorted(memory, key=lambda w: w.timetag)))

    def restore(self, memory: WorkingMemory) -> None:
        """Make ``memory`` contain exactly this snapshot's elements.

        Computes the symmetric difference against the live store and
        applies minimal add/remove deltas, so incremental matchers
        subscribed to the store see a correct delta stream rather than
        a clear-and-reload.
        """
        current = {w.timetag: w for w in memory}
        target = {w.timetag: w for w in self.elements}
        for timetag in list(current):
            if timetag not in target:
                memory.remove(timetag)
        for timetag, wme in target.items():
            if timetag not in current:
                memory.add(wme)

    def materialize(self, catalog: Catalog | None = None) -> WorkingMemory:
        """Build a brand-new :class:`WorkingMemory` holding this snapshot."""
        memory = WorkingMemory(catalog=catalog)
        for wme in self.elements:
            memory.add(wme)
        return memory

    def value_identity_set(self) -> frozenset[tuple]:
        """Value identities (timetag-free), for state-equality checks."""
        return frozenset(w.identity() for w in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, wme: object) -> bool:
        return isinstance(wme, WME) and wme in self.elements
