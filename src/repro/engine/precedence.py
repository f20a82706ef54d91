"""The read -> write precedence graph of one wave.

Section 4.3, Figure 4.3: when an ``Rc`` holder and a ``Wa`` holder of
one object meet, both commit if the reader commits first (rule (i));
Figure 4.4: in a circular case every commit order aborts somebody.
:class:`Precedence` is those two figures as a graph over a wave's
candidates, built by :meth:`ParallelEngine._admit
<repro.engine.parallel.ParallelEngine._admit>` from lock footprints
alone (see that module's "Wave admission").
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Iterator

from repro.match.instantiation import Instantiation


class Precedence:
    """The read -> write precedence graph of one wave's admitted slots.

    A slot is a position in ``admitted``, which fills in ranking order,
    so a slot number is a rank.  An edge ``a -> b`` on ``obj`` says *a
    reads obj and b writes it*: both commit iff *a* commits first (rule
    (i)).  The graph stays acyclic — :meth:`admit` refuses the slot that
    would close a cycle — so :meth:`acting_order` always exists.
    """

    __slots__ = (
        "admitted", "reads", "readers", "writers", "after", "ordered",
        "_no_reader",
    )

    def __init__(self) -> None:
        self.admitted: list[Instantiation] = []
        #: slot -> the objects it reads.
        self.reads: list[tuple[Hashable, ...]] = []
        #: object -> the slots reading / writing it.
        self.readers: dict[Hashable, list[int]] = {}
        self.writers: dict[Hashable, list[int]] = {}
        #: a -> {b: obj}: the edges out of slot a.
        self.after: dict[int, dict[int, Hashable]] = {}
        #: Edges against rank (a > b): what makes the acting order
        #: differ from the ranking.
        self.ordered = 0
        # The key view is live.
        self._no_reader = self.readers.keys().isdisjoint

    def admit(self, instantiation: Instantiation) -> bool:
        """Give ``instantiation`` the next slot unless its edges would
        close a cycle; False when it is cut (:meth:`cycle` says from
        what).  A hold-back allocates nothing.
        """
        reads, writes = instantiation.lock_footprint()
        writers = self.writers
        later = None
        # One scan finds whether an admitted slot writes what this one
        # reads, and which.
        for read in reads:
            found = writers.get(read)
            if found is not None:
                # The mutual pair is the common cycle: test the first
                # writer found directly, before any set is built — and
                # first through ``read`` itself, the one object both
                # read and rewrite (a gauge, a party's last seat).
                partner_reads = self.reads[found[0]]
                if read in partner_reads and read in writes:
                    return False
                for written in writes:
                    if written in partner_reads:
                        return False
                later = self._writers_of(reads)
                break
        admitted = self.admitted
        slot = len(admitted)
        readers = self.readers
        if not self._no_reader(writes):
            earlier = self._readers_of(writes)
            if later and self._path(later, earlier) is not None:
                return False
            for reader, obj in earlier.items():
                self.after.setdefault(reader, {})[slot] = obj
        if later:
            self.after[slot] = later
            self.ordered += len(later)
        admitted.append(instantiation)
        self.reads.append(reads)
        for obj in reads:
            readers.setdefault(obj, []).append(slot)
        for obj in writes:
            writers.setdefault(obj, []).append(slot)
        return True

    def cycle(
        self, instantiation: Instantiation
    ) -> tuple[tuple[int, ...], Hashable, Hashable]:
        """The cycle :meth:`admit` cut ``instantiation`` from, as
        ``(path, read, written)``: the candidate reads ``read``, which
        ``path[0]`` writes; ``path`` follows edges; ``path[-1]`` reads
        ``written``, which the candidate writes.  For the record only:
        searched again, the general way.
        """
        reads, writes = instantiation.lock_footprint()
        later = self._writers_of(reads)
        earlier = self._readers_of(writes)
        path = self._path(later, earlier)
        return path, later[path[0]], earlier[path[-1]]

    def _writers_of(self, reads) -> dict[int, Hashable]:
        """slot -> object, for the slots that must follow a reader of
        ``reads``."""
        writers = self.writers
        return {w: obj for obj in reads for w in writers.get(obj, ())}

    def _readers_of(self, writes) -> dict[int, Hashable]:
        """slot -> object, for the slots that must precede a writer of
        ``writes``."""
        readers = self.readers
        return {r: obj for obj in writes for r in readers.get(obj, ())}

    def _path(self, sources, targets) -> tuple[int, ...] | None:
        """A path along the edges from one of ``sources`` to one of
        ``targets`` (a slot in both is a path of one), or None."""
        after = self.after
        parent = dict.fromkeys(sources)
        stack = list(sources)
        while stack:
            slot = stack.pop()
            if slot in targets:
                path = [slot]
                while (slot := parent[slot]) is not None:
                    path.append(slot)
                return tuple(reversed(path))
            for following in after.get(slot, ()):
                if following not in parent:
                    parent[following] = slot
                    stack.append(following)
        return None

    def acting_order(self) -> list[Instantiation]:
        """The admitted slots in topological order of the edges, rank
        breaking ties (Kahn's algorithm over a heap of ready slots).
        Without an edge against rank that is the ranking itself."""
        admitted = self.admitted
        if not self.ordered:
            return admitted
        after = self.after
        waiting = [0] * len(admitted)
        for following in after.values():
            for slot in following:
                waiting[slot] += 1
        # Ascending, so already a heap.
        ready = [slot for slot, count in enumerate(waiting) if not count]
        order = []
        while ready:
            slot = heappop(ready)
            order.append(admitted[slot])
            for following in after.get(slot, ()):
                waiting[following] -= 1
                if not waiting[following]:
                    heappush(ready, following)
        return order

    def edges_against_rank(
        self,
    ) -> Iterator[tuple[Instantiation, Instantiation, Hashable]]:
        """``(reader, writer, obj)`` for every edge whose reader was
        ranked behind its writer."""
        admitted = self.admitted
        for reader, following in self.after.items():
            for writer, obj in following.items():
                if writer < reader:
                    yield admitted[reader], admitted[writer], obj
