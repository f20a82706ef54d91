"""Event queue and virtual clock for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import repro.obs as obs_module
from repro.errors import SimulationError

#: An event handler; receives the simulator so it can schedule more.
Handler = Callable[["Simulator"], None]


class EventQueue:
    """A stable priority queue of (time, insertion-order, handler).

    Events at equal times fire in insertion order, which — together
    with deterministic scheduling policies — makes every simulation in
    this package reproducible bit-for-bit.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Handler]] = []
        self._counter = itertools.count()

    def push(self, time: float, handler: Handler) -> None:
        heapq.heappush(self._heap, (time, next(self._counter), handler))

    def pop(self) -> tuple[float, Handler]:
        time, _, handler = heapq.heappop(self._heap)
        return time, handler

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulator:
    """Runs handlers in virtual-time order.

    Usage::

        sim = Simulator()
        sim.at(0.0, start_everything)
        sim.run()
        print(sim.now)
    """

    def __init__(
        self, max_events: int = 1_000_000, observer=None
    ) -> None:
        self.now = 0.0
        self.queue = EventQueue()
        self.max_events = max_events
        self.processed = 0
        #: Observability sink; handler dispatches are recorded as
        #: events at their virtual timestamps when a live observer is
        #: installed.
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )

    def at(self, time: float, handler: Handler) -> None:
        """Schedule ``handler`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self.now})"
            )
        self.queue.push(time, handler)

    def after(self, delay: float, handler: Handler) -> None:
        """Schedule ``handler`` ``delay`` units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.queue.push(self.now + delay, handler)

    def run(self, until: float | None = None) -> float:
        """Drain the queue (optionally stopping at virtual ``until``).

        Returns the final virtual time.  A ``max_events`` overrun
        raises — the guard against accidentally divergent simulations.
        """
        while self.queue:
            next_time = self.queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self.now = until
                return self.now
            time, handler = self.queue.pop()
            self.now = time
            if self.obs.enabled:
                self.obs.event(
                    "sim.handler", ts=time,
                    fn=getattr(handler, "__qualname__", repr(handler)),
                    pending=len(self.queue),
                )
            handler(self)
            self.processed += 1
            if self.processed > self.max_events:
                raise SimulationError(
                    f"simulation exceeded {self.max_events} events"
                )
        return self.now
