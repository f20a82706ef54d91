"""A watchdog over rolling telemetry windows: green / yellow / red.

The always-on layer's automated judgment call.  Metrics and sketches
answer "what happened"; the :class:`HealthMonitor` answers "is this
run in trouble *right now*" by evaluating threshold and ratio rules
over short rolling windows of raw signals:

* ``abort_rate`` — failed / (failed + committed) transactions in the
  window.  A chaos run's injected-fault spike is the canonical red.
  Benign outcomes (an instantiation retracted by a sibling commit, a
  lock-denied deferral that retries next wave) are *not* failures —
  they are how the wave protocol breathes — so the observer filters
  them out by abort reason (:data:`BENIGN_ABORT_REASONS`) before
  feeding this rule.
* ``retry_exhaustion`` — firings that burned their whole retry budget.
  Any exhaustion is yellow; a cluster is red.
* ``lock_wait_share`` — lock-queue seconds per wall second in the
  window.  High share means the run is serializing on hot objects
  (the paper's Rc-vs-Wa contention story, live).
* ``wal_stall`` — WAL segments rotating with **zero** checkpoints in
  the window: the PR 6 storage layer is growing its log without ever
  truncating it.

Signals arrive via :meth:`HealthMonitor.record` (the Observer feeds
them from its hooks); :meth:`evaluate` prunes each window, scores
every rule, and returns a :class:`HealthReport`.  Status transitions
are logged in :attr:`HealthMonitor.transitions` and invoke
``on_transition``, so the observer can record a ``health.transition``
event — the audit trail of *when* a run went red and which rule
pushed it there.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

GREEN = "green"
YELLOW = "yellow"
RED = "red"

_SEVERITY = {GREEN: 0, YELLOW: 1, RED: 2}

#: Abort reasons that are part of normal wave-protocol operation, not
#: failures: deferrals (locks unavailable this wave, retried next) and
#: retractions (a sibling commit consumed the instantiation's facts or
#: victimized a conflicting firing under the Rc scheme's rule (ii)).
#: Contention cost is the lock_wait_share rule's job, not abort_rate's.
#: Fault-injected denials abort as "injected lock denial" — same
#: engine path, distinct reason — precisely so they stay OUT of this
#: set and a chaos run's denial storm registers as failure.
BENIGN_ABORT_REASONS = frozenset({
    "condition lock denied",
    "action locks unavailable",
    "instantiation invalidated",
    "rule (ii) victim",
})


def worst(statuses) -> str:
    """The most severe status in an iterable (GREEN when empty)."""
    result = GREEN
    for status in statuses:
        if _SEVERITY[status] > _SEVERITY[result]:
            result = status
    return result


class RuleResult:
    """One health rule's verdict at one evaluation instant."""

    __slots__ = ("name", "status", "value", "threshold", "detail")

    def __init__(
        self, name: str, status: str, value: float,
        threshold: float, detail: str,
    ) -> None:
        self.name = name
        self.status = status
        self.value = value
        self.threshold = threshold
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "rule": self.name,
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }


class HealthReport:
    """Overall status plus every rule's verdict."""

    __slots__ = ("status", "ts", "results")

    def __init__(
        self, status: str, ts: float, results: list[RuleResult]
    ) -> None:
        self.status = status
        self.ts = ts
        self.results = results

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "ts": self.ts,
            "rules": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        lines = [f"health: {self.status.upper()}"]
        for r in self.results:
            lines.append(
                f"  [{r.status:>6}] {r.name:<18} "
                f"value={r.value:.4g} threshold={r.threshold:.4g}  "
                f"{r.detail}"
            )
        return "\n".join(lines)


class HealthMonitor:
    """Rolling-window threshold/ratio rules over raw run signals.

    Parameters are the rule thresholds; the defaults are tuned so a
    healthy Manners run stays green while a chaos run with a fault
    spike goes red (pinned by tests).

    Signal names the observer feeds (each ``record`` appends a
    ``(ts, value)`` pair and old pairs age out of the window):
    ``firing.committed``, ``firing.aborted``, ``retry.exhausted``,
    ``lock.wait_seconds``, ``storage.rotations``,
    ``storage.checkpoints``.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        window: float = 5.0,
        on_transition: Callable[[str, str, HealthReport], None] | None = None,
        abort_rate_yellow: float = 0.25,
        abort_rate_red: float = 0.5,
        retry_exhausted_yellow: int = 1,
        retry_exhausted_red: int = 3,
        lock_wait_share_yellow: float = 0.25,
        lock_wait_share_red: float = 0.5,
        wal_stall_rotations: int = 3,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.clock = clock if clock is not None else time.monotonic
        self.window = window
        self.on_transition = on_transition
        self.abort_rate_yellow = abort_rate_yellow
        self.abort_rate_red = abort_rate_red
        self.retry_exhausted_yellow = retry_exhausted_yellow
        self.retry_exhausted_red = retry_exhausted_red
        self.lock_wait_share_yellow = lock_wait_share_yellow
        self.lock_wait_share_red = lock_wait_share_red
        self.wal_stall_rotations = wal_stall_rotations
        self._mutex = threading.Lock()
        self._signals: dict[str, deque[tuple[float, float]]] = {}
        self._started = self.clock()
        self.status = GREEN
        #: (ts, old, new) transition log for post-hoc inspection.
        self.transitions: list[tuple[float, str, str]] = []

    def record(
        self, signal: str, value: float = 1.0, ts: float | None = None
    ) -> None:
        if ts is None:
            ts = self.clock()
        with self._mutex:
            series = self._signals.get(signal)
            if series is None:
                series = deque()
                self._signals[signal] = series
            series.append((ts, value))

    def _window_sum(self, signal: str, horizon: float) -> float:
        """Sum of a signal's values inside the window (prunes old)."""
        series = self._signals.get(signal)
        if not series:
            return 0.0
        while series and series[0][0] < horizon:
            series.popleft()
        return sum(value for _, value in series)

    def evaluate(self, ts: float | None = None) -> HealthReport:
        """Score every rule, update status, fire transition callback."""
        now = ts if ts is not None else self.clock()
        horizon = now - self.window
        with self._mutex:
            committed = self._window_sum("firing.committed", horizon)
            aborted = self._window_sum("firing.aborted", horizon)
            exhausted = self._window_sum("retry.exhausted", horizon)
            wait = self._window_sum("lock.wait_seconds", horizon)
            rotations = self._window_sum("storage.rotations", horizon)
            checkpoints = self._window_sum("storage.checkpoints", horizon)
        elapsed = min(self.window, max(1e-9, now - self._started))

        results: list[RuleResult] = []

        total = committed + aborted
        rate = aborted / total if total else 0.0
        status = GREEN
        if rate >= self.abort_rate_red:
            status = RED
        elif rate >= self.abort_rate_yellow:
            status = YELLOW
        results.append(RuleResult(
            "abort_rate", status, rate, self.abort_rate_red,
            f"{int(aborted)}/{int(total)} transactions failed in window",
        ))

        status = GREEN
        if exhausted >= self.retry_exhausted_red:
            status = RED
        elif exhausted >= self.retry_exhausted_yellow:
            status = YELLOW
        results.append(RuleResult(
            "retry_exhaustion", status, exhausted,
            float(self.retry_exhausted_red),
            f"{int(exhausted)} firings exhausted retries in window",
        ))

        share = wait / elapsed
        status = GREEN
        if share >= self.lock_wait_share_red:
            status = RED
        elif share >= self.lock_wait_share_yellow:
            status = YELLOW
        results.append(RuleResult(
            "lock_wait_share", status, share, self.lock_wait_share_red,
            f"{wait:.4f}s queued over {elapsed:.4f}s of window",
        ))

        status = GREEN
        if checkpoints == 0 and rotations >= self.wal_stall_rotations:
            status = RED
        elif checkpoints == 0 and rotations >= 2:
            status = YELLOW
        results.append(RuleResult(
            "wal_stall", status, rotations,
            float(self.wal_stall_rotations),
            f"{int(rotations)} WAL rotations, "
            f"{int(checkpoints)} checkpoints in window",
        ))

        overall = worst(r.status for r in results)
        report = HealthReport(overall, now, results)
        previous = self.status
        if overall != previous:
            self.status = overall
            self.transitions.append((now, previous, overall))
            if self.on_transition is not None:
                self.on_transition(previous, overall, report)
        return report
