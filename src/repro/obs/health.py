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
  the window: the storage layer is growing its log without ever
  truncating it.

Each rule is a row of :data:`RULES` — its name, its yellow and red
thresholds and the format of its detail line — graded over the last
:data:`WINDOW_S` seconds.  Signals arrive via
:meth:`HealthMonitor.record` (the Observer feeds them from step closes
and events); :meth:`evaluate` prunes each window,
grades every rule in one loop over :data:`RULES`, and returns a
:class:`HealthReport`.  Status transitions are logged in
:attr:`HealthMonitor.transitions` and invoke ``on_transition``, so the
observer can record a ``health.transition`` event — the audit trail of
*when* a run went red and which rule pushed it there.
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

#: Seconds of signal every evaluation looks back over.
WINDOW_S = 5.0

#: ``(rule, yellow, red, detail)``: a rule whose graded value reaches a
#: threshold has that status.  Tuned so a healthy Manners run stays
#: green while a chaos run with a fault spike goes red (pinned by
#: tests).  A rule reports its red threshold as ``threshold``, and
#: ``detail`` formats its window's numbers when a report is read.
RULES = (
    ("abort_rate", 0.25, 0.5, "{:.0f}/{:.0f} transactions failed in window"),
    ("retry_exhaustion", 1, 3, "{:.0f} firings exhausted retries in window"),
    ("lock_wait_share", 0.25, 0.5, "{:.4f}s queued over {:.4f}s of window"),
    ("wal_stall", 2, 3, "{:.0f} WAL rotations, {:.0f} checkpoints in window"),
)

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
    """One health rule's verdict at one evaluation instant.  An
    evaluation runs every wave and is rarely read, so ``detail`` is
    formatted from the window's numbers only when read."""

    __slots__ = ("name", "status", "value", "threshold", "_format", "_numbers")

    def __init__(
        self, name: str, status: str, value: float,
        threshold: float, format_: str, numbers: tuple,
    ) -> None:
        self.name = name
        self.status = status
        self.value = value
        self.threshold = threshold
        self._format = format_
        self._numbers = numbers

    @property
    def detail(self) -> str:
        return self._format.format(*self._numbers)

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

    Every rule is one row of :data:`RULES`, graded over the last
    :data:`WINDOW_S` seconds of signal.

    Signal names the observer feeds (each ``record`` appends a
    ``(ts, value)`` pair and old pairs age out of the window):
    ``firing.committed``, ``firing.aborted``, ``retry.exhausted``,
    ``lock.wait_seconds``, ``storage.rotations``,
    ``storage.checkpoints``.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        on_transition: Callable[[str, str, HealthReport], None] | None = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.on_transition = on_transition
        self._mutex = threading.Lock()
        #: signal -> [its (ts, value) pairs in the window, their sum]
        self._signals: dict[str, list] = {}
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
            entry = self._signals.get(signal)
            if entry is None:
                entry = self._signals[signal] = [deque(), 0.0]
            entry[0].append((ts, value))
            entry[1] += value

    def _window_sum(self, signal: str, horizon: float) -> float:
        """Sum of a signal's values inside the window (prunes old).
        A running total: an evaluation per wave rescans nothing."""
        entry = self._signals.get(signal)
        if entry is None:
            return 0.0
        series = entry[0]
        while series and series[0][0] < horizon:
            entry[1] -= series.popleft()[1]
        if not series:
            entry[1] = 0.0
        return entry[1]

    def evaluate(self, ts: float | None = None) -> HealthReport:
        """Score every rule, update status, fire transition callback."""
        now = ts if ts is not None else self.clock()
        horizon = now - WINDOW_S
        with self._mutex:
            committed = self._window_sum("firing.committed", horizon)
            aborted = self._window_sum("firing.aborted", horizon)
            exhausted = self._window_sum("retry.exhausted", horizon)
            wait = self._window_sum("lock.wait_seconds", horizon)
            rotations = self._window_sum("storage.rotations", horizon)
            checkpoints = self._window_sum("storage.checkpoints", horizon)
        elapsed = min(WINDOW_S, max(1e-9, now - self._started))
        total = committed + aborted
        rate = aborted / total if total else 0.0
        share = wait / elapsed
        # rule -> (reported value, graded value, detail's numbers)
        measured = {
            "abort_rate": (rate, rate, (aborted, total)),
            "retry_exhaustion": (exhausted, exhausted, (exhausted,)),
            "lock_wait_share": (share, share, (wait, elapsed)),
            # A checkpoint in the window means the log is truncating.
            "wal_stall": (
                rotations, 0.0 if checkpoints else rotations,
                (rotations, checkpoints),
            ),
        }
        results: list[RuleResult] = []
        for name, yellow, red, detail in RULES:
            value, graded, numbers = measured[name]
            status = (
                RED if graded >= red else YELLOW if graded >= yellow
                else GREEN
            )
            results.append(
                RuleResult(name, status, value, float(red), detail, numbers)
            )

        overall = worst(r.status for r in results)
        report = HealthReport(overall, now, results)
        previous = self.status
        if overall != previous:
            self.status = overall
            self.transitions.append((now, previous, overall))
            if self.on_transition is not None:
                self.on_transition(previous, overall, report)
        return report
