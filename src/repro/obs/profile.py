"""Per-rule self-time profiler: where does each production spend its wall?

The paper's measurement question — match vs. lock vs. RHS — asked
continuously, per production, at production-run cost.  The profiler is
a pure aggregate: a dict of per-rule accumulators fed from the span
close hooks in the engines, so it works at every observer level
(including ``sampled`` runs where most span trees are dropped —
profiling sees *every* firing, sampling only thins the causal detail).

Four buckets per rule:

* ``match``   — recognize time.  Engine-level match latency lands on
  the ``(match)`` pseudo-rule because the matcher does not know which
  rule's candidates a wave will select; partitioned flush time is part
  of this window (or of the firing that triggered it) and is therefore
  *not* double-recorded here.
* ``lock_wait`` — time a rule's transaction spent queued for locks.
  Lock grants only know the transaction id, so waits park in a
  per-transaction pending table and are claimed by the next
  ``record_acquire``/``record_firing`` for that transaction — the
  call that *does* know the rule.
* ``acquire`` — lock acquisition self-time (acquire span duration
  minus the claimed lock wait).  Wave admission — deciding, from the
  ordered footprints, which candidates get to acquire at all — lands
  here on the ``(admit)`` pseudo-rule, for the same reason match time
  has one: it is work of the wave, not of one rule.
* ``rhs``     — right-hand-side execution self-time (firing span
  duration minus any wait claimed inside it — the threaded executor
  acquires locks inside the firing attempt).

``coverage()`` is the honesty check: attributed seconds over run wall
seconds.  The obs issue requires ≥ 0.9 on a Manners run; anything
lower means an engine phase is not reporting its close times.
"""

from __future__ import annotations

import threading

#: Attribution buckets, in display order.
BUCKETS = ("match", "lock_wait", "acquire", "rhs")

#: Pseudo-rule that owns engine-level match time.
MATCH_RULE = "(match)"

#: Pseudo-rule that owns wave-admission time.
ADMIT_RULE = "(admit)"


class RuleStats:
    """Accumulated self-time for one production."""

    __slots__ = ("rule", "firings", "match", "lock_wait", "acquire", "rhs")

    def __init__(self, rule: str) -> None:
        self.rule = rule
        self.firings = 0
        self.match = 0.0
        self.lock_wait = 0.0
        self.acquire = 0.0
        self.rhs = 0.0

    @property
    def total(self) -> float:
        return self.match + self.lock_wait + self.acquire + self.rhs

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "firings": self.firings,
            "total_seconds": self.total,
            "match": self.match,
            "lock_wait": self.lock_wait,
            "acquire": self.acquire,
            "rhs": self.rhs,
        }


class RuleProfiler:
    """Thread-safe per-rule time attribution.

    All mutation runs under one lock; every record call is a handful
    of float adds, cheap enough for the always-on ``sampled`` level.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._rules: dict[str, RuleStats] = {}
        #: Lock-wait seconds parked per transaction until a rule-aware
        #: close (acquire/firing) claims them.
        self._pending_wait: dict[str, float] = {}
        self.run_wall = 0.0
        self.runs = 0

    def _stats(self, rule: str) -> RuleStats:
        stats = self._rules.get(rule)
        if stats is None:
            stats = RuleStats(rule)
            self._rules[rule] = stats
        return stats

    # -- feeding (called from Observer hooks) ----------------------------------------------

    def record_wait(self, txn_id: str, seconds: float) -> None:
        """A lock grant reported ``seconds`` of queue wait for a txn."""
        if seconds <= 0.0:
            return
        with self._mutex:
            self._pending_wait[txn_id] = (
                self._pending_wait.get(txn_id, 0.0) + seconds
            )

    def record_match(self, seconds: float) -> None:
        """Engine-level match latency for one cycle."""
        with self._mutex:
            self._stats(MATCH_RULE).match += seconds

    def record_admit(self, seconds: float) -> None:
        """One wave's admission pass."""
        with self._mutex:
            self._stats(ADMIT_RULE).acquire += seconds

    def record_acquire(
        self, rule: str, txn_id: str, seconds: float
    ) -> None:
        """An acquire span closed: claim the txn's parked lock wait."""
        with self._mutex:
            wait = min(self._pending_wait.pop(txn_id, 0.0), seconds)
            stats = self._stats(rule)
            stats.lock_wait += wait
            stats.acquire += max(0.0, seconds - wait)

    def record_firing(
        self, rule: str, txn_id: str | None, seconds: float
    ) -> None:
        """A firing span closed: RHS self-time (minus waits inside it)."""
        with self._mutex:
            wait = 0.0
            if txn_id is not None:
                wait = min(self._pending_wait.pop(txn_id, 0.0), seconds)
            stats = self._stats(rule)
            stats.firings += 1
            stats.lock_wait += wait
            stats.rhs += max(0.0, seconds - wait)

    def record_run(self, wall_seconds: float) -> None:
        """A run span closed; wall time is the coverage denominator."""
        with self._mutex:
            self.runs += 1
            self.run_wall += wall_seconds

    # -- reading ---------------------------------------------------------------------------

    def attributed(self) -> float:
        """Total seconds attributed across all rules and buckets."""
        with self._mutex:
            return sum(s.total for s in self._rules.values())

    def coverage(self) -> float | None:
        """Attributed / run wall, or None before any run finished.

        Can exceed 1.0 under the threaded executor (thread self-times
        sum across cores); the acceptance bar is a floor, not a ceiling.
        """
        with self._mutex:
            if self.run_wall <= 0.0:
                return None
            total = sum(s.total for s in self._rules.values())
            return total / self.run_wall

    def top(self, n: int = 10) -> list[RuleStats]:
        """The ``n`` most expensive rules by total self-time."""
        with self._mutex:
            ranked = sorted(
                self._rules.values(), key=lambda s: s.total, reverse=True
            )
        return ranked[:n]

    def snapshot(self) -> dict:
        with self._mutex:
            rules = sorted(
                (s.to_dict() for s in self._rules.values()),
                key=lambda row: row["total_seconds"],
                reverse=True,
            )
            run_wall = self.run_wall
            runs = self.runs
            unclaimed = sum(self._pending_wait.values())
        attributed = sum(row["total_seconds"] for row in rules)
        return {
            "runs": runs,
            "run_wall_seconds": run_wall,
            "attributed_seconds": attributed,
            "coverage": (attributed / run_wall) if run_wall > 0 else None,
            "unclaimed_wait_seconds": unclaimed,
            "rules": rules,
        }

    def clear(self) -> None:
        with self._mutex:
            self._rules.clear()
            self._pending_wait.clear()
            self.run_wall = 0.0
            self.runs = 0


def render_profile(snapshot: dict, top_n: int = 10) -> str:
    """The ``repro obs profile`` table: top-N rules by self-time."""
    rules = snapshot["rules"][:top_n]
    lines = []
    run_wall = snapshot["run_wall_seconds"]
    coverage = snapshot["coverage"]
    lines.append(
        f"runs={snapshot['runs']}  wall={run_wall:.6f}s  "
        f"attributed={snapshot['attributed_seconds']:.6f}s"
        + (f"  coverage={coverage:.1%}" if coverage is not None else "")
    )
    header = (
        f"{'rule':<28} {'firings':>7} {'total':>10} {'match':>10} "
        f"{'lock_wait':>10} {'acquire':>10} {'rhs':>10} {'share':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rules:
        total = row["total_seconds"]
        share = total / run_wall if run_wall > 0 else 0.0
        lines.append(
            f"{row['rule']:<28.28} {row['firings']:>7} {total:>10.6f} "
            f"{row['match']:>10.6f} {row['lock_wait']:>10.6f} "
            f"{row['acquire']:>10.6f} {row['rhs']:>10.6f} {share:>6.1%}"
        )
    if not rules:
        lines.append("(no attributed time)")
    return "\n".join(lines)
