"""Fault injection and retry: the robustness layer.

The paper's semantic-consistency claim (``ES_M ⊆ ES_single``,
Definitions 3.1/3.2) is demonstrated *under adversity* by injecting
failures on purpose — denied and delayed lock grants, forced mid-RHS
aborts, firings killed before commit, failed durable-store writes —
and asserting that every committed firing sequence still replays
single-threaded.

* :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, seeded
  description of which faults fire where.
* :class:`FaultInjector` — the runtime that executes a plan against an
  engine (one per run; thread-safe).
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  seeded jitter, used by the engines to re-drive timed-out/aborted
  firings instead of silently deferring them.
* :class:`VirtualSleeper` — virtual time for deterministic backoff.
* :mod:`repro.fault.storage_chaos` — the crash-equivalence sweep that
  crashes the durable store at every commit/checkpoint/rotation/
  compaction window, under raw operations and
  (:mod:`repro.fault.firing_chaos`, not exported here: it needs the
  engines) under the engines, and proves recovery lands on a
  commit-sequence prefix.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "plan": (
            "FAULT_KINDS", "LOCK_KINDS", "FaultKind", "FaultPlan", "FaultSpec",
        ),
        "injector": ("FaultInjector",),
        "retry": ("RetryPolicy", "NO_RETRY", "VirtualSleeper"),
        "storage_chaos": (
            "CrashCase", "SweepResult", "crash_equivalence_sweep",
            "memory_signature", "run_crash_case",
        ),
    },
)
