"""Lock-manager substrate and the paper's novel Rc/Ra/Wa scheme.

Two concurrency-control disciplines are provided, both centralized as
in Section 4.2 ("an example of such a scheme, using a centralized lock
manager"):

* :class:`~repro.locks.two_phase.TwoPhaseScheme` — standard strict 2PL
  with shared read and exclusive write locks (Figure 4.1; proved
  semantically consistent by Theorem 2).
* :class:`~repro.locks.rc_scheme.RcScheme` — the improved scheme of
  Section 4.3 with three modes: ``Rc`` (read for condition
  evaluation), ``Ra`` (read for action) and ``Wa`` (write for action).
  Its compatibility matrix (Table 4.1) *allows* the ``Rc``–``Wa``
  conflict, and restores correctness with the commit-time rule: when a
  ``Wa`` holder commits first, every production holding a conflicting
  ``Rc`` lock is aborted (or optionally revalidated).

Both are built on the same :class:`~repro.locks.manager.LockManager`
core (grant queues, upgrades, deadlock detection) — the paper's point
that the new scheme "requires minor modifications to conventional lock
managers".
"""

from repro._lazy import lazy_exports
from repro.locks.rc_scheme import RcScheme
from repro.locks.two_phase import ConservativeTwoPhaseScheme, TwoPhaseScheme

#: The lock schemes by name — the one registry that engines and
#: simulators read (and that the CLI's ``choices`` are pinned to).
SCHEMES: dict[str, type[TwoPhaseScheme] | type[RcScheme]] = {
    cls.name: cls
    for cls in (RcScheme, TwoPhaseScheme, ConservativeTwoPhaseScheme)
}

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "modes": (
            "LockMode", "compatible", "COMPATIBILITY",
            "TWO_PHASE_COMPATIBILITY", "table_4_1",
        ),
        "request": ("LockRequest", "LockGrant", "RequestStatus"),
        "manager": ("LockManager", "GrantOutcome"),
        "deadlock": (
            "DeadlockDetector", "VictimPolicy", "youngest_victim",
            "oldest_victim", "most_locks_victim",
            "make_fewest_locks_victim", "resolve_victim_policy",
        ),
        "escalation": ("EscalationPolicy",),
        "prevention": ("WoundWait", "WaitDie", "acquire_with_prevention"),
    },
)
__all__ += [
    "SCHEMES", "TwoPhaseScheme", "ConservativeTwoPhaseScheme", "RcScheme",
]
