"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a *pure description* of which failures should
be injected where: it is a tuple of :class:`FaultSpec` rules plus a
seed.  Turning a plan into runtime behavior is the job of
:class:`~repro.fault.injector.FaultInjector` (one injector per run, so
plans can be shared and re-run).

Determinism contract
--------------------
Given the same plan and the same *sequence of site visits*, the same
faults fire.  The deterministic engines (:class:`ParallelEngine`,
:class:`MultiUserEngine`) visit sites in a fixed order, so a seeded
chaos run there is exactly reproducible.  Under real threads the visit
order is scheduler-dependent; for deterministic threaded scenarios use
``rate=1.0`` specs narrowed by ``rule``/``mode``/``obj`` filters (and
``max_hits``), which fire independently of visit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from repro.errors import ReproError

#: Where a fault can be injected.
#:
#: * ``lock_delay``  — stall a lock acquisition before it is issued;
#: * ``lock_deny``   — refuse a lock acquisition outright (the firing
#:   sees an unavailable lock, exactly like a timeout);
#: * ``abort_rhs``   — force the transaction to abort mid-RHS, as a
#:   rule-(ii) victim would;
#: * ``crash_commit``— kill the firing after its RHS executed but
#:   before its commit is recorded (rollback must recover);
#: * ``storage_fail``— fail a durable-store operation (a unit's WAL
#:   commit record, segment rotation, or checkpoint window;
#:   narrow with ``obj=<site>``).
FaultKind = Literal[
    "lock_delay", "lock_deny", "abort_rhs", "crash_commit", "storage_fail"
]

FAULT_KINDS: tuple[str, ...] = (
    "lock_delay", "lock_deny", "abort_rhs", "crash_commit", "storage_fail"
)

#: Kinds that apply at lock-acquisition sites.
LOCK_KINDS = frozenset({"lock_delay", "lock_deny"})


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: *kind* at matching sites, with probability *rate*.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Probability the fault fires at each matching site visit
        (1.0 = always).
    rule:
        Only sites belonging to a firing of this production.
    obj:
        Only sites whose data-object ``repr`` contains this substring:
        the locked object for lock kinds, the storage window name
        (``"checkpoint:rename"``, ``"wal:commit"``, ...) for
        ``storage_fail``.
    mode:
        Only lock sites requesting this lock mode, by name
        (``"Wa"``, ``"W"``, ...; lock kinds only).
    delay:
        Stall duration in seconds (``lock_delay`` only).
    max_hits:
        Stop firing after this many injections (``None`` = unbounded).
    """

    kind: str
    rate: float = 1.0
    rule: str | None = None
    obj: str | None = None
    mode: str | None = None
    delay: float = 0.05
    max_hits: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.delay < 0:
            raise ReproError(f"fault delay must be >= 0, got {self.delay}")

    def matches_site(
        self, rule: str, obj: object = None, mode: str | None = None
    ) -> bool:
        """Does this spec apply to a site visit?  (Rate not consulted.)"""
        if self.rule is not None and self.rule != rule:
            return False
        if self.obj is not None and self.obj not in repr(obj):
            return False
        if self.mode is not None and self.mode != mode:
            return False
        return True


class FaultPlan:
    """An immutable, seeded schedule of faults.

    >>> plan = FaultPlan([FaultSpec("lock_deny", rate=0.5)], seed=7)
    >>> plan.seed
    7
    """

    def __init__(
        self, specs: Iterable[FaultSpec] = (), seed: int = 0
    ) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.specs)
        return f"FaultPlan(seed={self.seed}, specs=[{kinds}])"

    def specs_for(self, kind: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def injector(self, observer=None, sleeper=None):
        """Build a runtime :class:`FaultInjector` for one run."""
        from repro.fault.injector import FaultInjector

        return FaultInjector(self, observer=observer, sleeper=sleeper)

    # -- convenience constructors ----------------------------------------------------

    @staticmethod
    def chaos(
        seed: int,
        rate: float,
        kinds: Sequence[str] = (
            "lock_deny", "abort_rhs", "crash_commit"
        ),
        delay: float = 0.01,
    ) -> "FaultPlan":
        """A uniform plan: every listed kind fires at ``rate``."""
        return FaultPlan(
            [FaultSpec(kind, rate=rate, delay=delay) for kind in kinds],
            seed=seed,
        )

    @staticmethod
    def none() -> "FaultPlan":
        """The empty plan (injects nothing)."""
        return FaultPlan((), seed=0)
