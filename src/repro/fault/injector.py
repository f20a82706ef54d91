"""The runtime half of fault injection.

A :class:`FaultInjector` binds one :class:`~repro.fault.plan.FaultPlan`
to one run: it owns the seeded RNG, the per-spec hit counters, the
sleeper used for injected delays, and the observability hookup (every
fired fault records a ``fault.<kind>`` event in the span it fired in
and bumps the ``fault.injected.<kind>`` counter).

Engines call one hook per fault site:

* :meth:`lock_fault` at every lock acquisition (may stall the caller,
  may return ``"deny"``);
* :meth:`rhs_abort` between lock acquisition and RHS execution;
* :meth:`crash_point` after RHS execution, before the commit is
  recorded (raises :class:`~repro.errors.FiringCrashed`);
* :meth:`storage_fault` before each durable-store write — one per
  committed unit (``wal:commit``), not per delta (raises
  :class:`~repro.errors.StorageFailure`).

All hooks are cheap no-ops when the plan has no matching spec, and the
whole injector is thread-safe (one mutex guards RNG + counters), so
the threaded executor can share one injector across firing threads.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from typing import Callable

import repro.obs as obs_module
from repro.errors import FiringCrashed, StorageFailure
from repro.fault.plan import FaultPlan, FaultSpec
from repro.txn.transaction import Transaction


class FaultInjector:
    """Executes a :class:`FaultPlan` against a running engine.

    Parameters
    ----------
    plan:
        The fault schedule to execute.
    observer:
        Observability sink; defaults to the module-level observer.
    sleeper:
        Callable used to realize ``lock_delay`` stalls.  Defaults to
        :func:`time.sleep`; deterministic engines pass a virtual-clock
        accumulator instead.
    """

    def __init__(
        self,
        plan: FaultPlan,
        observer=None,
        sleeper: Callable[[float], None] | None = None,
    ) -> None:
        self.plan = plan
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self.sleeper = sleeper if sleeper is not None else time.sleep
        self._rng = random.Random(plan.seed)
        self._mutex = threading.Lock()
        #: Injections fired so far, by kind.
        self.injected: Counter[str] = Counter()
        self._hits: Counter[int] = Counter()  # per-spec (by index)

    # -- decision core ---------------------------------------------------------------

    def _roll(
        self, kind: str, rule: str, obj: object = None,
        mode: str | None = None,
    ) -> FaultSpec | None:
        """First matching spec whose rate-roll fires, with accounting."""
        with self._mutex:
            for index, spec in enumerate(self.plan.specs):
                if spec.kind != kind:
                    continue
                if not spec.matches_site(rule, obj, mode):
                    continue
                if (
                    spec.max_hits is not None
                    and self._hits[index] >= spec.max_hits
                ):
                    continue
                if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                    continue
                self._hits[index] += 1
                self.injected[kind] += 1
                return spec
        return None

    def _emit(self, kind: str, txn_id: str, site: str, detail: str = ""):
        if self.obs.enabled:
            self.obs.fault_injected(kind, txn_id, site, detail)

    # -- fault sites -----------------------------------------------------------------

    def lock_fault(
        self, txn: Transaction, obj: object, mode: str
    ) -> str | None:
        """Fault site: one lock acquisition.

        Performs an injected stall inline (via the sleeper) and/or
        returns ``"deny"`` when the acquisition should be refused;
        returns ``None`` when the site is untouched.
        """
        rule = txn.rule_name
        spec = self._roll("lock_delay", rule, obj, mode)
        if spec is not None:
            self._emit(
                "lock_delay", txn.txn_id, f"{mode}({obj!r})",
                detail=f"delay={spec.delay}",
            )
            self.sleeper(spec.delay)
        if self._roll("lock_deny", rule, obj, mode) is not None:
            self._emit("lock_deny", txn.txn_id, f"{mode}({obj!r})")
            return "deny"
        return None

    def rhs_abort(self, txn: Transaction) -> bool:
        """Fault site: mid-RHS.  True when the firing must abort."""
        if self._roll("abort_rhs", txn.rule_name) is None:
            return False
        self._emit("abort_rhs", txn.txn_id, "rhs")
        return True

    def crash_point(self, txn: Transaction) -> None:
        """Fault site: post-RHS, pre-commit.  Raises to kill the firing."""
        if self._roll("crash_commit", txn.rule_name) is None:
            return
        self._emit("crash_commit", txn.txn_id, "pre-commit")
        raise FiringCrashed(txn.txn_id, txn.rule_name)

    def storage_fault(self, site: str = "wal") -> None:
        """Fault site: one durable-store operation.  Raises on injection.

        ``site`` names the window (``"wal:commit"``,
        ``"checkpoint:rename"``, ``"checkpoint:truncate"``, ...; see
        :data:`repro.wm.storage.STORAGE_FAULT_SITES`) and doubles as
        the spec's ``obj`` filter, so a plan can crash one specific
        window: ``FaultSpec("storage_fail", obj="checkpoint:rename")``.
        """
        if self._roll("storage_fail", rule="", obj=site) is None:
            return
        self._emit("storage_fail", "-", site)
        raise StorageFailure(f"injected storage failure at {site}")

    # -- accounting ------------------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def summary(self) -> dict[str, int]:
        """Injection counts by kind (stable key order)."""
        return {kind: self.injected[kind] for kind in sorted(self.injected)}
