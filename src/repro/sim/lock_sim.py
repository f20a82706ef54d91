"""Lock-level simulation: 2PL vs the Rc/Ra/Wa scheme.

Section 4.3's motivation: under 2PL, "read locks acquired for
evaluating the LHS are held more conservatively than necessary while
other productions ready for execution must wait for their release."
This simulation makes that cost measurable.  A batch of *firings* —
each with a condition read set, an action write set, a match duration
and an action duration — executes on ``Np`` processors under either
scheme, using the **real lock managers** from :mod:`repro.locks`:

* under ``"2pl"`` a writer blocks until every condition reader of its
  target objects commits;
* under ``"rc"`` the writer proceeds immediately (Wa bypasses Rc) and,
  at its commit, conflicting Rc holders abort (rule (ii)) or are
  revalidated, wasting their partial match work.

The benchmark ``bench_scheme_comparison.py`` sweeps workloads through
both and reports makespans, blocked time and aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import repro.obs as obs_module
from repro.errors import SimulationError
from repro.locks import SCHEMES
from repro.sim.gantt import ABORTED, COMMITTED, ExecutionTrace
from repro.sim.processor import ProcessorPool
from repro.txn.schedule import History
from repro.txn.transaction import Transaction

SchemeName = Literal["2pl", "rc", "c2pl"]


@dataclass(frozen=True)
class FiringSpec:
    """One production firing in the synthetic workload.

    ``reads`` are the objects the LHS examines (condition read set,
    locked ``Rc``/``R``); ``action_reads`` the objects the RHS *reads*
    (locked ``Ra``/``R`` at RHS start — the distinction matters: a
    condition-only read keeps its permissive ``Rc`` and can be bypassed
    by a writer, an action read cannot); ``writes`` the objects the RHS
    updates.  Durations are in virtual time units.
    """

    pid: str
    reads: frozenset
    writes: frozenset
    action_reads: frozenset = frozenset()
    match_time: float = 1.0
    act_time: float = 1.0

    @staticmethod
    def build(
        pid: str,
        reads: Sequence = (),
        writes: Sequence = (),
        action_reads: Sequence = (),
        match_time: float = 1.0,
        act_time: float = 1.0,
    ) -> "FiringSpec":
        return FiringSpec(
            pid,
            frozenset(reads),
            frozenset(writes),
            frozenset(action_reads),
            match_time,
            act_time,
        )


@dataclass
class LockSimResult:
    """Aggregate outcome of one lock-level simulation run."""

    scheme: str
    makespan: float
    committed: tuple[str, ...]
    aborted: tuple[str, ...]
    deadlock_aborts: int
    wasted_time: float
    blocked_time: float
    history: History
    trace: ExecutionTrace = field(repr=False, default=None)

    def throughput(self) -> float:
        """Committed firings per unit virtual time."""
        return len(self.committed) / self.makespan if self.makespan else 0.0


def _deadlock_victim(states, manager, discipline):
    """Find a waits-for cycle among stalled firings; return its
    youngest member (or ``None`` when acyclic)."""
    from repro.locks.modes import compatible

    blocked = [f for f in states.values() if f.phase == "wait_act"]
    edges: dict[str, set[str]] = {f.spec.pid: set() for f in blocked}
    by_pid = {f.spec.pid: f for f in blocked}
    for firing in blocked:
        needs = [
            (obj, discipline.action_read_mode)
            for obj in firing.spec.action_reads
        ] + [
            (obj, discipline.action_write_mode)
            for obj in firing.spec.writes
        ]
        for obj, mode in needs:
            for other in blocked:
                if other is firing:
                    continue
                held = manager.held_modes(other.txn, obj)
                if any(not compatible(mode, h) for h in held):
                    edges[firing.spec.pid].add(other.spec.pid)
    # Iterative DFS cycle search.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {pid: WHITE for pid in edges}
    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(edges[start])))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if color.get(succ, WHITE) == GRAY:
                    cycle = path[path.index(succ):]
                    return max(
                        (by_pid[p] for p in cycle),
                        key=lambda f: f.txn.start_order,
                    )
                if color.get(succ, WHITE) == WHITE:
                    color[succ] = GRAY
                    path.append(succ)
                    stack.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return None


class _Firing:
    """Mutable per-firing simulation state."""

    __slots__ = (
        "spec", "txn", "phase", "processor", "phase_start",
        "phase_end", "wait_since", "attempts",
    )

    def __init__(self, spec: FiringSpec, now: float) -> None:
        self.spec = spec
        self.txn = Transaction(rule_name=spec.pid)
        self.phase = "wait_match"
        self.processor: int | None = None
        self.phase_start = 0.0
        self.phase_end = 0.0
        self.wait_since = now
        self.attempts = 1

    def restart(self, now: float) -> None:
        """Re-enter as a parked firing: it re-matches only after the
        next commit event (the restart-after-conflicting-commit policy
        that keeps deadlock resolution from livelocking)."""
        self.txn = Transaction(rule_name=self.spec.pid)
        self.phase = "parked"
        self.processor = None
        self.wait_since = now
        self.attempts += 1


def simulate_lock_scheme(
    firings: Sequence[FiringSpec],
    processors: int,
    scheme: SchemeName = "2pl",
    restart_aborted: bool = False,
    max_steps: int = 200_000,
    observer=None,
) -> LockSimResult:
    """Execute ``firings`` under the chosen scheme on ``processors``.

    ``restart_aborted`` controls what happens to a production aborted
    by rule (ii): by default it is deactivated (its LHS was falsified —
    delete-set semantics); with ``True`` it re-matches and retries (the
    case where the update did *not* falsify it), which is the setting
    the revalidation ablation compares against.

    With a live observer the simulation emits virtual-time trace
    events (``sim.phase``/``sim.commit``/``sim.abort``/``sim.deadlock``)
    and blocked-time histograms alongside the lock manager's own
    events.
    """
    obs = observer if observer is not None else obs_module.get_observer()
    history = History()
    if scheme not in SCHEMES:
        raise SimulationError(f"unknown scheme {scheme!r}")
    discipline = SCHEMES[scheme](history=history, observer=obs)
    preclaims = getattr(discipline, "preclaims", False)

    pool = ProcessorPool(processors)
    trace = ExecutionTrace()
    states = {spec.pid: _Firing(spec, 0.0) for spec in firings}
    by_txn: dict[str, _Firing] = {}
    committed: list[str] = []
    aborted: list[str] = []
    deadlock_aborts = 0
    blocked_time = 0.0
    wasted_time = 0.0
    now = 0.0
    manager = discipline.manager

    def can_lock_condition(firing: _Firing) -> bool:
        if preclaims:
            # Conservative 2PL: the whole footprint must be free.
            read_ok = all(
                manager.can_grant(firing.txn, obj, discipline.condition_mode)
                for obj in sorted(
                    firing.spec.reads | firing.spec.action_reads, key=repr
                )
            )
            return read_ok and all(
                manager.can_grant(
                    firing.txn, obj, discipline.action_write_mode
                )
                for obj in sorted(firing.spec.writes, key=repr)
            )
        return all(
            manager.can_grant(firing.txn, obj, discipline.condition_mode)
            for obj in sorted(firing.spec.reads, key=repr)
        )

    def can_lock_action(firing: _Firing) -> bool:
        if preclaims:
            return True  # everything was acquired at match start
        for obj in sorted(firing.spec.action_reads, key=repr):
            if not manager.can_grant(
                firing.txn, obj, discipline.action_read_mode
            ):
                return False
        for obj in sorted(firing.spec.writes, key=repr):
            if not manager.can_grant(
                firing.txn, obj, discipline.action_write_mode
            ):
                return False
        return True

    def start_phase(firing: _Firing, phase: str, duration: float) -> None:
        nonlocal blocked_time
        firing.processor = pool.acquire(firing.spec.pid)
        blocked_time += now - firing.wait_since
        firing.phase = phase
        firing.phase_start = now
        firing.phase_end = now + duration
        if obs.enabled:
            obs.sim_observe("sim.blocked_vtime", now - firing.wait_since)
            obs.sim_event(
                now, "sim.phase", pid=firing.spec.pid, phase=phase,
                processor=firing.processor, until=firing.phase_end,
            )

    def dispatch() -> None:
        """Grant locks and processors to every waiter that can proceed.

        Lock-holding waiters (``wait_act``) are served before fresh
        matches: they are further along and giving them priority both
        mirrors a real scheduler and prevents an aborted-and-restarted
        reader from livelocking a writer it deadlocked with.
        """
        progressed = True
        while progressed:
            progressed = False
            for phase_wanted in ("wait_act", "wait_match"):
                for pid in sorted(states):
                    firing = states[pid]
                    if firing.phase != phase_wanted:
                        continue
                    if not pool.has_free():
                        return
                    if phase_wanted == "wait_act" and can_lock_action(
                        firing
                    ):
                        if not preclaims:
                            ok = discipline.try_lock_action(
                                firing.txn,
                                reads=firing.spec.action_reads,
                                writes=firing.spec.writes,
                            )
                            if not ok:  # pragma: no cover - guarded
                                raise SimulationError("action grant race")
                        start_phase(firing, "act", firing.spec.act_time)
                        progressed = True
                    elif phase_wanted == "wait_match" and can_lock_condition(
                        firing
                    ):
                        if preclaims:
                            ok = discipline.try_preclaim(
                                firing.txn,
                                reads=(
                                    firing.spec.reads
                                    | firing.spec.action_reads
                                ),
                                writes=firing.spec.writes,
                            )
                            if not ok:  # pragma: no cover - guarded
                                raise SimulationError("preclaim race")
                        else:
                            for obj in sorted(firing.spec.reads, key=repr):
                                if not discipline.try_lock_condition(
                                    firing.txn, obj
                                ):  # pragma: no cover
                                    raise SimulationError(
                                        "condition grant race"
                                    )
                        by_txn[firing.txn.txn_id] = firing
                        start_phase(firing, "match", firing.spec.match_time)
                        progressed = True

    def abort_firing(firing: _Firing, reason: str, *, restart: bool) -> None:
        """Abort a firing; all work done this attempt becomes waste."""
        nonlocal wasted_time
        if firing.processor is not None:
            pool.release(firing.processor)
            trace.record(
                firing.processor,
                firing.spec.pid,
                firing.phase_start,
                now,
                ABORTED,
            )
            wasted_time += now - firing.phase_start
            firing.processor = None
        if firing.phase in ("wait_act", "act"):
            # A completed match phase is also wasted on abort.
            wasted_time += firing.spec.match_time
        discipline.abort(firing.txn, reason)
        by_txn.pop(firing.txn.txn_id, None)
        if obs.enabled:
            obs.sim_event(
                now, "sim.abort", pid=firing.spec.pid, reason=reason,
                restart=restart,
            )
        if restart:
            firing.restart(now)
        else:
            firing.phase = "done"
            aborted.append(firing.spec.pid)

    dispatch()
    for _ in range(max_steps):
        running = [
            f for f in states.values() if f.phase in ("match", "act")
        ]
        waiting = [
            f
            for f in states.values()
            if f.phase in ("wait_match", "wait_act")
        ]
        parked = [f for f in states.values() if f.phase == "parked"]
        if not running and not waiting:
            if not parked:
                break
            # Only parked firings remain: wake them all (defensive —
            # normally a commit wakes them first).
            for firing in parked:
                firing.phase = "wait_match"
                firing.wait_since = now
            dispatch()
            continue
        if not running:
            # Stall: every waiter is lock-blocked — a deadlock.  Find a
            # waits-for cycle among the lock-holding waiters and abort
            # its youngest member, per Section 4.3's remark that
            # standard deadlock resolution applies unchanged.  (On a
            # true stall a cycle must exist: every blocked wait_act
            # firing waits on some lock-holding wait_act firing, and
            # the graph is finite.)
            victim = _deadlock_victim(states, manager, discipline)
            if obs.enabled and victim is not None:
                obs.sim_event(
                    now, "sim.deadlock", victim=victim.spec.pid
                )
            if victim is None:
                # Defensive: no cycle found — abort the youngest
                # lock-holder so the simulation cannot wedge.
                holders = [f for f in waiting if f.phase == "wait_act"]
                victim = max(
                    holders or waiting, key=lambda f: f.txn.start_order
                )
            deadlock_aborts += 1
            abort_firing(victim, "deadlock victim", restart=True)
            victim.wait_since = now
            dispatch()
            continue
        firing = min(
            running, key=lambda f: (f.phase_end, f.spec.pid)
        )
        now = firing.phase_end
        if firing.phase == "match":
            pool.release(firing.processor)
            trace.record(
                firing.processor,
                firing.spec.pid,
                firing.phase_start,
                now,
                COMMITTED,
            )
            firing.processor = None
            firing.phase = "wait_act"
            firing.wait_since = now
        else:  # act completes -> commit
            pool.release(firing.processor)
            trace.record(
                firing.processor,
                firing.spec.pid,
                firing.phase_start,
                now,
                COMMITTED,
            )
            firing.processor = None
            firing.phase = "done"
            outcome = discipline.commit(firing.txn)
            by_txn.pop(firing.txn.txn_id, None)
            committed.append(firing.spec.pid)
            if obs.enabled:
                obs.sim_event(
                    now, "sim.commit", pid=firing.spec.pid,
                    attempts=firing.attempts,
                )
            # A commit changes the database: parked victims re-match.
            for parked_firing in states.values():
                if parked_firing.phase == "parked":
                    parked_firing.phase = "wait_match"
                    parked_firing.wait_since = now
            for victim_txn in outcome.victims:
                victim = by_txn.get(victim_txn.txn_id)
                if victim is None:
                    continue
                abort_firing(
                    victim,
                    f"Rc-Wa conflict with {firing.spec.pid}",
                    restart=restart_aborted,
                )
        dispatch()
    else:
        raise SimulationError(f"exceeded {max_steps} simulation steps")

    return LockSimResult(
        scheme=scheme,
        makespan=now,
        committed=tuple(committed),
        aborted=tuple(aborted),
        deadlock_aborts=deadlock_aborts,
        wasted_time=wasted_time,
        blocked_time=blocked_time,
        history=history,
        trace=trace,
    )
