"""The firing contract, asserted once over every transactional executor.

One matrix — executor x lock scheme x matcher x fault plan x program —
whose every cell asserts the same four things:

1. the commit sequence replays single-threaded (Definition 3.2,
   ``replay_commit_sequence`` on a matcher the run did not use);
2. every commit was certified serial (Theorem 2) and the engine's
   history — the threaded executor's lock manager's, or the one rebuilt
   from the certifier — is conflict-serializable;
3. a fault-free run ends quiescent with the workload's pinned firing
   count and the program's own post-condition;
4. teardown is clean: no held locks, no queued requests, no child
   processes, no live ``firing-*`` threads.

A deterministic cell (``parallel``, ``multiuser``) decides its grants
from footprints; it is also run through the lock-taking reference
(``tests/engine/locking_reference.py``), which must make the same
waves with a serializable history.

A ``durable`` axis runs the same cells with a store attached and adds:
the recovered database equals the live one, the log holds the loaded
facts plus exactly one record per commit, and the rules read back from
it are the commit sequence (log order = commit order — what fails if a
record is written after the locks are released under real threads).

Programs and checks are taken read-only from ``benchmarks/e2e`` at
smoke size, so the benchmark and tier-1 judge a run by the same rules.
Only ``build`` and ``collect`` know how an executor is constructed and
what its ``run()`` returns; the assertions never look at the class.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "tests" / "engine"))
import checks  # noqa: E402
import run as e2e  # noqa: E402
from locking_reference import (  # noqa: E402
    LockingMultiUserEngine,
    LockingParallelEngine,
    wave_outcomes,
)

from repro.engine import (  # noqa: E402
    MultiUserEngine,
    ParallelEngine,
    RunResult,
    Session,
    ThreadedWaveExecutor,
)
from repro.fault import (  # noqa: E402
    FaultPlan,
    RetryPolicy,
    VirtualSleeper,
    memory_signature,
)
from repro.lang import parse_program  # noqa: E402
from repro.txn.serializability import (  # noqa: E402
    is_conflict_serializable,
)
from repro.wm import DurableStore, WMSnapshot, WorkingMemory  # noqa: E402

SEED = 11
FAULT_RATE = 0.15
EXECUTORS = ("parallel", "multiuser", "threaded")
SCHEMES = ("rc", "2pl", "c2pl")
MATCHERS = ("rete", "partitioned:rete:2:serial")
#: program -> the e2e workload whose generator and reference it uses.
PROGRAMS = {
    "lanes": "hot_rc", "orders": "orders_durable", "manners": "manners_rc",
}

#: The write-skew case of SNIPPETS.md's 2PL demo: two on-call rows, one
#: rule that reads both and writes its own, so both instantiations hold
#: a read lock on both rows and want the S->X upgrade on one.  In
#: ``ES_single`` the first firing falsifies the second.
ON_CALL = {
    "program": "on_call",
    "rules": """
(p go-off-call
   (doctor ^name <a> ^on_call "yes")
   (doctor ^name <b> ^name <> <a> ^on_call "yes")
   -->
   (modify 1 ^on_call "no"))
""",
    "facts": [
        ("doctor", {"name": "alice", "on_call": "yes"}),
        ("doctor", {"name": "bob", "on_call": "yes"}),
    ],
    "engine": {"strategy": "lex", "processors": None},
}


def build(
    executor: str, spec: dict, scheme: str, matcher: str, chaos: bool,
    memory: WorkingMemory | None = None, reference: bool = False,
):
    """``(engine, rules, memory)`` for one cell, the facts loaded into
    ``memory`` (a fresh one by default); ``reference`` swaps in the
    lock-taking twin of a deterministic executor."""
    rules = parse_program(spec["rules"])
    if memory is None:
        memory = WorkingMemory(thread_safe=executor == "threaded")
    for relation, values in spec["facts"]:
        memory.make(relation, values)
    options = {"scheme": scheme, "matcher": matcher}
    if chaos:
        options["fault_injector"] = FaultPlan.chaos(
            SEED, FAULT_RATE
        ).injector(sleeper=VirtualSleeper())
        options["retry_policy"] = RetryPolicy(
            max_attempts=4, base_delay=0.0005, seed=SEED
        )
    config = spec["engine"]
    if executor == "parallel":
        cls = LockingParallelEngine if reference else ParallelEngine
        engine = cls(
            rules, memory, strategy=config["strategy"],
            processors=config.get("processors"), **options,
        )
    elif executor == "multiuser":
        half = (len(rules) + 1) // 2
        cls = LockingMultiUserEngine if reference else MultiUserEngine
        engine = cls(
            [Session.of("ann", rules[:half]),
             Session.of("bo", rules[half:])],
            memory, base_strategy=config["strategy"],
            processors=config.get("processors"), **options,
        )
    else:
        engine = ThreadedWaveExecutor(
            rules, memory, lock_timeout=5.0, **options
        )
    return engine, rules, memory


def collect(engine, max_waves: int = 2_000) -> tuple[RunResult, int]:
    """Run to the end and close; returns the run's result and how many
    times a candidate lost its wave: aborted, deferred, or — where the
    wave decides rule (ii) at admission — held back unlocked."""
    with engine:
        result = engine.run(max_waves)
    return result, sum(
        len(w.aborted) + len(w.deferred) + len(w.held)
        for w in engine.waves
    )


def assert_contract(engine, rules, snapshot, result) -> None:
    """Assertions 1, 2 and 4 — what holds under any fault plan."""
    failures, _ = checks.check_replay(snapshot, rules, result.firings)
    assert failures == []
    assert engine.certifier.commits == len(result.firings)
    assert is_conflict_serializable(engine.history)
    assert checks.check_teardown(engine) == []
    assert [
        t.name for t in threading.enumerate()
        if t.name.startswith("firing-")
    ] == []


def cells():
    for program in PROGRAMS:
        for executor in EXECUTORS:
            for scheme in SCHEMES:
                for matcher in MATCHERS:
                    for chaos in (False, True):
                        yield pytest.param(
                            program, executor, scheme, matcher, chaos,
                            id="-".join((
                                program, executor, scheme,
                                matcher.split(":")[0],
                                "chaos" if chaos else "clean",
                            )),
                        )


@pytest.mark.parametrize("program,executor,scheme,matcher,chaos", cells())
def test_firing_contract(program, executor, scheme, matcher, chaos):
    spec = e2e.build_spec(PROGRAMS[program], SEED, smoke=True)
    engine, rules, memory = build(executor, spec, scheme, matcher, chaos)
    snapshot = WMSnapshot.capture(memory)
    result, _ = collect(engine)
    assert_contract(engine, rules, snapshot, result)
    if chaos:
        assert engine.fault.total_injected > 0  # the plan did bite
    else:
        assert checks.check_outcome(spec, result, memory) == []
    if executor != "threaded":
        twin, _, _ = build(
            executor, spec, scheme, matcher, chaos, reference=True
        )
        collect(twin)
        assert wave_outcomes(twin) == wave_outcomes(engine)
        assert [r.value_identities for r in twin.result.firings] == [
            r.value_identities for r in result.firings
        ]
        assert is_conflict_serializable(twin.history)
        assert checks.check_teardown(twin) == []


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_durable_firing_contract(
    tmp_path, wal_records, program, executor, scheme, chaos
):
    spec = e2e.build_spec(PROGRAMS[program], SEED, smoke=True)
    # Attached before the facts load, as the benchmark attaches it; the
    # engine never learns of it.
    memory = WorkingMemory(thread_safe=executor == "threaded")
    with DurableStore(memory, tmp_path, durability="none"):
        engine, rules, _ = build(
            executor, spec, scheme, "rete", chaos, memory
        )
        snapshot = WMSnapshot.capture(memory)
        result, _ = collect(engine)
    assert_contract(engine, rules, snapshot, result)
    records = wal_records(tmp_path)
    loaded = len(spec["facts"])
    assert len(records) == loaded + len(result.firings)
    assert [r["rule"] for r in records[loaded:]] == [
        r.rule_name for r in result.firings
    ]
    recovered, store = DurableStore.open(tmp_path, durability="none")
    store.close()
    assert store.lsn == len(records)
    assert memory_signature(recovered) == memory_signature(memory)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_upgrade_conflict_commits_exactly_once(executor, scheme):
    """Both readers want the upgrade; one commits, the other must be
    seen to lose (abort, deferral, deadlock victim or hold-back) —
    never two commits, which would leave nobody on call."""
    engine, rules, memory = build(executor, ON_CALL, scheme, "rete", False)
    snapshot = WMSnapshot.capture(memory)
    result, lost = collect(engine)
    assert_contract(engine, rules, snapshot, result)
    assert len(result.firings) == 1
    assert lost >= 1
    assert result.stop_reason == "quiescent"
    on_call = [w["name"] for w in memory.elements("doctor")
               if w["on_call"] == "yes"]
    assert len(on_call) == 1
