"""A deterministic wave decides its grants from footprints.

``ParallelEngine`` takes no lock: under ``Rc`` nothing is refused,
under 2PL a writer is deferred iff a slot still holding its condition
locks reads what it writes, under c2pl a preclaim is refused iff it
meets an unsettled slot's footprint (the engine's module docstring,
"Grants from footprints").  The judge is the driver this replaced,
kept in ``locking_reference.py``: every lock requested from the real
manager, rule (ii) at commit.  Every cell below runs both and requires
the same waves — committed, deferred, aborted, held, ordered — the
same commit sequence, a serializable reference history and nothing
left granted.

The engine's own serializability witness is the certifier; the last
part checks it against the precedence-graph oracle and against two
planted driver bugs.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, reject, settings, strategies as st
from locking_reference import (
    LockingMultiUserEngine,
    LockingParallelEngine,
    wave_outcomes,
)
from test_admission import (
    CYCLE,
    E2E_PROGRAMS,
    FIXTURES,
    GAUGE,
    PROCESSORS,
    STRATEGIES,
    _RELATIONS,
    _facts,
    _random_program,
    build,
    program,
)

from repro.engine import MultiUserEngine, ParallelEngine
from repro.errors import NotSerializable, UnknownElementError
from repro.fault import FaultPlan, FaultSpec, RetryPolicy, VirtualSleeper
from repro.txn import Certifier, History
from repro.txn.serializability import (
    equivalent_to_commit_order,
    is_conflict_serializable,
)
from repro.txn.schedule import COMMIT, WRITE

SCHEMES = ("rc", "2pl", "c2pl")
TWINS = {
    ParallelEngine: LockingParallelEngine,
    MultiUserEngine: LockingMultiUserEngine,
}


def run_both(cls, rules, facts, max_waves=2_000, faults=None, **options):
    """``(engine, reference)``, each run on its own copy of the facts;
    ``faults`` builds a fresh injector (and retry policy) per run."""
    runs = []
    for engine_class in (cls, TWINS[cls]):
        extra = faults() if faults is not None else {}
        engine, _, _ = build(engine_class, rules, facts, **options, **extra)
        with engine:
            engine.run(max_waves)
        runs.append(engine)
    return runs


def assert_same_waves(engine, reference) -> None:
    assert wave_outcomes(engine) == wave_outcomes(reference)
    assert [r.value_identities for r in engine.result.firings] == [
        r.value_identities for r in reference.result.firings
    ]
    assert engine.result.stop_reason == reference.result.stop_reason
    assert engine.certifier.commits == len(engine.result.firings)
    # Nothing left in either table, and the history the certifier
    # rebuilds holds what the reference's manager granted the committed
    # firings, serializably.
    for twin in (engine, reference):
        assert twin.scheme.manager.grant_table() == {}
        assert twin.scheme.manager.waiting_requests() == []
    assert is_conflict_serializable(engine.history)
    assert is_conflict_serializable(reference.history)
    assert committed_footprints(engine.history) == committed_footprints(
        reference.history
    )


def committed_footprints(history) -> list[tuple[set, set]]:
    """Each committed transaction's (read, written) objects, in commit
    order."""
    sets: dict = {}
    for op in history.committed_projection():
        if op.kind != COMMIT:
            sets.setdefault(op.txn_id, (set(), set()))[
                op.kind == WRITE
            ].add(op.obj)
    return [sets.get(txn, (set(), set())) for txn in history.commit_order()]


# -- the admission cells, under every scheme ------------------------------------------


@pytest.mark.parametrize("processors", PROCESSORS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "name", [*E2E_PROGRAMS, "on_call", "figure_4_4", "figure_4_3"]
)
def test_footprints_make_the_reference_waves(
    name, scheme, strategy, processors
):
    engine, reference = run_both(
        ParallelEngine, *program(name), scheme=scheme, strategy=strategy,
        processors=processors,
    )
    assert engine.result.stop_reason == "quiescent"
    assert_same_waves(engine, reference)


@pytest.mark.parametrize("processors", [None, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", [*E2E_PROGRAMS, *FIXTURES])
def test_multiuser_footprints_make_the_reference_waves(
    name, scheme, processors
):
    engine, reference = run_both(
        MultiUserEngine, *program(name), scheme=scheme,
        processors=processors,
    )
    assert_same_waves(engine, reference)


def test_2pl_defers_the_writer_its_readers_block():
    """The writer ranks first and three unsettled readers hold ``R`` on
    its gauge: deferred, as the manager deferred it."""
    engine, reference = run_both(
        ParallelEngine, *GAUGE, scheme="2pl", strategy="priority"
    )
    assert engine.waves[0].deferred == ["bump"]
    assert engine.waves[0].committed == ["work"] * 3
    assert_same_waves(engine, reference)


def test_c2pl_refuses_a_preclaim_meeting_a_granted_footprint():
    engine, reference = run_both(
        ParallelEngine, *CYCLE, scheme="c2pl", strategy="priority"
    )
    assert engine.waves[0].committed == ["bump"]
    assert engine.waves[0].deferred == ["rebump"]
    assert_same_waves(engine, reference)


# -- fault plans -------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", [*E2E_PROGRAMS, "on_call"])
def test_fault_plans_hit_the_same_sites(name, scheme, seed):
    """Seeded chaos: a fault site stands for a lock request, visited in
    lock order, so both drivers meet the same rolls."""

    def faults():
        return {
            "fault_injector": FaultPlan.chaos(seed, 0.15).injector(
                sleeper=VirtualSleeper()
            ),
            "retry_policy": RetryPolicy(
                max_attempts=4, base_delay=0.0005, seed=seed
            ),
        }

    engine, reference = run_both(
        ParallelEngine, *program(name), scheme=scheme, faults=faults
    )
    assert engine.fault.injected == reference.fault.injected
    assert engine.gave_up == reference.gave_up
    assert_same_waves(engine, reference)


def test_fault_sites_are_visited_in_lock_order():
    plan = FaultPlan.chaos(1, 0.15)
    engine, _, _ = build(
        ParallelEngine, *program("orders"), scheme="2pl",
        fault_injector=plan.injector(sleeper=VirtualSleeper()),
    )
    asked: list = []
    lock_fault = engine.fault.lock_fault

    def logged(txn, obj, mode):
        asked.append((txn.txn_id, mode, obj))
        return lock_fault(txn, obj, mode)

    engine.fault.lock_fault = logged
    with engine:
        engine.run(50)
    runs: dict = {}
    for txn_id, mode, obj in asked:
        runs.setdefault((txn_id, mode), []).append(obj)
    assert any(len(objs) > 1 for objs in runs.values())
    assert all(objs == sorted(objs, key=repr) for objs in runs.values())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("fixture", ["gauge", "cycle"])
def test_denied_locks_settle_as_before(fixture, scheme):
    rules, facts = {"gauge": GAUGE, "cycle": CYCLE}[fixture]

    def faults():
        plan = FaultPlan([FaultSpec("lock_deny", rule="bump", max_hits=3)])
        return {"fault_injector": plan.injector()}

    engine, reference = run_both(
        ParallelEngine, rules, facts, max_waves=12, faults=faults,
        scheme=scheme, strategy="priority",
    )
    assert engine.fault.total_injected == 3
    assert_same_waves(engine, reference)


@given(
    rules=_random_program(),
    facts=_facts,
    scheme=st.sampled_from(SCHEMES),
    strategy=st.sampled_from((*STRATEGIES, "random")),
    processors=st.sampled_from((None, 1, 2, 3)),
)
@settings(max_examples=60, deadline=None)
def test_random_programs_make_the_reference_waves(
    rules, facts, scheme, strategy, processors
):
    seeded = [(relation, {"k": 1, "v": 1}) for relation in _RELATIONS]
    try:
        engine, reference = run_both(
            ParallelEngine, rules, seeded + facts, max_waves=8,
            scheme=scheme, strategy=strategy, processors=processors,
            seed=3,
        )
    except UnknownElementError:
        # A self-join matched one element at two ``modify`` targets.
        reject()
    assert_same_waves(engine, reference)


# -- the certifier ---------------------------------------------------------------------


def test_certifier_names_both_firings_and_the_object():
    certifier = Certifier()
    read_at = certifier.commits
    certifier.check("writer", 0, ["x"])
    certifier.commit("writer", "T1", 0, ("x",), ("q",))
    certifier.check("unrelated", read_at, ["x"])
    with pytest.raises(NotSerializable, match=r"reader read 'q'.*\(writer\)"):
        certifier.check("reader", read_at, ["x", "q"])
    # Reads taken after the write are fine.
    certifier.check("reader", certifier.commits, ["q"])
    assert certifier.commits == 1


@st.composite
def _engine_histories(draw):
    """Firings of one-at-a-time commits: each reads a set of objects at
    one point and writes a set at its commit, or never commits."""
    objects = ("p", "q", "r")
    count = draw(st.integers(1, 5))
    firings = [
        (draw(st.sets(st.sampled_from(objects), max_size=2)),
         draw(st.sets(st.sampled_from(objects), max_size=2)),
         draw(st.booleans()))
        for _ in range(count)
    ]
    events = [("read", i) for i in range(count)]
    events += [("commit", i) for i, f in enumerate(firings) if f[2]]
    order = draw(st.permutations(events))
    # A firing reads before it commits.
    seen: set = set()
    for kind, i in order:
        if kind == "commit" and i not in seen:
            reject()
        seen.add(i)
    return firings, order


@given(_engine_histories())
@settings(max_examples=300, deadline=None)
def test_certifier_agrees_with_the_precedence_graph(drawn):
    """Accepted iff commit order is a topological order of the
    committed projection's precedence graph (Definition 3.2 constrains
    the commit sequence).  Histories with an overwritten read are drawn
    too; those it must reject, at the offending commit."""
    firings, order = drawn
    history, certifier = History(), Certifier()
    read_at: dict = {}
    accepted = True
    for kind, i in order:
        reads, writes, _ = firings[i]
        name = f"t{i}"
        if kind == "read":
            read_at[i] = certifier.commits
            for obj in sorted(reads):
                history.read(name, obj)
            continue
        for obj in sorted(writes):
            history.write(name, obj)
        history.commit(name)
        if accepted:
            try:
                certifier.check(name, read_at[i], reads)
            except NotSerializable:
                accepted = False
            else:
                certifier.commit(
                    name, name, read_at[i], tuple(sorted(reads)),
                    tuple(sorted(writes)),
                )
    in_order = equivalent_to_commit_order(history)
    assert accepted == in_order
    if in_order:
        assert is_conflict_serializable(history)
        # The certifier's own history is the committed projection, up
        # to where uncommitted reads fell.
        rebuilt = certifier.history()
        assert committed_footprints(rebuilt) == committed_footprints(history)
        assert is_conflict_serializable(rebuilt)


#: ``w`` out-ranks ``t`` and makes a ``b`` that ``t``'s negated element
#: does not match: ``t`` stays eligible, and only the catalog key of
#: ``b`` — ``w`` writes it, ``t`` reads it — orders the pair.
CATALOG_PAIR = (
    """
(p w 10 (a ^id 2) --> (make b ^x 7))
(p t 0 (a ^id 1) -(b ^x 5) --> (make c ^id 1))
""",
    [("a", {"id": 1}), ("a", {"id": 2})],
)


@pytest.mark.parametrize("scheme", ["rc", "2pl"])
def test_certifier_catches_a_driver_that_lets_the_writer_through(
    scheme, monkeypatch
):
    """Two planted bugs, one per scheme: under 2PL the writer is never
    deferred, under ``Rc`` admission keeps rank order.  Either way the
    writer commits before the reader it should follow, the reader is
    still in the conflict set, and the certifier refuses its commit."""
    engine, _, _ = build(
        ParallelEngine, *CATALOG_PAIR, scheme=scheme, strategy="priority"
    )
    if scheme == "2pl":
        monkeypatch.setattr(engine, "_lock_action", lambda txn, w: True)
    else:
        monkeypatch.setattr(
            engine, "_admit",
            lambda wave, ranking, width, cycle: list(islice(ranking, width)),
        )
    before = engine.memory.value_identity_set()
    with engine, pytest.raises(NotSerializable, match=r"t read .*\(w\)"):
        engine.run()
    (wave,) = engine.waves
    assert wave.committed == ["w"] and wave.aborted == ["t"]
    # The refused firing was rolled back: only ``w``'s make is left.
    after = engine.memory.value_identity_set()
    assert len(after - before) == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_firing_that_raises_leaves_no_footprint_behind(scheme, monkeypatch):
    """The slots after a raising firing never act; what they hold is
    released with the wave, or it would defer a later 2PL writer."""
    engine, _, _ = build(
        ParallelEngine,
        """
(p first 10 (a ^id 1) --> (make c ^id 1))
(p second 0 (a ^id 2) --> (make c ^id 2))
""",
        [("a", {"id": 1}), ("a", {"id": 2})],
        scheme=scheme, strategy="priority",
    )

    def fail(instantiation):
        raise RuntimeError(f"{instantiation.production.name} failed")

    monkeypatch.setattr(engine.executor, "execute", fail)
    with engine, pytest.raises(RuntimeError, match="first failed"):
        engine.run()
    (wave,) = engine.waves
    assert wave.aborted == ["first"] and wave.committed == []
    assert engine.scheme.grant_table() == {}


@pytest.mark.parametrize(
    "scheme, order",
    [
        # Admission puts the reader first.
        ("rc", ["t", "w"]),
        # The writer is deferred behind the reader's R.
        ("2pl", ["t", "w"]),
        # The writer's preclaim comes first and refuses the reader's R.
        ("c2pl", ["w", "t"]),
    ],
)
def test_the_catalog_pair_is_ordered_by_every_scheme(scheme, order):
    engine, reference = run_both(
        ParallelEngine, *CATALOG_PAIR, scheme=scheme, strategy="priority"
    )
    assert [r.rule_name for r in engine.result.firings] == order
    assert_same_waves(engine, reference)
