"""A run's refraction marks and retry budget follow working memory.

A mark goes once the unit that removed one of its instantiation's
positive elements has committed, never earlier: a rolled-back remover
(an injected crash, or a commit the durable store refuses) re-adds the
element under its old timetag, and the restored instantiation must
still not fire twice.  After a whole run, the run keeps no element
alive that working memory no longer holds, and no mark or retry
budget names one.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

from repro.engine import Interpreter, ParallelEngine, ThreadedWaveExecutor
from repro.errors import StorageFailure
from repro.fault import FaultPlan, FaultSpec, RetryPolicy, VirtualSleeper
from repro.lang import parse_program
from repro.wm import DurableStore, WorkingMemory
from repro.wm.element import WME, next_timetag

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
import run as e2e  # noqa: E402

#: ``note`` fires first and leaves its item in place; ``drop`` then
#: removes that item.  A rolled-back ``drop`` restores ``note``'s
#: instantiation, identity and all.
RULES = """
(p note (item ^id <i>) --> (make seen ^item <i>))
(p drop (seen ^item <i>) (item ^id <i>) --> (remove 2))
"""


def _noted(memory, **options):
    memory.make("item", id=1)
    engine = ParallelEngine(
        parse_program(RULES), memory, scheme="rc", **options
    )
    engine.run(max_waves=1)
    assert [f.rule_name for f in engine.result.firings] == ["note"]
    return engine


def _note_is_spent(engine):
    cs = engine.matcher.conflict_set
    (note,) = cs.for_rule("note")
    assert cs.has_fired(note)
    assert [i.rule_name for i in cs.eligible()] == ["drop"]


def _finish(engine):
    result = engine.run()
    engine.close()
    assert [f.rule_name for f in result.firings] == ["note", "drop"]


def test_a_crashed_remover_keeps_the_mark():
    injector = FaultPlan(
        [FaultSpec("crash_commit", rule="drop", max_hits=1)], seed=0
    ).injector()
    engine = _noted(WorkingMemory(), fault_injector=injector)
    engine.run(max_waves=2)  # the run's second wave: drop crashes
    assert injector.total_injected == 1
    _note_is_spent(engine)
    _finish(engine)


def test_a_refused_commit_keeps_the_mark(tmp_path):
    """The store subscribes after the matcher, so its ``wal:commit``
    refusal comes after the matcher's own unit listeners heard the
    commit."""
    memory = WorkingMemory()
    engine = _noted(memory)
    store = DurableStore(memory, tmp_path, durability="none")
    store.fault = FaultPlan(
        [FaultSpec("storage_fail", obj="wal:commit", max_hits=1)], seed=0
    ).injector()
    with pytest.raises(StorageFailure):
        engine.run()
    _note_is_spent(engine)
    _finish(engine)
    store.close()


#: Marks that outlive their own firing: ``note`` leaves its item and the
#: gauge in place, so its mark names both until ``drop`` removes the item.
SURVIVORS = """
(p note (item ^id <i>) (gauge ^id <g>) --> (make seen ^item <i>))
(p drop (seen ^item <i>) (item ^id <i>) --> (remove 2) (remove 1))
"""


def _smoke(workload, work_only=False):
    spec = e2e.build_spec(workload, 5, smoke=True)
    facts = [
        (relation, {**values, "kind": "work"})
        if work_only and relation == "job" else (relation, values)
        for relation, values in spec["facts"]
    ]
    return spec["rules"], facts


#: name -> (rules, facts): the e2e programs at smoke size, lanes also
#: with no ``bump`` job (its gauges are never modified), and SURVIVORS.
PROGRAMS = {
    "lanes_work": lambda: _smoke("hot_rc", work_only=True),
    "lanes": lambda: _smoke("hot_rc"),
    "orders": lambda: _smoke("orders_durable"),
    "manners": lambda: _smoke("manners_rc"),
    "survivors": lambda: (
        SURVIVORS, [("gauge", {"id": 0})]
        + [("item", {"id": i}) for i in range(16)],
    ),
}
EXECUTORS = ("interpreter", "rc", "2pl", "threaded")


def _run(rules, facts, executor, **options):
    memory = WorkingMemory(thread_safe=executor == "threaded")
    for relation, values in facts:
        memory.make(relation, values)
    rules = parse_program(rules)
    if executor == "interpreter":
        engine = Interpreter(rules, memory)
        engine.run(max_cycles=10**9)
    elif executor == "threaded":
        engine = ThreadedWaveExecutor(rules, memory, scheme="rc", **options)
        engine.run(max_waves=10**9)
    else:
        engine = ParallelEngine(
            rules, memory, scheme=executor, processors=8, **options
        )
        engine.run(max_waves=10**9)
    engine.close()
    return memory, engine


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_a_run_keeps_only_working_memory_alive(program, executor):
    rules, facts = PROGRAMS[program]()
    first = next_timetag()
    memory, engine = _run(rules, facts, executor)
    assert engine.result.firings
    gc.collect()
    alive = sorted(
        w.timetag for w in gc.get_objects()
        if type(w) is WME and w.timetag > first
    )
    assert alive == sorted(w.timetag for w in memory)
    for instantiation in engine.matcher.conflict_set.fired():
        assert all(t in memory for t in instantiation.timetags())


@pytest.mark.parametrize("executor", ["rc", "threaded"])
def test_the_retry_budget_expires_with_the_marks(executor):
    injector = FaultPlan.chaos(3, 0.3).injector(sleeper=VirtualSleeper())
    memory, engine = _run(
        *_smoke("hot_rc"), executor, fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0, seed=3),
    )
    assert engine.retry_count > 0
    assert engine.gave_up
    for instantiation in [*engine._attempts, *engine._gave_up]:
        assert all(t in memory for t in instantiation.timetags())


def test_the_retry_budget_expires_under_racing_threads():
    """Commits prune the budget while other firings charge it: a thread
    switch every microsecond must not break either."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            test_the_retry_budget_expires_with_the_marks("threaded")
    finally:
        sys.setswitchinterval(interval)
