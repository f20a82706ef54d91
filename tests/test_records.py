"""The records a run builds keep the value semantics they had as
dataclasses: constructor, ``==`` and hash over the same fields (never
over a cache), repr, immutability where frozen, unhashability where
mutable, and pickling — now as plain classes, so that importing them
generates no code (``tests/test_import_budget.py``).

``REPRS`` were recorded from the ``@dataclass`` versions; the process
matcher's Manners digest too.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

import pytest

from repro.engine.actions import ActionOutcome
from repro.engine.interpreter import Interpreter
from repro.engine.parallel import WaveResult
from repro.engine.result import Commit, RunResult
from repro.lang import parse_program
from repro.lang.ast import (
    BinaryExpr,
    BindAction,
    ConditionElement,
    Constant,
    ConstantTest,
    HaltAction,
    MakeAction,
    ModifyAction,
    PredicateTest,
    RemoveAction,
    VariableRef,
    VariableTest,
    WriteAction,
)
from repro.lang.production import Production
from repro.lang.tokens import Token
from repro.match.partitioned import ConflictSetDelta, _Shard
from repro.txn.schedule import Operation
from repro.txn.transaction import CommitOutcome, Transaction
from repro.wm.element import WME, data_object_key
from repro.wm.memory import WMDelta, WorkingMemory
from repro.wm.schema import AttributeDef, RelationSchema
from repro.wm.snapshot import WMSnapshot
from repro.wm.storage import RecoveryReport, SegmentInfo

ROOT = Path(__file__).resolve().parents[1]


def _element():
    return ConditionElement(
        "r", (ConstantTest("a", 1), VariableTest("b", "x"),
              PredicateTest("c", ">", "x", True))
    )


def _production():
    return Production(
        "p", (_element(),), (ModifyAction(1, (("a", VariableRef("x")),)),),
        priority=2,
    )


def _fill_element(element):
    element.compiled()
    element.alpha_key()
    element.variables()


def _fill_production(production):
    production.token_plan()
    for element in production.lhs:
        _fill_element(element)


#: name -> (a factory of equal fresh records, kind, cache filler).
#: ``frozen`` refuses assignment and hashes; ``mutable`` is unhashable;
#: ``hashable`` is mutable with a hash of its own.
CASES = {
    "ConstantTest": (lambda: ConstantTest("a", 1), "frozen", None),
    "VariableTest": (lambda: VariableTest("a", "x"), "frozen", None),
    "PredicateTest": (lambda: PredicateTest("a", ">", 3), "frozen", None),
    "ConditionElement": (_element, "frozen", _fill_element),
    "Constant": (lambda: Constant(1), "frozen", None),
    "VariableRef": (lambda: VariableRef("x"), "frozen", None),
    "BinaryExpr": (
        lambda: BinaryExpr("+", VariableRef("x"), Constant(1)), "frozen", None
    ),
    "MakeAction": (
        lambda: MakeAction("r", (("a", Constant(1)),)), "frozen", None
    ),
    "ModifyAction": (
        lambda: ModifyAction(1, (("a", Constant(2)),)), "frozen", None
    ),
    "RemoveAction": (lambda: RemoveAction(1), "frozen", None),
    "BindAction": (lambda: BindAction("y", Constant(1)), "frozen", None),
    "WriteAction": (lambda: WriteAction((Constant("hi"),)), "frozen", None),
    "HaltAction": (HaltAction, "frozen", None),
    "Production": (_production, "frozen", _fill_production),
    "Token": (lambda: Token("SYMBOL", "x", 1, 2), "frozen", None),
    "WME": (lambda: WME("r", (("id", 1),), 7), "frozen", data_object_key),
    "WMDelta": (
        lambda: WMDelta("add", WME("r", (("id", 1),), 7)), "hashable", None
    ),
    "AttributeDef": (lambda: AttributeDef("a", "int", True), "frozen", None),
    "RelationSchema": (
        lambda: RelationSchema("r", (AttributeDef("a"),), "a"), "frozen", None
    ),
    "WMSnapshot": (
        lambda: WMSnapshot((WME("r", (("id", 1),), 7),)), "frozen", None
    ),
    "SegmentInfo": (
        lambda: SegmentInfo(Path("wal-1.jsonl"), 1, 2, 2, 80), "mutable", None
    ),
    "RecoveryReport": (
        lambda: RecoveryReport(elements=3, cleaned=["x"]), "mutable", None
    ),
    "ActionOutcome": (
        lambda: ActionOutcome(created=[WME("r", (("id", 1),), 7)]),
        "mutable", None,
    ),
    "WaveResult": (lambda: WaveResult(1, committed=["p"]), "mutable", None),
    "Commit": (
        lambda: Commit("p", (("r", (("id", 1),)),), 1, "t1", 0,
                       (("r", 1),), (("r", 1),)),
        "frozen", None,
    ),
    "RunResult": (lambda: RunResult(halted=True, cycles=2), "mutable", None),
    "Operation": (lambda: Operation("t1", "r", ("r", 1)), "frozen", None),
    "Transaction": (
        lambda: Transaction("t1", "p", start_order=5), "hashable", None
    ),
    "CommitOutcome": (lambda: CommitOutcome(True), "mutable", None),
    "ConflictSetDelta": (
        lambda: ConflictSetDelta(frozenset(), frozenset({1})), "frozen", None
    ),
    "_Shard": (lambda: _Shard(0, None, 1.5), "mutable", None),
}

REPRS = {
    "ConstantTest": "ConstantTest(attribute='a', value=1)",
    "VariableTest": "VariableTest(attribute='a', variable='x')",
    "PredicateTest": (
        "PredicateTest(attribute='a', op='>', operand=3, "
        "operand_is_variable=False)"
    ),
    "Constant": "Constant(value=1)",
    "VariableRef": "VariableRef(name='x')",
    "BinaryExpr": (
        "BinaryExpr(op='+', left=VariableRef(name='x'), "
        "right=Constant(value=1))"
    ),
    "RemoveAction": "RemoveAction(ce_index=1)",
    "HaltAction": "HaltAction()",
    "Token": "Token(kind='SYMBOL', text='x', line=1, column=2)",
    "WME": "WME(relation='r', items=(('id', 1),), timetag=7)",
    "WMDelta": (
        "WMDelta(kind='add', wme=WME(relation='r', items=(('id', 1),), "
        "timetag=7))"
    ),
    "RelationSchema": (
        "RelationSchema(name='r', attributes=(AttributeDef(name='a', "
        "type_name='any', required=False),), key='a')"
    ),
    "RecoveryReport": (
        "RecoveryReport(elements=3, checkpoint_lsn=0, replayed=0, "
        "shadowed=0, segments=0, torn_lines=0, cleaned=['x'], seconds=0.0)"
    ),
    "WaveResult": (
        "WaveResult(wave=1, committed=['p'], aborted=[], deferred=[], "
        "held=[], ordered=0)"
    ),
    "Commit": (
        "Commit(rule_name='p', value_identities=(('r', (('id', 1),)),), "
        "cycle=1, txn_id='t1', read_at=0, reads=(('r', 1),), "
        "writes=(('r', 1),))"
    ),
    "RunResult": (
        "RunResult(firings=[], outputs=[], halted=True, cycles=2, "
        "stop_reason='quiescent')"
    ),
    "Transaction": (
        "Transaction(txn_id='t1', rule_name='p', state=<TxnState.ACTIVE: "
        "'active'>, read_set=set(), write_set=set(), start_order=5, "
        "abort_reason='')"
    ),
    "CommitOutcome": "CommitOutcome(committed=True, victims=[])",
    "ConflictSetDelta": (
        "ConflictSetDelta(added=frozenset(), removed=frozenset({1}))"
    ),
}

PICKLED = ("ConditionElement", "Production", "WME", "Commit", "Token")

#: ``firing_digest`` and firings of the smoke-size ``manners_proc2``
#: run: its productions and deltas are pickled to the worker processes.
DIGEST = ("5b529ee1dc6925a0", 22)


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_make_equal_records(name):
    make, kind, fill = CASES[name]
    left, right = make(), make()
    if fill is not None:
        fill(left)  # caches on one side only
    assert left == right and not left != right
    if kind == "mutable":
        with pytest.raises(TypeError):
            hash(left)
    else:
        assert hash(left) == hash(right)
    if name in REPRS:
        assert repr(left) == REPRS[name]


@pytest.mark.parametrize(
    "name", [name for name, case in CASES.items() if case[1] == "frozen"]
)
def test_frozen_records_refuse_assignment(name):
    record = CASES[name][0]()
    fields = tuple(vars(type(record)).get("__annotations__", ()))
    for field in fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", PICKLED)
def test_run_records_round_trip_through_pickle(name):
    make, _, fill = CASES[name]
    record = make()
    if fill is not None:
        fill(record)  # a cache never reaches the pickle
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record and type(clone) is type(record)
    assert repr(clone) == repr(record)


def test_generic_constructor_checks_its_arguments():
    assert PredicateTest("a", op=">", operand=3) == PredicateTest("a", ">", 3)
    for bad in (
        lambda: ConstantTest("a"),                     # missing
        lambda: ConstantTest("a", 1, 2),               # too many
        lambda: ConstantTest("a", 1, attribute="b"),   # repeated
        lambda: ConstantTest("a", 1, colour="red"),    # unknown
    ):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(Exception, match="unknown predicate"):
        PredicateTest("a", "~", 3)  # __post_init__ still runs


def test_records_of_different_classes_are_unequal():
    assert Constant(1) != VariableRef(1)
    assert HaltAction() == HaltAction() and HaltAction() != RemoveAction(1)


def test_process_matcher_manners_digest():
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import run as e2e
    from child import firing_digest

    spec = e2e.build_spec("manners_proc2", 5, smoke=True)
    assert spec["engine"]["matcher"] == "partitioned:rete:2:process"
    memory = WorkingMemory()
    for relation, values in spec["facts"]:
        memory.make(relation, values)
    with Interpreter(
        parse_program(spec["rules"]), memory,
        matcher=spec["engine"]["matcher"], strategy=spec["engine"]["strategy"],
    ) as engine:
        result = engine.run(max_cycles=10**9)
    assert (firing_digest(result.firings), len(result.firings)) == DIGEST
