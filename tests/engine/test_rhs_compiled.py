"""The compiled RHS against the AST-walking interpreter it replaced.

``ActionExecutor.execute`` runs a production's
:class:`~repro.lang.compile.RhsPlan` over the instantiation's own slot
token; ``rhs_reference.execute`` walks the actions and expressions over
a bindings dict.  For random RHSs — make / modify / remove / bind /
write / halt, nested arithmetic, a ``bind`` that shadows an LHS
variable, designators of removed or negated elements, variables bound
nowhere — both must report the same outcome, leave the same memory and
raise the same exception with the same message.  Each RHS runs three
ways: on Rete's instantiation (a join-order layout when the rule's own
``modify``/``remove`` reorders it), on one rebuilt from its binding
pairs, and on one missing an LHS binding.
"""

from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings
from rhs_reference import execute as reference_execute

from repro.engine.actions import ActionExecutor
from repro.lang import parse_production
from repro.lang.ast import (
    _ARITHMETIC,
    BinaryExpr,
    BindAction,
    Constant,
    HaltAction,
    MakeAction,
    ModifyAction,
    RemoveAction,
    VariableRef,
    WriteAction,
)
from repro.lang.production import Production
from repro.match.instantiation import Instantiation
from repro.match.rete.network import ReteMatcher
from repro.wm import WME, WorkingMemory

#: ``<n>`` is local to the negation: its slot exists, never bound.
_LHS = "(a ^k <x> ^v <y>) (b ^k <x> ^w <z>) -(c ^k <x> ^q <n>)"

_FACTS = (
    ("a", {"k": 1, "v": 3}),
    ("a", {"k": 2, "v": "s"}),
    ("b", {"k": 1, "w": 0}),
    ("b", {"k": 2, "w": 5}),
    ("c", {"k": 9, "q": 1}),
)

_names = st.sampled_from(["x", "y", "z", "n", "t", "u"])
_leaves = st.one_of(
    st.builds(
        Constant, st.one_of(st.integers(-3, 3), st.sampled_from(["s", None]))
    ),
    st.builds(VariableRef, _names),
)
_exprs = st.recursive(
    _leaves,
    lambda inner: st.builds(
        BinaryExpr, st.sampled_from(sorted(_ARITHMETIC)), inner, inner
    ),
    max_leaves=4,
)
_values = st.lists(
    st.tuples(st.sampled_from(["k", "p", "v"]), _exprs), max_size=3
).map(tuple)
_designators = st.integers(1, 3)
_actions = st.one_of(
    st.builds(MakeAction, st.just("out"), _values),
    st.builds(ModifyAction, _designators, _values),
    st.builds(RemoveAction, _designators),
    st.builds(BindAction, st.sampled_from(["x", "t", "u"]), _exprs),
    st.builds(WriteAction, st.lists(_exprs, max_size=3).map(tuple)),
    st.just(HaltAction()),
)


def _unvalidated(name: str, lhs, rhs) -> Production:
    """A production with any RHS — validation would reject the
    unbound references the test wants to see fail."""
    rule = object.__new__(Production)
    for field, value in (
        ("name", name), ("lhs", lhs), ("rhs", tuple(rhs)), ("priority", 0)
    ):
        object.__setattr__(rule, field, value)
    return rule


def _memory(wmes) -> WorkingMemory:
    memory = WorkingMemory()
    for wme in wmes:
        memory.add(wme)
    return memory


def _run(execute, memory, instantiation):
    """``(outcome, error)`` of one execution, timetag-free, and the
    memory it left."""
    try:
        outcome = execute(memory, instantiation)
    except Exception as exc:  # noqa: BLE001 - compared below
        result = (None, (type(exc), str(exc)))
    else:
        result = (
            (
                [w.identity() for w in outcome.created],
                [(old.identity(), new.identity())
                 for old, new in outcome.modified],
                [w.identity() for w in outcome.removed],
                outcome.outputs,
                outcome.halted,
            ),
            None,
        )
    return result, Counter(w.identity() for w in memory)


def _compiled(memory, instantiation):
    return ActionExecutor(memory).execute(instantiation)


@given(
    rhs=st.lists(_actions, min_size=1, max_size=6),
    volatile=st.sampled_from(["(modify 1 ^p 0)", "(remove 2)", "(halt)"]),
    drop=st.integers(0, 2),
)
@settings(max_examples=300, deadline=None)
def test_compiled_rhs_equals_the_interpreter(rhs, volatile, drop):
    matched = parse_production(f"(p m {_LHS} --> {volatile})")
    wmes = [WME.make(relation, values) for relation, values in _FACTS]
    memory = _memory(wmes)
    rete = ReteMatcher(memory)
    rete.add_production(matched)
    rete.attach()
    found = rete.conflict_set.ordered()
    rete.detach()
    assert found
    rule = _unvalidated("r", matched.lhs, rhs)
    for match in found:
        index, token = match.slots()
        items = match.bindings_items
        for instantiation in (
            Instantiation.from_slots(rule, match.wmes, token, index),
            Instantiation(rule, match.wmes, items),
            Instantiation(rule, match.wmes, items[:drop] + items[drop + 1:]),
        ):
            assert _run(_compiled, _memory(wmes), instantiation) == _run(
                reference_execute, _memory(wmes), instantiation
            ), [str(a) for a in rhs]


def test_the_errors_keep_their_type_and_message():
    """The named cases, once each: an unbound variable, arithmetic
    over unlike types, division by zero, and a modify after the
    element's removal."""
    matched = parse_production(f"(p m {_LHS} --> (remove 1))")
    memory = _memory(WME.make(r, v) for r, v in _FACTS)
    rete = ReteMatcher(memory)
    rete.add_production(matched)
    rete.attach()
    match = rete.conflict_set.ordered()[0]
    rete.detach()
    cases = {
        "unbound variable <t>": [WriteAction((VariableRef("t"),))],
        "cannot evaluate ('s' + 1)": [
            WriteAction((BinaryExpr("+", Constant("s"), Constant(1)),))
        ],
        "cannot evaluate (1 // 0)": [
            WriteAction((BinaryExpr("//", Constant(1), Constant(0)),))
        ],
        "r: modify 1 after the element was removed": [
            RemoveAction(1), ModifyAction(1, ()),
        ],
    }
    for expected, rhs in cases.items():
        rule = _unvalidated("r", matched.lhs, rhs)
        index, token = match.slots()
        instantiation = Instantiation.from_slots(
            rule, match.wmes, token, index
        )
        (_, compiled), _ = _run(_compiled, _memory(match.wmes), instantiation)
        (_, reference), _ = _run(
            reference_execute, _memory(match.wmes), instantiation
        )
        assert compiled == reference
        assert compiled[1].startswith(expected), compiled
