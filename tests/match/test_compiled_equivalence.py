"""Every matcher's conflict set equals the reference matcher's — on
Manners and on randomized productions, identities *and* bindings.

``reference_matcher.py`` re-derives the whole conflict set by brute
force from the AST (the seed's interpreted walks over binding dicts, no
indexes, no plans, no state), so a comparison never runs a matcher's
own join or retraction code on both sides.  All matchers of a test
attach to ONE shared working memory, so they see the same WMEs with
the same timetags and equality is literal: identical
``(rule name, matched timetags)`` keys with identical
``bindings_items``.  A checker subscribed to the store *after* the
matchers compares after the initial build and after every add/remove
delta — a ``modify`` is compared between its remove and its add too.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import ValidationError
from repro.lang import RuleBuilder
from repro.lang.ast import (
    ConditionElement,
    ConstantTest,
    ModifyAction,
    PredicateTest,
    RemoveAction,
    VariableTest,
)
from repro.lang.builder import gt, var
from repro.lang.production import Production
from repro.match import (
    CondRelationMatcher,
    NaiveMatcher,
    ReteMatcher,
    TreatMatcher,
)
from repro.match.partitioned import PartitionedMatcher
from repro.workloads.manners import build_manners_memory, build_manners_rules
from repro.wm import WorkingMemory

from reference_matcher import conflict_set_of, reference_conflict_set

_MATCHER_CLASSES = {
    "naive": NaiveMatcher,
    "rete": ReteMatcher,
    "treat": TreatMatcher,
    "cond": CondRelationMatcher,
}


def _partitioned_rete(memory):
    return PartitionedMatcher(
        memory, shards=3, inner="rete", backend="serial"
    )


_ALL_MATCHERS = {
    **_MATCHER_CLASSES,
    "partitioned:rete:3:serial": _partitioned_rete,
}


def _attach(memory, factory, rules):
    matcher = factory(memory)
    matcher.add_productions(rules)
    matcher.attach()
    return matcher


def _check_against_reference(memory, rules, matchers):
    """Compare ``matchers`` (name -> attached matcher) with the
    reference now, and again after every delta ``memory`` publishes.
    Returns the subscribed checker."""

    def check(delta=None):
        expected = reference_conflict_set(rules, memory)
        for name, matcher in matchers.items():
            assert conflict_set_of(matcher) == expected, (
                f"{name} diverged from the reference after {delta}"
            )

    check()
    memory.subscribe(check)
    return check


@pytest.mark.parametrize("name", sorted(_MATCHER_CLASSES))
def test_compiled_conflict_sets_bit_identical_on_manners(name):
    memory = build_manners_memory(n_guests=8, seed=11)
    rules = build_manners_rules()
    matcher = _attach(memory, _MATCHER_CLASSES[name], rules)
    _check_against_reference(memory, rules, {name: matcher})
    assert len(matcher.conflict_set) > 0

    guests = [w for w in memory if w.relation == "guest"]
    for victim in guests[:3]:
        memory.remove(victim)
    memory.make("guest", name="zed", sex="m")
    memory.make("hobby", name="zed", h="h1")


def test_partitioned_compiled_matches_interpreted_rete():
    memory = build_manners_memory(n_guests=8, seed=23)
    rules = build_manners_rules()
    partitioned = _attach(memory, _partitioned_rete, rules)
    check = _check_against_reference(
        memory, rules, {"partitioned": partitioned}
    )
    assert len(partitioned.conflict_set) > 0

    guests = [w for w in memory if w.relation == "guest"]
    for victim in guests[:3]:
        memory.remove(victim)
    memory.make("guest", name="zed", sex="m")
    memory.make("hobby", name="zed", h="h1")
    # Inside a batch the shards lag the store by design; the barrier
    # on exit must land on the reference again.
    memory.unsubscribe(check)
    with partitioned.batch():
        memory.make("guest", name="amy", sex="f")
        memory.make("hobby", name="amy", h="h1")
    check()


def test_batched_deltas_equal_unbatched():
    """batch() changes when matching happens, never what it produces."""
    plain_store = WorkingMemory()
    batch_store = WorkingMemory()
    plain = PartitionedMatcher(plain_store, shards=2, inner="treat")
    batched = PartitionedMatcher(batch_store, shards=2, inner="treat")
    rules = build_manners_rules()
    for matcher, store in ((plain, plain_store), (batched, batch_store)):
        matcher.add_productions(build_manners_rules())
        matcher.attach()
    del rules

    def _shape(matcher):
        # Different stores → different timetags; compare shapes by
        # rule name and matched value identities instead.
        return frozenset(
            (i.production.name, tuple(w.identity() for w in i.wmes))
            for i in matcher.conflict_set
        )

    ops = [
        ("guest", dict(name="g1", sex="m")),
        ("guest", dict(name="g2", sex="f")),
        ("hobby", dict(name="g1", h="chess")),
        ("hobby", dict(name="g2", h="chess")),
        ("context", dict(phase="start")),
    ]
    for relation, values in ops:
        plain_store.make(relation, **values)
    with batched.batch():
        for relation, values in ops:
            batch_store.make(relation, **values)
    assert _shape(plain) == _shape(batched)


# ---------------------------------------------------------------------------
# Randomized programs
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z")
_RELATIONS = ("a", "b", "c")
_ATTRS = ("k", "v")
_OPS = (">", ">=", "<", "<=", "<>")


@st.composite
def _random_program(draw) -> list[Production]:
    """Random valid productions: joins, negated CEs (also in first
    position), constant and variable-operand predicates,
    negation-local variables — and what makes Rete's join order move:
    RHSs that ``modify`` / ``remove`` any of the rule's own positive
    elements (or none), and attributes both bound to a variable and
    compared with another element's variable (the predicate a moved
    element defers)."""
    rules = []
    for r in range(draw(st.integers(1, 3))):
        bound: set[str] = set()
        lhs = []
        if draw(st.booleans()):
            # A negated element *first*, then a positive one re-using
            # its local variable name: the name is existential inside
            # the negation and freshly bound after it.
            name = draw(st.sampled_from(_VARS))
            for negated in (True, False):
                lhs.append(
                    ConditionElement(
                        draw(st.sampled_from(_RELATIONS)),
                        (VariableTest(draw(st.sampled_from(_ATTRS)), name),),
                        negated=negated,
                    )
                )
            bound.add(name)
        for _ in range(draw(st.integers(0 if lhs else 1, 4))):
            negated = bool(lhs) and draw(st.booleans())
            tests = []
            local: set[str] = set()
            for attr in _ATTRS:
                choice = draw(st.integers(0, 4))
                if choice == 0:
                    continue
                if choice == 1:
                    tests.append(ConstantTest(attr, draw(st.integers(0, 2))))
                elif choice == 2 or (choice == 4 and not bound):
                    name = draw(st.sampled_from(_VARS))
                    tests.append(VariableTest(attr, name))
                    local.add(name)
                elif choice == 4:
                    # ``^attr <x> ^attr <op> <y>``, <y> from another
                    # element: deferred when that element sinks and
                    # this one, bringing a variable of its own, stays.
                    fresh = sorted(set(_VARS) - bound)
                    name = draw(st.sampled_from(fresh or _VARS))
                    tests.append(VariableTest(attr, name))
                    local.add(name)
                    tests.append(
                        PredicateTest(
                            attr,
                            draw(st.sampled_from(_OPS)),
                            draw(st.sampled_from(sorted(bound))),
                            True,
                        )
                    )
                else:
                    # Variable-operand predicates only against variables
                    # already in scope (validate() rejects forward refs).
                    pool = sorted(bound | local)
                    op = draw(st.sampled_from(_OPS))
                    if pool and draw(st.booleans()):
                        operand = draw(st.sampled_from(pool))
                        tests.append(PredicateTest(attr, op, operand, True))
                    else:
                        operand = draw(st.integers(0, 4))
                        tests.append(PredicateTest(attr, op, operand, False))
            lhs.append(
                ConditionElement(
                    draw(st.sampled_from(_RELATIONS)),
                    tuple(tests),
                    negated=negated,
                )
            )
            if not negated:
                bound |= local
        positives = [i + 1 for i, ce in enumerate(lhs) if not ce.negated]
        # Mostly one or two targets: a rule without any never reorders.
        targets = draw(
            st.lists(
                st.sampled_from(positives),
                min_size=draw(st.sampled_from((0, 1, 1, 1))),
                max_size=2,
                unique=True,
            )
        )
        rhs = tuple(
            RemoveAction(k)
            if draw(st.booleans())
            else ModifyAction.build(k, {"note": 1})
            for k in targets
        )
        rules.append(Production(f"r{r}", tuple(lhs), rhs))
    return rules


_wm_operation = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(_RELATIONS),
        st.integers(0, 3),  # k
        st.integers(0, 8),  # v
    ),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("modify"), st.integers(0, 30), st.integers(0, 3)),
    # A modify that leaves every tested attribute — so every join key —
    # as it was: only the timetag and an attribute no rule reads change.
    st.tuples(st.just("touch"), st.integers(0, 30), st.integers(0, 3)),
)


def apply_operation(memory, operation) -> None:
    """Run one ``_wm_operation`` draw against ``memory``; ``remove``,
    ``modify`` and ``touch`` pick the live WME by index modulo size."""
    live = sorted(memory, key=lambda w: w.timetag)
    if operation[0] == "add":
        _, relation, k, v = operation
        memory.make(relation, k=k, v=v)
    elif not live:
        return
    elif operation[0] == "remove":
        memory.remove(live[operation[1] % len(live)])
    elif operation[0] == "modify":
        memory.modify(live[operation[1] % len(live)], {"k": operation[2]})
    else:
        memory.modify(live[operation[1] % len(live)], {"note": operation[2]})


def _lhs(*elements) -> list[Production]:
    """One rule over ``(relation, variable-or-None, negated)`` elements
    (the variable tests ``^k``), removing its first positive match."""
    lhs = tuple(
        ConditionElement(
            relation,
            (VariableTest("k", name),) if name else (),
            negated=negated,
        )
        for relation, name, negated in elements
    )
    first_positive = [ce.negated for ce in lhs].index(False) + 1
    return [Production("r0", lhs, (RemoveAction(first_positive),))]


@given(
    program=_random_program(),
    operations=st.lists(_wm_operation, max_size=12),
)
# Both diverged from the reference until this file compared against it
# (in every token layout: the twins shared the code).  TREAT kept
# `-(a ^k <x>) (b ^k <x>)` matched when an `a` with another k arrived:
# its retraction probe read <x> from the finished instantiation, where
# the later element had bound it.
@example(
    program=_lhs(("a", "x", True), ("b", "x", False)),
    operations=[("remove", 0), ("add", "a", 0, 0)],
)
# Rete, `(a) (a) -(a)`: one alpha memory feeds an element and one
# below it, so a token met the new WME on its way down and again on the
# negative node's own right activation, was registered as blocked twice,
# and outlived its deletion by one registration.
@example(
    program=_lhs(("a", None, False), ("a", None, False), ("a", None, True)),
    operations=[("add", "a", 0, 0), ("remove", 0), ("remove", 2)],
)
# Rete joins `b` first and runs its `< <x>` where `a` binds <x>: the
# operator must keep its direction (b.v < a.v), the other matchers join
# as written.
@example(
    program=[
        Production(
            "r0",
            (
                ConditionElement("a", (VariableTest("v", "x"),)),
                ConditionElement(
                    "b",
                    (
                        VariableTest("v", "y"),
                        PredicateTest("v", "<", "x", True),
                    ),
                ),
            ),
            (RemoveAction(1),),
        )
    ],
    operations=[
        ("add", "a", 0, 5), ("add", "b", 0, 3), ("add", "b", 0, 7),
        ("remove", 0), ("add", "a", 0, 8),
    ],
)
@settings(max_examples=40, deadline=None)
def test_slotted_and_dict_tokens_bit_identical(program, operations):
    """Identities AND ``bindings_items`` of all five matchers equal the
    reference on randomized productions (negated CEs, negation first,
    variable-predicate joins, own-RHS targets that move Rete's join
    order, key-preserving modifies)."""
    memory = WorkingMemory()
    for relation in _RELATIONS:  # seed some matches before attach
        memory.make(relation, k=1, v=1)
    matchers = {
        name: _attach(memory, factory, program)
        for name, factory in _ALL_MATCHERS.items()
    }
    _check_against_reference(memory, program, matchers)
    for operation in operations:
        apply_operation(memory, operation)


@pytest.mark.parametrize("name", sorted(_MATCHER_CLASSES))
def test_slotted_bindings_cover_negation_and_variable_predicates(name):
    """Deterministic spot-check: negation-local variables stay out of
    the bindings, variable-predicate joins produce the same pairs."""
    rules = [
        RuleBuilder("chain")
        .when("a", k=var("x"))
        .when("b", k=var("x"), v=var("y"))
        .when_not("c", k=var("y"), v=var("w"))  # w is negation-local
        .remove(1)
        .build(),
        RuleBuilder("bigger")
        .when("a", v=var("x"))
        .when("b", v=gt(var("x")), k=var("z"))
        .remove(1)
        .build(),
    ]
    memory = WorkingMemory()
    memory.make("a", k=1, v=2)
    memory.make("b", k=1, v=5)
    matcher = _attach(memory, _MATCHER_CLASSES[name], rules)
    _check_against_reference(memory, rules, {name: matcher})
    chain = [
        i for i in matcher.conflict_set if i.rule_name == "chain"
    ]
    assert chain and all(
        dict(i.bindings_items).keys() == {"x", "y"} for i in chain
    ), "negation-local variable leaked into the bindings"
    bigger = [
        i for i in matcher.conflict_set if i.rule_name == "bigger"
    ]
    assert bigger and all(
        dict(i.bindings_items) == {"x": 2, "z": 1} for i in bigger
    )
    # The negated element starts blocking; the match must retract.
    memory.make("c", k=5, v=99)
    assert not [
        i for i in matcher.conflict_set if i.rule_name == "chain"
    ]


# ---------------------------------------------------------------------------
# Registration guards
# ---------------------------------------------------------------------------


def _forward_reference_production() -> Production:
    """A production with an unbound predicate operand, built WITHOUT
    going through ``Production.validate()``."""
    element = ConditionElement(
        "a", (PredicateTest("v", ">", "x", True),)
    )
    rule = object.__new__(Production)
    object.__setattr__(rule, "name", "forward")
    object.__setattr__(rule, "lhs", (element,))
    object.__setattr__(rule, "rhs", (RemoveAction(1),))
    object.__setattr__(rule, "priority", 0)
    return rule


@pytest.mark.parametrize("name", sorted(_MATCHER_CLASSES))
def test_matchers_reject_unvalidated_productions(name):
    """Satellite: the match-time ValidationError for unbound predicate
    operands became unreachable for validated productions (PR 7 moved
    the check to load time) — matchers must therefore reject a
    production smuggled past validate() at registration, not deep in a
    join once a triggering WME arrives."""
    matcher = _MATCHER_CLASSES[name](WorkingMemory())
    with pytest.raises(ValidationError, match="not bound"):
        matcher.add_production(_forward_reference_production())
    assert "forward" not in matcher.productions


def test_partitioned_rejects_unvalidated_productions():
    matcher = PartitionedMatcher(
        WorkingMemory(), shards=2, inner="naive", backend="serial"
    )
    with pytest.raises(ValidationError, match="not bound"):
        matcher.add_production(_forward_reference_production())
    assert matcher.shard_of("forward") is None
