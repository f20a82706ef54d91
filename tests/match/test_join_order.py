"""Rete joins a rule's own ``modify`` / ``remove`` targets last.

:func:`repro.lang.compile.join_order` permutes the LHS a rule is
joined in; nothing observable may follow from that.  Pinned from four
sides:

(a) edge programs, each asserting the order it gets and then Rete
    against the brute-force reference matcher — identities *and*
    bindings, the hashed memories audited — after every delta;
(b) the randomized programs of ``test_compiled_equivalence.py`` really
    do reorder, defer and build tails of two and three positions (a
    generator that never moved anything would prove nothing);
(c) what the order buys, counted not timed, on ``manners_serial``'s
    inputs — and that no match is built twice when one alpha memory
    feeds two joins of a chain, two positions of a tail, or the prefix
    and the tail;
(d) the orders the benchmark's own rules get, so a later edit of a rule
    cannot silently start reordering lanes or orders.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings

from repro.engine.interpreter import Interpreter
from repro.lang import parse_program
from repro.lang.compile import join_order
from repro.match import ReteMatcher
from repro.match.rete import nodes
from repro.match.rete.tail import TailNode
from repro.wm import WorkingMemory

from reference_matcher import reference_conflict_set
from test_compiled_equivalence import _attach, _random_program
from test_rete_index import (
    _compare_after_every_delta,
    _count_join_tests,
    _e2e_workloads,
    _run_script,
)


def _orders(rules) -> dict[str, tuple[int, ...]]:
    """Rule name -> join order, 1-based like ``modify k``."""
    return {
        rule.name: tuple(i + 1 for i in join_order(rule)) for rule in rules
    }


# ---------------------------------------------------------------------------
# (a) edge programs
# ---------------------------------------------------------------------------

_MANNERS_SHAPE = """
(p extend
   (context ^phase "seat")
   (last ^seat <n> ^name <g1> ^sex <s1>)
   (hobby ^name <g1> ^h <h>)
   (guest ^name <g2> ^sex <s2> ^sex <> <s1>)
   (hobby ^name <g2> ^h <h>)
   -(seated ^name <g2>)
   -->
   (modify 2 ^seat (<n> + 1) ^name <g2> ^sex <s2>)
   (make seated ^name <g2>))
"""

#: name -> (rule text, {rule: expected 1-based join order}, script in
#: the step format of ``test_rete_index._run_script``).
_EDGE_PROGRAMS = {
    "manners_shape": (
        _MANNERS_SHAPE,
        # guest's ``^sex <> <s1>`` is tested where ``last`` binds <s1>.
        {"extend": (1, 4, 5, 6, 2, 3)},
        [
            ("+", "c", "context", {"phase": "seat"}),
            ("+", "g1", "guest", {"name": "ann", "sex": "f"}),
            ("+", "g2", "guest", {"name": "bob", "sex": "m"}),
            ("+", "g3", "guest", {"name": "cy", "sex": "m"}),
            ("+", "h1", "hobby", {"name": "ann", "h": "h0"}),
            ("+", "h2", "hobby", {"name": "bob", "h": "h0"}),
            ("+", "h3", "hobby", {"name": "cy", "h": "h0"}),
            ("+", "h4", "hobby", {"name": "cy", "h": "h1"}),
            ("+", "l", "last", {"seat": 1, "name": "ann", "sex": "f"}),
            ("+", "s1", "seated", {"name": "ann"}),
            ("~", "l", {"seat": 2, "name": "bob", "sex": "m"}),
            ("+", "s2", "seated", {"name": "bob"}),
            ("+", "h5", "hobby", {"name": "ann", "h": "h1"}),
            ("-", "s1"),
            ("~", "g3", {"sex": "f"}),
            ("-", "h2"),
            ("~", "c", {"phase": "done"}),
        ],
    ),
    "ordering_predicate_keeps_its_direction": (
        "(p lt (lim ^v <m>) (item ^v <x> ^v < <m>) --> (modify 1 ^v 0))",
        {"lt": (2, 1)},
        [
            ("+", "i1", "item", {"v": 1}),
            ("+", "i5", "item", {"v": 5}),
            ("+", "i9", "item", {"v": 9}),
            ("+", "iz", "item", {"v": "z"}),  # unlike types: no match
            ("+", "l5", "lim", {"v": 5}),     # only item 1 < 5
            ("+", "l9", "lim", {"v": 9}),
            ("~", "l5", {"v": 0}),
            ("+", "i0", "item", {"v": -1}),
            ("-", "l9"),
            ("+", "lz", "lim", {"v": "zz"}),  # "z" < "zz"
        ],
    ),
    "predicate_with_nothing_to_defer_from_sinks": (
        "(p nov (lim ^v <m>) (item ^v < <m>) (tag ^k <y>)"
        " --> (modify 1 ^v 0))",
        {"nov": (3, 1, 2)},
        [
            ("+", "l5", "lim", {"v": 5}),
            ("+", "i1", "item", {"v": 1}),
            ("+", "i9", "item", {"v": 9}),
            ("+", "t1", "tag", {"k": 1}),
            ("+", "t2", "tag", {"k": 2}),
            ("~", "l5", {"v": 10}),
            ("-", "t1"),
            ("-", "i1"),
        ],
    ),
    "negation_reading_a_sunk_variable_sinks": (
        "(p negs (lim ^v <m>) (item ^k <y>) -(block ^v <m> ^k <y>)"
        " --> (modify 1 ^v 0))",
        {"negs": (2, 1, 3)},
        [
            ("+", "l5", "lim", {"v": 5}),
            ("+", "i1", "item", {"k": 1}),
            ("+", "i2", "item", {"k": 2}),
            ("+", "b1", "block", {"v": 5, "k": 1}),
            ("+", "b2", "block", {"v": 6, "k": 2}),
            ("+", "l6", "lim", {"v": 6}),
            ("-", "b1"),
            ("~", "l5", {"v": 6}),
            ("-", "b2"),
        ],
    ),
    "negation_local_variable_stays_local": (
        # <x> is existential inside the negation and freshly bound by
        # b; moving c between them must not let the negation read it.
        "(p local2 -(a ^k <x>) (b ^k <x>) (c ^v <y>) --> (modify 2 ^k 9))"
        "(p local -(a ^k <x>) (b ^k <x>) --> (modify 2 ^k 9))",
        {"local2": (1, 3, 2), "local": (1, 2)},
        [
            ("+", "b1", "b", {"k": 1}),
            ("+", "c1", "c", {"v": 1}),
            ("+", "a2", "a", {"k": 2}),   # any a blocks, whatever its k
            ("-", "a2"),
            ("+", "a0", "a", {"v": 1}),   # an a without ^k blocks nothing
            ("+", "b2", "b", {"k": 2}),
            ("+", "a1", "a", {"k": 1}),
            ("-", "c1"),
            ("-", "a1"),
        ],
    ),
    "negation_that_would_see_more_keeps_the_written_order": (
        # Sunk below b, the negation would arrive with <x> bound.
        "(p seen (t ^j <z>) -(a ^k <x> ^j <z>) (b ^k <x>)"
        " --> (modify 1 ^j 0))",
        {"seen": (1, 2, 3)},
        [
            ("+", "t1", "t", {"j": 1}),
            ("+", "b1", "b", {"k": 1}),
            ("+", "a2", "a", {"k": 2, "j": 1}),  # blocks although k differs
            ("-", "a2"),
            ("+", "a3", "a", {"k": 1, "j": 2}),
        ],
    ),
    "cross_product_guard": (
        # Kept a and b share no variable: joined first they would
        # store a x b, which the written order never stored.
        "(p cross (t ^j <z>) (a ^k <x>) (b ^v <y>) --> (modify 1 ^j 0))",
        {"cross": (1, 2, 3)},
        [
            ("+", "t1", "t", {"j": 1}),
            ("+", "a1", "a", {"k": 1}),
            ("+", "b1", "b", {"v": 1}),
            ("-", "t1"),
        ],
    ),
    "deferred_predicates_and_node_sharing": (
        # lt and gt join (item ...) then lim, each with its own item
        # element and its own landed predicate; lt2 is lt again.
        "(p lt (lim ^v <m>) (item ^v <x> ^v < <m>) --> (modify 1 ^v 0))"
        "(p gt (lim ^v <m>) (item ^v <x> ^v > <m>) --> (modify 1 ^v 0))"
        "(p lt2 (lim ^v <m>) (item ^v <x> ^v < <m>) --> (remove 1))",
        {"lt": (2, 1), "gt": (2, 1), "lt2": (2, 1)},
        [
            ("+", "i1", "item", {"v": 1}),
            ("+", "i9", "item", {"v": 9}),
            ("+", "l5", "lim", {"v": 5}),
            ("~", "l5", {"v": 9}),
            ("-", "i1"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_EDGE_PROGRAMS))
def test_edge_programs_get_their_order_and_match_the_reference(name):
    text, expected_orders, script = _EDGE_PROGRAMS[name]
    rules = parse_program(text)
    assert _orders(rules) == expected_orders
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, rules)
    assert {r.name: rete.join_order(r.name) for r in rules} == expected_orders
    seen = _compare_after_every_delta(
        memory, rete, lambda: reference_conflict_set(rules, memory)
    )
    _run_script(memory, script)
    assert {rule for rule, _ in seen} == set(expected_orders)


def test_instantiations_carry_wmes_in_written_lhs_order():
    (rule,) = parse_program(_MANNERS_SHAPE)
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, [rule])
    _run_script(memory, _EDGE_PROGRAMS["manners_shape"][2][:9])
    (inst,) = [i for i in rete.conflict_set if i.bindings["g2"] == "bob"]
    assert [w.relation for w in inst.wmes] == [
        "context", "last", "hobby", "guest", "hobby"
    ]
    assert inst.wmes[2]["name"] == "ann" and inst.wmes[4]["name"] == "bob"
    assert list(inst.bindings) == sorted(inst.bindings)


def test_the_deferred_predicate_is_part_of_the_share_key():
    """A join node is shared only by rules it tests the same thing for:
    ``lt`` and ``gt`` share alpha memories and nothing else, ``lt2``
    shares the whole chain of ``lt``."""
    text, _, script = _EDGE_PROGRAMS["deferred_predicates_and_node_sharing"]
    lt, gt, lt2 = parse_program(text)
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, [lt, gt])
    assert rete.stats()["join_nodes"] == 4
    assert rete.stats()["alpha_memories"] == 2
    rete.add_production(lt2)
    assert rete.stats()["join_nodes"] == 4
    assert rete.stats()["reordered_productions"] == 3
    landed = {
        rule.name: rule.join_plan().steps[1].deferred[1]
        for rule in (lt, gt, lt2)
    }
    assert landed == {
        "lt": (("<", 0, 1),), "gt": ((">", 0, 1),), "lt2": (("<", 0, 1),)
    }
    assert {key[3] for key in rete._shared_nodes} == {
        step.deferred for rule in (lt, gt) for step in rule.join_plan().steps
    }
    _run_script(memory, script[:3])
    assert sorted(i.rule_name for i in rete.conflict_set) == [
        "gt", "lt", "lt2"
    ]


_WRITTEN_ORDER_RULES = (
    # every element is a target
    "(p all (a ^k <x>) (b ^k <x>) --> (modify 1 ^v 0) (remove 2))"
    # every other element is a lookup from the target
    "(p joins (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (modify 1 ^v 0))"
    # no target at all
    "(p none (a ^k <x>) (b ^v <y>) --> (make c ^k <x>))"
    # the target is last already
    "(p last (a ^k <x>) (b ^k <x>) --> (remove 2))"
)


def test_written_order_rules_keep_the_token_plan_itself():
    rules = parse_program(_WRITTEN_ORDER_RULES)
    for rule in rules:
        assert join_order(rule) == tuple(range(len(rule.lhs))), rule.name
        assert rule.join_plan() is rule.token_plan(), rule.name
        assert rule.join_plan() is rule.join_plan()
    rete = _attach(WorkingMemory(), ReteMatcher, rules)
    assert rete.stats()["reordered_productions"] == 0
    (moved,) = parse_program(_MANNERS_SHAPE)
    assert moved.join_plan() is moved.join_plan()
    assert moved.join_plan() is not moved.token_plan()
    assert moved.token_plan().order == tuple(range(6))


def test_pickled_production_re_derives_the_same_order():
    """Shards and worker processes get productions by pickle: the
    order is a function of the production alone."""
    for text in (_MANNERS_SHAPE, _WRITTEN_ORDER_RULES):
        for rule in parse_program(text):
            plan = rule.join_plan()
            clone = pickle.loads(pickle.dumps(rule))
            assert not hasattr(clone, "_join_plan")
            assert join_order(clone) == join_order(rule)
            assert clone.join_plan().order == plan.order
            assert [s.deferred for s in clone.join_plan().steps] == [
                s.deferred for s in plan.steps
            ]


# ---------------------------------------------------------------------------
# (b) the randomized programs really move
# ---------------------------------------------------------------------------


def test_generated_programs_reorder_and_defer():
    seen = Counter()

    @given(program=_random_program())
    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None
    )
    def collect(program):
        for rule in program:
            plan = rule.join_plan()
            seen["rules"] += 1
            seen["reordered"] += plan is not rule.token_plan()
            seen["deferring"] += any(s.deferred[1] for s in plan.steps)
            seen["negation_moved"] += any(
                s.negated and position != i
                for i, (s, position) in enumerate(zip(plan.steps, plan.order))
            )

            seen[f"tail{plan.tail}"] += 1

    collect()
    assert seen["rules"] >= 300
    assert seen["reordered"] >= 0.10 * seen["rules"], seen
    assert seen["deferring"] >= 0.01 * seen["rules"], seen
    assert seen["negation_moved"] >= 0.01 * seen["rules"], seen
    assert seen["tail2"] >= 0.03 * seen["rules"], seen
    assert seen["tail3"] >= 0.01 * seen["rules"], seen


# ---------------------------------------------------------------------------
# (c) what the order buys, by counting
# ---------------------------------------------------------------------------


def _count_tokens(monkeypatch) -> list[int]:
    """Count ``Token`` constructions from here on, in a one-element
    list."""
    tokens = [0]
    construct = nodes.Token.__init__

    def counted(self, *args):
        tokens[0] += 1
        construct(self, *args)

    monkeypatch.setattr(nodes.Token, "__init__", counted)
    return tokens


def test_manners_serial_inputs_build_few_tokens(monkeypatch):
    """``manners_serial``'s own inputs (72 guests, seed 5).  Joined as
    written, each of the 146 firings rebuilt the chain below ``last``:
    39 656 tokens; with ``last`` sunk, 13 494, most of them partial
    matches of the ``last`` join.  The tail below the stable prefix
    stores complete matches only, and the run makes 4 706
    instantiations: one token each, plus the prefix tokens."""
    text, facts = _e2e_workloads().manners_program(guests=72, seed=5)
    rules = parse_program(text)
    calls = _count_join_tests(rules)
    memory = WorkingMemory()
    for relation, values in facts:
        memory.make(relation, values)
    engine = Interpreter(rules, memory, matcher="rete", strategy="priority")
    tokens = _count_tokens(monkeypatch)
    result = engine.run()
    engine.close()
    assert len(result.firings) == 146
    assert 0 < tokens[0] <= 6_000
    assert 0 < calls[0] <= 60_000


def test_one_alpha_memory_feeding_two_joins_builds_each_token_once(
    monkeypatch,
):
    """``(a) (a)``: the lower join is right-activated before the upper
    one builds the token that meets the new WME again from the left.
    Right-activated after it, every add built 2 tokens twice.  A
    complete match is one token — the production node hangs its
    instantiation on the join's token — so the adds build 2, 4, 2
    (3, 7, 3 while the production node built a token of its own)."""
    rules = parse_program("(p r (a ^k <x>) (a ^k <x>) --> (remove 1))")
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, rules)
    tokens = _count_tokens(monkeypatch)
    built, sizes = [], []
    for k in (1, 1, 2):
        before = tokens[0]
        memory.make("a", k=k)
        built.append(tokens[0] - before)
        sizes.append(len(rete.conflict_set))
    assert sizes == [1, 4, 5]
    assert built == [2, 4, 2]
    rete.audit()


def _tails(rete) -> list[TailNode]:
    return [
        node
        for node in rete._shared_nodes.values()
        if isinstance(node, TailNode)
    ]


def test_one_alpha_memory_feeding_two_tail_positions_builds_each_match_once(
    monkeypatch,
):
    """Both tail positions read the ``pair`` memory, so a new pair
    seeds the join from both.  A seed builds only the matches whose
    first position holding the new WME is its own: ``pair 1 1`` meets
    itself once, not once per position (2 tail tokens for 1
    instantiation before the rule)."""
    rules = parse_program(
        "(p pairs (pair ^x <a> ^y <b>) (pair ^x <b> ^y <c>) (ctl ^on 1)"
        " --> (modify 1 ^x 0))"
    )
    assert _orders(rules) == {"pairs": (3, 1, 2)}
    assert rules[0].join_plan().tail == 2
    memory = WorkingMemory()
    memory.make("ctl", on=1)
    rete = _attach(memory, ReteMatcher, rules)
    _compare_after_every_delta(
        memory, rete, lambda: reference_conflict_set(rules, memory)
    )
    (tail,) = _tails(rete)
    tokens = _count_tokens(monkeypatch)
    built, sizes, pairs = [], [], []
    for x, y in ((1, 1), (1, 2), (2, 1)):
        before = tokens[0]
        pairs.append(memory.make("pair", x=x, y=y))
        built.append(tokens[0] - before)
        sizes.append(len(rete.conflict_set))
    assert built == [1, 1, 3]
    assert sizes == [1, 2, 5]
    assert len(tail.tokens) == 5
    memory.remove(pairs[0])
    assert len(tail.tokens) == len(rete.conflict_set) == 2
    assert pairs[0].timetag not in rete.state._tokens_by_wme


def test_prefix_and_tail_sharing_one_alpha_memory_build_each_match_once():
    """Manners' ``hobby`` feeds the prefix (``<g2>``'s hobby) and the
    tail (``<g1>``'s).  With ``<g1>`` = ``<g2>`` one new hobby WME is
    both: the tail's seed runs before the prefix join, so the prefix
    token that WME creates meets it from the left only."""
    (rule,) = parse_program(_MANNERS_SHAPE)
    assert rule.join_plan().tail == 2
    memory = WorkingMemory()
    memory.make("context", phase="seat")
    memory.make("guest", name="ann", sex="f")
    memory.make("last", seat=1, name="ann", sex="m")  # not ann's own sex
    rete = _attach(memory, ReteMatcher, [rule])
    _compare_after_every_delta(
        memory, rete, lambda: reference_conflict_set([rule], memory)
    )
    (tail,) = _tails(rete)
    hobby = memory.make("hobby", name="ann", h="h9")
    (inst,) = rete.conflict_set
    assert inst.wmes[2] is inst.wmes[4] is hobby
    assert len(tail.tokens) == 1
    memory.make("hobby", name="ann", h="h0")
    assert len(tail.tokens) == len(rete.conflict_set) == 2
    rete.audit()


# ---------------------------------------------------------------------------
# (d) the benchmark's rules
# ---------------------------------------------------------------------------


def test_benchmark_rules_get_exactly_these_orders():
    """Manners sinks its context / ``last``; in lanes and orders every
    element is a target or joins one, so the written order — and the
    node topology the lock-bound workloads were measured with —
    stands."""
    workloads = _e2e_workloads()
    manners, _ = workloads.manners_program(guests=8, seed=1)
    expected = {}
    for party in range(workloads.MANNERS_PARTIES):
        expected[f"seed-first-seat-{party}"] = (2, 1)
        expected[f"extend-seating-{party}"] = (1, 4, 5, 6, 2, 3)
        expected[f"all-seated-{party}"] = (2, 3, 1)
    assert _orders(parse_program(manners)) == expected
    extend = parse_program(manners)[1].join_plan()
    assert [str(p) for p in extend.steps[1].deferred[0]] == ["^sex <> <s1>"]
    assert [op for op, _, _ in extend.steps[4].deferred[1]] == ["<>"]
    for text in (workloads._LANES_RULES, workloads._ORDERS_RULES):
        for rule in parse_program(text):
            assert rule.join_plan() is rule.token_plan(), rule.name
    assert sorted(
        rule.name
        for text in (workloads._LANES_RULES, workloads._ORDERS_RULES)
        for rule in parse_program(text)
    ) == ["bump", "pack", "pick", "reserve", "ship", "work"]
