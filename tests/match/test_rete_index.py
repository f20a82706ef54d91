"""Rete's hashed memories: same matches, same order, fewer join tests,
no residue.

Every join/negative node probes one bucket of a hash index on its join
key instead of scanning its alpha memory / token store.  The index is a
pre-filter and the compiled join test stays the judge, so nothing
observable may change — these tests pin that from four sides:

(a) edge programs where hashing could disagree with ``==`` (``1`` /
    ``1.0`` / ``True``, ``None``, NaN, a missing attribute) or where the
    key must leave a variable out, against three oracles — the naive
    matcher and the brute-force reference matcher over the element-level
    dict closures and over the seed's interpreted walks — after the
    build and after every delta;
(b) the conflict-set calls of every WM delta of a recorded Manners
    stream, as a digest of the per-delta sorted calls recorded with
    written-order joins, with the same three oracles alongside;
(c) join tests counted, not timed;
(d) the indexes recomputed from their memories after every step of a
    random delta stream, and nothing left once the store is empty.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.interpreter import Interpreter
from repro.lang import parse_program
from repro.lang.compile import compile_alpha
from repro.match import NaiveMatcher, ReteMatcher
from repro.match.conflict_set import ConflictSet
from repro.match.rete.nodes import NegativeNode
from repro.wm import WorkingMemory
from repro.workloads.manners import build_manners_memory, build_manners_rules

from reference_matcher import (
    conflict_set_of as _matches,
    interpreted_alpha,
    interpreted_beta,
    reference_conflict_set,
)
from test_compiled_equivalence import (
    _attach,
    _random_program,
    _wm_operation,
    apply_operation,
)


def _naive_oracle(memory, rules):
    naive = _attach(memory, NaiveMatcher, rules)
    return lambda: _matches(naive)


def _reference_oracle(evaluators):
    return lambda memory, rules: (
        lambda: reference_conflict_set(rules, memory, evaluators)
    )


#: id -> ``(memory, rules) -> expected()``.  The ids name what the
#: oracle joins over: the naive matcher's slot tuples, binding dicts
#: filtered by the element-level compiled alpha closure, binding dicts
#: through the interpreted walks alone.
_ORACLES = {
    "slotted": _naive_oracle,
    "dict_tokens": _reference_oracle((compile_alpha, interpreted_beta)),
    "interpreted": _reference_oracle((interpreted_alpha, interpreted_beta)),
}

_NAN = float("nan")


# ---------------------------------------------------------------------------
# (a) edge programs against the naive matcher
# ---------------------------------------------------------------------------

#: name -> (rule text, script).  A script step is ``("+", label,
#: relation, values)``, ``("-", label)`` or ``("~", label, changes)``;
#: rete and the oracle are compared, and rete audited, after every
#: delta.
_EDGE_PROGRAMS = {
    "equal_values_of_unlike_types": (
        "(p j (a ^k <x>) (b ^k <x>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1}),
            ("+", "b1", "b", {"k": 1.0}),
            ("+", "b2", "b", {"k": True}),
            ("+", "b3", "b", {"k": "1"}),
            ("+", "a2", "a", {"k": True}),
            ("+", "a3", "a", {"k": 1.0}),
            ("+", "a4", "a", {"k": 0}),
            ("+", "b4", "b", {"k": False}),
            ("+", "b5", "b", {"k": -0.0}),
            ("-", "b1"),
            ("~", "a1", {"k": 0.0}),
        ],
    ),
    "none_joins_none": (
        "(p j (a ^k <x>) (b ^k <x>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": None}),
            ("+", "b1", "b", {"k": None}),
            ("+", "b2", "b", {"k": 0}),
            ("+", "b3", "b", {"k": "None"}),
            ("-", "a1"),
            ("+", "a2", "a", {"k": None}),
        ],
    ),
    "missing_join_attribute": (
        "(p j (a ^k <x>) (b ^k <x> ^v <y>) -(c ^k <x>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1}),
            ("+", "b1", "b", {"v": 5}),
            ("+", "b2", "b", {"k": 1, "v": 5}),
            ("+", "c1", "c", {"v": 1}),
            ("+", "a2", "a", {"v": 1}),
            ("+", "c2", "c", {"k": 1}),
            ("-", "c2"),
            ("-", "b1"),
        ],
    ),
    "nan_never_joins": (
        "(p j (a ^k <x>) (b ^k <x>) -(c ^k <x>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": _NAN}),
            ("+", "b1", "b", {"k": _NAN}),  # the very same object
            ("+", "b2", "b", {"k": float("nan")}),
            ("+", "a2", "a", {"k": 2}),
            ("+", "b3", "b", {"k": 2}),
            ("+", "c1", "c", {"k": _NAN}),
            ("-", "a1"),
            ("-", "b1"),
            ("-", "c1"),
        ],
    ),
    "one_variable_twice_in_one_element": (
        "(p bound (a ^k <x>) (b ^k <x> ^v <x>) --> (remove 1))"
        "(p fresh (b ^k <y> ^v <y>) (a ^k <y>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1}),
            ("+", "b1", "b", {"k": 1, "v": 1}),
            ("+", "b2", "b", {"k": 1, "v": 2}),
            ("+", "b3", "b", {"k": 2, "v": 2}),
            ("+", "a2", "a", {"k": 2}),
            ("+", "b4", "b", {"k": 1, "v": True}),
            ("~", "b2", {"v": 1}),
            ("-", "a1"),
        ],
    ),
    "variable_first_seen_in_a_negation": (
        "(p j (a ^k <x>) -(b ^v <y>) (c ^v <y>) (d ^v <y>)"
        " --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1}),
            ("+", "c1", "c", {"v": 7}),
            ("+", "c2", "c", {"v": 8}),
            ("+", "d1", "d", {"v": 7}),
            ("+", "d2", "d", {"v": 9}),
            ("+", "b1", "b", {"v": 100}),
            ("+", "d3", "d", {"v": 8}),
            ("-", "b1"),
            ("-", "c1"),
        ],
    ),
    "predicate_only_element": (
        "(p j (a ^k <x>) (b ^k > <x>) (c ^k <x>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1}),
            ("+", "b1", "b", {"k": 2}),
            ("+", "b2", "b", {"k": 0}),
            ("+", "b3", "b", {"k": "z"}),
            ("+", "c1", "c", {"k": 1}),
            ("+", "a2", "a", {"k": -1}),
            ("+", "c2", "c", {"k": -1}),
            ("-", "b1"),
        ],
    ),
    "shared_store_two_key_specs": (
        "(p byx (a ^k <x> ^v <y>) (b ^k <x>) --> (remove 1))"
        "(p byy (a ^k <x> ^v <y>) (c ^v <y>) --> (remove 1))"
        "(p byxy (a ^k <x> ^v <y>) (d ^k <x> ^v <y>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1, "v": 2}),
            ("+", "b1", "b", {"k": 1}),
            ("+", "c1", "c", {"v": 2}),
            ("+", "d1", "d", {"k": 1, "v": 2}),
            ("+", "d2", "d", {"k": 2, "v": 1}),
            ("+", "a2", "a", {"k": 2, "v": 1}),
            ("+", "b2", "b", {"k": 2}),
            ("-", "a1"),
            ("~", "a2", {"v": 2}),
        ],
    ),
    "negative_node_right_activated_while_blocked": (
        "(p j (a ^k <x>) -(b ^k <x>) (c ^k <x>) --> (remove 1))",
        [
            ("+", "a1", "a", {"k": 1}),
            ("+", "a2", "a", {"k": 2}),
            ("+", "c1", "c", {"k": 1}),
            ("+", "c2", "c", {"k": 2}),
            ("+", "b1", "b", {"k": 1}),   # blocks a1's token
            ("+", "b2", "b", {"k": 2}),   # a1's token blocked meanwhile
            ("+", "b3", "b", {"k": 1}),   # second blocker, same token
            ("+", "c3", "c", {"k": 1}),   # join below skips the blocked
            ("-", "b1"),                  # still blocked by b3
            ("-", "b3"),                  # unblocked: c1 and c3 rejoin
            ("-", "b2"),
        ],
    ),
}


def _run_script(memory, script):
    held = {}
    for step in script:
        if step[0] == "+":
            _, label, relation, values = step
            held[label] = memory.make(relation, values)
        elif step[0] == "-":
            memory.remove(held.pop(step[1]))
        else:
            _, label, changes = step
            held[label] = memory.modify(held[label], changes)


def _compare_after_every_delta(memory, rete, expected) -> set:
    """Audit ``rete`` and compare it with ``expected()`` now and after
    every delta from here on; returns the (growing) set of identities
    seen."""
    seen = set()

    def compare(delta=None):
        rete.audit()
        matches = _matches(rete)
        assert matches == expected(), delta
        seen.update(matches)

    compare()
    memory.subscribe(compare)
    return seen


@pytest.mark.parametrize("mode", sorted(_ORACLES))
@pytest.mark.parametrize("name", sorted(_EDGE_PROGRAMS))
def test_edge_programs_match_naive(name, mode):
    text, script = _EDGE_PROGRAMS[name]
    memory = WorkingMemory()
    rules = parse_program(text)
    rete = _attach(memory, ReteMatcher, rules)
    expected = _ORACLES[mode](memory, rules)
    seen = _compare_after_every_delta(memory, rete, expected)
    _run_script(memory, script)
    assert seen, "the script never produced a match"


def _key_variables(rule) -> list[tuple[str, ...]]:
    """Per LHS position, the variables of the step's join key."""
    plan = rule.token_plan()
    names = plan.index.names
    return [
        tuple(names[slot] for _, slot in step.probe_items)
        for step in plan.steps
    ]


def test_join_key_is_the_positively_bound_variable_tests():
    (negation_first,) = parse_program(_EDGE_PROGRAMS[
        "variable_first_seen_in_a_negation"][0])
    # <y> has a slot from the negated element on, but is bound by c:
    # unusable as c's key, the key of d.
    assert _key_variables(negation_first) == [(), (), (), ("y",)]
    (predicate_only,) = parse_program(_EDGE_PROGRAMS[
        "predicate_only_element"][0])
    assert _key_variables(predicate_only) == [(), (), ("x",)]
    bound, fresh = parse_program(_EDGE_PROGRAMS[
        "one_variable_twice_in_one_element"][0])
    assert _key_variables(bound) == [(), ("x", "x")]
    assert _key_variables(fresh) == [(), ("y",)]


def test_shared_store_keeps_one_index_per_child_key_spec():
    text, script = _EDGE_PROGRAMS["shared_store_two_key_specs"]
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, parse_program(text))
    _run_script(memory, script)
    assert rete.stats()["join_nodes"] == 4  # one shared, three leaves
    shared = [s for s in rete._stores() if len(s.children) == 3]
    assert len(shared) == 1
    specs = sorted(shared[0].indexes.by_spec)
    assert specs == [(0,), (0, 1), (1,)]
    rete.remove_production("byxy")
    assert sorted(shared[0].indexes.by_spec) == [(0,), (1,)]
    rete.audit()


# ---------------------------------------------------------------------------
# (b) content pin
# ---------------------------------------------------------------------------

#: Recorded at 8b86f77 (written-order joins), identical in all three
#: oracle modes.  The calls of one WM delta are sorted before hashing:
#: a matcher is free to emit the matches of one delta in any order (a
#: join order changes exactly that), never to add, drop or move one to
#: another delta.
_PARENT_CONTENT_DIGEST = "2fd2d459dfa227b5"
_PARENT_CONTENT_CALLS = 162


class _RecordingConflictSet(ConflictSet):
    """Hashes every ``add`` / ``remove`` call, delta by delta: the
    calls one WM delta caused are hashed in sorted order when
    :meth:`end_of_delta` closes it."""

    def __init__(self, base_timetag: int) -> None:
        super().__init__()
        self._base = base_timetag
        self._pending: list[str] = []
        self.sha = hashlib.sha256()
        self.calls = 0

    def _note(self, op, inst) -> None:
        self.calls += 1
        self._pending.append(repr((
            op,
            inst.production.name,
            tuple(w.timetag - self._base for w in inst.wmes),
            inst.bindings_items,
        )))

    def add(self, inst) -> bool:
        self._note("+", inst)
        return super().add(inst)

    def remove(self, inst) -> bool:
        self._note("-", inst)
        return super().remove(inst)

    def end_of_delta(self, delta=None) -> None:
        for note in sorted(self._pending):
            self.sha.update(note.encode())
        self.sha.update(b"|")
        self._pending.clear()


def _recorded_manners_stream():
    """A Manners run's initial facts and its WM delta stream (driven
    by TREAT, so the recording does not depend on the code under
    test)."""
    memory = build_manners_memory(n_guests=12, seed=5)
    initial = list(memory)
    deltas = []
    engine = Interpreter(
        build_manners_rules(), memory, matcher="treat", strategy="priority"
    )
    memory.subscribe(deltas.append)
    engine.run()
    engine.close()
    return initial, deltas


@pytest.mark.parametrize("mode", sorted(_ORACLES))
def test_conflict_set_call_order_is_the_parents(mode):
    """Per WM delta, the same conflict-set calls as the parent (their
    order inside one delta is the matcher's own business)."""
    initial, deltas = _recorded_manners_stream()
    assert len(deltas) == 51
    memory = WorkingMemory()
    rules = build_manners_rules()
    rete = ReteMatcher(memory)
    # Timetags are process-wide; the digest takes them relative.
    recorded = rete.conflict_set = _RecordingConflictSet(initial[0].timetag)
    rete.add_productions(rules)
    rete.attach()
    # Subscribed after the matcher: runs once the delta is matched.
    memory.subscribe(recorded.end_of_delta)
    _compare_after_every_delta(memory, rete, _ORACLES[mode](memory, rules))
    for wme in initial:
        memory.add(wme)
    for delta in deltas:
        memory.apply(delta)
    assert recorded.calls == _PARENT_CONTENT_CALLS
    assert recorded.sha.hexdigest()[:16] == _PARENT_CONTENT_DIGEST


# ---------------------------------------------------------------------------
# (c) complexity by counting
# ---------------------------------------------------------------------------


def _count_join_tests(rules) -> list[int]:
    """Wrap every join step's ``beta``; the returned one-element
    list counts calls.  Must run before the matcher is built (nodes
    bind ``step.beta`` once)."""
    calls = [0]
    for rule in rules:
        for step in rule.join_plan().steps:

            def counted(wme, token, _inner=step.beta):
                calls[0] += 1
                return _inner(wme, token)

            step.beta = counted
    return calls


def _e2e_workloads():
    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "e2e" / "workloads.py"
    )
    spec = importlib.util.spec_from_file_location("_e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def test_manners_serial_inputs_need_few_join_tests():
    """``manners_serial``'s own inputs: the parent ran 3.76 M join
    tests for these 146 firings, one per (token, WME) pair scanned."""
    text, facts = _e2e_workloads().manners_program(guests=72, seed=7)
    rules = parse_program(text)
    calls = _count_join_tests(rules)
    memory = WorkingMemory()
    for relation, values in facts:
        memory.make(relation, values)
    engine = Interpreter(rules, memory, matcher="rete", strategy="priority")
    result = engine.run()
    engine.close()
    assert len(result.firings) == 146
    assert 0 < calls[0] <= 60_000


@pytest.mark.parametrize("size", [10, 1000])
def test_join_tests_per_activation_independent_of_memory_size(size):
    rules = parse_program("(p j (a ^k <x>) (b ^k <x>) --> (remove 1))")
    calls = _count_join_tests(rules)
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, rules)
    for k in range(size):
        memory.make("b", k=k)
        memory.make("a", k=-1 - k)
    # One left activation against `size` b's, one right activation
    # against `size` a-tokens: one candidate each.
    before = calls[0]
    memory.make("a", k=3)
    assert calls[0] - before == 2  # a's own join with the root, then b3
    before = calls[0]
    memory.make("b", k=-4)
    assert calls[0] - before == 1
    assert len(rete.conflict_set) == 2


# ---------------------------------------------------------------------------
# (d) hygiene
# ---------------------------------------------------------------------------


def _assert_nothing_left(rete) -> None:
    assert not rete.state._tokens_by_wme
    assert not rete.state._blocked_by_wme
    for alpha in rete.alpha.memories():
        assert not alpha.items
        assert all(not i.buckets for i in alpha.indexes.by_spec.values())
    for store in rete._stores():
        if store is rete.top:
            assert list(store.tokens) == [rete.top.root]
            continue
        # Below leading negations the root's absence-only descendants
        # stay (and stay indexed; ``audit`` covers that); nothing that
        # ever held a WME does.
        assert not [token for token in store.tokens if token.wmes()]
        if not store.tokens:
            assert all(not i.buckets for i in store.indexes.by_spec.values())


@given(
    program=_random_program(),
    operations=st.lists(_wm_operation, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_indexes_track_their_memories_and_leave_nothing(program, operations):
    memory = WorkingMemory()
    for relation in ("a", "b", "c"):
        memory.make(relation, k=1, v=1)
    rete = _attach(memory, ReteMatcher, program)
    naive = _attach(memory, NaiveMatcher, program)
    rete.audit()
    for operation in operations:
        apply_operation(memory, operation)
        rete.audit()
        assert _matches(rete) == _matches(naive)
    memory.clear()
    rete.audit()
    assert rete.conflict_set.is_empty()
    _assert_nothing_left(rete)


def test_audit_catches_a_drifted_index():
    from repro.errors import MatchError

    memory = WorkingMemory()
    rules = parse_program("(p j (a ^k <x>) (b ^k <x>) --> (remove 1))")
    rete = _attach(memory, ReteMatcher, rules)
    wme = memory.make("b", k=1)
    rete.audit()
    (alpha,) = [m for m in rete.alpha.memories() if m.pattern.relation == "b"]
    alpha.items.pop(wme.timetag)  # behind the indexes' back
    with pytest.raises(MatchError, match="drifted"):
        rete.audit()


# ---------------------------------------------------------------------------
# remove_production takes the rule's nodes out
# ---------------------------------------------------------------------------

_REMOVABLE = (
    "(p solo (a ^k <x>) (b ^k <x>) -(c ^k <x>) --> (remove 1))"
)


def test_removed_production_runs_no_join_tests():
    rules = parse_program(_REMOVABLE)
    calls = _count_join_tests(rules)
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, rules)
    memory.make("a", k=1)
    memory.make("b", k=1)
    assert len(rete.conflict_set) == 1 and calls[0] > 0

    rete.remove_production("solo")
    assert rete.conflict_set.is_empty()
    stats = rete.stats()
    assert stats["join_nodes"] == stats["negative_nodes"] == 0
    assert stats["production_nodes"] == stats["alpha_memories"] == 0
    assert rete.top.children == []
    assert not rete.state._tokens_by_wme and not rete.state._blocked_by_wme

    before = calls[0]
    blocker = memory.make("c", k=1)
    memory.make("a", k=1)
    memory.make("b", k=1)
    memory.remove(blocker)
    assert calls[0] == before
    assert rete.conflict_set.is_empty()


def test_re_added_production_matches_like_a_fresh_matcher():
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, parse_program(_REMOVABLE))
    for k in (1, 2, 3):
        memory.make("a", k=k)
        memory.make("b", k=k)
    memory.make("c", k=2)
    rete.remove_production("solo")
    memory.make("a", k=3)
    rete.add_productions(parse_program(_REMOVABLE))
    fresh = _attach(memory, ReteMatcher, parse_program(_REMOVABLE))
    assert _matches(rete) == _matches(fresh) and len(_matches(rete)) == 3
    assert [i.identity() for i in rete.conflict_set] == [
        i.identity() for i in fresh.conflict_set
    ]
    rete.audit()
    memory.make("c", k=3)
    assert _matches(rete) == _matches(fresh) and len(_matches(rete)) == 1


def test_removing_one_of_two_prefix_sharing_rules_keeps_the_prefix():
    text = (
        "(p long (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (remove 1))"
        "(p short (a ^k <x>) (b ^k <x>) --> (remove 1))"
    )
    memory = WorkingMemory()
    rete = _attach(memory, ReteMatcher, parse_program(text))
    for relation in ("a", "b", "c"):
        memory.make(relation, k=1)
    assert rete.stats()["join_nodes"] == 3
    assert len(rete.conflict_set) == 2

    rete.remove_production("long")
    stats = rete.stats()
    assert stats["join_nodes"] == 2 and stats["alpha_memories"] == 2
    assert [i.rule_name for i in rete.conflict_set] == ["short"]
    memory.make("b", k=1)
    memory.make("c", k=1)
    assert len(rete.conflict_set) == 2  # short twice, long never
    rete.audit()

    rete.remove_production("short")
    assert rete.stats()["join_nodes"] == 0
    assert rete.conflict_set.is_empty()
    assert not any(isinstance(s, NegativeNode) for s in rete._stores())
    assert rete._stores() == [rete.top]
