"""One token per match: the production node hangs its instantiation on
the incoming token instead of building a token of its own.

What that asks of retraction: rules whose join chains are identical
share the parent store, so one token carries an instantiation per such
rule and removing one rule must take only its own; a negation joined
last blocks and unblocks the very token the instantiation hangs on;
and once memory is empty nothing is left — not in the conflict set,
not in the network's WME maps.

A reordered rule's tail stores one token per complete match, a child
of its prefix token registered under every tail WME: blocking or
unblocking the prefix token, removing a tail WME and removing the rule
must each leave exactly what a fresh network would hold.
"""

from __future__ import annotations

from repro.lang import parse_program
from repro.match.rete.network import ReteMatcher
from repro.match.rete.nodes import JoinNode
from repro.match.rete.tail import TailNode, TailToken
from repro.wm import WorkingMemory

from reference_matcher import conflict_set_of, reference_conflict_set


def _rete(text: str, memory: WorkingMemory) -> ReteMatcher:
    rete = ReteMatcher(memory)
    rete.add_productions(parse_program(text))
    rete.attach()
    return rete


def _names(rete: ReteMatcher) -> list[str]:
    return sorted(i.production.name for i in rete.conflict_set)


def test_removing_one_of_two_rules_with_one_lhs_keeps_the_other():
    memory = WorkingMemory()
    for k in (1, 2):
        memory.make("a", k=k)
        memory.make("b", k=k)
    rete = _rete(
        """
        (p first (a ^k <x>) (b ^k <x>) --> (halt))
        (p second (a ^k <x>) (b ^k <x>) --> (halt))
        """,
        memory,
    )
    assert rete.stats()["join_nodes"] == 2
    assert _names(rete) == ["first", "first", "second", "second"]
    carried = [
        token.instantiation
        for token in rete._pnodes["first"].parent.tokens
    ]
    assert [len(held) for held in carried] == [2, 2]

    rete.remove_production("first")
    assert _names(rete) == ["second", "second"]
    assert all(
        token.instantiation.production.name == "second"
        for token in rete._pnodes["second"].parent.tokens
    )
    memory.make("a", k=2)
    assert _names(rete) == ["second"] * 3
    rete.remove_production("second")
    assert len(rete.conflict_set) == 0
    rete.audit()


def test_a_negation_joined_last_blocks_and_unblocks_the_instantiation():
    memory = WorkingMemory()
    memory.make("a", k=1)
    rete = _rete("(p lonely (a ^k <x>) -(b ^k <x>) --> (halt))", memory)
    assert _names(rete) == ["lonely"]
    (token,) = rete._pnodes["lonely"].parent.tokens
    assert token.instantiation in rete.conflict_set

    blocker = memory.make("b", k=1)
    assert len(rete.conflict_set) == 0
    assert token.instantiation is None and token.blockers
    memory.make("b", k=2)
    assert len(rete.conflict_set) == 0

    memory.remove(blocker)
    assert _names(rete) == ["lonely"]
    assert token.instantiation in rete.conflict_set
    rete.audit()


def test_clearing_memory_leaves_the_network_empty():
    memory = WorkingMemory()
    for k in range(4):
        memory.make("a", k=k % 2)
        memory.make("b", k=k % 3)
    rete = _rete(
        """
        (p pair (a ^k <x>) (b ^k <x>) --> (remove 1))
        (p twin (a ^k <x>) (a ^k <x>) --> (remove 2))
        (p lonely (a ^k <x>) -(b ^k <x>) --> (halt))
        """,
        memory,
    )
    assert len(rete.conflict_set) > 0
    memory.clear()
    assert len(rete.conflict_set) == 0
    assert rete.state._tokens_by_wme == {}
    assert rete.state._blocked_by_wme == {}
    rete.audit()


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------

#: Manners' ``extend-seating``: joined (context, guest, hobby, -seated)
#: then the tail (last, hobby), with guest's ``^sex <> <s1>`` landing on
#: the tail's ``last`` step.
_EXTEND = """
(p extend
   (context ^phase "seat")
   (last ^seat <n> ^name <g1> ^sex <s1>)
   (hobby ^name <g1> ^h <h>)
   (guest ^name <g2> ^sex <s2> ^sex <> <s1>)
   (hobby ^name <g2> ^h <h>)
   -(seated ^name <g2>)
   -->
   (modify 2 ^seat (<n> + 1) ^name <g2> ^sex <s2>))
"""


def _party(memory: WorkingMemory) -> dict:
    held = {"context": memory.make("context", phase="seat")}
    for name, sex in (("ann", "f"), ("bob", "m"), ("cy", "m")):
        held[name] = memory.make("guest", name=name, sex=sex)
        held[f"{name}-h0"] = memory.make("hobby", name=name, h="h0")
    held["last"] = memory.make("last", seat=1, name="ann", sex="f")
    return held


def _tail_rete(text: str, memory: WorkingMemory):
    """The attached matcher and its one tail node, checked against the
    reference over its current rules after every delta."""
    rete = _rete(text, memory)

    def check(delta=None):
        rete.audit()
        rules = list(rete.productions.values())
        assert conflict_set_of(rete) == reference_conflict_set(
            rules, memory
        ), delta

    check()
    memory.subscribe(check)
    (tail,) = [
        n for n in rete._shared_nodes.values() if isinstance(n, TailNode)
    ]
    return rete, tail


def _matched_guests(rete: ReteMatcher) -> list[str]:
    return sorted(i.bindings["g2"] for i in rete.conflict_set)


def test_a_negation_unblocks_a_prefix_token_into_the_tail():
    memory = WorkingMemory()
    held = _party(memory)
    seated = memory.make("seated", name="bob")
    rete, tail = _tail_rete(_EXTEND, memory)
    assert rete.stats()["tail_nodes"] == 1
    assert _matched_guests(rete) == ["cy"]

    memory.remove(seated)
    assert _matched_guests(rete) == ["bob", "cy"]
    for token in tail.tokens:
        assert type(token) is TailToken
        assert token in token.parent.children
        assert token.tail_wmes == (held["last"], held["ann-h0"])
        assert token.instantiation in rete.conflict_set
    memory.make("seated", name="cy")
    assert _matched_guests(rete) == ["bob"]
    assert len(tail.tokens) == 1


def test_removing_a_tail_wme_deletes_its_matches_and_registrations():
    memory = WorkingMemory()
    held = _party(memory)
    rete, tail = _tail_rete(_EXTEND, memory)
    assert len(tail.tokens) == len(rete.conflict_set) == 2
    registered = rete.state._tokens_by_wme
    assert len(registered[held["last"].timetag]) == 2

    memory.remove(held["ann-h0"])  # <g1>'s hobby: a tail WME
    assert len(tail.tokens) == len(rete.conflict_set) == 0
    assert held["ann-h0"].timetag not in registered
    assert held["last"].timetag not in registered
    memory.make("hobby", name="ann", h="h0")
    assert _matched_guests(rete) == ["bob", "cy"]
    memory.remove(held["last"])
    assert not tail.tokens and not rete.conflict_set
    memory.clear()
    assert rete.state._tokens_by_wme == {}
    assert rete.state._blocked_by_wme == {}


def test_a_deferred_predicate_landing_in_the_tail_still_judges():
    """``^sex <> <s1>`` belongs to ``guest`` in the prefix but is
    tested on the tail's ``last`` step, from the left (a new guest) and
    from a seed (a new ``last``) alike."""
    (rule,) = parse_program(_EXTEND)
    plan = rule.join_plan()
    assert plan.tail == 2
    assert [op for op, _, _ in plan.steps[4].deferred[1]] == ["<>"]
    memory = WorkingMemory()
    held = _party(memory)
    rete, _ = _tail_rete(_EXTEND, memory)
    assert _matched_guests(rete) == ["bob", "cy"]  # ann is f like last

    held["bob"] = memory.modify(held["bob"], {"sex": "f"})
    assert _matched_guests(rete) == ["cy"]
    memory.make("guest", name="dee", sex="m")
    memory.make("hobby", name="dee", h="h0")
    assert _matched_guests(rete) == ["cy", "dee"]
    memory.modify(held["last"], {"sex": "m", "seat": 2})
    assert _matched_guests(rete) == ["ann", "bob"]


def test_removing_a_tail_rule_releases_its_seeds_and_indexes():
    """``s`` shares the prefix (ctl, d) of ``t``, whose tail (a, b)
    reads the ``a`` memory ``s`` joins too.  Removing ``t`` takes its
    seeds off both memories, releases the indexes only it read, drops
    the ``b`` memory, and leaves ``s`` and the prefix as they were;
    re-adding it matches like a fresh network."""
    text = (
        "(p t (a ^k <x>) (b ^k <x>) (ctl ^on 1) (d ^j <z>)"
        " --> (modify 1 ^k 0))"
        "(p s (ctl ^on 1) (d ^j <z>) (a ^k <z>) --> (make e ^z <z>))"
    )
    t_rule, s_rule = parse_program(text)
    assert t_rule.join_plan().tail == 2
    memory = WorkingMemory()
    memory.make("ctl", on=1)
    for k in (1, 2):
        memory.make("a", k=k)
        memory.make("b", k=k)
        memory.make("d", j=k)
    rete, tail = _tail_rete(text, memory)
    assert rete.stats()["join_nodes"] == 3
    assert rete.stats()["tail_nodes"] == 1
    assert sorted(i.rule_name for i in rete.conflict_set) == ["s"] * 2 + [
        "t"
    ] * 4
    assert len(tail.tokens) == 4
    prefix = tail.parent
    assert tail in prefix.children
    alphas = {m.pattern.relation: m for m in rete.alpha.memories()}
    a_specs = dict(alphas["a"].indexes.by_spec)
    assert sorted(a_specs) == [(), ("k",)]
    assert a_specs[("k",)].users == 2  # s's join and the seed from b
    assert len(alphas["a"].successors) == 2  # a seed and s's join
    assert sorted(prefix.indexes.by_spec) == [(), (0,)]

    rete.remove_production("t")
    assert rete.stats()["tail_nodes"] == 0
    assert rete.stats()["join_nodes"] == 3
    assert sorted(m.pattern.relation for m in rete.alpha.memories()) == [
        "a", "ctl", "d"
    ]
    assert [type(n) for n in alphas["a"].successors] == [JoinNode]
    assert sorted(alphas["a"].indexes.by_spec) == [("k",)]
    assert alphas["a"].indexes.by_spec[("k",)].users == 1
    assert sorted(prefix.indexes.by_spec) == [(0,)]  # s's join probes it
    assert tail not in prefix.children
    assert not any(
        isinstance(token, TailToken)
        for tokens in rete.state._tokens_by_wme.values()
        for token in tokens
    )
    assert [i.rule_name for i in rete.conflict_set] == ["s", "s"]
    rete.audit()

    memory.make("a", k=3)
    memory.make("b", k=3)
    rete.add_production(t_rule)
    fresh = _rete(text, memory)
    assert conflict_set_of(rete) == conflict_set_of(fresh)
    assert len([i for i in rete.conflict_set if i.rule_name == "t"]) == 6
    rete.audit()
