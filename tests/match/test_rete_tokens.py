"""One token per match: the production node hangs its instantiation on
the incoming token instead of building a token of its own.

What that asks of retraction: rules whose join chains are identical
share the parent store, so one token carries an instantiation per such
rule and removing one rule must take only its own; a negation joined
last blocks and unblocks the very token the instantiation hangs on;
and once memory is empty nothing is left — not in the conflict set,
not in the network's WME maps.
"""

from __future__ import annotations

from repro.lang import parse_program
from repro.match.rete.network import ReteMatcher
from repro.wm import WorkingMemory


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
