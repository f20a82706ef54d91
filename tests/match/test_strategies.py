"""Tests for conflict-resolution strategies."""

import itertools
from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match.conflict_set import ConflictSet
from repro.match.instantiation import Instantiation
from repro.match.strategies import (
    FifoStrategy,
    LexStrategy,
    MeaStrategy,
    PriorityStrategy,
    RandomStrategy,
    Strategy,
    make_strategy,
)
from repro.wm.element import WME


def rule(name, priority=0, tests=1):
    builder = RuleBuilder(name, priority=priority)
    kwargs = {f"a{i}": var(f"x{i}") for i in range(tests)}
    return builder.when("item", **kwargs).remove(1).build()


def inst(production, *tags):
    wmes = tuple(
        WME.make("item", {"i": n}, timetag=t) for n, t in enumerate(tags)
    )
    return Instantiation.build(production, wmes, {})


class TestLex:
    def test_prefers_recency(self):
        r = rule("r")
        old, new = inst(r, 1), inst(r, 9)
        assert LexStrategy().select([old, new]) is new

    def test_recency_is_lexicographic(self):
        r = rule("r")
        a = inst(r, 9, 1)
        b = inst(r, 9, 5)
        assert LexStrategy().select([a, b]) is b

    def test_specificity_breaks_ties(self):
        specific = rule("specific", tests=3)
        vague = rule("vague", tests=1)
        a = inst(specific, 5)
        b = inst(vague, 5)
        assert LexStrategy().select([a, b]) is a

    def test_deterministic_on_full_tie(self):
        a, b = inst(rule("aaa"), 5), inst(rule("bbb"), 5)
        first = LexStrategy().select([a, b])
        second = LexStrategy().select([b, a])
        assert first is second


class TestMea:
    def test_first_element_recency_dominates(self):
        r = rule("r")
        goal_recent = inst(r, 10, 1)
        rest_recent = inst(r, 2, 50)
        assert MeaStrategy().select([goal_recent, rest_recent]) is goal_recent


class TestPriority:
    def test_priority_wins(self):
        high = inst(rule("high", priority=5), 1)
        low = inst(rule("low", priority=1), 99)
        assert PriorityStrategy().select([high, low]) is high

    def test_lex_breaks_priority_ties(self):
        r1 = rule("a", priority=2)
        r2 = rule("b", priority=2)
        old, new = inst(r1, 1), inst(r2, 9)
        assert PriorityStrategy().select([old, new]) is new


class TestFifo:
    def test_oldest_first(self):
        r = rule("r")
        old, new = inst(r, 1), inst(r, 9)
        assert FifoStrategy().select([old, new]) is old


class TestRandom:
    def test_seeded_reproducibility(self):
        r = rule("r")
        candidates = [inst(r, t) for t in range(1, 8)]
        picks_a = [
            RandomStrategy(seed=5).select(candidates) for _ in range(3)
        ]
        picks_b = [
            RandomStrategy(seed=5).select(candidates) for _ in range(3)
        ]
        assert picks_a == picks_b

    def test_covers_multiple_choices(self):
        r = rule("r")
        candidates = [inst(r, t) for t in range(1, 8)]
        strategy = RandomStrategy(seed=0)
        picks = {strategy.select(candidates) for _ in range(50)}
        assert len(picks) > 1


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["lex", "mea", "priority", "fifo", "random"]
    )
    def test_known_names(self, name):
        assert make_strategy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_strategy("coin-flip")

    def test_all_strategies_pick_from_candidates(self):
        r = rule("r")
        candidates = [inst(r, t) for t in (3, 7, 2)]
        for name in ("lex", "mea", "priority", "fifo", "random"):
            chosen = make_strategy(name, seed=1).select(candidates)
            assert chosen in candidates


STRATEGIES = ["lex", "mea", "priority", "fifo", "random"]


def select_then_remove(strategy, candidates, limit=None):
    """Reference oracle for ``Strategy.order``: the selection sort the
    wave engines used to run — pick the dominant candidate, remove it,
    repeat ``limit`` times."""
    remaining = list(candidates)
    ordered = []
    while remaining and (limit is None or len(ordered) < limit):
        chosen = strategy.select(remaining)
        ordered.append(chosen)
        remaining.remove(chosen)
    return ordered


# Rule names tie-break LEX, so include one that is a prefix of another;
# priorities and test counts vary so every key component gets compared.
_RULES = [
    rule("r"), rule("ra"), rule("rb", tests=2),
    rule("b", priority=3), rule("ba", priority=3, tests=2),
]


@st.composite
def candidate_lists(draw):
    """Distinct instantiations with deliberate full ties: few timetags,
    so the same tags recur across rules and — permuted — within one."""
    picks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_RULES),
                st.lists(st.integers(0, 3), min_size=1, max_size=3),
            ),
            min_size=1, max_size=12,
            unique_by=lambda pick: (pick[0].name, tuple(pick[1])),
        )
    )
    return [inst(production, *tags) for production, tags in picks]


def same_objects(left, right):
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


class TestOrder:
    @pytest.mark.parametrize("name", STRATEGIES)
    @given(candidate_lists(), st.none() | st.integers(0, 14))
    @settings(max_examples=150, deadline=None)
    def test_order_equals_repeated_select_then_remove(
        self, name, candidates, limit
    ):
        expected = select_then_remove(
            make_strategy(name, seed=7), candidates, limit
        )
        ordered = make_strategy(name, seed=7).order(candidates, limit)
        assert same_objects(ordered, expected)

    @pytest.mark.parametrize("name", STRATEGIES)
    @given(candidate_lists())
    @settings(max_examples=50, deadline=None)
    def test_select_is_head_of_order(self, name, candidates):
        chosen = make_strategy(name, seed=7).select(candidates)
        assert chosen is make_strategy(name, seed=7).order(candidates, 1)[0]

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_order_leaves_candidates_untouched(self, name):
        candidates = [inst(_RULES[0], t) for t in (3, 7, 2)]
        before = list(candidates)
        make_strategy(name, seed=1).order(candidates, 2)
        assert same_objects(candidates, before)

    def test_former_full_tie_is_decided_by_lhs_order_timetags(self):
        # Same rule, same timetags in a different LHS order (MEA also
        # needs the same first timetag): tied on recency and rule, so
        # the list — the matcher's emission order — used to decide.
        a, b = inst(_RULES[0], 3, 1, 2), inst(_RULES[0], 3, 2, 1)
        for name in ("lex", "mea", "priority"):
            strategy = make_strategy(name)
            assert same_objects(strategy.order([a, b]), [b, a])
            assert same_objects(strategy.order([b, a]), [b, a])
        fifo = make_strategy("fifo")
        assert same_objects(fifo.order([a, b]), [a, b])
        assert same_objects(fifo.order([b, a]), [a, b])

    @pytest.mark.parametrize("name", ["lex", "mea", "priority", "fifo"])
    def test_list_order_never_decides(self, name):
        """Selection is a total order: whatever order the matcher
        emitted the candidates in, ``order`` and ``select`` agree."""
        candidates = [
            # one rule, the same timetags in three LHS orders
            inst(_RULES[0], 3, 1, 2),
            inst(_RULES[0], 3, 2, 1),
            inst(_RULES[0], 2, 3, 1),
            # the same recency under other rules (FIFO's tie)
            inst(_RULES[1], 3, 2, 1),
            inst(_RULES[3], 1, 2, 3),
            inst(_RULES[2], 4),
        ]
        strategy = make_strategy(name)
        expected = strategy.order(candidates)
        for shuffled in itertools.permutations(candidates):
            assert same_objects(strategy.order(shuffled), expected)
            assert same_objects(strategy.order(shuffled, 3), expected[:3])
            assert strategy.select(shuffled) is expected[0]

    def test_longer_name_wins_the_prefix_tiebreak(self):
        short, long = inst(_RULES[0], 5), inst(_RULES[1], 5)
        assert LexStrategy().order([short, long]) == [long, short]

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_builtins_satisfy_the_protocol(self, name):
        assert isinstance(make_strategy(name), Strategy)


class TestOneRanking:
    """``select`` is the first item of ``ranked`` and ``order(·, k)``
    its first ``k``, whatever ``width`` the ranking was asked with, on
    a plain list and on a conflict set's view ranked by the strategy's
    head alike."""

    @staticmethod
    def fresh(name, candidates, view):
        strategy = make_strategy(name, seed=7)  # a random draw restarts
        if not view:
            return strategy, list(candidates)
        cs = ConflictSet()
        cs.rank_by(strategy.head)
        for candidate in candidates:
            cs.add(candidate)
        return strategy, cs.eligible()

    @pytest.mark.parametrize("name", STRATEGIES)
    @given(candidate_lists(), st.integers(0, 14))
    @settings(max_examples=100, deadline=None)
    def test_select_and_order_are_the_start_of_ranked(
        self, name, candidates, limit
    ):
        strategy, pool = self.fresh(name, candidates, False)
        ranking = list(strategy.ranked(pool))
        assert sorted(map(id, ranking)) == sorted(map(id, candidates))
        for view in (False, True):
            strategy, pool = self.fresh(name, candidates, view)
            assert same_objects(list(strategy.ranked(pool)), ranking)
            strategy, pool = self.fresh(name, candidates, view)
            assert strategy.select(pool) is ranking[0]
            strategy, pool = self.fresh(name, candidates, view)
            assert same_objects(strategy.order(pool, limit), ranking[:limit])
            for width in (1, limit):
                strategy, pool = self.fresh(name, candidates, view)
                pulled = strategy.ranked(pool, width=width)
                assert same_objects(
                    list(islice(pulled, limit)), ranking[:limit]
                )


class TestLazyOrderContract:
    """What a Rete tail seed's best-first walk rests on: within one
    rule a lazy strategy's key orders matches by their sorted-
    descending timetags, then their LHS-order timetags, in the
    strategy's direction; and merging one fixed set of timetags into
    two matches keeps their order."""

    LAZY = [name for name in STRATEGIES if getattr(
        make_strategy(name), "lazy", False
    )]

    def test_the_lazy_strategies_are_lex_priority_and_fifo(self):
        assert self.LAZY == ["lex", "priority", "fifo"]

    @pytest.mark.parametrize("name", LAZY)
    @given(
        st.integers(1, 4).flatmap(lambda width: st.lists(
            st.lists(st.integers(0, 5), min_size=width, max_size=width),
            min_size=1, max_size=10, unique_by=tuple,
        )),
        st.sampled_from(_RULES),
    )
    @settings(max_examples=150, deadline=None)
    def test_key_orders_one_rule_by_recency_then_lhs_order(
        self, name, tag_lists, production
    ):
        strategy = make_strategy(name)
        matches = [inst(production, *tags) for tags in tag_lists]
        by_key = sorted(
            matches, key=strategy.key, reverse=strategy.descending
        )
        by_contract = sorted(
            matches,
            key=lambda m: (m.recency_key(), m.timetags()),
            reverse=strategy.descending,
        )
        assert same_objects(by_key, by_contract)

    @pytest.mark.parametrize("name", LAZY)
    @given(
        st.integers(1, 3).flatmap(lambda width: st.tuples(
            st.lists(st.integers(0, 9), min_size=width, max_size=width),
            st.lists(st.integers(0, 9), min_size=width, max_size=width),
        )),
        st.lists(st.integers(0, 9), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_shared_tail_assignment_keeps_the_prefixes_order(
        self, name, prefixes, shared
    ):
        strategy = make_strategy(name)
        production = _RULES[0]
        left, right = (
            strategy.key(inst(production, *prefix, *shared))
            for prefix in prefixes
        )
        alone = [sorted(prefix, reverse=True) for prefix in prefixes]
        if alone[0] != alone[1]:
            assert (left < right) == (alone[0] < alone[1])


class TestRandomOrder:
    @given(candidate_lists(), st.none() | st.integers(0, 14))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_order_and_a_permutation(self, candidates, limit):
        first = RandomStrategy(seed=11).order(candidates, limit)
        again = RandomStrategy(seed=11).order(candidates[::-1], limit)
        # The stable key is the identity, so list order is irrelevant.
        assert same_objects(first, again)
        width = len(candidates) if limit is None else min(
            limit, len(candidates)
        )
        assert len(first) == len(set(map(id, first))) == width
        assert all(any(c is pick for c in candidates) for pick in first)
