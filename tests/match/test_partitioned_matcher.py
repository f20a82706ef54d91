"""PartitionedMatcher: equivalence, batching, substrates, wiring.

The load-bearing test is the hypothesis property: for every shard
count 1..5 and every inner matcher, the partitioned matcher's shared
conflict set — membership AND the net delta of each step — must equal
the monolithic matcher's after every working-memory operation,
including negated-condition productions.  A step's delta is the
membership difference across it, which is the shard log's net
semantics (an add then a remove cancel, and so do a remove then a
re-add), and every shard's log must be drained by the merge.  All
matchers attach to the *same* store, so instantiations compare by
exact identity (rule + timetags): bit-identical, not merely
isomorphic.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.match_parallel import lpt_makespan
from repro.engine import Interpreter, ParallelEngine
from repro.engine.interpreter import build_matcher
from repro.errors import MatchError
from repro.lang import RuleBuilder, parse_program
from repro.lang.builder import gt, var
from repro.match import PartitionedMatcher, parse_partitioned_spec
from repro.match.naive import NaiveMatcher
from repro.wm import WorkingMemory

INNER_NAMES = ["naive", "rete", "treat", "cond"]
SHARD_COUNTS = [1, 2, 3, 4, 5]


def _program():
    # Joins, negation and predicates — the shapes that stress shard
    # independence (negated elements re-derive on removals).
    return [
        RuleBuilder("match-pair")
        .when("a", k=var("x"))
        .when("b", k=var("x"))
        .remove(1)
        .build(),
        RuleBuilder("lonely-a")
        .when("a", k=var("x"))
        .when_not("b", k=var("x"))
        .remove(1)
        .build(),
        RuleBuilder("big-a")
        .when("a", v=gt(5))
        .remove(1)
        .build(),
        RuleBuilder("triple")
        .when("a", k=var("x"))
        .when("b", k=var("x"), v=var("y"))
        .when_not("c", k=var("y"))
        .remove(2)
        .build(),
    ]


_operation = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 3),  # k
        st.integers(0, 8),  # v
    ),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("modify"), st.integers(0, 30), st.integers(0, 3)),
)


def _apply(memory: WorkingMemory, operation) -> None:
    if operation[0] == "add":
        _, relation, k, v = operation
        memory.make(relation, k=k, v=v)
        return
    live = sorted(memory, key=lambda w: w.timetag)
    if not live:
        return
    if operation[0] == "remove":
        memory.remove(live[operation[1] % len(live)])
    else:
        memory.modify(live[operation[1] % len(live)], {"k": operation[2]})


def _net_delta(before: frozenset, after: frozenset):
    """A step's (added, removed), as the membership difference."""
    return after - before, before - after


@pytest.mark.parametrize("inner", INNER_NAMES)
@given(operations=st.lists(_operation, min_size=1, max_size=15))
@settings(max_examples=25, deadline=None)
def test_partitioned_equals_monolithic(inner, operations):
    memory = WorkingMemory()
    monolithic = build_matcher(inner, memory)
    monolithic.add_productions(_program())
    monolithic.attach()
    partitioned = [
        PartitionedMatcher(memory, shards=k, inner=inner, backend="serial")
        for k in SHARD_COUNTS
    ]
    for matcher in partitioned:
        matcher.add_productions(_program())
        matcher.attach()
    oracle_before = monolithic.conflict_set.members()
    before = [matcher.conflict_set.members() for matcher in partitioned]

    for operation in operations:
        _apply(memory, operation)
        oracle_members = monolithic.conflict_set.members()
        oracle_delta = _net_delta(oracle_before, oracle_members)
        oracle_before = oracle_members
        for position, matcher in enumerate(partitioned):
            members = matcher.conflict_set.members()
            assert members == oracle_members, (
                f"membership diverged (shards={len(matcher._shards)})"
            )
            added, removed = _net_delta(before[position], members)
            before[position] = members
            assert added == oracle_delta[0], (
                f"delta adds diverged (shards={len(matcher._shards)})"
            )
            assert removed == oracle_delta[1], (
                f"delta removes diverged (shards={len(matcher._shards)})"
            )
            for shard in matcher._shards:
                assert shard.matcher.conflict_set.peek_delta().is_empty(), (
                    f"shard {shard.index} log not merged"
                )


class TestSpecParsing:
    def test_defaults(self):
        assert parse_partitioned_spec("partitioned") == (
            "rete", 4, "serial",
        )

    def test_full_spec(self):
        assert parse_partitioned_spec("partitioned:treat:8:des") == (
            "treat", 8, "des",
        )

    def test_partial_spec_keeps_defaults(self):
        assert parse_partitioned_spec("partitioned:cond") == (
            "cond", 4, "serial",
        )
        assert parse_partitioned_spec("partitioned::2") == (
            "rete", 2, "serial",
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "partitioned:bogus",
            "partitioned:rete:zero",
            "partitioned:rete:0",
            "partitioned:rete:2:gpu",
            "partitioned:rete:2:des:extra",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(MatchError):
            parse_partitioned_spec(spec)

    def test_build_matcher_accepts_spec(self):
        matcher = build_matcher("partitioned:treat:3", WorkingMemory())
        assert isinstance(matcher, PartitionedMatcher)
        assert matcher.inner_name == "treat"
        assert len(matcher._shards) == 3
        assert matcher.backend == "serial"


class TestPartitioning:
    def test_round_robin_layout(self):
        matcher = PartitionedMatcher(
            WorkingMemory(), shards=2, backend="serial"
        )
        matcher.add_productions(_program())
        layout = matcher.stats()["layout"]
        assert layout[0] == ["big-a", "match-pair"]
        assert layout[1] == ["lonely-a", "triple"]

    def test_lpt_assignment_matches_model(self):
        costs = [7.0, 5.0, 4.0, 3.0, 2.0, 2.0, 1.0]
        rules = [
            RuleBuilder(f"r{i}").when("a", k=i).remove(1).build()
            for i in range(len(costs))
        ]
        cost_map = {f"r{i}": costs[i] for i in range(len(costs))}
        matcher = PartitionedMatcher(
            WorkingMemory(),
            shards=3,
            assign="lpt",
            cost_model=cost_map,
            backend="serial",
        )
        matcher.add_productions(rules)
        loads = matcher.stats()["loads"]
        assert max(loads) == lpt_makespan(costs, 3)

    def test_remove_production_retracts_from_shared_set(self):
        memory = WorkingMemory()
        matcher = PartitionedMatcher(
            memory, shards=2, inner="treat", backend="serial"
        )
        matcher.add_productions(_program())
        matcher.attach()
        memory.make("a", k=1, v=9)
        assert matcher.conflict_set.rule_names() >= {"lonely-a", "big-a"}
        matcher.remove_production("big-a")
        assert "big-a" not in matcher.conflict_set.rule_names()
        assert matcher.shard_of("big-a") is None
        # Re-register: instantiations come back.
        matcher.add_production(_program()[2])
        assert "big-a" in matcher.conflict_set.rule_names()


class TestBatching:
    def test_batch_defers_match_to_the_barrier(self):
        memory = WorkingMemory()
        matcher = PartitionedMatcher(
            memory, shards=2, inner="rete", backend="serial"
        )
        matcher.add_productions(_program())
        matcher.attach()
        flushes_before = matcher.flush_count
        with matcher.batch():
            memory.make("a", k=1, v=1)
            memory.make("b", k=1, v=2)
            # Inside the block nothing has been matched yet.
            assert matcher.conflict_set.is_empty()
            assert matcher.flush_count == flushes_before
        assert matcher.flush_count == flushes_before + 1
        assert "match-pair" in matcher.conflict_set.rule_names()

    def test_batched_equals_unbatched(self):
        batched_memory, plain_memory = WorkingMemory(), WorkingMemory()
        batched = PartitionedMatcher(
            batched_memory, shards=3, inner="treat", backend="serial"
        )
        plain = PartitionedMatcher(
            plain_memory, shards=3, inner="treat", backend="serial"
        )
        for matcher, memory in (
            (batched, batched_memory), (plain, plain_memory),
        ):
            matcher.add_productions(_program())
            matcher.attach()
        with batched.batch():
            for k in range(4):
                batched_memory.make("a", k=k, v=k)
                if k % 2 == 0:
                    batched_memory.make("b", k=k, v=k)
        for k in range(4):
            plain_memory.make("a", k=k, v=k)
            if k % 2 == 0:
                plain_memory.make("b", k=k, v=k)

        def signatures(matcher):
            return {
                (i.production.name, tuple(w.identity() for w in i.wmes))
                for i in matcher.conflict_set
            }

        assert signatures(batched) == signatures(plain)

    def test_nested_batches_flush_once_at_the_outermost_exit(self):
        memory = WorkingMemory()
        matcher = PartitionedMatcher(
            memory, shards=2, inner="rete", backend="serial"
        )
        matcher.add_productions(_program())
        matcher.attach()
        with matcher.batch():
            memory.make("a", k=1, v=1)
            with matcher.batch():
                memory.make("b", k=1, v=1)
            assert matcher.conflict_set.is_empty()
        assert matcher.flush_count == 1
        assert len(matcher.conflict_set) > 0


class TestDesSubstrate:
    def test_virtual_makespan_is_the_max_shard_charge(self):
        memory = WorkingMemory()
        costs = {"r0": 3.0, "r1": 2.0, "r2": 1.0}
        rules = [
            RuleBuilder(name).when("a", k=i).remove(1).build()
            for i, name in enumerate(costs)
        ]
        matcher = PartitionedMatcher(
            memory,
            shards=3,
            inner="treat",
            backend="des",
            assign="lpt",
            cost_model=costs,
        )
        matcher.add_productions(rules)
        matcher.attach()
        memory.make("a", k=0)  # one delta: each shard charged its cost
        assert matcher.virtual_makespan == pytest.approx(3.0)
        assert matcher.virtual_busy == pytest.approx(6.0)
        assert matcher.virtual_speedup() == pytest.approx(2.0)
        # And the match actually executed.
        assert matcher.conflict_set.rule_names() == {"r0"}


class TestEngineIntegration:
    RULES = """
(p bootstrap 5
   (seed ^n <n>)
   -->
   (make item ^v <n>)
   (remove 1))

(p grow 3
   (item ^v <v>)
   -(done ^v <v>)
   -->
   (make done ^v <v>))
"""

    def _seed(self, memory: WorkingMemory) -> None:
        for n in range(4):
            memory.make("seed", n=n)

    def test_interpreter_runs_with_partitioned_matcher(self):
        rules = parse_program(self.RULES)
        plain_memory, part_memory = WorkingMemory(), WorkingMemory()
        self._seed(plain_memory)
        self._seed(part_memory)
        plain = Interpreter(rules, plain_memory, matcher="treat").run()
        part = Interpreter(
            rules, part_memory, matcher="partitioned:treat:3"
        ).run()
        assert part.stop_reason == plain.stop_reason == "quiescent"
        assert len(part.firings) == len(plain.firings)
        assert (
            part_memory.value_identity_set()
            == plain_memory.value_identity_set()
        )

    def test_parallel_engine_runs_with_partitioned_matcher(self):
        rules = parse_program(self.RULES)
        memory = WorkingMemory()
        self._seed(memory)
        engine = ParallelEngine(
            rules, memory, scheme="rc", matcher="partitioned:rete:2"
        )
        result = engine.run()
        assert result.stop_reason == "quiescent"
        assert len(result.firings) == 8  # 4 bootstraps + 4 grows


def test_partitioned_against_naive_oracle_after_churn():
    """End-to-end sanity: partitioned TREAT vs the naive oracle."""
    part_memory, naive_memory = WorkingMemory(), WorkingMemory()
    part = PartitionedMatcher(
        part_memory, shards=3, inner="treat", backend="serial"
    )
    naive = NaiveMatcher(naive_memory)
    for matcher, memory in ((part, part_memory), (naive, naive_memory)):
        matcher.add_productions(_program())
        matcher.attach()
        for k in range(8):
            memory.make("a", k=k % 4, v=k)
            memory.make("b", k=k % 3, v=k)
        for wme in sorted(memory, key=lambda w: w.timetag)[::3]:
            memory.remove(wme)

    def signatures(matcher):
        return {
            (i.production.name, tuple(w.identity() for w in i.wmes))
            for i in matcher.conflict_set
        }

    assert signatures(part) == signatures(naive)
