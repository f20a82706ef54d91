"""Tests for the partitioned (user-visible parallelism) engine."""

import multiprocessing

import pytest

from repro.engine import PartitionedEngine
from repro.errors import EngineError
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.wm import WorkingMemory


def shard_local_rules():
    """Rules whose joins pass through the partition key ``region``."""
    return [
        RuleBuilder("fulfill")
        .when("order", region=var("r"), id=var("o"), state="new")
        .when("depot", region=var("r"))
        .modify(1, state="done")
        .build(),
        RuleBuilder("tally")
        .when("order", region=var("r"), id=var("o"), state="done")
        .when_not("tally", region=var("r"), order=var("o"))
        .make("tally", region=var("r"), order=var("o"))
        .build(),
    ]


def make_memory(orders_per_region=3, regions=("eu", "us", "ap")):
    wm = WorkingMemory()
    for region in regions:
        wm.make("depot", region=region)
        for i in range(orders_per_region):
            wm.make(
                "order",
                region=region,
                id=f"{region}-{i}",
                state="new",
            )
    return wm


class TestSplit:
    def test_split_by_attribute(self):
        engine = PartitionedEngine(shard_local_rules(), "region")
        shards = engine.split(make_memory())
        assert set(shards) == {"eu", "us", "ap"}
        assert all(len(s) == 4 for s in shards.values())

    def test_missing_partition_attribute_rejected(self):
        wm = WorkingMemory()
        wm.make("orphan", id=1)
        engine = PartitionedEngine(shard_local_rules(), "region")
        with pytest.raises(EngineError):
            engine.split(wm)


class TestRun:
    def test_all_shards_complete(self):
        engine = PartitionedEngine(shard_local_rules(), "region")
        shards = engine.run(make_memory())
        assert len(shards) == 3
        for shard in shards:
            assert shard.result.stop_reason == "quiescent"
            assert shard.firing_count == 6  # 3 fulfill + 3 tally

    def test_union_matches_whole_run(self):
        memory = make_memory()
        engine = PartitionedEngine(shard_local_rules(), "region")
        engine.run(memory)
        assert engine.verify_against_whole(memory)

    def test_speedup_estimate_balanced(self):
        engine = PartitionedEngine(shard_local_rules(), "region")
        engine.run(make_memory())
        assert engine.speedup_estimate() == pytest.approx(3.0)

    def test_speedup_estimate_skewed(self):
        wm = make_memory(orders_per_region=1, regions=("eu",))
        for i in range(9):
            wm.make("order", region="us", id=f"us-{i}", state="new")
        wm.make("depot", region="us")
        engine = PartitionedEngine(shard_local_rules(), "region")
        engine.run(wm)
        # us shard dominates: speedup well below shard count.
        assert 1.0 < engine.speedup_estimate() < 2.0

    def test_empty_memory(self):
        engine = PartitionedEngine(shard_local_rules(), "region")
        assert engine.run(WorkingMemory()) == []
        assert engine.speedup_estimate() == 1.0

    def test_cross_shard_program_detected(self):
        """A rule joining across regions is NOT shard-local; the
        verification against the whole run catches the divergence."""
        cross = (
            RuleBuilder("pair-regions")
            .when("order", region=var("r1"), id=var("a"), state="new")
            .when("order", region=var("r2"), id=var("b"), state="new")
            .when_not("pairing", left=var("a"))
            .make("pairing", left=var("a"), right=var("b"))
            .build()
        )
        memory = make_memory(orders_per_region=1, regions=("eu", "us"))
        engine = PartitionedEngine([cross], "region")
        # 'pairing' WMEs lack the region attribute; give them one so
        # splitting does not fail before the comparison — use a
        # memory without depots to keep the example minimal.
        engine.run(memory)
        assert not engine.verify_against_whole(memory)


class TestClose:
    """Every ``Interpreter`` the engine builds is closed by the time
    ``run`` / ``verify_against_whole`` return."""

    def test_shard_memories_keep_no_matcher(self):
        memory = make_memory()
        engine = PartitionedEngine(shard_local_rules(), "region")
        engine.run(memory)
        assert engine.verify_against_whole(memory)
        for shard in engine.shards:
            assert shard.memory._listeners == []
            assert shard.memory._retirees == {}

    def test_process_matcher_leaves_no_worker(self):
        before = set(multiprocessing.active_children())
        memory = make_memory(orders_per_region=1, regions=("eu", "us"))
        engine = PartitionedEngine(
            shard_local_rules(), "region",
            matcher="partitioned:rete:2:process",
        )
        assert len(engine.run(memory)) == 2
        assert engine.verify_against_whole(memory)
        assert set(multiprocessing.active_children()) <= before
