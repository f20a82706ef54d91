"""User-visible parallelism: data partitioning (Section 2).

"User visible: The user is aware of parallelism opportunities, and
makes full use of them.  Example approaches are (1) dividing a task
into non-interacting subtasks, (2) **partitioning the database into
classes of objects accessed by different tasks**."

:class:`PartitionedEngine` implements approach (2): the user supplies a
partition key (an attribute), the working memory is split into shards
by that key, and an independent single-thread engine runs per shard.
When the rule program is *shard-local* — every join variable passes
through the partition key, so no instantiation ever spans shards — the
shards are non-interacting by construction and the union of the shard
runs equals a whole-memory run, which :meth:`verify_against_whole`
checks and the tests assert.

Shard makespans also give the user-visible speedup estimate:
``speedup = Σ shard_cost / max shard_cost`` (perfect when balanced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.interpreter import Interpreter, MatcherName
from repro.engine.result import RunResult
from repro.errors import EngineError
from repro.lang.production import Production
from repro.wm.element import Scalar
from repro.wm.memory import WorkingMemory


@dataclass
class ShardRun:
    """One shard's engine run."""

    key: Scalar
    memory: WorkingMemory
    result: RunResult

    @property
    def firing_count(self) -> int:
        return len(self.result.firings)


class PartitionedEngine:
    """Runs one rule program independently per data shard.

    Parameters
    ----------
    productions:
        The rule program.  Should be shard-local with respect to
        ``partition_attr`` (rules whose LHS joins only within one key
        value); :meth:`verify_against_whole` detects violations.
    partition_attr:
        Attribute whose value assigns each WME to a shard.  WMEs
        missing the attribute go to every shard? — no: they raise, to
        keep the partitioning honest.
    """

    def __init__(
        self,
        productions: Sequence[Production],
        partition_attr: str,
        matcher: MatcherName = "rete",
        strategy: str = "lex",
    ) -> None:
        self.productions = list(productions)
        self.partition_attr = partition_attr
        self.matcher = matcher
        self.strategy = strategy
        self.shards: list[ShardRun] = []

    # -- partitioning ----------------------------------------------------------------

    def split(self, memory: WorkingMemory) -> dict[Scalar, WorkingMemory]:
        """Split ``memory`` into per-key shard memories."""
        shards: dict[Scalar, WorkingMemory] = {}
        for wme in memory:
            if self.partition_attr not in wme:
                raise EngineError(
                    f"WME {wme} lacks partition attribute "
                    f"{self.partition_attr!r}"
                )
            key = wme[self.partition_attr]
            shard = shards.get(key)
            if shard is None:
                shard = WorkingMemory()
                shards[key] = shard
            shard.add(wme)
        return shards

    # -- execution -------------------------------------------------------------------

    def run(
        self, memory: WorkingMemory, max_cycles: int = 10_000
    ) -> list[ShardRun]:
        """Split and run every shard to quiescence (independently)."""
        self.shards = []
        for key, shard_memory in sorted(
            self.split(memory).items(), key=lambda kv: repr(kv[0])
        ):
            with Interpreter(
                self.productions,
                shard_memory,
                matcher=self.matcher,
                strategy=self.strategy,
            ) as engine:
                result = engine.run(max_cycles=max_cycles)
            self.shards.append(ShardRun(key, shard_memory, result))
        return self.shards

    def merged_state(self) -> frozenset:
        """Union of the shard memories' value identities."""
        out: set = set()
        for shard in self.shards:
            out |= shard.memory.value_identity_set()
        return frozenset(out)

    def speedup_estimate(self) -> float:
        """``Σ shard firings / max shard firings`` — the user-visible
        parallel speedup with one processor per shard, using firing
        counts as the cost proxy."""
        counts = [shard.firing_count for shard in self.shards]
        if not counts or max(counts) == 0:
            return 1.0
        return sum(counts) / max(counts)

    # -- validation -------------------------------------------------------------------

    def verify_against_whole(
        self, original: WorkingMemory, max_cycles: int = 10_000
    ) -> bool:
        """Run the same program un-partitioned and compare final states.

        True when the union of shard results equals the whole-memory
        run — the non-interaction property approach (2) relies on.
        (Requires a deterministic strategy; both runs use the engine's
        configured one.)
        """
        whole = WorkingMemory()
        for wme in original:
            whole.add(wme)
        with Interpreter(
            self.productions,
            whole,
            matcher=self.matcher,
            strategy=self.strategy,
        ) as engine:
            engine.run(max_cycles=max_cycles)
        return whole.value_identity_set() == self.merged_state()
