"""The single-execution-thread interpreter (Section 2).

"The production system interpreter executes a three phase production
system cycle repeatedly until a termination condition occurs": *match*
(delegated to an incremental matcher), *select* (a conflict-resolution
strategy over eligible instantiations) and *execute* (the RHS actions).
Termination: empty conflict set, a ``halt`` action, or the cycle cap.

Refraction (an instantiation never fires twice) always applies, as in
OPS5 — without it any rule whose RHS leaves its own LHS true loops
forever.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable

from repro.engine.actions import ActionExecutor
from repro.engine.result import Commit, RunResult
from repro.errors import EngineError
from repro.lang.production import Production
from repro.match.base import MATCHERS, BaseMatcher, matcher_class
from repro.match.instantiation import Instantiation
from repro.match.strategies import Strategy, make_strategy
from repro.wm.memory import WorkingMemory

#: A matcher name (``"naive"``/``"rete"``/``"treat"``/``"cond"``) or a
#: partitioned spec ``"partitioned[:inner[:shards[:backend]]]"``.
MatcherName = str


def parse_matcher_spec(name: MatcherName) -> MatcherName:
    """Validate a matcher spec without building a matcher.

    Returns ``name`` unchanged when it is a known matcher name or a
    well-formed partitioned spec; raises :class:`EngineError` (or
    :class:`~repro.errors.MatchError`, for partitioned specs) naming
    the valid alternatives otherwise.  The CLI uses this as the
    ``--matcher`` argparse type so a typo like
    ``partitioned:rete:4:prcess`` fails at parse time with the
    valid-backend list instead of falling through to a default.
    """
    if name.startswith("partitioned"):
        from repro.match.partitioned import parse_partitioned_spec

        parse_partitioned_spec(name)
        return name
    if name not in MATCHERS:
        raise EngineError(
            f"unknown matcher {name!r}; expected one of "
            f"{sorted(MATCHERS) + ['partitioned[:inner[:K[:backend]]]']}"
        )
    return name


def build_matcher(
    name: MatcherName, memory: WorkingMemory, observer=None
) -> BaseMatcher:
    """Instantiate a matcher by name or partitioned spec.

    Plain names resolve via :data:`~repro.match.base.MATCHERS`, which
    imports only the module of the matcher asked for; anything starting
    with ``"partitioned"`` is parsed as ``partitioned[:inner[:shards
    [:backend]]]`` (e.g. ``"partitioned:rete:4"``) and builds a
    :class:`~repro.match.partitioned.PartitionedMatcher`.  ``observer``
    is forwarded to matchers that are observability-instrumented
    (currently the partitioned one); engines pass their own observer
    so shard/batch telemetry lands in the same trace as wave spans.
    """
    if name.startswith("partitioned"):
        from repro.match.partitioned import (
            PartitionedMatcher,
            parse_partitioned_spec,
        )

        inner, shards, backend = parse_partitioned_spec(name)
        return PartitionedMatcher(
            memory,
            shards=shards,
            inner=inner,
            backend=backend,
            observer=observer,
        )
    return matcher_class(parse_matcher_spec(name))(memory)


class Interpreter:
    """The classic recognize-act loop.

    Parameters
    ----------
    productions:
        The rule program.
    memory:
        The working memory (a fresh one is created when omitted).
    matcher:
        ``"rete"`` (default), ``"treat"``, ``"naive"``, ``"cond"``, a
        partitioned spec (``"partitioned:rete:4"``) — or a pre-built
        matcher instance.
    strategy:
        Conflict-resolution strategy name (``"lex"`` default) or a
        :class:`~repro.match.strategies.Strategy` instance.

    Refraction always applies: an instantiation fires at most once.
    """

    def __init__(
        self,
        productions: Iterable[Production],
        memory: WorkingMemory | None = None,
        matcher: MatcherName | BaseMatcher = "rete",
        strategy: str | Strategy = "lex",
        seed: int | None = None,
    ) -> None:
        self.memory = memory if memory is not None else WorkingMemory()
        if isinstance(matcher, str):
            self.matcher = build_matcher(matcher, self.memory)
        else:
            self.matcher = matcher
        self.matcher.add_productions(productions)
        self.matcher.attach()
        if isinstance(strategy, str):
            self.strategy = make_strategy(strategy, seed)
        else:
            self.strategy = strategy
        self.matcher.conflict_set.rank_by(
            self.strategy.head, getattr(self.strategy, "lazy", False)
        )
        self.executor = ActionExecutor(self.memory)
        self.result = RunResult()

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Release matcher resources: the store subscription and any
        worker processes (the partitioned matcher's process
        backend keeps live worker processes until detached).
        Idempotent; the engine must not run again afterwards.
        """
        self.matcher.detach()

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- phases ----------------------------------------------------------------------

    @property
    def conflict_set(self):
        return self.matcher.conflict_set

    def select(self) -> Instantiation | None:
        """Pick the dominant instantiation, or None when quiescent."""
        candidates = self.conflict_set.eligible()
        if not candidates:
            return None
        return self.strategy.select(candidates)

    def fire(self, instantiation: Instantiation) -> bool:
        """Execute one instantiation; returns False when it halted.

        RHS execution runs inside ``matcher.batch()`` so a multi-action
        RHS publishes all its WM deltas through one match barrier
        (one partitioned flush per firing instead of one per action).
        Nothing consults the conflict set until the next ``select``.

        The firing is one ``memory.atomic`` unit: whatever persists the
        memory persists the RHS whole, at the bracket's close, or not
        at all.  There is no undo log here — an error from the RHS or
        from that close propagates with memory as the RHS left it.
        """
        self.conflict_set.mark_fired(instantiation)
        with getattr(self.matcher, "batch", nullcontext)():
            with self.memory.atomic(instantiation.production.name):
                outcome = self.executor.execute(instantiation)
        self.result.firings.append(
            Commit.of(instantiation, self.result.cycles)
        )
        self.result.outputs.extend(outcome.outputs)
        if outcome.halted:
            self.result.halted = True
            return False
        return True

    def step(self) -> Instantiation | None:
        """One full cycle: select + execute.  None when quiescent."""
        chosen = self.select()
        if chosen is None:
            return None
        self.result.cycles += 1
        self.fire(chosen)
        return chosen

    # -- whole runs ---------------------------------------------------------------------

    def run(self, max_cycles: int = 10_000) -> RunResult:
        """Cycle until quiescence, ``halt`` or ``max_cycles`` — of the
        engine's ``result.cycles`` in all, not of this call's."""
        while self.result.cycles < max_cycles:
            chosen = self.select()
            if chosen is None:
                self.result.stop_reason = "quiescent"
                break
            self.result.cycles += 1
            if not self.fire(chosen):
                self.result.stop_reason = "halt"
                break
        else:
            self.result.stop_reason = "max_cycles"
        return self.result
