"""Partitioned parallel match — Section 2's intra-phase parallelism,
executable.

"Execution of each phase in a parallel manner" with match as the
bottleneck [FORG82]: the standard software realization shards
*productions* across ``K`` matcher instances, each matching its share
of the rules against the same working-memory delta stream.  This
module turns the repo's analytic model of that design
(:mod:`repro.analysis.match_parallel`, LPT makespans over
per-production costs) into a working matcher.

:class:`PartitionedMatcher` implements the :class:`~repro.match.base.
Matcher` protocol and is interchangeable with the monolithic matchers
(``build_matcher("partitioned:rete:4", wm)``, CLI ``--matcher
partitioned:rete:4``).  Architecture:

* **Sharding** — every registered production is assigned to one of
  ``K`` inner matchers (any of naive/Rete/TREAT/cond), by round-robin,
  stable hash, or LPT over a per-production cost model.  Inner
  matchers run *passively*: only the partitioned matcher subscribes to
  the store; shards receive deltas via :meth:`~repro.match.base.
  BaseMatcher.feed`.
* **Delta batching** — by default every WM delta is flushed to all
  shards immediately (batch size 1), keeping the shared conflict set
  consistent after each mutation, which the engines rely on
  mid-wave.  The :meth:`batch` context manager defers matching to one
  barrier: deltas published inside the block are buffered and replayed
  together, amortizing the fan-out/merge cost.  Working memory is
  read-only during match, so shards need no locking beyond the batch
  barrier.
* **Deterministic merge** — after the barrier, each shard's private
  conflict-set delta is folded into the shared :class:`~repro.match.
  conflict_set.ConflictSet` in shard-id order, removals before adds,
  each sorted by recency (then rule name).  Shards own disjoint rule
  sets, so merges never conflict and the shared set equals the
  monolithic matcher's set exactly — ``ES_M ⊆ ES_single`` is
  preserved because the engine sees the same conflict set it would
  have seen single-threaded (``tests/match/test_partitioned_matcher
  .py`` asserts equality property-style).
* **Substrates** — ``backend="serial"`` (the default) replays each
  batch shard after shard on the caller's thread: the in-process
  reference.  ``backend="process"`` escapes the GIL: each shard lives in
  a persistent worker *process* (:mod:`repro.match.procpool`) holding
  a full working-memory replica; the parent streams the same delta
  batches and folds back the conflict-set deltas the workers report,
  so match runs on real cores while the merged set stays bit-identical
  to the serial oracle.  ``backend="des"`` charges each shard its
  per-production match cost on the discrete-event simulator's virtual
  clock, so ``benchmarks/bench_intraphase_match.py`` can validate the
  analytic ``lpt_makespan``/``speedup_ceiling`` curves against this
  executable system.

Observability (the ``obs`` layer): per-shard match latency
histogram (``match.shard_seconds``), batch size (``match.batch_size``)
and merge time (``match.merge_seconds``) — all guarded by
``obs.enabled``.  With
span recording on, every flush additionally emits a ``match.flush``
span (parented under the engine's current scope) with per-shard
``match.shard`` child spans on the wall clock, or shard charges as
fields on the DES/virtual-clock paths.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

import repro.obs as obs_module
from repro.errors import MatchError
from repro.lang.production import Production
from repro.match.base import MATCHERS, BaseMatcher, matcher_class
from repro.match.conflict_set import ConflictSetDelta
from repro.match.instantiation import Instantiation
from repro.wm.memory import WMDelta, WorkingMemory

# Each substrate and inner matcher is imported by the constructor
# branch that builds it — a serial Rete run loads no pool, simulator
# or second matcher — and never later: a run imports nothing.
if TYPE_CHECKING:
    from repro.match.procpool import ProcessPool, ShardReply
    from repro.sim.engine import Simulator

BACKENDS = ("serial", "des", "process")
ASSIGNMENTS = ("round-robin", "hash", "lpt")
DEFAULT_SHARDS = 4

#: Per-production match cost: a callable or a name → cost mapping.
CostModel = Callable[[Production], float] | Mapping[str, float]


def parse_partitioned_spec(spec: str) -> tuple[str, int, str]:
    """Parse ``partitioned[:inner[:shards[:backend]]]``.

    >>> parse_partitioned_spec("partitioned:rete:4")
    ('rete', 4, 'serial')
    """
    parts = spec.split(":")
    if parts[0] != "partitioned" or len(parts) > 4:
        raise MatchError(
            f"bad partitioned matcher spec {spec!r}; expected "
            "partitioned[:inner[:shards[:backend]]]"
        )
    inner = parts[1] if len(parts) > 1 and parts[1] else "rete"
    if inner not in MATCHERS:
        raise MatchError(
            f"unknown inner matcher {inner!r} in {spec!r}; expected one "
            f"of {sorted(MATCHERS)}"
        )
    shards = DEFAULT_SHARDS
    if len(parts) > 2 and parts[2]:
        try:
            shards = int(parts[2])
        except ValueError:
            raise MatchError(
                f"bad shard count {parts[2]!r} in {spec!r}"
            ) from None
    if shards < 1:
        raise MatchError(f"need >= 1 shard, got {shards}")
    backend = parts[3] if len(parts) > 3 and parts[3] else "serial"
    if backend not in BACKENDS:
        raise MatchError(
            f"unknown backend {backend!r} in {spec!r}; expected one of "
            f"{BACKENDS}"
        )
    return inner, shards, backend


@dataclass
class _Shard:
    """One partition: a passive inner matcher plus its LPT load."""

    index: int
    matcher: BaseMatcher
    load: float = 0.0

    def rule_names(self) -> list[str]:
        return sorted(self.matcher.productions)


class _StagedDelta:
    """Decoded worker conflict-set deltas, queued for the next merge.

    Quacks like a :class:`~repro.match.conflict_set.ConflictSet` for
    the one method :meth:`PartitionedMatcher._merge` calls —
    ``take_delta()`` — so process shards fold into the shared set
    through exactly the same code path as in-process shards.
    """

    __slots__ = ("_added", "_removed")

    def __init__(self) -> None:
        self._added: list[Instantiation] = []
        self._removed: list[Instantiation] = []

    def stage(
        self,
        added: Iterable[Instantiation],
        removed: Iterable[Instantiation],
    ) -> None:
        self._added.extend(added)
        self._removed.extend(removed)

    def clear(self) -> None:
        self._added.clear()
        self._removed.clear()

    def take_delta(self) -> ConflictSetDelta:
        delta = ConflictSetDelta(
            frozenset(self._added), frozenset(self._removed)
        )
        self.clear()
        return delta


class _RemoteShard:
    """Parent-side stand-in for a worker-owned inner matcher.

    Keeps the shard's production assignment and stages the decoded
    conflict-set deltas its worker reports, exposing exactly the
    surface the backend-agnostic partitioned paths touch
    (``productions``, ``conflict_set.take_delta()``, production
    add/remove).  Matching itself happens inside the worker process
    (:mod:`repro.match.procpool`); the parent never builds
    Rete/TREAT state for process shards.
    """

    is_attached = True

    def __init__(self, owner: "PartitionedMatcher", index: int) -> None:
        from repro.match.procpool import decode_wme

        self._owner = owner
        self._decode_wme = decode_wme
        self.index = index
        self.productions: dict[str, Production] = {}
        self.conflict_set = _StagedDelta()

    # -- production routing ------------------------------------------
    #
    # While the pool runs, changes go to the live worker and its
    # reported delta is staged; otherwise the new assignment simply
    # rides along in the snapshot at the next pool (re)start.

    def add_production(self, production: Production) -> None:
        self.productions[production.name] = production
        pool = self._owner._live_procpool()
        if pool is not None:
            self.stage_reply(pool.add_production(self.index, production))
            self._owner._note_procpool(pool)

    def remove_production(self, name: str) -> None:
        pool = self._owner._live_procpool()
        if pool is not None and name in self.productions:
            self.stage_reply(pool.remove_production(self.index, name))
            self._owner._note_procpool(pool)
        self.productions.pop(name, None)

    # -- wire decoding -----------------------------------------------

    def stage_reply(self, reply: ShardReply) -> None:
        self.conflict_set.stage(
            [self._decode(p) for p in reply.added],
            [self._decode(p) for p in reply.removed],
        )

    def _decode(self, payload: tuple) -> Instantiation:
        rule_name, wme_payloads, bindings_items = payload
        # Resolve against the parent's canonical registry so the
        # shared set holds the same Production objects the serial
        # matcher would.  Removals of a just-dropped rule fall back to
        # the shard's last-known copy — identity is (name, timetags),
        # so the stale object still removes the right member.
        production = self._owner._productions.get(rule_name)
        if production is None:
            production = self.productions[rule_name]
        decode_wme = self._decode_wme
        return Instantiation(
            production,
            tuple(decode_wme(w) for w in wme_payloads),
            bindings_items,
        )

    # -- lifecycle surface for the backend-agnostic paths ------------

    def attach_passive(self) -> None:
        return None

    def rebuild(self) -> None:
        return None

    def feed(self, delta: WMDelta) -> None:
        raise MatchError(
            "remote shards receive deltas through the process pool, "
            "not feed()"
        )


class PartitionedMatcher(BaseMatcher):
    """Rule-sharded parallel matcher implementing :class:`Matcher`.

    Parameters
    ----------
    memory:
        The shared working memory (read-only during match).
    shards:
        Number of partitions ``K`` (the paper's ``Np`` for the match
        phase).
    inner:
        Inner matcher: a name from :data:`~repro.match.base.MATCHERS`
        or a ``WorkingMemory -> BaseMatcher`` factory.
    backend:
        ``"serial"`` (default; in-process reference), ``"des"``
        (virtual-time, cost-charged) or ``"process"`` (persistent
        worker-process pool with per-worker WM replicas — real
        multi-core match; requires a *named* inner matcher so workers
        can rebuild it, and compiled closures never cross the
        boundary).
    assign:
        Production→shard policy: ``"round-robin"`` (default),
        ``"hash"`` (stable on rule name) or ``"lpt"`` (greedy
        least-loaded under ``cost_model`` — with a full
        :meth:`add_productions` this is exactly LPT scheduling and
        realizes :func:`repro.analysis.match_parallel.lpt_makespan`).
    cost_model:
        Per-production match cost (callable or name→cost mapping);
        used by ``assign="lpt"`` and charged by the DES backend.
        Defaults to uniform 1.0.
    observer:
        Observability sink; defaults to the module-level observer.
    simulator:
        Virtual clock for the DES backend (a fresh
        :class:`~repro.sim.engine.Simulator` when omitted).
    procpool_timeout:
        Seconds the process backend waits on a worker reply before
        declaring it dead (:data:`repro.match.procpool.DEFAULT_TIMEOUT`
        when omitted).
    """

    def __init__(
        self,
        memory: WorkingMemory,
        shards: int = DEFAULT_SHARDS,
        inner: str | Callable[[WorkingMemory], BaseMatcher] = "rete",
        backend: str = "serial",
        assign: str = "round-robin",
        cost_model: CostModel | None = None,
        observer=None,
        simulator: Simulator | None = None,
        procpool_timeout: float | None = None,
    ) -> None:
        super().__init__(memory)
        if shards < 1:
            raise MatchError(f"need >= 1 shard, got {shards}")
        if backend not in BACKENDS:
            raise MatchError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if assign not in ASSIGNMENTS:
            raise MatchError(
                f"unknown assignment {assign!r}; expected one of "
                f"{ASSIGNMENTS}"
            )
        if isinstance(inner, str):
            if inner not in MATCHERS:
                raise MatchError(
                    f"unknown inner matcher {inner!r}; expected one of "
                    f"{sorted(MATCHERS)}"
                )
            # Loaded for process shards too, though only the workers
            # build it: forked workers inherit the module.
            factory = matcher_class(inner)
            self.inner_name = inner
        else:
            if backend == "process":
                raise MatchError(
                    "process backend needs a named inner matcher (one "
                    f"of {sorted(MATCHERS)}); a custom factory "
                    "cannot be rebuilt inside worker processes"
                )
            factory = inner
            self.inner_name = getattr(inner, "__name__", "custom")
        self.backend = backend
        self.assign = assign
        self.obs = (
            observer if observer is not None else obs_module.get_observer()
        )
        self._cost_model = cost_model
        self._procpool: ProcessPool | None = None
        self.procpool_timeout = procpool_timeout
        self.simulator = simulator
        if backend == "process":
            from repro.match.procpool import DEFAULT_TIMEOUT

            if procpool_timeout is None:
                self.procpool_timeout = DEFAULT_TIMEOUT
            self._shards = [
                _Shard(i, _RemoteShard(self, i)) for i in range(shards)
            ]
        else:
            self._shards = [
                _Shard(i, factory(memory)) for i in range(shards)
            ]
        if backend == "des" and simulator is None:
            from repro.sim.engine import Simulator

            self.simulator = Simulator()
        self._rule_shard: dict[str, int] = {}
        self._registered = 0
        self._batch_depth = 0
        self._buffer: list[WMDelta] = []
        #: Virtual busy time summed over shards (DES backend) — the
        #: sequential match time the parallel makespan is compared to.
        self.virtual_busy = 0.0
        #: Completed flushes and total deltas fed through them.
        self.flush_count = 0
        self.delta_count = 0

    # -- partitioning --------------------------------------------------------------------

    def _cost(self, production: Production) -> float:
        model = self._cost_model
        if model is None:
            return 1.0
        if callable(model):
            return float(model(production))
        return float(model.get(production.name, 1.0))

    def _pick_shard(self, production: Production) -> _Shard:
        if self.assign == "hash":
            digest = zlib.crc32(production.name.encode("utf-8"))
            return self._shards[digest % len(self._shards)]
        if self.assign == "lpt":
            return min(self._shards, key=lambda s: (s.load, s.index))
        return self._shards[self._registered % len(self._shards)]

    def add_productions(self, productions: Iterable[Production]) -> None:
        productions = list(productions)
        if self.assign == "lpt":
            # Sorting by descending cost makes the greedy least-loaded
            # placement exactly LPT list scheduling.
            productions.sort(key=lambda p: (-self._cost(p), p.name))
        for production in productions:
            self.add_production(production)

    def add_production(self, production: Production) -> None:
        if production.name in self._rule_shard:
            self.remove_production(production.name)
        # Validate and plan before picking a shard — the inner matcher
        # re-registers, but the outer guard keeps one token layout
        # across all shards and rejects unvalidated productions even
        # when a shard's inner matcher is a custom factory.
        self._register(production)
        shard = self._pick_shard(production)
        self._rule_shard[production.name] = shard.index
        shard.load += self._cost(production)
        self._registered += 1
        shard.matcher.add_production(production)
        self._merge()

    def remove_production(self, name: str) -> None:
        index = self._rule_shard.pop(name, None)
        production = self._productions.get(name)
        self._unregister(name)
        if index is None:
            return
        shard = self._shards[index]
        if production is not None:
            shard.load -= self._cost(production)
        shard.matcher.remove_production(name)
        self._merge()

    def shard_of(self, name: str) -> int | None:
        """The shard index owning production ``name`` (None if absent)."""
        return self._rule_shard.get(name)

    # -- lifecycle -----------------------------------------------------------------------

    def rebuild(self) -> None:
        if self.backend == "process":
            # Warmup/restart: spawn (or respawn) the worker pool from
            # the current memory snapshot and reconcile the shared set
            # against each worker's reported membership.
            self._start_procpool()
            self._merge()
            return
        for shard in self._shards:
            if shard.matcher.is_attached:
                shard.matcher.rebuild()
            else:
                shard.matcher.attach_passive()
        self._merge()

    def detach(self) -> None:
        super().detach()
        if self._procpool is not None:
            self._procpool.shutdown()
            self._procpool = None

    # -- delta batching ------------------------------------------------------------------

    def _on_delta(self, delta: WMDelta) -> None:
        if self._batch_depth > 0:
            self._buffer.append(delta)
        else:
            self._flush([delta])

    @contextmanager
    def batch(self) -> Iterator["PartitionedMatcher"]:
        """Defer matching to one barrier.

        Deltas published inside the block are buffered and replayed to
        every shard together on exit.  The shared conflict set is
        stale *inside* the block — use only where nothing consults it
        mid-batch (bulk loads, benchmarks).
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                buffered, self._buffer = self._buffer, []
                self._flush(buffered)

    def _flush(self, deltas: Sequence[WMDelta]) -> None:
        if not deltas:
            return
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        shards = self._shards
        flush_span = None
        flush_start = 0.0
        wall_start = time.perf_counter() if obs.enabled else 0.0
        if spans is not None:
            # Parent under the innermost scoped span — the engine's
            # phase.match while candidates are gathered, or its cycle
            # span when a mid-RHS delta triggers an immediate flush.
            flush_start = spans.clock()
            flush_span = spans.start(
                "match.flush", parent=spans.current(), ts=flush_start,
                deltas=len(deltas), backend=self.backend,
            )
        if self.backend == "des":
            durations = self._des_replay(deltas)
        elif self.backend == "process":
            durations = self._process_replay(deltas)
        else:
            durations = [self._replay(shard, deltas) for shard in shards]
        merge_start = time.perf_counter()
        self._merge()
        merge_seconds = time.perf_counter() - merge_start
        self.flush_count += 1
        self.delta_count += len(deltas)
        if flush_span is not None:
            self._flush_spans(
                spans, flush_span, flush_start, durations, merge_seconds
            )
        if obs.enabled:
            for shard, seconds in zip(shards, durations):
                obs.shard_match(shard.index, seconds, len(deltas))
            obs.match_batch(len(deltas), len(shards), merge_seconds)
            obs.match_flush(
                len(shards), time.perf_counter() - wall_start
            )

    def _flush_spans(
        self, spans, flush_span, flush_start: float,
        durations: Sequence[float], merge_seconds: float,
    ) -> None:
        """Child spans (or annotations) for one flush's shard work.

        Shard durations are wall-clock (``perf_counter``) except on
        the DES backend, where they are virtual charges.  Per-shard
        child spans are emitted only when the recorder itself runs on
        ``perf_counter`` — under an injected (virtual) clock the
        durations would mix timelines, so they stay as fields.  The
        process backend also annotates instead of spanning: its
        durations are worker-reported self-times on *other* processes'
        clocks (they overlap in parent time), so — like DES — the
        critical-path attribution consumes the ``shard_seconds``
        annotation, plus the flush's IPC cost.
        """
        wall_clock = spans.clock is time.perf_counter
        if self.backend in ("des", "process") or not wall_clock:
            flush_span.annotate(
                shard_seconds=[round(d, 9) for d in durations]
            )
            pool = self._procpool
            if self.backend == "process" and pool is not None:
                flush_span.annotate(
                    ipc_bytes_out=pool.last_bytes_out,
                    ipc_bytes_in=pool.last_bytes_in,
                )
        else:
            start = flush_start
            for shard, seconds in zip(self._shards, durations):
                spans.record(
                    "match.shard", start=start, end=start + seconds,
                    parent=flush_span, shard=shard.index,
                )
                start += seconds
        flush_span.finish(merge_seconds=merge_seconds)

    def _replay(self, shard: _Shard, deltas: Sequence[WMDelta]) -> float:
        start = time.perf_counter()
        feed = shard.matcher.feed
        for delta in deltas:
            feed(delta)
        return time.perf_counter() - start

    # -- process substrate ---------------------------------------------------------------

    def _live_procpool(self) -> ProcessPool | None:
        pool = self._procpool
        if pool is not None and pool.alive:
            return pool
        return None

    def _start_procpool(self) -> list[float]:
        """(Re)start the worker pool from the current memory snapshot.

        Returns per-shard reset seconds.  Reconciliation: every
        shared-set member of a shard's rules is staged for removal and
        the worker's fresh full membership staged as adds — the merge
        applies removals before adds and the conflict set cancels a
        remove-then-re-add, so the net delta is exactly the difference
        and fired marks survive for persisting members.
        """
        from repro.match.procpool import ProcessPool

        if self._procpool is not None:
            self._procpool.shutdown()
        pool = ProcessPool(
            len(self._shards),
            self.inner_name,
            timeout=self.procpool_timeout,
        )
        assignments = [
            tuple(shard.matcher.productions.values())
            for shard in self._shards
        ]
        replies = pool.start(assignments, list(self.memory))
        self._procpool = pool
        for shard, reply in zip(self._shards, replies):
            stub = shard.matcher
            stub.conflict_set.clear()
            removed = [
                instantiation
                for name in stub.productions
                for instantiation in self.conflict_set.for_rule(name)
            ]
            stub.conflict_set.stage(
                [stub._decode(p) for p in reply.added], removed
            )
        self._note_procpool(pool)
        return [reply.seconds for reply in replies]

    def _process_replay(self, deltas: Sequence[WMDelta]) -> list[float]:
        """Fan one batch to the worker pool (shards match concurrently
        in separate interpreters — no GIL in the way).

        When the pool is down (first flush after attach without a
        rebuild, or after a worker crash), it (re)starts from the
        *current* memory snapshot instead: the store publishes deltas
        post-application, so the snapshot already contains this batch
        and replaying it on top would double-apply.
        """
        pool = self._live_procpool()
        if pool is None:
            return self._start_procpool()
        replies = pool.replay(deltas)
        for shard, reply in zip(self._shards, replies):
            shard.matcher.stage_reply(reply)
        self._note_procpool(pool)
        return [reply.seconds for reply in replies]

    def _note_procpool(self, pool: ProcessPool) -> None:
        if self.obs.enabled:
            self.obs.procpool_roundtrip(
                pool.last_bytes_out, pool.last_bytes_in
            )

    # -- DES substrate -------------------------------------------------------------------

    def _des_replay(self, deltas: Sequence[WMDelta]) -> list[float]:
        """Replay on the virtual clock, charging per-production costs.

        Each shard's batch charge is ``|batch| × Σ cost(p)`` over its
        productions; all shards start at the barrier and the simulator
        advances to the latest completion, so ``simulator.now``
        accumulates the parallel match makespan — the executable
        counterpart of :func:`repro.analysis.match_parallel.
        lpt_makespan`.
        """
        sim = self.simulator
        start = sim.now
        charges: list[float] = []
        for shard in self._shards:
            charge = len(deltas) * sum(
                self._cost(p) for p in shard.matcher.productions.values()
            )
            charges.append(charge)

            def complete(_sim: Simulator, shard: _Shard = shard) -> None:
                self._replay(shard, deltas)

            sim.at(start + charge, complete)
        sim.run()
        self.virtual_busy += sum(charges)
        return charges

    @property
    def virtual_makespan(self) -> float:
        """Virtual parallel match time accumulated by the DES backend."""
        return self.simulator.now if self.simulator is not None else 0.0

    def virtual_speedup(self) -> float:
        """Sequential over parallel virtual match time (DES backend)."""
        makespan = self.virtual_makespan
        if makespan == 0:
            return 1.0
        return self.virtual_busy / makespan

    # -- merge ---------------------------------------------------------------------------

    def _merge(self) -> None:
        """Fold per-shard conflict-set deltas into the shared set.

        Deterministic: shard-id order, removals before adds, each in
        recency order.  Shards own disjoint rule sets, so the merged
        membership equals the union of shard memberships and matches
        the monolithic matcher exactly.
        """
        for shard in self._shards:
            delta = shard.matcher.conflict_set.take_delta()
            if delta.is_empty():
                continue
            for instantiation in sorted(
                delta.removed, key=Instantiation.merge_key
            ):
                self.conflict_set.remove(instantiation)
            for instantiation in sorted(
                delta.added, key=Instantiation.merge_key
            ):
                self.conflict_set.add(instantiation)

    # -- introspection -------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Shard layout and flush statistics (benchmarks, debugging)."""
        return {
            "shards": len(self._shards),
            "inner": self.inner_name,
            "backend": self.backend,
            "assign": self.assign,
            "layout": {
                shard.index: shard.rule_names() for shard in self._shards
            },
            "loads": [shard.load for shard in self._shards],
            "flushes": self.flush_count,
            "deltas": self.delta_count,
            "virtual_busy": self.virtual_busy,
            "virtual_makespan": self.virtual_makespan,
            **(
                {"procpool": self._procpool.stats()}
                if self._procpool is not None
                else {}
            ),
        }
