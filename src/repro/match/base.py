"""The matcher protocol shared by naive, Rete and TREAT matchers."""

from __future__ import annotations

from contextlib import contextmanager
from importlib import import_module
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.lang.compile import SlottedPlan
from repro.lang.production import Production, ensure_validated
from repro.match.conflict_set import ConflictSet
from repro.wm.memory import WorkingMemory


@runtime_checkable
class Matcher(Protocol):
    """Anything that maintains a conflict set against a working memory.

    Lifecycle: construct with the working memory, add productions, then
    call :meth:`attach`.  After attaching, the matcher keeps
    :attr:`conflict_set` consistent with the store — incrementally
    (Rete/TREAT) or by recomputation (naive) — as WM deltas arrive.
    """

    conflict_set: ConflictSet

    def add_production(self, production: Production) -> None:
        """Register a production; may immediately create instantiations."""
        ...

    def add_productions(self, productions: Iterable[Production]) -> None:
        """Register several productions."""
        ...

    def remove_production(self, name: str) -> None:
        """Unregister the production called ``name`` and retract its
        instantiations from the conflict set."""
        ...

    def attach(self) -> None:
        """Subscribe to working-memory deltas and build initial matches."""
        ...

    def detach(self) -> None:
        """Unsubscribe from working-memory deltas."""
        ...


class BaseMatcher:
    """Shared plumbing for the concrete matchers."""

    def __init__(self, memory: WorkingMemory) -> None:
        self.memory = memory
        self.conflict_set = ConflictSet()
        self._productions: dict[str, Production] = {}
        self._plans: dict[str, SlottedPlan] = {}
        self._attached = False

    @property
    def productions(self) -> dict[str, Production]:
        """Registered productions by name (read-mostly view)."""
        return self._productions

    def _register(self, production: Production) -> SlottedPlan:
        """Validate, fetch the matcher's plan, and record both.

        Every concrete matcher routes ``add_production`` through here:
        unvalidated productions (built without :meth:`Production.
        validate`, e.g. via ``object.__new__``) are rejected now — the
        compiled beta closures assume load-time validation, so a
        forward-referencing predicate must not reach a join.
        """
        ensure_validated(production)
        plan = self._plan_of(production)
        self._productions[production.name] = production
        self._plans[production.name] = plan
        return plan

    @staticmethod
    def _plan_of(production: Production) -> SlottedPlan:
        """The plan this kind of matcher joins by: the written-order
        token plan (Rete alone overrides, with the join plan)."""
        return production.token_plan()

    def _unregister(self, name: str) -> None:
        self._productions.pop(name, None)
        self._plans.pop(name, None)

    def add_productions(self, productions: Iterable[Production]) -> None:
        for production in productions:
            self.add_production(production)

    def add_production(self, production: Production) -> None:
        raise NotImplementedError

    def remove_production(self, name: str) -> None:
        raise NotImplementedError

    @property
    def is_attached(self) -> bool:
        """Whether the matcher is live (building matches on deltas)."""
        return self._attached

    def attach(self) -> None:
        if not self._attached:
            self.memory.subscribe(self._on_delta)
            self._attached = True
            self.rebuild()

    def attach_passive(self) -> None:
        """Build matches and go live WITHOUT subscribing to the store.

        Used by driving matchers (:class:`repro.match.partitioned.
        PartitionedMatcher`) that subscribe once themselves and feed
        deltas to passive inner matchers via :meth:`feed` — e.g. as
        batched replays behind a barrier.
        """
        if not self._attached:
            self._attached = True
            self.rebuild()

    def detach(self) -> None:
        if self._attached:
            self.memory.unsubscribe(self._on_delta)
            self._attached = False

    def feed(self, delta) -> None:
        """Process one WM delta on behalf of a driving matcher."""
        self._on_delta(delta)

    @contextmanager
    def batch(self) -> Iterator["BaseMatcher"]:
        """Group WM deltas behind one match barrier (no-op by default).

        :class:`~repro.match.partitioned.PartitionedMatcher` overrides
        this to buffer deltas published inside the block and replay
        them to every shard together on exit.  The base implementation
        matches incrementally as usual, so single-threaded engine
        drive loops can wrap RHS execution in ``matcher.batch()``
        unconditionally.  Not thread-safe — only for callers that own
        the matcher's delta stream.
        """
        yield self

    def rebuild(self) -> None:
        """Recompute all matches from the current store contents."""
        raise NotImplementedError

    def _on_delta(self, delta) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


#: The monolithic matchers by name -> (module, class): the one registry
#: behind the engines' ``matcher=`` names and the partitioned matcher's
#: inner matchers.  A module is imported when its matcher is built.
MATCHERS: dict[str, tuple[str, str]] = {
    "naive": ("repro.match.naive", "NaiveMatcher"),
    "rete": ("repro.match.rete.network", "ReteMatcher"),
    "treat": ("repro.match.treat", "TreatMatcher"),
    "cond": ("repro.match.cond", "CondRelationMatcher"),
}


def matcher_class(name: str) -> type[BaseMatcher]:
    """The matcher class registered as ``name`` (``KeyError`` if none)."""
    module, cls = MATCHERS[name]
    return getattr(import_module(module), cls)
