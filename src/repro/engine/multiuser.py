"""Multi-user execution: several sessions over one shared database.

Section 2's classification closes with: "Finally, tasks of different
users can be done in parallel."  A :class:`MultiUserEngine` hosts
several *sessions* — each a named rule set, conceptually one user's
task — over one shared working memory, firing them concurrently
through one lock scheme.

Scheduling is round-robin across sessions within each wave (no user
can starve another), and every firing is attributed to its session, so
fairness and interference between users are measurable.  All the
semantic machinery is inherited: the combined commit sequence must
still replay single-threaded, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from repro.engine.parallel import ParallelEngine, SchemeName
from repro.errors import EngineError
from repro.lang.production import Production
from repro.match.instantiation import Instantiation
from repro.match.strategies import Strategy, make_strategy, order_rest
from repro.wm.memory import WorkingMemory


@dataclass(frozen=True)
class Session:
    """One user's rule set."""

    user: str
    productions: tuple[Production, ...]

    @staticmethod
    def of(user: str, productions: Iterable[Production]) -> "Session":
        return Session(user, tuple(productions))


def _round_robin(queues: list[Iterator]) -> Iterator:
    """One from each queue in turn, dropping a queue when it runs
    dry."""
    while queues:
        alive = []
        for queue in queues:
            for item in queue:
                yield item
                alive.append(queue)
                break
        queues = alive


class MultiUserEngine(ParallelEngine):
    """Wave-parallel execution of several users' rule sets.

    Parameters are as for :class:`~repro.engine.parallel.ParallelEngine`
    except that ``sessions`` replaces ``productions``.  Rule names must
    be globally unique across sessions (they share one conflict set).

    Wave candidates are ordered round-robin across users (each user's
    own candidates ordered by ``base_strategy``), with the starting
    user rotating wave to wave — strict fairness even at wave width 1.
    """

    def __init__(
        self,
        sessions: Sequence[Session],
        memory: WorkingMemory | None = None,
        scheme: SchemeName = "rc",
        matcher="rete",
        base_strategy: str | Strategy = "lex",
        processors: int | None = None,
        seed: int | None = None,
        observer=None,
        retry_policy=None,
        fault_injector=None,
    ) -> None:
        owners: dict[str, str] = {}
        productions: list[Production] = []
        for session in sessions:
            for production in session.productions:
                if production.name in owners:
                    raise EngineError(
                        f"rule {production.name!r} appears in sessions "
                        f"{owners[production.name]!r} and {session.user!r}"
                    )
                owners[production.name] = session.user
                productions.append(production)
        if isinstance(base_strategy, str):
            base_strategy = make_strategy(base_strategy, seed)
        super().__init__(
            productions,
            memory,
            scheme=scheme,
            matcher=matcher,
            strategy=base_strategy,
            processors=processors,
            seed=seed,
            observer=observer,
            retry_policy=retry_policy,
            fault_injector=fault_injector,
        )
        self.sessions = tuple(sessions)
        self._owners = owners
        self._users = [session.user for session in sessions]
        self._turn = 0

    # -- fair wave ordering ------------------------------------------------------------

    def _ranking(
        self, eligible: list[Instantiation], width: int | None
    ) -> tuple[list[Instantiation], Iterator[Instantiation]]:
        """Interleave users' candidates, rotating the lead user: the
        first ``width`` of the round-robin, and the iterator that goes
        on dealing it."""
        buckets: dict[str, list[Instantiation]] = {}
        for candidate in eligible:
            user = self._owners.get(candidate.production.name, "?")
            buckets.setdefault(user, []).append(candidate)
        # A user supplies at most ``width`` of a full wave, so that is
        # all the base strategy ranks within a bucket up front.
        ranked = {}
        for user, candidates in buckets.items():
            head = self.strategy.order(candidates, width)
            ranked[user] = chain(
                head, order_rest(self.strategy, candidates, head)
            )
        # Rotate the user list so the lead changes every wave.
        users = self._users
        rotation = users[self._turn:] + users[: self._turn]
        self._turn = (self._turn + 1) % len(users) if users else 0
        dealt = _round_robin(
            [ranked[user] for user in rotation if user in ranked]
        )
        return list(islice(dealt, width)), dealt

    # -- attribution -----------------------------------------------------------------

    def _span_fields(self, instantiation: Instantiation) -> dict:
        """Stamp acquire/firing spans with the owning session's user."""
        return {
            "user": self._owners.get(instantiation.production.name, "?")
        }

    def user_of(self, rule_name: str) -> str:
        """The session owning ``rule_name``."""
        try:
            return self._owners[rule_name]
        except KeyError:
            raise EngineError(f"unknown rule {rule_name!r}") from None

    def firings_by_user(self) -> dict[str, int]:
        """Committed firings per session (fairness view)."""
        counts = {session.user: 0 for session in self.sessions}
        for record in self.result.firings:
            counts[self.user_of(record.rule_name)] += 1
        return counts
