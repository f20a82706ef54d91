"""Conflict-resolution strategies (the *select* phase).

Section 3: strategies like OPS5's LEX and MEA "are heuristics that
strongly favor some sequences over others.  However ... they do not
rule out any execution sequence entirely."  Accordingly every strategy
here picks from the eligible instantiations but never adds or removes
any — the semantic-consistency machinery of :mod:`repro.core` is
strategy-agnostic, exactly as Section 3 requires.
"""

from __future__ import annotations

import random
from heapq import nlargest, nsmallest
from operator import attrgetter
from typing import (
    Callable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.match.instantiation import Instantiation


@runtime_checkable
class Strategy(Protocol):
    """Ranks a non-empty candidate list; never adds or removes any."""

    name: str

    def select(
        self, candidates: Sequence[Instantiation]
    ) -> Instantiation:
        """The dominant instantiation."""

    def order(
        self, candidates: Sequence[Instantiation], limit: int | None = None
    ) -> list[Instantiation]:
        """The first ``limit`` (default: all) candidates, in the order
        repeated ``select``-then-remove would produce them."""


class KeyedStrategy:
    """A strategy that is a total-order ``key`` plus a direction.

    ``select`` is the extreme of the key and ``order`` one (partial)
    sort on it, so ``order`` equals repeated ``select``-then-remove.
    Every key ends in the instantiation's identity (LEX's in the
    LHS-order timetags, after the rule name), so distinct candidates
    never tie and neither result depends on the order of the candidate
    list — that is, on the order the matcher emitted them in.  Keys
    read ranks cached on the instantiation; none does work proportional
    to the size of the rule.
    """

    name: str
    key: Callable[[Instantiation], tuple]
    #: True: the largest key is preferred; False: the smallest.
    descending = True

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        pick = max if self.descending else min
        return pick(candidates, key=self.key)

    def order(
        self, candidates: Sequence[Instantiation], limit: int | None = None
    ) -> list[Instantiation]:
        if limit is None:
            return sorted(
                candidates, key=self.key, reverse=self.descending
            )
        # Documented as ``sorted(...)[:limit]``.
        take = nlargest if self.descending else nsmallest
        return take(limit, candidates, key=self.key)


class LexStrategy(KeyedStrategy):
    """OPS5 LEX: prefer recency (descending timetag vectors), then
    specificity (number of LHS tests), then stable name order."""

    name = "lex"
    key = attrgetter("_lex_key")


class MeaStrategy(KeyedStrategy):
    """OPS5 MEA: recency of the first condition element dominates,
    remaining ties resolved as in LEX."""

    name = "mea"

    @staticmethod
    def key(inst: Instantiation) -> tuple:
        return (inst._mea_key, inst._lex_key)


class PriorityStrategy(KeyedStrategy):
    """Highest production priority wins; ties resolved by LEX."""

    name = "priority"

    @staticmethod
    def key(inst: Instantiation) -> tuple:
        return (inst.production.priority, inst._lex_key)


class FifoStrategy(KeyedStrategy):
    """Oldest instantiation first (ascending recency): a fair queue.
    Recency ties across rules and LHS orders; the identity breaks
    them."""

    name = "fifo"
    key = attrgetter("_recency_key", "_identity")
    descending = False


class RandomStrategy:
    """Uniformly random choice; seedable for reproducible runs.

    Useful for sampling the execution graph: repeated runs explore
    different valid sequences of ``ES_single``.

    ``order`` sorts the pool once by the stable key (rule name, then
    timetags — the instantiation's identity, so list order is
    irrelevant) and draws without replacement, one random number per
    instantiation returned.  With a ``limit`` below the pool size a
    seeded run therefore consumes ``limit`` numbers per call, not one
    per candidate: its sequence differs from what repeated ``select``
    over the whole pool followed by a cut would give.
    """

    name = "random"

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)

    def select(self, candidates: Sequence[Instantiation]) -> Instantiation:
        return self.order(candidates, 1)[0]

    def order(
        self, candidates: Sequence[Instantiation], limit: int | None = None
    ) -> list[Instantiation]:
        pool = sorted(candidates, key=attrgetter("_identity"))
        if limit is None or limit > len(pool):
            limit = len(pool)
        draw = self._rng.randrange
        return [pool.pop(draw(len(pool))) for _ in range(limit)]


def order_rest(
    strategy: Strategy,
    candidates: Sequence[Instantiation],
    head: Sequence[Instantiation],
) -> Iterator[Instantiation]:
    """What ``strategy.order(candidates)`` goes on to return after
    ``head = strategy.order(candidates, limit)``, ranked only when the
    first of them is asked for.

    One ranking in two instalments: a keyed order is total, so the
    rest of it is the order of the rest; a seeded random draw without
    replacement resumes on the same sorted pool in the same generator
    state.
    """
    if len(head) < len(candidates):
        taken = set(head)
        yield from strategy.order(
            [c for c in candidates if c not in taken]
        )


_REGISTRY = {
    "lex": LexStrategy,
    "mea": MeaStrategy,
    "priority": PriorityStrategy,
    "fifo": FifoStrategy,
    "random": RandomStrategy,
}


def make_strategy(name: str, seed: int | None = None) -> Strategy:
    """Instantiate a strategy by name.

    >>> make_strategy("lex").name
    'lex'
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    if cls is RandomStrategy:
        return RandomStrategy(seed)
    return cls()
