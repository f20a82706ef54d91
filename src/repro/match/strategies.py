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
from itertools import islice
from operator import attrgetter
from typing import Callable, Collection, Iterator, Protocol, runtime_checkable

from repro.match.conflict_set import Eligible, Head
from repro.match.instantiation import Instantiation

Candidates = Collection[Instantiation]


@runtime_checkable
class Strategy(Protocol):
    """Ranks the candidates; never adds or removes any.

    A strategy has one ranking, :meth:`ranked`: ``select`` is its
    first item and ``order(·, k)`` its first ``k``.
    """

    name: str
    head: Head | None  # a coarse rank: a larger head ranks first

    def ranked(
        self, candidates: Candidates, spent=None, width: int | None = None
    ) -> Iterator[Instantiation]:
        """Every candidate, best first, pulled one at a time.  Of the
        conflict set's view, a pending seed builds a match only when
        it is yielded, and one ``spent`` holds for yields no more
        (:meth:`Eligible.ranked`); ``width``: how many the caller
        means to take, when it knows (None: all)."""

    def select(self, candidates: Candidates) -> Instantiation | None:
        """The dominant instantiation (None: empty pending seeds)."""

    def order(
        self, candidates: Candidates, limit: int | None = None
    ) -> list[Instantiation]:
        """The first ``limit`` (default: all) candidates, in the order
        repeated ``select``-then-remove would produce them."""


class _Ranking:
    """``select`` and ``order`` as the start of ``ranked``."""

    def select(self, candidates: Candidates) -> Instantiation | None:
        return next(self.ranked(candidates, width=1), None)

    def order(
        self, candidates: Candidates, limit: int | None = None
    ) -> list[Instantiation]:
        return list(islice(self.ranked(candidates, width=limit), limit))


class KeyedStrategy(_Ranking):
    """A strategy that is a total-order ``key`` plus a direction.

    :meth:`ranked` sorts on the key, so ``order`` equals repeated
    ``select``-then-remove.  Every key ends in the instantiation's
    identity (LEX's in the LHS-order timetags, after the rule name), so
    distinct candidates never tie and the ranking does not depend on
    the order of the candidate list — that is, on the order the
    matcher emitted them in.  Keys are cached on first read.  Of a
    view ranked by ``head`` the ranking reads the groups a pull
    reaches and no others.

    A lazy strategy (``lazy``: ``head`` reads only the rule and the
    newest timetag) also promises that within one rule ``key`` orders
    matches by their sorted-descending timetags, then their LHS-order
    timetags, in ``descending``'s direction: a Rete tail seed walks its
    matches best first on that alone (:mod:`repro.match.rete.tail`).
    """

    name: str
    key: Callable[[Instantiation], tuple]
    head: Head = attrgetter("_newest")
    lazy = True
    #: True: the largest key is preferred; False: the smallest.
    descending = True

    def ranked(
        self, candidates: Candidates, spent=None, width: int | None = None
    ) -> Iterator[Instantiation]:
        if isinstance(candidates, Eligible):
            return candidates.ranked(
                self.head, self.key, self.descending, spent
            )
        return iter(sorted(candidates, key=self.key, reverse=self.descending))


class LexStrategy(KeyedStrategy):
    """OPS5 LEX: prefer recency (descending timetag vectors), then
    specificity (number of LHS tests), then stable name order."""

    name = "lex"
    key = staticmethod(Instantiation.lex_key)


class MeaStrategy(KeyedStrategy):
    """OPS5 MEA: recency of the first condition element dominates,
    remaining ties resolved as in LEX."""

    name = "mea"
    head = staticmethod(lambda i: i._timetags[0] if i._timetags else -1)
    lazy = False

    @staticmethod
    def key(inst: Instantiation) -> tuple:
        return (inst.mea_key(), inst.lex_key())


class PriorityStrategy(KeyedStrategy):
    """Highest production priority wins; ties resolved by LEX."""

    name = "priority"
    head = attrgetter("production.priority", "_newest")

    @staticmethod
    def key(inst: Instantiation) -> tuple:
        return (inst.production.priority, inst.lex_key())


class FifoStrategy(KeyedStrategy):
    """Oldest instantiation first (ascending recency): a fair queue.
    Recency ties across rules and LHS orders; the identity breaks
    them."""

    name = "fifo"
    key = staticmethod(lambda i: (i.recency_key(), i._identity))
    head = staticmethod(lambda i: -i._newest)
    descending = False


class RandomStrategy(_Ranking):
    """Uniformly random choice; seedable for reproducible runs.

    Useful for sampling the execution graph: repeated runs explore
    different valid sequences of ``ES_single``.

    :meth:`ranked` sorts the pool once by the stable key (rule name,
    then timetags — the instantiation's identity, so list order is
    irrelevant) and draws without replacement, one random number per
    instantiation: the first ``width`` at the first pull, the rest
    together when the first of them is asked for.  A seeded run
    therefore consumes ``width`` numbers per ranking taken no further,
    not one per candidate: its sequence differs from what repeated
    ``select`` over the whole pool followed by a cut would give.
    """

    name = "random"
    head = None

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)

    def ranked(
        self, candidates: Candidates, spent=None, width: int | None = None
    ) -> Iterator[Instantiation]:
        pool = sorted(candidates, key=attrgetter("_identity"))
        draw = self._rng.randrange
        first = len(pool) if width is None else min(width, len(pool))
        yield from [pool.pop(draw(len(pool))) for _ in range(first)]
        yield from [pool.pop(draw(len(pool))) for _ in range(len(pool))]


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
