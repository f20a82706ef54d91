"""The tail below a reordered rule's stable prefix: its last
``SlottedPlan.tail`` steps (:func:`~repro.lang.compile.order_and_tail`)
as one Rete node that stores no partial match, so a firing that
modifies the volatile element rebuilds its complete matches and
nothing else.

Under a lazy head it does not even build those (LEAPS: Miranker et
al., AAAI 1990): a WME newer than every WME seen is, per rule, a
:class:`_Pending` seed in the conflict set.  What completes a match
later (a newer seed, a prefix token, an older WME a rollback re-adds)
builds it, so a seed is left the matches it is the newest element of.
It walks them best first, never enumerating them to sort them
(:meth:`_Pending.matches`), and the conflict set's one ranking
(:meth:`~repro.match.conflict_set.Eligible.ranked`) builds one only
when it yields it: a select builds the best, a wave's admission those
it pulls, ``settle`` all.
"""

from __future__ import annotations

from heapq import merge
from itertools import groupby

from repro.lang.ast import ModifyAction, RemoveAction
from repro.lang.compile import SlottedPlan, bound_prefixes
from repro.match.rete.alpha import _ABSENT, AlphaMemory, IndexSet, token_key
from repro.match.rete.nodes import NegativeNode, NetworkState, Token, TokenStore
from repro.wm.element import WME


class TailToken(Token):
    """A :class:`TailNode`'s match, a child of its prefix token, with
    the tail's WMEs in chain order (its ``wme`` is ``None``)."""

    __slots__ = ("tail_wmes",)

    def __init__(
        self, parent: Token, wmes: tuple[WME, ...], data, node: "TailNode"
    ) -> None:
        Token.__init__(self, parent, None, data, node)
        self.tail_wmes = wmes

    def wmes(self) -> tuple[WME, ...]:
        return self.parent.wmes() + self.tail_wmes


class TailNode(TokenStore):
    """Complete matches only, each a :class:`TailToken` registered
    under every tail WME: deletion and blocking retract it through
    :class:`~repro.match.rete.nodes.NetworkState`, and the chain's
    step closures judge every candidate.

    A prefix token joins the tail in chain order, on each step's join
    key.  A WME arriving at tail position ``i`` seeds the join
    (TREAT-style): the other positions are enumerated from alpha
    buckets keyed on the variables already found, most-keyed first,
    and the prefix store is probed last, on the prefix slots the
    tail's variables test.  Each match is built once: a seed at ``i``
    skips its WME at a lower position of the same memory, and seeds
    come first in their memories' successors (descendants first), so
    a prefix token the same WME creates meets it from the left only.
    """

    def __init__(
        self,
        network: NetworkState,
        parent: TokenStore,
        alphas: tuple[AlphaMemory, ...],
        plan: SlottedPlan,
    ) -> None:
        super().__init__(network)
        self.parent = parent
        self.output = self
        self.alphas = alphas
        self.users = 0
        cut = len(plan.steps) - plan.tail
        steps = plan.steps[cut:]
        self._betas = tuple(step.beta for step in steps)
        self._skip_blocked = isinstance(parent, NegativeNode)
        #: ``(IndexSet, spec)`` of every index this node reads.
        self._held: list[tuple[IndexSet, tuple]] = []
        self._chain = tuple(
            (
                token_key(tuple(slot for _, slot in step.probe_items)),
                self._acquire(alpha, tuple(a for a, _ in step.probe_items)),
                step.beta,
            )
            for alpha, step in zip(alphas, steps)
        )
        prefix_bound = bound_prefixes(tuple(s.element for s in plan.steps))
        items = [step.element.compiled().variable_items for step in steps]
        self._seeds = tuple(
            _Seed(self, i, *self._seed_plan(
                i, items, plan.index.slots, prefix_bound[cut]
            ))
            for i in range(len(steps))
        )
        parent.children.append(self)
        for alpha, seed in zip(alphas, self._seeds):
            alpha.successors.insert(0, seed)

    def _acquire(self, memory, spec: tuple) -> dict:
        self._held.append((memory.indexes, spec))
        return memory.indexes.acquire(spec).buckets

    def _seed_plan(self, i, items, slots, prefix_bound):
        """A seed's enumeration plan — per other position in order,
        ``(position, alpha buckets, key of the WMEs found so far,
        whether it skips the seed)`` — and its prefix probe."""
        known = {}  # variable -> the (position, attribute) it is read at
        for attribute, name in items[i]:
            known.setdefault(name, (i, attribute))
        remaining = [j for j in range(len(items)) if j != i]
        plan = []
        while remaining:
            j = max(
                remaining,
                key=lambda j: (sum(n in known for _, n in items[j]), -j),
            )
            remaining.remove(j)
            keyed = [(a, known[n]) for a, n in items[j] if n in known]
            alpha = self.alphas[j]
            plan.append((
                j,
                self._acquire(alpha, tuple(a for a, _ in keyed)),
                _sourced_key([source for _, source in keyed]),
                j < i and alpha is self.alphas[i],
            ))
            for attribute, name in items[j]:
                known.setdefault(name, (j, attribute))
        probed = sorted(
            (slots[name], source)
            for name, source in known.items()
            if name in prefix_bound
        )
        prefix = (
            self._acquire(self.parent, tuple(slot for slot, _ in probed)),
            _sourced_key([source for _, source in probed]),
        )
        return tuple(plan), prefix

    # -- activations -----------------------------------------------------------

    def on_token_added(self, token: Token) -> None:
        self._join(token, 0, token.data, ())

    def _join(self, token: Token, depth: int, data, wmes: tuple) -> None:
        key_of, buckets, beta = self._chain[depth]
        bucket = buckets.get(key_of(data))
        if bucket is None:
            return
        depth += 1
        complete = depth == len(self._chain)
        for wme in bucket.values():
            extended = beta(wme, data)
            if extended is None:
                continue
            if complete:
                self._emit(token, (*wmes, wme), extended)
            else:
                self._join(token, depth, extended, (*wmes, wme))

    def seed(self, seed: "_Seed", found: list, visit, depth: int = 0) -> None:
        """``visit(tail WMEs)`` per assignment of the tail's positions
        that extends ``found``, which holds the seed's WME."""
        if depth < len(seed.plan):
            position, buckets, key_of, skips_seed = seed.plan[depth]
            seeded = found[seed.position]
            for wme in buckets.get(key_of(found), {}).values():
                if not (skips_seed and wme is seeded):
                    found[position] = wme
                    self.seed(seed, found, visit, depth + 1)
            return
        visit(tuple(found))

    def completions(self, tokens, wmes: tuple):
        """``(token, data)`` per prefix token of ``tokens``, in their
        order, that is unblocked and that ``wmes`` complete."""
        betas = tuple(zip(self._betas, wmes))
        skip_blocked = self._skip_blocked
        for token in tokens:
            if skip_blocked and token.blockers:
                continue
            data = token.data
            for beta, wme in betas:
                data = beta(wme, data)
                if data is None:
                    break
            else:
                yield token, data

    def _emit(self, parent: Token, wmes: tuple, data) -> None:
        token = TailToken(parent, wmes, data, self)
        self._store(token)
        self.network.register_tail(token)
        self.propagate(token)

    # -- removal -------------------------------------------------------------------

    def remove_token(self, token: Token) -> None:
        if token in self.tokens:
            super().remove_token(token)
            self.network.unregister_tail(token)

    def unlink(self) -> None:
        """Detach from the prefix store and every alpha memory (the
        node's tokens are already deleted); each index goes with its
        last reader."""
        self.parent.children.remove(self)
        for alpha, seed in zip(self.alphas, self._seeds):
            alpha.successors.remove(seed)
        for indexes, spec in self._held:
            indexes.release(spec)


class _Seed:
    """Tail position ``position`` as a successor of its alpha memory."""

    __slots__ = ("tail", "position", "plan", "prefix", "waiting")

    def __init__(self, tail: TailNode, position: int, plan, prefix) -> None:
        self.tail = tail
        self.position = position
        self.plan = plan
        self.prefix = prefix
        self.waiting: dict[int, list[_Pending]] = {}  # by timetag

    def on_wme_added(self, wme: WME) -> None:
        tail = self.tail
        cs = tail.network.conflict_set
        if cs.lazy and wme.timetag > tail.network.latest:
            waiting = self.waiting[wme.timetag] = []
            for rule in tail.children:  # the rules' production nodes
                waiting.append(_Pending(self, wme, rule))
                cs.pend(waiting[-1])
            return
        found = [None] * len(tail.alphas)
        found[self.position] = wme
        tail.seed(self, found, self.build)

    def prefix_tokens(self, wmes: tuple):
        """The prefix store's bucket that tail assignment ``wmes``
        probes."""
        buckets, key_of = self.prefix
        return buckets.get(key_of(wmes), ())

    def build(self, wmes: tuple) -> None:
        """Build every match tail assignment ``wmes`` completes."""
        tail = self.tail
        for token, data in tail.completions(self.prefix_tokens(wmes), wmes):
            tail._emit(token, wmes, data)

    def on_wme_removed(self, wme: WME) -> None:
        for pending in self.waiting.pop(wme.timetag, ()):
            self.tail.network.conflict_set.unpend(pending)


class _Pending:
    """A rule's matches of ``wme`` at ``seed``'s position, unbuilt;
    ``production`` and ``_newest`` are all a lazy head reads; the
    conflict set's ranking pulls them through :meth:`matches`."""

    __slots__ = ("seed", "wme", "plan", "production", "_newest")

    def __init__(self, seed: _Seed, wme: WME, rule) -> None:
        self.seed, self.wme, self.plan = seed, wme, rule.plan
        self.production, self._newest = rule.production, wme.timetag

    def rewrites(self) -> bool:
        """Does the rule modify or remove ``wme``?"""
        plan = self.plan
        ce = plan.order[len(plan.steps) - plan.tail + self.seed.position]
        return any(
            isinstance(action, (ModifyAction, RemoveAction))
            and action.ce_index == ce + 1 for action in self.production.rhs
        )

    def _walk(self, key, descending: bool, skip):
        """``(match, its _emit args)`` per match not in ``skip``, not
        refracted and with ``wme`` its newest element, best first by
        ``key`` (a strategy's, largest first when ``descending``).

        Fix a tail assignment ``W``: merging ``W``'s timetags into two
        prefix tokens' sorted timetags keeps their order, so ``key``
        ranks the matches through ``W`` as it ranks the tokens' sorted
        timetags (``KeyedStrategy``'s contract).  Each ``W`` walks its
        prefix bucket in that order, and the streams are merged."""
        seed, tail, newest = self.seed, self.seed.tail, self._newest
        found = [None] * len(tail.alphas)
        found[seed.position] = self.wme
        assignments: list[tuple] = []
        tail.seed(seed, found, assignments.append)
        streams = [
            self._through(wmes, key, descending, skip)
            for wmes in assignments
            if max(wme.timetag for wme in wmes) == newest  # else newer's
        ]
        return merge(
            *streams, key=lambda entry: key(entry[0]), reverse=descending
        )

    def _through(self, wmes: tuple, key, descending: bool, skip):
        """:meth:`_walk`'s matches through tail assignment ``wmes``."""
        tail, plan, newest = self.seed.tail, self.plan, self._newest
        cs, in_lhs_order = tail.network.conflict_set, plan.in_lhs_order
        tokens = [
            token for token in self.seed.prefix_tokens(wmes)
            if not token.blockers
        ]
        tokens.sort(key=_recency, reverse=descending)
        for recency, tied in groupby(tokens, _recency):
            if recency and recency[0] > newest:
                continue  # a newer prefix element built it
            found = []
            for token, data in tail.completions(tied, wmes):
                path = token.wmes() + wmes
                if in_lhs_order is not None:
                    path = in_lhs_order(path)
                match = plan.instantiate(path, data)
                if not (match in skip or cs.has_fired(match)):
                    found.append((match, (token, wmes, data)))
            if len(found) > 1:  # equal recency: the whole key decides
                found.sort(key=lambda entry: key(entry[0]), reverse=descending)
            yield from found

    def build(self, emit: tuple) -> None:
        """Build the match ``emit`` stands for (:meth:`matches`)."""
        self.seed.tail._emit(*emit)

    def matches(self, key, descending: bool, skip, spent):
        """``(match, self, emit)`` per match of :meth:`_walk` (unbuilt
        but for ``skip``), pulled one at a time; :meth:`build` builds
        it.  None once ``spent(self)``; after the last the seed leaves
        the conflict set, unless spent."""
        if spent(self):
            return
        for match, emit in self._walk(key, descending, skip):
            if spent(self):
                return
            yield match, self, emit
        if not spent(self):  # else its last may be unbuilt
            self.seed.tail.network.conflict_set.unpend(self)


def _recency(token: Token) -> tuple[int, ...]:
    """``token``'s timetags sorted descending, cached on it."""
    try:
        return token.recency
    except AttributeError:  # first read; a token's path never changes
        tags = sorted((wme.timetag for wme in token.wmes()), reverse=True)
        token.recency = tuple(tags)
        return token.recency


def _sourced_key(sources: list[tuple[int, str]]):
    """``found -> key``: each ``(position, attribute)`` read off the
    WMEs found so far, in the shape of :func:`token_key`'s keys."""
    shape = token_key(tuple(range(len(sources))))
    return lambda found: shape(
        tuple([found[p].mapping().get(a, _ABSENT) for p, a in sources])
    )
