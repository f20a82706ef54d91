"""Beta part of the Rete network: tokens and node classes.

The design follows Doorenbos' formulation ("Production Matching for
Large Learning Systems") adapted to carry an explicit binding payload
per token — a fixed-width slot tuple.  Join tests are the per-element
step closures from the production's *join plan*
(:meth:`~repro.lang.production.Production.join_plan`), whose steps come
in :func:`~repro.lang.compile.join_order` — the written LHS with the
rule's own ``modify``/``remove`` targets sunk last — and may run a
predicate deferred from an earlier step.  Because slot assignment is a
pure function of the plan's element prefix, productions sharing a
join-order prefix still share the join chain (identical widths and
slots by induction from the dummy top node).  A token's path is
therefore in join order; :class:`ProductionNode` puts the WMEs back in
written LHS order before it builds the instantiation, so nothing
downstream can tell how the chain was ordered.

One alpha memory can feed several nodes of one chain (``(a) (a)``):
its successors are kept descendants-first, so a new WME reaches the
lower join before the upper one has built the token that would meet it
again from the left — every match is built once.

Hashed memories
---------------
No activation scans a memory: every node reads its inputs through the
hash indexes of :mod:`~repro.match.rete.alpha`, on the static *join
key* ``step.probe_items`` (a tail's seeds on the variables they have
found).  A bucket is a superset pre-filter; the compiled ``step.beta``
closure stays the only judge.

Node taxonomy
-------------
*Token-storing nodes* hold :class:`Token` objects and feed child
*activatable* nodes:

* :class:`BetaMemory` — plain storage of partial matches.
* :class:`NegativeNode` — stores tokens annotated with the WMEs that
  currently *block* them (match the negated pattern); a token is
  propagated downstream only while unblocked.

*Activatable nodes* react to token/WME arrivals:

* :class:`JoinNode` — joins its parent's tokens with an alpha memory.
* :class:`NegativeNode` (doubles as both kinds).
* :class:`~repro.match.rete.tail.TailNode` — a reordered rule's last
  ``plan.tail`` steps as one node storing only complete matches.
* :class:`ProductionNode` — terminal; converts full tokens into
  conflict-set instantiations (WMEs in written LHS order), hung on the
  token itself: a complete match is one token.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Protocol

from repro.lang.compile import SlottedPlan, SlottedStep
from repro.match.conflict_set import ConflictSet
from repro.match.instantiation import Instantiation
from repro.match.rete.alpha import AlphaMemory, IndexSet, token_key
from repro.wm.element import WME

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.match.rete.tail import TailToken


#: The blockers of every token but a negative node's own.
_UNBLOCKED = MappingProxyType({})


class Token:
    """One partial match: a path of WMEs through the join chain.

    ``wme`` is ``None`` for tokens created by negative nodes (absence
    contributes no element) and for the dummy root token.  ``data`` is
    the binding payload — a slot tuple whose width is the LHS prefix
    width at the token's depth.
    """

    __slots__ = (
        "parent",
        "wme",
        "data",
        "node",
        "children",
        "blockers",
        "instantiation",
        "recency",  # a tail walk's cache: the path's sorted timetags
    )

    def __init__(
        self,
        parent: "Token | None",
        wme: WME | None,
        data,
        node: "TokenStore | None",
    ) -> None:
        self.parent = parent
        self.wme = wme
        self.data = data
        self.node = node
        self.children: list[Token] = []
        #: WMEs currently matching a negated pattern (a dict on a
        #: NegativeNode's own tokens only).
        self.blockers: Mapping[int, WME] = _UNBLOCKED
        #: The instantiation a ProductionNode hung on the token, or a
        #: list of them when rules sharing the store each hung one.
        self.instantiation: Instantiation | list | None = None
        if parent is not None:
            parent.children.append(self)

    def wmes(self) -> tuple[WME, ...]:
        """The positive-element WMEs along the path, in join order."""
        path: list[WME] = []
        token: Token | None = self
        while token is not None:
            if token.wme is not None:
                path.append(token.wme)
            token = token.parent
        path.reverse()
        return tuple(path)


class RightActivatable(Protocol):
    """Nodes fed by an alpha memory (its ``successors``)."""

    def on_wme_added(self, wme: WME) -> None: ...

    def on_wme_removed(self, wme: WME) -> None: ...


class Activatable(Protocol):
    """Nodes fed by a token-storing parent."""

    def on_token_added(self, token: Token) -> None: ...


def _payload_of(token: Token, _value: None) -> object:
    return token.data


class TokenStore:
    """Base for nodes that store tokens (beta memories, negative nodes).

    ``tokens`` is an insertion-ordered set; ``indexes`` holds one hash
    index per join key a reader of this store probes it with.
    """

    def __init__(self, network: "NetworkState") -> None:
        self.network = network
        self.tokens: dict[Token, None] = {}
        self.indexes = IndexSet(token_key, self.tokens, _payload_of)
        self.children: list[Activatable] = []

    def _store(self, token: Token) -> None:
        self.tokens[token] = None
        self.indexes.insert(token)
        self.network.register_token(token)

    def remove_token(self, token: Token) -> None:
        """Unlink ``token`` from this store (deletion bookkeeping)."""
        if token in self.tokens:
            del self.tokens[token]
            self.indexes.discard(token)

    def propagate(self, token: Token) -> None:
        for child in list(self.children):
            child.on_token_added(token)


class DummyTopNode(TokenStore):
    """Holds the single root token every match path starts from.

    The root token's ``data`` is the empty slot tuple.  A first
    condition element has the empty join key, which reads no slot, so
    the root files under ``()``.
    """

    def __init__(self, network: "NetworkState") -> None:
        super().__init__(network)
        self.root = Token(None, None, (), self)
        self.tokens[self.root] = None


class BetaMemory(TokenStore):
    """Stores the output tokens of one join node."""

    def add_match(self, parent: Token, wme: WME, data) -> None:
        token = Token(parent, wme, data, self)
        self._store(token)
        self.propagate(token)


class TwoInputNode:
    """What join and negative nodes share: two hashed inputs.

    A right activation probes the token store ``probed`` (a join its
    parent, a negative node itself — its own tokens carry the parent
    token's key slots), a left activation probes ``alpha``, each
    through the index on the step's join key.  The compiled join test
    ``step.beta`` runs on every candidate of the probed bucket.
    """

    def _link(
        self,
        parent: TokenStore,
        probed: TokenStore,
        output: TokenStore,
        alpha: AlphaMemory,
        step: SlottedStep,
    ) -> None:
        self.parent = parent
        #: Where the node's own tokens live and its children attach.
        self.output = output
        self.alpha = alpha
        self.alphas = (alpha,)
        self.step = step
        self.element = step.element
        #: Productions whose LHS runs through this (shared) node.
        self.users = 0
        self._probed = probed
        self._attributes = tuple(a for a, _ in step.probe_items)
        self._slots = tuple(slot for _, slot in step.probe_items)
        alpha_index = alpha.indexes.acquire(self._attributes)
        token_index = probed.indexes.acquire(self._slots)
        #: Bound once for the activation loops.
        self._beta = step.beta
        self._wme_key = alpha_index.key_of
        self._wme_buckets = alpha_index.buckets
        self._token_key = token_index.key_of
        self._token_buckets = token_index.buckets
        parent.children.append(self)
        # Descendants before ancestors (Doorenbos): a node is linked
        # after every node above it, so when one alpha memory feeds two
        # elements of a chain the lower join meets a new WME first,
        # while the token the upper join is about to build does not
        # exist yet — each match is built once.  Appended, the lower
        # join would be right-activated after that token already
        # reached it from the left, and build it again.
        alpha.successors.insert(0, self)

    def unlink(self) -> None:
        """Detach from both inputs (the node's tokens are already
        deleted); the indexes go with their last reader."""
        self.parent.children.remove(self)
        self.alpha.successors.remove(self)
        self.alpha.indexes.release(self._attributes)
        self._probed.indexes.release(self._slots)


class JoinNode(TwoInputNode):
    """Joins the parent store's tokens with an alpha memory.

    The join test is the condition element's variable tests/predicates,
    compiled into the step's beta closure for the network's token
    layout and evaluated against each token's payload.
    """

    def __init__(
        self,
        network: "NetworkState",
        parent: TokenStore,
        alpha: AlphaMemory,
        step: SlottedStep,
    ) -> None:
        self.network = network
        self.memory = BetaMemory(network)
        #: A blocked token of a negative parent has no matches below it.
        self._skip_blocked = isinstance(parent, NegativeNode)
        self._link(parent, parent, self.memory, alpha, step)

    # -- activations -----------------------------------------------------------

    def on_token_added(self, token: Token) -> None:
        data = token.data
        bucket = self._wme_buckets.get(self._token_key(data))
        if bucket is None:
            return
        beta = self._beta
        add_match = self.memory.add_match
        for wme in bucket.values():
            extended = beta(wme, data)
            if extended is not None:
                add_match(token, wme, extended)

    def on_wme_added(self, wme: WME) -> None:
        bucket = self._token_buckets.get(self._wme_key(wme))
        if bucket is None:
            return
        beta = self._beta
        add_match = self.memory.add_match
        skip_blocked = self._skip_blocked
        for token in bucket:
            if skip_blocked and token.blockers:
                continue
            extended = beta(wme, token.data)
            if extended is not None:
                add_match(token, wme, extended)

    def on_wme_removed(self, wme: WME) -> None:
        # Token deletion is driven centrally by the network via the
        # wme -> tokens map; nothing to do at the join itself.
        return None


class NegativeNode(TokenStore, TwoInputNode):
    """Negated condition element: token passes while *no* WME matches.

    Stores its own tokens (wme=None) whose ``blockers`` record the
    currently matching WMEs.  A blocked token keeps its storage but has
    no downstream children; unblocking re-propagates it.
    """

    def __init__(
        self,
        network: "NetworkState",
        parent: TokenStore,
        alpha: AlphaMemory,
        step: SlottedStep,
    ) -> None:
        super().__init__(network)
        #: Blocker probes always evaluate against the *parent* token's
        #: payload (the step's input width); the stored own token is
        #: that payload carried past this element — padded with
        #: ``_MISSING`` for the negation's local slots, which never
        #: escape.  The key slots lie below the input width, so the own
        #: token files under its parent's key.
        self._carry = step.carry
        self._link(parent, self, self, alpha, step)

    # -- left activation ----------------------------------------------------------

    def on_token_added(self, token: Token) -> None:
        data = token.data
        own = Token(token, None, self._carry(data), self)
        own.blockers = {}
        self._store(own)
        bucket = self._wme_buckets.get(self._token_key(data))
        if bucket is not None:
            beta = self._beta
            for wme in bucket.values():
                if beta(wme, data) is not None:
                    own.blockers[wme.timetag] = wme
                    self.network.register_blocker(wme, own)
        if not own.blockers:
            self.propagate(own)

    # -- right activations -----------------------------------------------------------

    def on_wme_added(self, wme: WME) -> None:
        bucket = self._token_buckets.get(self._wme_key(wme))
        if bucket is None:
            return
        beta = self._beta
        for token in bucket:
            if wme.timetag in token.blockers:
                # Created further up during this very add (one alpha
                # memory feeds an element above this one too): its left
                # activation already met ``wme`` in the memory.  A
                # second registration would outlive the token.
                continue
            if beta(wme, token.parent.data) is None:
                continue
            was_blocked = bool(token.blockers)
            token.blockers[wme.timetag] = wme
            self.network.register_blocker(wme, token)
            if not was_blocked:
                # Newly blocked: retract everything downstream of the
                # token, but keep the token itself.
                self.network.delete_descendants(token)

    def on_wme_removed(self, wme: WME) -> None:
        for token in self.network.take_blocked_tokens(wme, owner=self):
            token.blockers.pop(wme.timetag, None)
            if not token.blockers:
                self.propagate(token)


class ProductionNode:
    """Terminal node: a full token becomes a conflict-set instantiation.

    The node builds no token: it hangs the instantiation on the
    incoming one, and whatever deletes or blocks that token retracts
    it (:meth:`NetworkState.delete_descendants`).  Rules with identical
    join chains share the parent store, so a token can carry one
    instantiation per such rule.
    """

    def __init__(
        self, network: "NetworkState", parent: TokenStore, plan: SlottedPlan
    ) -> None:
        self.network = network
        self.parent = parent
        self.plan = plan
        self.production = plan.production
        self._in_lhs_order = plan.in_lhs_order
        parent.children.append(self)

    def on_token_added(self, token: Token) -> None:
        wmes = token.wmes()
        if self._in_lhs_order is not None:
            wmes = self._in_lhs_order(wmes)
        instantiation = self.plan.instantiate(wmes, token.data)
        held = token.instantiation
        if held is None:
            token.instantiation = instantiation
        elif type(held) is list:
            held.append(instantiation)
        else:
            token.instantiation = [held, instantiation]
        self.network.conflict_set.add(instantiation)

    def unlink(self) -> None:
        """Retract the rule's own instantiations — the other rules
        sharing the parent store keep theirs — and detach."""
        remove = self.network.conflict_set.remove
        production = self.production
        for token in self.parent.tokens:
            held = token.instantiation
            if held is None:
                continue
            kept = []
            for instantiation in held if type(held) is list else (held,):
                if instantiation.production is production:
                    remove(instantiation)
                else:
                    kept.append(instantiation)
            token.instantiation = kept[0] if len(kept) == 1 else kept or None
        self.parent.children.remove(self)


class NetworkState:
    """Shared deletion bookkeeping for one Rete network.

    Maintains the maps that make WME retraction O(affected matches):

    * ``tokens_by_wme`` — tokens whose own WME is the retracted one,
    * ``blocked_by_wme`` — negative-node tokens blocked by it.
    """

    def __init__(self, conflict_set: ConflictSet) -> None:
        #: Where the production nodes add instantiations and deletion
        #: retracts them (the matcher keeps it current).
        self.conflict_set = conflict_set
        self.latest = -1  #: the newest timetag added so far
        self._tokens_by_wme: dict[int, list[Token]] = {}
        self._blocked_by_wme: dict[int, list[Token]] = {}

    # -- registration -------------------------------------------------------------

    def register_token(self, token: Token) -> None:
        if token.wme is not None:
            self._tokens_by_wme.setdefault(token.wme.timetag, []).append(
                token
            )

    def register_tail(self, token: TailToken) -> None:
        for wme in token.tail_wmes:
            self._tokens_by_wme.setdefault(wme.timetag, []).append(token)

    def unregister_tail(self, token: TailToken) -> None:
        for wme in token.tail_wmes:
            _drop(self._tokens_by_wme, wme.timetag, token)

    def register_blocker(self, wme: WME, token: Token) -> None:
        self._blocked_by_wme.setdefault(wme.timetag, []).append(token)

    def take_blocked_tokens(self, wme: WME, owner: TokenStore) -> list[Token]:
        """Remove and return the tokens of ``owner`` blocked by ``wme``;
        other nodes' stay registered (several negative nodes can share
        one alpha memory)."""
        waiting = self._blocked_by_wme.get(wme.timetag)
        if not waiting:
            return []
        taken = [t for t in waiting if t.node is owner]
        remaining = [t for t in waiting if t.node is not owner]
        if remaining:
            self._blocked_by_wme[wme.timetag] = remaining
        else:
            del self._blocked_by_wme[wme.timetag]
        return taken

    # -- deletion -------------------------------------------------------------------

    def retract_wme(self, wme: WME) -> None:
        """Delete every token rooted at ``wme`` (called after the alpha
        network has processed the removal)."""
        for token in self._tokens_by_wme.pop(wme.timetag, []):
            self.delete_token(token)

    def delete_token(self, token: Token) -> None:
        """Delete ``token`` and its whole subtree."""
        self.delete_descendants(token)
        if token.parent is not None:
            try:
                token.parent.children.remove(token)
            except ValueError:
                pass
        if token.node is not None:
            token.node.remove_token(token)
        for blocker_tag in token.blockers:
            _drop(self._blocked_by_wme, blocker_tag, token)
        if token.wme is not None:
            _drop(self._tokens_by_wme, token.wme.timetag, token)

    def delete_descendants(self, token: Token) -> None:
        """Retract the instantiation(s) hung on ``token`` and delete its
        children subtrees, keeping ``token``."""
        held = token.instantiation
        if held is not None:
            token.instantiation = None
            if type(held) is list:
                for instantiation in held:
                    self.conflict_set.remove(instantiation)
            else:
                self.conflict_set.remove(held)
        while token.children:
            self.delete_token(token.children[-1])


def _drop(registry: dict[int, list[Token]], timetag: int, token: Token) -> None:
    """Take ``token`` off ``registry[timetag]``; an emptied list goes
    with it, so the maps hold nothing once the store is empty."""
    tokens = registry.get(timetag)
    if tokens:
        try:
            tokens.remove(token)
        except ValueError:
            return
        if not tokens:
            del registry[timetag]
