"""The :class:`ReteMatcher` facade over the alpha and beta networks.

Building a production's network walks its *join plan*
(:meth:`~repro.lang.production.Production.join_plan`) step by step,
sharing alpha memories globally (by constant pattern) and beta nodes by
(parent, element, deferred predicates) — so two rules whose join orders
start with the same elements share that whole prefix, Rete's second key
property from Section 2.

Join order
----------
The plan's steps follow :func:`~repro.lang.compile.join_order`: the
written LHS with the elements the rule's own RHS modifies or removes —
and the lookups made from them — joined last, so a firing deletes the
few tokens below its volatile element instead of the whole chain.  Only
Rete stores partial matches, so only Rete reorders; the other matchers
keep the written-order plan and stay the independent oracle.  Nothing
outside the network sees the order: the production node hands the
matched WMEs back in written LHS order, so instantiation identity,
recency and bindings are those of the written rule.
:meth:`ReteMatcher.join_order` shows the order a rule got.

The last ``plan.tail`` steps are one
:class:`~repro.match.rete.tail.TailNode`, shared by (prefix store,
tail elements, deferred predicates); written-order plans have none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lang.compile import SlottedPlan
from repro.lang.production import Production
from repro.match.base import BaseMatcher
from repro.match.rete.alpha import AlphaNetwork
from repro.match.rete.nodes import (
    DummyTopNode,
    JoinNode,
    NegativeNode,
    NetworkState,
    ProductionNode,
    TokenStore,
)
from repro.wm.memory import WMDelta, WorkingMemory

if TYPE_CHECKING:  # pragma: no cover - imported where a tail is built
    from repro.match.rete.tail import TailNode


class ReteMatcher(BaseMatcher):
    """Incremental matcher implementing the :class:`Matcher` protocol.

    Statistics useful to benchmarks are exposed as attributes:
    ``activation_count`` (alpha activations processed) and the node
    counts via :meth:`stats`.
    """

    def __init__(self, memory: WorkingMemory) -> None:
        super().__init__(memory)
        self.state = NetworkState(self.conflict_set)
        self.alpha = AlphaNetwork()
        self.top = DummyTopNode(self.state)
        self._pnodes: dict[str, ProductionNode] = {}
        self._shared_nodes: dict[
            tuple, JoinNode | NegativeNode | TailNode
        ] = {}
        #: Per production, the share keys of its join chain in join
        #: order — what :meth:`remove_production` walks back up.
        self._chains: dict[str, list[tuple]] = {}
        self.activation_count = 0

    # -- production management ------------------------------------------------------

    def add_production(self, production: Production) -> None:
        """Compile ``production`` into the network.

        If the matcher is attached, newly created alpha memories are
        back-filled from the live store, so existing WMEs immediately
        produce instantiations.

        Sharing stays intact under the slotted token layout: slot
        assignment, join keys and deferred predicates are pure
        functions of the plan's element sequence, so two productions
        sharing a join-order prefix compile identical steps for it —
        the shared nodes' step closures and indexes are
        interchangeable.  The step's deferred-predicate signature is
        part of the share key all the same: a node is shared only by
        rules it tests the same thing for.
        """
        if production.name in self._pnodes:
            self.remove_production(production.name)
        self.conflict_set.settle()  # a shared tail primes from built tokens
        plan = self._register(production)
        # A partitioned shard installs its logging conflict set after
        # construction, before any production (``shard_matcher``).
        self.state.conflict_set = self.conflict_set
        current: TokenStore = self.top
        chain: list[tuple] = []
        cut = len(plan.steps) - plan.tail
        links = [
            ((s.element, s.element.negated, s.deferred), s)
            for s in plan.steps[:cut]
        ]
        tail = plan.steps[cut:] if plan.tail else None
        if tail:
            signature = tuple((s.element, s.deferred) for s in tail)
            links.append((("tail", signature), tail))
        for signature, step in links:
            share_key = (id(current), *signature)
            node = self._shared_nodes.get(share_key)
            if node is None:
                if step is tail:
                    # Compiled only where a rule has a tail.
                    from repro.match.rete.tail import TailNode

                    alphas = tuple(self._alpha_for(s.element) for s in tail)
                    node = TailNode(self.state, current, alphas, plan)
                else:
                    node_class = NegativeNode if step.negated else JoinNode
                    alpha = self._alpha_for(step.element)
                    node = node_class(self.state, current, alpha, step)
                self._shared_nodes[share_key] = node
                self._prime(node)
            node.users += 1
            chain.append(share_key)
            current = node.output
        pnode = ProductionNode(self.state, current, plan)
        self._pnodes[production.name] = pnode
        self._chains[production.name] = chain
        self._prime(pnode)

    @staticmethod
    def _plan_of(production: Production) -> SlottedPlan:
        """Rete stores partial matches, so it joins in join order."""
        return production.join_plan()

    def remove_production(self, name: str) -> None:
        """Retract the rule's instantiations and take its nodes out.

        The production node goes, then — walking the join chain back
        up — every join/negative node no remaining production runs
        through: its tokens are deleted and it stops being activated
        (a prefix another rule shares stays).  An alpha memory nothing
        reads any more is dropped too.
        """
        self._unregister(name)
        pnode = self._pnodes.pop(name, None)
        if pnode is None:
            return
        self.conflict_set.settle()
        pnode.unlink()
        for share_key in reversed(self._chains.pop(name)):
            node = self._shared_nodes[share_key]
            node.users -= 1
            if node.users:
                continue
            del self._shared_nodes[share_key]
            self._discard(node)
            for alpha in dict.fromkeys(node.alphas):
                if not alpha.successors:
                    self.alpha.discard(alpha)

    def _discard(self, node) -> None:
        for token in list(node.output.tokens):
            self.state.delete_token(token)
        node.unlink()

    # -- wiring ------------------------------------------------------------------------

    def _alpha_for(self, element):
        """The alpha memory for ``element``, a brand-new one populated
        from the live store."""
        alpha, created = self.alpha.build_or_share(element)
        if created and self._attached:
            for wme in self.memory.elements(alpha.pattern.relation):
                if alpha.accepts(wme):
                    alpha.insert(wme)
        return alpha

    def _prime(self, node) -> None:
        """Feed a freshly created node its parent's existing tokens."""
        parent: TokenStore = node.parent
        for token in list(parent.tokens):
            if token.blockers:
                continue
            node.on_token_added(token)

    def rebuild(self) -> None:
        """(Re)build all matches from the current store contents.

        Called by :meth:`attach`; also usable to recover after direct
        state manipulation in tests.
        """
        for wme in self.memory:
            self.alpha.add_wme(wme)
            self.state.latest = max(self.state.latest, wme.timetag)

    def _on_delta(self, delta: WMDelta) -> None:
        self.activation_count += 1
        if delta.kind == "add":
            wme = delta.wme
            self.alpha.add_wme(wme)
            if wme.timetag > self.state.latest:
                self.state.latest = wme.timetag
        else:
            self.alpha.remove_wme(delta.wme)
            self.state.retract_wme(delta.wme)

    # -- introspection ---------------------------------------------------------------------

    def join_order(self, name: str) -> tuple[int, ...]:
        """The LHS positions of rule ``name`` in the order its chain
        joins them, 1-based like the designators of ``modify k``."""
        return tuple(position + 1 for position in self._plans[name].order)

    def stats(self) -> dict[str, int]:
        """Node and memory counts, for benchmarks and debugging."""
        nodes = self._shared_nodes.values()
        joins = sum(1 for n in nodes if isinstance(n, JoinNode))
        negatives = sum(1 for n in nodes if isinstance(n, NegativeNode))
        return {
            "alpha_memories": len(self.alpha),
            "join_nodes": joins,
            "negative_nodes": negatives,
            "tail_nodes": len(self._shared_nodes) - joins - negatives,
            "production_nodes": len(self._pnodes),
            "reordered_productions": sum(
                1
                for plan in self._plans.values()
                if plan is not plan.production.token_plan()
            ),
            "activations": self.activation_count,
        }

    def _stores(self) -> list[TokenStore]:
        """Every token store of the network (the dummy top included)."""
        return [self.top] + [
            node.output for node in self._shared_nodes.values()
        ]

    def audit(self) -> None:
        """Debug check of the hashed memories: recompute every hash
        index from its memory's ``items`` / ``tokens`` and compare
        (bucket order included); :class:`MatchError` on drift."""
        for memory in self.alpha.memories():
            memory.indexes.audit(f"alpha memory {memory.pattern}")
        for store in self._stores():
            store.indexes.audit(type(store).__name__)
