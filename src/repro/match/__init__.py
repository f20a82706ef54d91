"""Match-phase substrate.

The match phase "matches the productions against the database to
determine the satisfied LHS's — the set of active productions (conflict
set)" (Section 2).  Three matchers are provided:

* :class:`~repro.match.naive.NaiveMatcher` — from-scratch evaluation
  each cycle; slow but obviously correct, used as the test oracle.
* :class:`~repro.match.rete.network.ReteMatcher` — the Rete network
  [FORG82]: incremental, stores partial-match state (beta memories),
  shares alpha nodes across productions.
* :class:`~repro.match.treat.TreatMatcher` — TREAT [MIRA84]: keeps
  alpha memories and the conflict set, recomputes joins per delta.
* :class:`~repro.match.cond.CondRelationMatcher` — cond relations
  [SELL88]/[RASC88]: match state as materialized database relations,
  recomputed set-at-a-time per dirty production.
* :class:`~repro.match.partitioned.PartitionedMatcher` — Section 2's
  intra-phase parallelism: productions sharded across K passive inner
  matchers (any of the above), batched WM deltas behind a barrier,
  deterministic conflict-set merge; serial, virtual-time (DES) and
  multi-process (:mod:`~repro.match.procpool` — worker
  processes over replicated WM, no GIL) substrates.

All five expose the same protocol (:class:`~repro.match.base.Matcher`)
and are interchangeable in the engine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("Matcher",),
        "instantiation": ("Instantiation",),
        "conflict_set": ("ConflictSet",),
        "naive": ("NaiveMatcher",),
        "treat": ("TreatMatcher",),
        "cond": ("CondRelationMatcher",),
        "partitioned": (
            "PartitionedMatcher", "ConflictSetDelta", "parse_partitioned_spec",
        ),
        "rete.network": ("ReteMatcher",),
        "strategies": (
            "Strategy", "LexStrategy", "MeaStrategy", "PriorityStrategy",
            "FifoStrategy", "RandomStrategy", "make_strategy",
        ),
    },
)
