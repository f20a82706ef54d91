"""The Rete match network [FORG82].

Rete achieves the two properties the paper highlights (Section 2):

1. *Incremental condition evaluation* — partial matches are stored in
   beta memories, so a working-memory delta costs work proportional to
   the affected matches, not to the whole database.
2. *Sharing of common subexpressions* — condition elements with the
   same relation and constant tests share one alpha node/memory across
   all productions (and consecutive identical join steps share beta
   nodes).

Layout: :mod:`~repro.match.rete.alpha` (constant-test network and
alpha memories), :mod:`~repro.match.rete.nodes` (tokens, beta
memories, join/negative/production nodes), and
:mod:`~repro.match.rete.network` (the :class:`ReteMatcher` facade).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "network": ("ReteMatcher",),
    },
)
