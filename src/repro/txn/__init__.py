"""Transaction substrate.

Section 4.2: "Executing the productions in parallel is similar to
concurrent execution of transactions in a DBMS environment."  This
package models one production firing as a transaction — with a read
set, a write set, an operation history and a commit/abort outcome — and
provides the classical conflict-serializability checker (precedence
graph, [PAPA86]) that the correctness tests apply to every history the
lock schemes produce.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "transaction": ("Transaction", "TxnState"),
        "schedule": ("Operation", "History", "Certifier"),
        "serializability": (
            "conflicts", "precedence_graph", "is_conflict_serializable",
            "serialization_orders",
        ),
    },
)
