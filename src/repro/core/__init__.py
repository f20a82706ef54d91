"""The paper's formal contribution: execution semantics and consistency.

* :mod:`~repro.core.addsets` — the add/delete-set abstraction of
  Section 3.3 (conflict-set transitions without a concrete database),
  including the paper's worked example and the Section 5 tables.
* :mod:`~repro.core.semantics` — system states, execution strings and
  the definition of ``ES_single`` (Definitions 3.1/3.2).
* :mod:`~repro.core.execution_graph` — Figure 3.1/3.2: the execution
  graph and enumeration of root-originating paths.
* :mod:`~repro.core.consistency` — the semantic-consistency checker:
  ``ES_M ⊆ ES_single``.
* :mod:`~repro.core.interference` — read-write/write-write conflict
  detection between productions (footnote 4: identical to conflicting
  database operations [PAPA86]).
* :mod:`~repro.core.static_partition` — Section 4.1's static approach.
* :mod:`~repro.core.theorems` — executable checks of Theorems 1 and 2.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "addsets": (
            "AddDeleteSystem", "section_3_3_example", "table_5_1",
            "table_5_2", "SECTION_5_EXEC_TIMES",
        ),
        "semantics": ("SystemState", "ExecutionString"),
        "execution_graph": ("ExecutionGraph",),
        "consistency": ("ConsistencyChecker", "ConsistencyReport"),
        "interference": (
            "interferes", "interference_graph", "conflicting_objects",
        ),
        "static_partition": (
            "greedy_partition", "maximal_noninterfering_subset",
            "partition_conflict_set",
        ),
        "theorems": ("check_theorem_1", "check_theorem_2"),
    },
)
