"""repro — a reproduction of *Parallelism in Database Production
Systems* (Srivastava, Hwang & Tan, ICDE 1990).

An OPS5-style database production system with:

* a rule DSL and programmatic builder (:mod:`repro.lang`),
* relational working memory with undo/snapshots (:mod:`repro.wm`),
* naive, Rete and TREAT matchers (:mod:`repro.match`),
* the paper's execution-semantics formalism — execution graphs,
  ``ES_single``, semantic consistency (:mod:`repro.core`),
* a conventional 2PL lock manager and the paper's novel Rc/Ra/Wa
  scheme with commit-time conflict resolution (:mod:`repro.locks`),
* single-thread, wave-parallel and real-thread engines
  (:mod:`repro.engine`),
* a deterministic multiprocessor simulator reproducing every Section 5
  figure (:mod:`repro.sim`, :mod:`repro.analysis`).

Quickstart::

    from repro import Interpreter, RuleBuilder, var, WorkingMemory

    rule = (
        RuleBuilder("ship-open-orders")
        .when("order", id=var("o"), status="open")
        .when_not("hold", order=var("o"))
        .modify(1, status="shipped")
        .build()
    )
    wm = WorkingMemory()
    wm.make("order", id=1, status="open")
    result = Interpreter([rule], wm).run()
    print(result.firing_sequence())      # ('ship-open-orders',)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "errors": (
            "ReproError", "ParseError", "ValidationError", "SchemaError",
            "TransactionAborted", "LockError", "DeadlockDetected",
            "EngineError",
        ),
        "wm": (
            "WME", "WorkingMemory", "WMSnapshot", "RelationSchema",
            "Catalog", "DurableStore",
        ),
        "lang": (
            "Production", "RuleBuilder", "parse_production",
            "parse_program",
        ),
        "lang.builder": ("var", "gt", "ge", "lt", "le", "ne"),
        "lang.lint": ("lint_program",),
        "match": (
            "Instantiation", "ConflictSet", "NaiveMatcher", "ReteMatcher",
            "TreatMatcher", "CondRelationMatcher", "make_strategy",
        ),
        "core": (
            "AddDeleteSystem", "ExecutionGraph", "ConsistencyChecker",
            "check_theorem_1", "check_theorem_2", "interferes",
            "section_3_3_example", "table_5_1", "table_5_2",
        ),
        "locks": (
            "LockMode", "TwoPhaseScheme", "ConservativeTwoPhaseScheme",
            "RcScheme", "table_4_1",
        ),
        "txn": ("Transaction", "History", "is_conflict_serializable"),
        "engine": (
            "Interpreter", "ParallelEngine", "ThreadedWaveExecutor",
            "MultiUserEngine", "Session", "PartitionedEngine",
            "replay_commit_sequence",
        ),
        "sim": (
            "simulate_multithread", "simulate_single_thread",
            "simulate_lock_scheme", "FiringSpec",
        ),
        "analysis": ("section_5_cases",),
    },
)
