"""The full database production system engine.

* :mod:`~repro.engine.actions` — RHS action execution against working
  memory (create/modify/delete plus bind/write/halt).
* :mod:`~repro.engine.interpreter` — the classic single-execution-
  thread match–select–execute cycle of Section 2.
* :mod:`~repro.engine.parallel` — the multiple-thread mechanism over a
  real working memory: waves of concurrent firings under either lock
  scheme, with rollback of aborted firings.  It owns the one run loop,
  wave and firing transaction that the threaded and multi-user
  executors inherit.
* :mod:`~repro.engine.replay` — semantic-consistency validation for
  real systems: replays a parallel run's commit sequence on the
  single-thread engine (Definition 3.2 made operational).
* :mod:`~repro.engine.threaded` — the same waves driven on one OS
  thread per candidate, used to stress the lock manager's mutual
  exclusion.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "actions": ("ActionExecutor", "ActionOutcome"),
        "result": ("RunResult", "FiringRecord"),
        "interpreter": ("Interpreter",),
        "parallel": ("ParallelEngine", "WaveResult"),
        "replay": ("replay_commit_sequence", "ReplayOutcome"),
        "threaded": ("ThreadedWaveExecutor",),
        "multiuser": ("MultiUserEngine", "Session"),
        "partitioned": ("PartitionedEngine", "ShardRun"),
    },
)
