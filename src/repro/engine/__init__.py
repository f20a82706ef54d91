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

from repro.engine.actions import ActionExecutor, ActionOutcome
from repro.engine.result import RunResult, FiringRecord
from repro.engine.interpreter import Interpreter
from repro.engine.parallel import ParallelEngine, WaveResult
from repro.engine.replay import replay_commit_sequence, ReplayOutcome
from repro.engine.threaded import ThreadedWaveExecutor
from repro.engine.multiuser import MultiUserEngine, Session
from repro.engine.partitioned import PartitionedEngine, ShardRun

__all__ = [
    "ActionExecutor",
    "ActionOutcome",
    "RunResult",
    "FiringRecord",
    "Interpreter",
    "ParallelEngine",
    "WaveResult",
    "replay_commit_sequence",
    "ReplayOutcome",
    "ThreadedWaveExecutor",
    "MultiUserEngine",
    "Session",
    "PartitionedEngine",
    "ShardRun",
]
