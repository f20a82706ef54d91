"""What a run imports — pinned as module *sets*, never as seconds.

``setup_s`` (the benchmark's start-up metric) is mostly import cost on
a host without a bytecode cache, so what a start-up loads is a number
worth holding.  Each probe is a fresh interpreter that builds an engine
on a two-rule program given as text, runs it, and prints
``sys.modules`` before and after the run.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).parent.parent)

PROGRAM = """
(p switch-off (flag ^id <f> ^state on) --> (modify 1 ^state off))
(p note (flag ^id <f> ^state off) -(seen ^flag <f>) --> (make seen ^flag <f>))
"""

PRELUDE = f"""
import json, sys
from repro.lang import parse_program
from repro.wm.memory import WorkingMemory
rules = parse_program({PROGRAM!r})
memory = WorkingMemory()
memory.make("flag", id=1, state="on")
"""

EPILOGUE = """
before = sorted(sys.modules)
result = engine.run()
after = sorted(sys.modules)
engine.close()
assert result.firing_sequence() == ("switch-off", "note"), result
print(json.dumps({"before": before, "after": after}))
"""

ENGINES = {
    "interpreter": """
from repro.engine.interpreter import Interpreter
engine = Interpreter(rules, memory)
""",
    "rc": """
from repro.engine.parallel import ParallelEngine
engine = ParallelEngine(rules, memory, scheme="rc")
""",
    "2pl": """
from repro.engine.parallel import ParallelEngine
engine = ParallelEngine(rules, memory, scheme="2pl")
""",
    "process": """
from repro.engine.interpreter import Interpreter
engine = Interpreter(rules, memory, matcher="partitioned:rete:2:process")
""",
}

#: Nothing reachable from building and running either engine.
NEVER_ON_A_RUN = (
    "repro.sim", "repro.analysis", "repro.core", "repro.workloads",
    "repro.wm.query", "repro.fault.storage_chaos",
)
#: The telemetry stack: all of ``obs`` but its ``__init__`` and
#: ``obs.null``, which are free to import.
TELEMETRY = tuple(
    f"repro.obs.{module}"
    for module in (
        "observer", "spans", "metrics", "health", "profile", "sampling",
        "export",
    )
)
#: What one single-thread Rete run does without.
NOT_FOR_AN_INTERPRETER = NEVER_ON_A_RUN + TELEMETRY + (
    "repro.fault", "repro.locks", "repro.txn",
    "repro.match.naive", "repro.match.treat", "repro.match.cond",
    "repro.match.partitioned", "repro.match.procpool",
    "multiprocessing", "concurrent.futures", "logging",
)
#: All that ``ParallelEngine`` may load beyond the interpreter's set.
PARALLEL_ADDS = {
    "repro.engine.parallel", "repro.engine.precedence",
    "repro.engine.footprint",
    "repro.locks", "repro.locks.manager", "repro.locks.modes",
    "repro.locks.request", "repro.locks.rc_scheme",
    "repro.locks.two_phase",
    "repro.txn", "repro.txn.schedule", "repro.txn.transaction",
    "repro.fault", "repro.fault.plan", "repro.fault.injector",
    "repro.fault.retry",
    "repro.wm.undo", "repro.obs", "repro.obs.null",
}


def run_python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@functools.cache
def _probe(engine: str) -> dict:
    return json.loads(run_python(PRELUDE + ENGINES[engine] + EPILOGUE))


def _repro_modules(names) -> set[str]:
    return {name for name in names if name.split(".")[0] == "repro"}


def loaded_under(names, prefixes) -> list[str]:
    return sorted(
        name for name in names
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


def test_import_repro_loads_the_surface_only():
    loaded = json.loads(run_python(
        "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
    ))
    assert _repro_modules(loaded) <= {"repro", "repro._lazy", "repro.errors"}


def test_submodule_attribute_access_in_a_fresh_interpreter():
    assert run_python(
        "import repro; print(repro.match.partitioned.BACKENDS)"
    ).strip() == "('serial', 'des', 'process')"


def test_interpreter_run_loads_one_matcher_and_no_other_subsystem():
    loaded = _probe("interpreter")["after"]
    assert loaded_under(loaded, NOT_FOR_AN_INTERPRETER) == []
    assert "repro.match.rete.network" in loaded


def test_parallel_engine_adds_only_locks_txn_faults_and_undo():
    base = _repro_modules(_probe("interpreter")["after"])
    for scheme in ("rc", "2pl"):
        loaded = _probe(scheme)["after"]
        assert _repro_modules(loaded) - base <= PARALLEL_ADDS, scheme
        assert loaded_under(loaded, NEVER_ON_A_RUN) == [], scheme
        assert loaded_under(
            loaded, ("multiprocessing", "concurrent.futures", "logging")
        ) == [], scheme


def test_process_matcher_loads_no_simulator_and_no_thread_pool():
    loaded = _probe("process")["after"]
    assert loaded_under(loaded, NEVER_ON_A_RUN + ("concurrent.futures",)) == []
    assert "repro.match.procpool" in loaded


def test_a_run_imports_nothing():
    # Start-up cost was removed, not moved into the timed run: all an
    # engine needs is loaded by the time its constructor returns.
    for engine in ENGINES:
        probe = _probe(engine)
        assert probe["before"] == probe["after"], engine
