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
    # What a client of every engine imports (the e2e child does), then
    # an Interpreter: the other engines' layers load when one is built.
    "client": """
from repro.engine.interpreter import Interpreter
from repro.engine.parallel import ParallelEngine
from repro.obs import Observer
from repro.wm.snapshot import WMSnapshot
from repro.wm.storage import DurableStore
engine = Interpreter(rules, memory)
""",
}

#: Nothing reachable from building and running either engine.
NEVER_ON_A_RUN = (
    "repro.sim", "repro.analysis", "repro.core", "repro.workloads",
    "repro.fault.storage_chaos",
)
#: What importing ``Observer`` leaves for its constructor to load.
OBSERVER_INSTRUMENTS = tuple(
    f"repro.obs.{module}"
    for module in ("spans", "metrics", "health", "profile", "sampling")
)
#: The telemetry stack: all of ``obs`` but its ``__init__`` and
#: ``obs.null``, which are free to import.
TELEMETRY = OBSERVER_INSTRUMENTS + ("repro.obs.observer", "repro.obs.export")
#: What one single-thread Rete run does without.
NOT_FOR_AN_INTERPRETER = NEVER_ON_A_RUN + TELEMETRY + (
    "repro.fault", "repro.locks", "repro.txn",
    "repro.match.naive", "repro.match.treat", "repro.match.cond",
    "repro.match.partitioned", "repro.match.procpool",
    "multiprocessing", "concurrent.futures", "logging",
)
#: All that ``ParallelEngine`` may load beyond the interpreter's set,
#: built with no fault injector and no retry policy: Table 4.1's modes,
#: not a lock manager or a lock scheme.
PARALLEL_ADDS = {
    "repro.engine.parallel", "repro.engine.precedence",
    "repro.engine.footprint", "repro.locks", "repro.locks.modes",
    "repro.txn", "repro.txn.schedule", "repro.txn.transaction",
    "repro.wm.undo", "repro.obs", "repro.obs.null",
}

#: Modules that generate classes at import: ``@dataclass`` runs ``exec``
#: per class and loads ``inspect``.  Every fresh process would compile
#: and run them inside its start-up, so no record a run builds uses them.
CODEGEN = ("dataclasses", "inspect")


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


def test_parallel_engine_adds_only_lock_modes_txn_and_undo():
    base = _repro_modules(_probe("interpreter")["after"])
    for scheme in ("rc", "2pl"):
        loaded = _probe(scheme)["after"]
        assert _repro_modules(loaded) - base <= PARALLEL_ADDS, scheme
        assert loaded_under(loaded, NEVER_ON_A_RUN) == [], scheme
        assert loaded_under(
            loaded, ("multiprocessing", "concurrent.futures", "logging")
        ) == [], scheme


def test_importing_every_engine_loads_no_layer_an_interpreter_skips():
    loaded = _probe("client")["after"]
    assert loaded_under(
        loaded, ("repro.locks", "repro.txn", "repro.fault")
        + OBSERVER_INSTRUMENTS
    ) == []
    assert "repro.obs.observer" in loaded


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


def test_no_engine_generates_code_at_start_up():
    for engine in ENGINES:
        before = _probe(engine)["before"]
        assert [name for name in CODEGEN if name in before] == [], engine
