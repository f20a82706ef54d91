"""Repro modules a run compiles, per e2e workload.

For each ``benchmarks/e2e`` workload, a fresh interpreter does what the
child does before ``setup_s`` ends: its imports, the workload's inputs
(same generator, sizes and seed), the engine built by
``child.build_engine``; then it runs the engine once, untimed.  Every
module imported on the way is compiled from source when no bytecode
cache is written (``PYTHONDONTWRITEBYTECODE=1``), so the lines counted
here are what ``setup_s`` pays to compile.

Run from the repository root::

    PYTHONPATH=src python benchmarks/import_count.py [--seed 5] [WORKLOAD ...]

It prints one row per workload: how many ``repro`` modules are loaded
once the engine is built, their source lines, how many modules of any
package ``run()`` imported (0: an engine loads what it needs when it is
built), and which of the class-generating modules (``dataclasses``,
``inspect``) are loaded by then (``none``: set-up generates no code).
Below each row it names those modules, indented.  The workload's inputs
are generated here and handed to the probe on stdin, as the driver
hands them to its child, so the generator's own imports stay out of
the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.join(HERE, "e2e")
#: Modules that generate classes at import (``@dataclass`` runs
#: ``exec`` and loads ``inspect``); no run should load them.
CODEGEN = ("dataclasses", "inspect")


def probe(spec: dict) -> dict:
    """Load, build and run ``spec`` in this interpreter (call it in a
    fresh one); what was loaded by the time the engine was built, and
    what ``run()`` imported."""
    sys.path.insert(0, E2E)
    import child

    # ``child.run_job``'s imports, in its order.
    from repro.lang import parse_program
    from repro.wm.memory import WorkingMemory
    from repro.wm.snapshot import WMSnapshot  # noqa: F401
    from repro.wm.storage import DurableStore

    import checks  # noqa: F401
    import tracing  # noqa: F401

    memory = WorkingMemory()
    store = None
    if spec["engine"].get("durable"):
        store_dir = tempfile.mkdtemp(prefix="import-count-")
        store = DurableStore(
            memory, store_dir, durability=spec["engine"]["durable"]
        )
    for relation, values in spec["facts"]:
        memory.make(relation, values)
    engine = child.build_engine(spec, parse_program(spec["rules"]), memory)
    built = set(sys.modules)
    parallel = spec["engine"]["kind"] == "parallel"
    try:
        engine.run(**{"max_waves" if parallel else "max_cycles": 10**9})
    finally:
        engine.close()
        if store is not None:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)
    loaded = sorted(m for m in built if m.split(".")[0] == "repro")
    lines = 0
    for module in loaded:
        with open(sys.modules[module].__file__, "rb") as source:
            lines += source.read().count(b"\n")
    return {
        "modules": loaded,
        "lines": lines,
        "during_run": sorted(set(sys.modules) - built),
        "codegen": [module for module in CODEGEN if module in built],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(probe(json.load(sys.stdin))))
        return 0
    sys.path.insert(0, E2E)
    import run
    import workloads

    print(
        f"{'workload':<16} {'modules':>7} {'lines':>6} {'run_imports':>11} "
        f"codegen"
    )
    for name in args.workloads or list(workloads.WORKLOADS):
        spec = run.build_spec(name, args.seed, smoke=False)
        done = subprocess.run(
            [sys.executable, __file__, "--probe"],
            input=json.dumps(spec), capture_output=True, text=True,
            check=True,
        )
        row = json.loads(done.stdout.splitlines()[-1])
        print(
            f"{name:<16} {len(row['modules']):>7} {row['lines']:>6} "
            f"{len(row['during_run']):>11} "
            f"{'+'.join(row['codegen']) or 'none'}"
        )
        for module in row["modules"]:
            print(f"  {module}")
        for module in row["during_run"]:
            print(f"  run() imported {module}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
