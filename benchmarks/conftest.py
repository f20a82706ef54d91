"""Shared helpers for the benchmark harness.

Every benchmark here plays two roles:

1. **Reproduction** — it asserts the paper's values (so ``--benchmark-
   only`` runs double as a verification pass) and prints a
   paper-vs-measured table via :func:`report`.
2. **Measurement** — it times the underlying computation with
   pytest-benchmark, giving regression numbers for the library itself.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.

Machine-readable results: an autouse fixture records every
:func:`report` table (plus each test's wall time) and, at session end,
writes one ``BENCH_<module>.json`` per benchmark module — the files
the performance trajectory consumes.  They land in the repository
root by default; set ``REPRO_BENCH_DIR`` to redirect (or to an empty
string to disable).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

#: nodeid -> list of recorded report tables.
_RESULTS: dict[str, list[dict]] = {}
#: nodeid -> wall-clock seconds for the whole test (setup excluded).
_WALL: dict[str, float] = {}
#: The test currently executing (set by the autouse fixture).
_CURRENT: dict[str, str | None] = {"nodeid": None}


def report(title: str, rows: list[tuple[str, object, object]]) -> None:
    """Print a paper-vs-measured table and record it for BENCH JSON.

    ``rows`` are (quantity, paper value, measured value) triples.
    """
    width = max(24, max((len(r[0]) for r in rows), default=0) + 2)
    line = f"{'quantity':<{width}} {'paper':>14} {'measured':>14}"
    print()
    print(f"== {title}")
    print(line)
    print("-" * len(line))
    for name, paper, measured in rows:
        print(f"{name:<{width}} {_fmt(paper):>14} {_fmt(measured):>14}")
    nodeid = _CURRENT["nodeid"]
    if nodeid is not None:
        _RESULTS.setdefault(nodeid, []).append(
            {
                "title": title,
                "rows": [
                    {
                        "quantity": name,
                        "paper": _json_safe(paper),
                        "measured": _json_safe(measured),
                    }
                    for name, paper, measured in rows
                ],
            }
        )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@pytest.fixture(autouse=True)
def bench_capture(request):
    """Route :func:`report` tables to the current test and time it."""
    _CURRENT["nodeid"] = request.node.nodeid
    start = time.perf_counter()
    try:
        yield
    finally:
        _WALL[request.node.nodeid] = time.perf_counter() - start
        _CURRENT["nodeid"] = None


def _out_dir() -> Path | None:
    configured = os.environ.get("REPRO_BENCH_DIR")
    if configured is not None:
        return Path(configured) if configured else None
    return Path(__file__).resolve().parent.parent


def _host_stamp() -> dict:
    """Where the numbers were taken: core count, Python version and
    the commit the tree was at (``-dirty`` when it had local edits)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write one ``BENCH_<module>.json`` per benchmark module."""
    out_dir = _out_dir()
    if out_dir is None or not _RESULTS:
        return
    by_module: dict[str, dict[str, list[dict]]] = {}
    for nodeid, tables in _RESULTS.items():
        module = Path(nodeid.split("::", 1)[0]).stem
        by_module.setdefault(module, {})[nodeid] = tables
    out_dir.mkdir(parents=True, exist_ok=True)
    host = _host_stamp()
    for module, tests in sorted(by_module.items()):
        stem = module.removeprefix("bench_")
        payload = {
            "module": module,
            "host": host,
            "generated_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            ),
            "tests": {
                nodeid: {
                    "wall_seconds": _WALL.get(nodeid),
                    "reports": tables,
                }
                for nodeid, tables in sorted(tests.items())
            },
        }
        path = out_dir / f"BENCH_{stem}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
