"""Multi-process match substrate benchmark: escaping the GIL.

The paper's Section 5 speedup curves assume match runs on real
processors.  Threads can't show that under CPython's GIL; the
process backend (``repro.match.procpool``) can — each shard is a
worker *process* with its own working-memory replica, so shard match
runs on real cores.  This module measures:

* **replay speedup vs workers** — the same match-bound delta stream
  through the process backend at 1/2/4/8 workers, against the
  single-shard serial reference;
* **serial vs process at equal shard counts** — the same shards in
  one interpreter against one worker process each;
* **IPC overhead** — roundtrips, payload bytes, and bytes per WM
  delta for the whole stream (the cost replication pays for
  share-nothing parallelism);
* **the DES projection** — the virtual-clock speedup the same
  sharding achieves on the simulator, i.e. the curve the process
  backend converges to as real cores are added;
* **the equivalence gate** — serial vs process conflict sets must be
  bit-identical (membership AND bindings) after the full stream.

Wall-clock speedup floors are asserted only when the host actually
has at least as many cores as workers (``os.cpu_count()``); on
smaller hosts — including single-core CI runners — the rows are
advisory, exactly as the hotpath benchmarks treat scheduler-noise
floors.  The equivalence gate is hard everywhere.

``REPRO_BENCH_SMOKE=1`` shrinks the stream (CI smoke lane).

Results land in ``BENCH_multiprocess_match.json`` via the conftest
recorder.
"""

from __future__ import annotations

import os
import time

from conftest import report

from repro.lang.builder import RuleBuilder, var
from repro.match import PartitionedMatcher
from repro.match.naive import NaiveMatcher
from repro.wm import WorkingMemory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Rules in the program — one per worker at the widest configuration,
#: so every worker owns at least one rule at 8 workers.
N_RULES = 8
#: Pre-seeded probe tuples each item joins against.
N_PROBES = 12 if SMOKE else 40
#: Streamed item batches and items per batch.
N_ROUNDS = 6 if SMOKE else 24
BATCH = 4 if SMOKE else 10
WORKER_COUNTS = (1, 2, 4, 8)
CORES = os.cpu_count() or 1


def _rules():
    """A match-bound program: every rule joins against the whole
    probe relation, and the naive inner matcher re-walks its rules'
    conditions against the full store per delta — so per-delta match
    cost scales with (rules per shard) × (store size), the regime
    where rule partitioning pays.
    """
    return [
        RuleBuilder(f"r{i}")
        .when("item", k=var("x"), g=i)
        .when("probe", k=var("x"))
        .remove(1)
        .build()
        for i in range(N_RULES)
    ]


def _operations():
    """The deterministic WM delta stream every configuration replays."""
    ops = []
    for round_no in range(N_ROUNDS):
        batch = [
            ("item", {"k": (round_no * BATCH + j) % N_PROBES,
                      "g": (round_no + j) % N_RULES,
                      "n": round_no * BATCH + j})
            for j in range(BATCH)
        ]
        ops.append(batch)
    return ops


def _seed(memory: WorkingMemory) -> None:
    for k in range(N_PROBES):
        memory.make("probe", k=k)


def _stream(matcher_factory):
    """Build a fresh matcher, replay the stream, return timings.

    Returns ``(stream_seconds, matcher, memory)`` — pool/warmup time
    is excluded: the matcher attaches (and the process backend spawns
    + seeds its pool) before the clock starts.
    """
    memory = WorkingMemory()
    _seed(memory)
    matcher = matcher_factory(memory)
    matcher.add_productions(_rules())
    matcher.attach()
    start = time.perf_counter()
    for batch in _operations():
        with matcher.batch():
            for relation, attrs in batch:
                memory.make(relation, **attrs)
    elapsed = time.perf_counter() - start
    return elapsed, matcher, memory


def _signatures(matcher):
    """Value-identity conflict-set signature, comparable across runs.

    Each configuration replays the stream into its *own* working
    memory and timetags are allocated globally, so cross-run equality
    compares matched WMEs by value (every streamed item carries a
    unique ``n``) plus the variable bindings.  Within one run the
    per-op partitioned suite already pins timetag-exact equality.
    """
    return {
        (
            i.rule_name,
            tuple((w.relation, w.items) for w in i.wmes),
            tuple(sorted(i.bindings_items)),
        )
        for i in matcher.conflict_set
    }


def test_process_speedup_vs_workers():
    """Figure 5.x shape, on real processes: speedup vs worker count."""
    serial_seconds, serial_matcher, _ = _stream(
        lambda m: PartitionedMatcher(
            m, shards=1, inner="naive", backend="serial"
        )
    )
    oracle = _signatures(serial_matcher)
    serial_matcher.detach()

    rows = [
        ("cores", "", CORES),
        ("wm deltas", "", N_ROUNDS * BATCH),
        ("serial 1-shard (s)", "", round(serial_seconds, 4)),
    ]
    process_seconds = {}
    for workers in WORKER_COUNTS:
        seconds, matcher, _ = _stream(
            lambda m, w=workers: PartitionedMatcher(
                m, shards=w, inner="naive", backend="process"
            )
        )
        stats = matcher.stats()["procpool"]
        # The equivalence gate — hard on every host.
        assert _signatures(matcher) == oracle, (
            f"process backend ({workers} workers) diverged from serial"
        )
        matcher.detach()
        process_seconds[workers] = seconds
        speedup = serial_seconds / seconds
        target = (
            f">= {min(workers, CORES) * 0.5:.1f}"
            if CORES >= 2
            else "advisory (1 core)"
        )
        rows.append(
            (f"process x{workers} (s)", "", round(seconds, 4))
        )
        rows.append(
            (f"process x{workers} speedup", target, round(speedup, 2))
        )
        rows.append(
            (
                f"process x{workers} ipc bytes",
                "",
                stats["bytes_out"] + stats["bytes_in"],
            )
        )
        # Wall-clock floors only where the host can express them.
        if not SMOKE and CORES >= workers and workers > 1:
            assert speedup >= workers * 0.5, (
                f"{workers}-worker speedup {speedup:.2f}x below the "
                f"{workers * 0.5:.1f}x floor on a {CORES}-core host"
            )
    report("process-backend speedup vs workers", rows)


def test_serial_vs_process_equal_shards():
    """Same shard count, one interpreter vs one process per shard."""
    shards = 4
    serial_seconds, serial_matcher, _ = _stream(
        lambda m: PartitionedMatcher(
            m, shards=shards, inner="naive", backend="serial"
        )
    )
    serial_signatures = _signatures(serial_matcher)
    serial_matcher.detach()
    process_seconds, process_matcher, _ = _stream(
        lambda m: PartitionedMatcher(
            m, shards=shards, inner="naive", backend="process"
        )
    )
    assert _signatures(process_matcher) == serial_signatures
    process_matcher.detach()
    ratio = serial_seconds / process_seconds
    report(
        "serial vs process at equal shards",
        [
            ("cores", "", CORES),
            ("shards", "", shards),
            ("serial (s)", "", round(serial_seconds, 4)),
            ("process (s)", "", round(process_seconds, 4)),
            (
                "process/serial advantage",
                "> 1.0 on multi-core" if CORES >= 2
                else "advisory (1 core)",
                round(ratio, 2),
            ),
        ],
    )
    if not SMOKE and CORES >= shards:
        assert ratio > 1.0, (
            f"process backend ({process_seconds:.4f}s) not faster than "
            f"serial ({serial_seconds:.4f}s) on a {CORES}-core host"
        )


def test_ipc_overhead_accounting():
    """What replication costs: exact payload bytes, both directions."""
    _, matcher, _ = _stream(
        lambda m: PartitionedMatcher(
            m, shards=2, inner="naive", backend="process"
        )
    )
    stats = matcher.stats()["procpool"]
    matcher.detach()
    deltas = N_ROUNDS * BATCH
    total = stats["bytes_out"] + stats["bytes_in"]
    report(
        "ipc overhead, 2 workers",
        [
            ("roundtrips", "", stats["roundtrips"]),
            ("bytes out", "", stats["bytes_out"]),
            ("bytes in", "", stats["bytes_in"]),
            ("bytes per wm delta", "", round(total / deltas, 1)),
        ],
    )
    assert stats["roundtrips"] >= N_ROUNDS
    assert stats["bytes_out"] > 0 and stats["bytes_in"] > 0


def test_des_projection():
    """The simulator's speedup for the same sharding — the curve the
    process backend approaches as real cores are added (committed so
    single-core CI still records the shape)."""
    rows = [("cores (irrelevant: virtual clock)", "", CORES)]
    for workers in WORKER_COUNTS:
        _, matcher, _ = _stream(
            lambda m, w=workers: PartitionedMatcher(
                m, shards=w, inner="naive", backend="des"
            )
        )
        speedup = matcher.virtual_speedup()
        matcher.detach()
        rows.append(
            (
                f"des x{workers} virtual speedup",
                f"<= {workers}",
                round(speedup, 2),
            )
        )
        assert speedup <= workers + 1e-9
        if workers > 1 and not SMOKE:
            # With N_RULES spread round-robin the load is balanced;
            # the virtual curve must show real parallelism.
            assert speedup >= min(workers, N_RULES) * 0.75
    report("des-projected speedup (virtual clock)", rows)
