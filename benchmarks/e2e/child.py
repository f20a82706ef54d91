"""One run in one process: set up, run, (trace,) (check), report.

Reads a job spec (JSON) on stdin and prints one JSON object as the last
line of stdout.  A fresh process per run makes ``ru_maxrss``, the
timetag counter and GC state per-run, and puts ``import repro`` inside
``setup_s`` where a user pays it.

The program under test gets only the spec's generated inputs: rule
*text* and a fact list.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))


class SpeedSampler:
    """Samples how fast this CPU runs Python *while* the program runs.

    The recorded host's speed drifts by up to 2x for seconds to minutes
    at a time, which no choice of repeats inside one invocation removes
    (README, "noise", has the measurements).  A fixed reference loop
    slows down by about the same factor, so
    a 100 Hz interval timer runs it (0.4 ms, ~4 % of the run) from a
    signal handler on the main thread, between the program's bytecodes,
    and :meth:`calibrated` rescales an interval's wall time by the
    speed seen inside that same interval.  The result is seconds *on
    the recorded host when quiet* (``REFERENCE_LOOP_S``); the raw wall
    time is reported beside it.
    """

    LOOP = 10_000
    PERIOD_S = 0.01
    #: Quiet-host duration of the reference loop (2-core Python 3.11.7
    #: sandbox: lowest per-run median over 160 runs, 0.363-0.365 ms).
    REFERENCE_LOOP_S = 0.000365

    def __init__(self) -> None:
        self._samples: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        x = 0
        for i in range(self.LOOP):
            x += i * i % 7
        self._samples.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def calibrated(self, wall_s: float) -> float:
        """Quiet-host seconds of the interval that just ended, which
        took ``wall_s`` and contains every sample since the last call
        (the loop's own time is taken out first).  Without a sample --
        an interval under 10 ms -- the wall time stands."""
        samples, self._samples = self._samples, []
        if not samples:
            return wall_s
        speed = statistics.fmean(
            self.REFERENCE_LOOP_S / sample for sample in samples
        )
        return (wall_s - sum(samples)) * speed


#: Per-layer metrics that time the output checks; 0 on unchecked runs.
CHECK_TIMES = (
    "engine.replay.check_s", "txn.check_s",
    "wm.storage.recover_s", "wm.storage.checkpoint_s",
)


def firing_digest(firings) -> str:
    """Digest of the commit sequence by value (timetag-free)."""
    sha = hashlib.sha256()
    for record in firings:
        sha.update(repr((record.rule_name, record.value_identities)).encode())
    return sha.hexdigest()[:16]


def build_engine(spec: dict, rules, memory):
    from repro.engine.interpreter import Interpreter
    from repro.engine.parallel import ParallelEngine
    from repro.obs import NULL_OBSERVER, Observer

    config = spec["engine"]
    if config["kind"] == "interpreter":
        return Interpreter(
            rules, memory, matcher=config["matcher"],
            strategy=config["strategy"],
        )
    level = spec.get("observer")
    return ParallelEngine(
        rules, memory, scheme=config["scheme"], matcher=config["matcher"],
        strategy=config["strategy"], processors=config["processors"],
        observer=Observer(level=level) if level else NULL_OBSERVER,
    )


def run_job(spec: dict, sampler: SpeedSampler) -> dict:
    """Set up, run once, and report; see the module docstring.

    ``sampler`` is already started; it calibrates ``setup_s`` and
    ``run_s``, and the raw wall times are reported beside them.
    """
    sys.path.insert(0, SRC)
    from repro.lang import parse_program
    from repro.wm.memory import WorkingMemory
    from repro.wm.snapshot import WMSnapshot
    from repro.wm.storage import DurableStore

    import checks
    import tracing

    tracer = tracing.Tracer() if spec["trace"] else None
    undo_patches = []
    fsyncs: dict = {"fsyncs": 0}
    store = store_dir = None
    try:
        # -- set-up (all of it is setup_s) ---------------------------------
        start = perf_counter()
        rules = parse_program(spec["rules"])
        parse_s = perf_counter() - start

        memory = WorkingMemory()
        if tracer is not None:
            tracing.trace_memory(tracer, memory)
            undo_patches.append(tracing.trace_process_pool(tracer))
            undo_patches.append(tracing.count_fsyncs(fsyncs))
        start = perf_counter()
        if spec["engine"].get("durable"):
            store_dir = os.path.join(spec["out"], f"store-{os.getpid()}")
            store = DurableStore(
                memory, store_dir, durability=spec["engine"]["durable"]
            )
        for relation, values in spec["facts"]:
            memory.make(relation, values)
        load_s = perf_counter() - start

        start = perf_counter()
        engine = build_engine(spec, rules, memory)
        attach_s = perf_counter() - start
        if tracer is not None:
            tracing.trace_engine(tracer, engine)
        setup_wall_s = time.time() - spec["spawned_at"]
        setup_s = sampler.calibrated(setup_wall_s)

        # -- the run --------------------------------------------------------
        snapshot = WMSnapshot.capture(memory) if spec["check"] else None
        parallel = spec["engine"]["kind"] == "parallel"
        limit = {"max_waves" if parallel else "max_cycles": 10**9}
        if tracer is not None:
            tracer.reset()
            tracer.begin(tracing.ROOT)
        start = perf_counter()
        try:
            result = engine.run(**limit)
        finally:
            run_wall_s = perf_counter() - start
            if tracer is not None:
                tracer.end()
        run_s = sampler.calibrated(run_wall_s)
        sampler.stop()
        stats = getattr(engine.matcher, "stats", dict)()
        engine.close()
        if store is not None:
            store.close()
        fsync_count = fsyncs["fsyncs"]  # the checks below sync too
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )

        # -- counts (must repeat exactly) -------------------------------------
        waves = getattr(engine, "waves", [])
        firings = len(result.firings)
        counts = {
            "firings": firings,
            "cycles": result.cycles,
            "aborts": getattr(engine, "abort_count", 0),
            "deferrals": sum(len(w.deferred) for w in waves),
            "wal_records": store.lsn if store else 0,
            "wal_bytes": store.wal_bytes() if store else 0,
            "firing_digest": firing_digest(result.firings),
        }
        report = {
            "run_s": run_s,
            "run_wall_s": run_wall_s,
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "peak_rss_mb": peak_rss_mb,
            "counts": counts,
            "failures": [],
        }

        # -- checks (outside every timed region) -----------------------------
        check_times = dict.fromkeys(CHECK_TIMES, 0.0)
        if spec["check"]:
            failures = checks.check_outcome(spec, result, memory)
            failures += checks.check_teardown(engine)
            if parallel:
                found, seconds = checks.check_replay(
                    snapshot, rules, result.firings
                )
                failures += found
                check_times["engine.replay.check_s"] = seconds
                found, seconds = checks.check_history(engine.history)
                failures += found
                check_times["txn.check_s"] = seconds
            if store is not None:
                found, times = checks.check_recovery(
                    store_dir, memory.value_identity_set()
                )
                failures += found
                check_times.update(times)
            if spec.get("break_check"):
                failures.append("check broken on purpose (self-test)")
            report["failures"] = failures

        if tracer is not None:
            quiet = setup_s / setup_wall_s
            report["layers"] = layer_metrics(
                tracer, engine, result, counts, stats, fsync_count,
                {"lang.parse_s": parse_s * quiet, "wm.load_s": load_s * quiet,
                 "match.attach_s": attach_s * quiet},
                check_times, run_s / run_wall_s,
            )
            tracer.write(spec["trace_file"])
        return report
    finally:
        for undo in undo_patches:
            undo()
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def layer_metrics(
    tracer, engine, result, counts, matcher_stats, fsyncs, setup,
    check_times, quiet,
) -> dict:
    """The per-layer metrics of one traced run (README has the glossary).

    Span times are multiplied by ``quiet``, the run's calibrated share
    of its wall time, so they are quiet-host seconds like ``run_s`` and
    the self times sum to it.  Layers that did not run read exactly 0.
    """
    calls, noted = tracer.calls, tracer.counts
    self_s = defaultdict(
        float, {name: s * quiet for name, s in tracer.self_s.items()}
    )
    waves = getattr(engine, "waves", None)
    firings = counts["firings"]
    if waves is None:
        attempts = firings
    else:
        attempts = sum(
            len(w.committed) + len(w.aborted) + len(w.deferred)
            for w in waves
        )
    cycle_ms = sorted(
        (span[2] - span[1]) * 1e3 * quiet
        for span in tracer.spans if span[0] == "engine.cycle"
    )
    selects = calls["match.strategies"]
    pool = matcher_stats.get("procpool", {})
    history = getattr(engine, "history", ())
    return {
        **setup,
        "match.busy_s": self_s["match"],
        "match.deltas": noted["match.deltas"],
        "match.cs_peak": noted["cs_peak"],
        "match.strategies.busy_s": self_s["match.strategies"],
        "match.strategies.calls": selects,
        "match.strategies.candidates_mean": (
            noted["strategy.candidates"] / selects if selects else 0
        ),
        "match.conflict_set.busy_s": self_s["match.conflict_set"],
        "match.procpool.busy_s": self_s["match.procpool"],
        "match.procpool.roundtrips": pool.get("roundtrips", 0),
        "match.procpool.bytes": (
            pool.get("bytes_out", 0) + pool.get("bytes_in", 0)
        ),
        "locks.acquire_s": self_s["locks.acquire"],
        "locks.release_s": self_s["locks.release"],
        "locks.requests": noted["locks.requests"],
        "locks.denied": noted["locks.denied"],
        "locks.victims": noted["locks.victims"],
        "txn.history_ops": len(history),
        "engine.attempts": attempts,
        "engine.commit_ratio": firings / attempts,
        "engine.cycles": result.cycles,
        "engine.self_s": self_s["engine"] + self_s["engine.cycle"],
        "engine.cycle_p50_ms": statistics.median(cycle_ms),
        "engine.cycle_p99_ms": cycle_ms[(len(cycle_ms) * 99) // 100 - 1],
        "engine.actions.busy_s": self_s["engine.actions"],
        "engine.actions.calls": calls["engine.actions"],
        "wm.busy_s": self_s["wm"],
        "wm.deltas": calls["wm"],
        "wm.undo.busy_s": self_s["wm.undo"],
        "wm.undo.records": noted["wm.undo.deltas"],
        "wm.storage.busy_s": self_s["wm.storage"],
        "wm.storage.records": counts["wal_records"],
        "wm.storage.wal_bytes": counts["wal_bytes"],
        "wm.storage.bytes_per_firing": counts["wal_bytes"] / firings,
        "wm.storage.fsyncs": fsyncs,
        **check_times,
    }


def main() -> int:
    sampler = SpeedSampler()
    sampler.start()  # before anything else: set-up is sampled too
    sys.path.insert(0, HERE)
    print(json.dumps(run_job(json.load(sys.stdin), sampler)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
