"""Command-line interface for the repro production system.

Subcommands
-----------
``repro run RULES [--facts FACTS] ...``
    Load a program, run it to quiescence, and print the firing
    sequence, outputs and final working memory.  ``--parallel
    {rc,2pl,c2pl}`` switches to the wave-parallel engine (with replay
    validation).
``repro graph``
    Print the execution graph of the paper's Section 3.3 example
    (Figure 3.2).
``repro section5``
    Print the paper-vs-measured table for the Section 5 speedup
    figures.
``repro chaos RULES [--seeds 10] [--fault-rate 0.2] ...``
    Run the program repeatedly under seeded fault injection (denied
    locks, forced aborts, pre-commit crashes) with bounded retries,
    validating after every run that the committed firing sequence
    still replays single-threaded.  Exits non-zero on any
    inconsistency — the semantic-consistency claim, demonstrated
    under adversity.
``repro lint RULES [--facts FACTS]``
    Static findings on the program; the relations the facts provide
    count as provided.
``repro obs export RULES --format chrome|prom|jsonl ...``
    Run under the wave-parallel engine with full span recording and
    export the run: Chrome ``trace_event`` JSON (loadable in Perfetto
    / ``chrome://tracing``; point events such as lock denials are
    instants), the Prometheus text exposition of the metrics registry
    (lock-wait histogram, abort/commit counters, wave widths), or a
    JSONL span dump for offline analysis.
``repro obs report RULES ...``
    Same run, reduced: per-cycle critical paths with lock-wait vs.
    match vs. admission vs. RHS vs. storage attribution, the
    rule-(ii) abort attribution table, the admission hold-backs
    (``writer -> reader on object``), and the lock-wait histogram
    summary.
``repro obs profile RULES [--level sampled] [--top 10] ...``
    Run with the always-on per-rule profiler and print the top-N
    productions by self-time, split across match / lock-wait /
    acquire / rhs buckets, with run-wall coverage.
``repro obs health RULES [--fault-rate P] ...``
    Run with the rolling-window health watchdog (abort-rate spike,
    retry exhaustion, lock-wait share, WAL stall) and print the
    verdict; exits 1 when the run ends red.
``repro obs top RULES [--interval 0.5] ...``
    Live view of a run: one snapshot line per interval with wave,
    commit/abort totals, cycle p95 and health status.
``repro storage inspect|checkpoint DIR``
    Durable-store maintenance: describe the on-disk state (checkpoint
    LSN, segment ranges, bytes), or land a snapshot + truncate covered
    segments.
``repro storage chaos [--seeds N] [--ops M]``
    The recovery proof: seeded op sequences, and the order pipeline
    under ``Interpreter`` and ``ParallelEngine``, crashed at every
    storage fault window (WAL commit, rotation, checkpoint tmp/rename/
    dir-fsync/truncate) must recover bit-identically to a
    commit-sequence prefix — whole units, whole firings.  Exits
    non-zero on any divergence or any window the workload failed to
    reach.

Every command that runs a program (``run``, ``chaos``, ``lint``, ``obs
*``) takes one RULES: a rule file with optional ``--facts`` (JSON lines:
``{"relation": "order", "id": 1, ...}``), or ``manners:N[:SEED]``, the
Manners benchmark with N guests.  One loader, one argument group and
one engine builder serve them all, so bad input is one ``error:`` line
and exit 2 on each.

Installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import repro.obs as obs
from repro.errors import ReproError
from repro.lang import parse_program
from repro.wm import WMSnapshot, WorkingMemory

# A subsystem is imported by the handler that runs it: ``repro run`` on
# the single-thread interpreter loads no locks, faults or telemetry, and
# ``--help`` loads no engine.  So the ``choices=`` lists are spelled out
# here; tests/test_cli.py holds each equal to the registry it mirrors
# (``locks.SCHEMES``, ``fault.FAULT_KINDS``, ``obs.LEVELS``, the
# strategy registry).
SCHEMES = ("rc", "2pl", "c2pl")
FAULT_KINDS = (
    "lock_delay", "lock_deny", "abort_rhs", "crash_commit", "storage_fail",
)
OBS_LEVELS = ("metrics", "sampled", "full")
STRATEGIES = ("lex", "mea", "priority", "fifo", "random")


def _matcher_spec(value: str) -> str:
    """Argparse type for ``--matcher``: validate at parse time.

    A malformed spec (``partitioned:rete:4:prcess``) fails here with
    the valid-backend list in the usage error, instead of falling
    through to a default or blowing up mid-run.
    """
    from repro.engine.interpreter import parse_matcher_spec

    try:
        return parse_matcher_spec(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least_one(value: str) -> int:
    """Argparse type for a count that must be >= 1."""
    if not value.lstrip("-").isdigit() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value!r}")
    return int(value)


def _load_facts(memory: WorkingMemory, path: Path) -> None:
    """Load JSON-lines facts into working memory."""
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
                relation = record.pop("relation")
            except (json.JSONDecodeError, KeyError) as exc:
                raise ReproError(
                    f"{path}:{line_no}: bad fact line ({exc})"
                ) from exc
            memory.make(relation, record)


def _load_program(
    args: argparse.Namespace,
) -> tuple[list, WorkingMemory]:
    """Rules + working memory from a rule file and ``--facts``, or
    from ``manners:N[:SEED]``.  An unreadable file, a bad fact line or
    a program without productions is a :class:`ReproError`."""
    parts = args.rules.split(":")
    if parts[0] == "manners" and all(p.isdigit() for p in parts[1:]) \
            and len(parts) <= 3:
        from repro.workloads.manners import (
            build_manners_memory,
            build_manners_rules,
        )

        if args.facts:
            raise ReproError(
                "--facts cannot be combined with the manners:N workload"
            )
        n_guests = int(parts[1]) if len(parts) > 1 else 8
        seed = int(parts[2]) if len(parts) > 2 else 0
        return build_manners_rules(), build_manners_memory(
            n_guests, seed=seed
        )
    memory = WorkingMemory()
    try:
        rules = parse_program(Path(args.rules).read_text(encoding="utf-8"))
        if args.facts:
            _load_facts(memory, Path(args.facts))
    except OSError as exc:
        raise ReproError(
            f"cannot read {exc.filename}: {exc.strerror}"
        ) from exc
    if not rules:
        raise ReproError("no productions found")
    return rules, memory


def _parse_fault_kinds(text: str | None) -> tuple[str, ...]:
    """Comma-separated fault kinds, validated against FAULT_KINDS."""
    if not text:
        return ("lock_deny", "abort_rhs", "crash_commit")
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
    return kinds


def _parallel_engine(
    args: argparse.Namespace,
    rules: list,
    memory: WorkingMemory,
    scheme: str,
    fault_seed: int | None = None,
    observer: "obs.Observer | None" = None,
) -> "ParallelEngine":
    """The wave-parallel engine the engine and fault flags describe.

    ``fault_seed`` (default ``--fault-seed``) seeds both the fault plan
    and the retry jitter.  Faults are injected iff ``--fault-rate`` is
    positive, on a virtual clock; a firing is re-driven under a
    :class:`~repro.fault.RetryPolicy` iff ``--retries`` is above 1.
    """
    from repro.engine import ParallelEngine

    kinds = _parse_fault_kinds(args.fault_kinds)
    if fault_seed is None:
        fault_seed = args.fault_seed
    injector = retry_policy = None
    if args.fault_rate > 0:
        from repro.fault import FaultPlan, VirtualSleeper

        plan = FaultPlan.chaos(fault_seed, args.fault_rate, kinds=kinds)
        injector = plan.injector(sleeper=VirtualSleeper())
    if args.retries > 1:
        from repro.fault import RetryPolicy

        retry_policy = RetryPolicy(max_attempts=args.retries, seed=fault_seed)
    return ParallelEngine(
        rules, memory, scheme=scheme, matcher=args.matcher,
        strategy=args.strategy, processors=args.processors,
        seed=args.seed, observer=observer, retry_policy=retry_policy,
        fault_injector=injector,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    rules, memory = _load_program(args)
    if (args.fault_rate > 0 or args.retries > 1) and not args.parallel:
        raise ReproError(
            "--fault-rate/--retries require --parallel "
            "(the single-thread interpreter has no fault sites)"
        )
    if args.facts:
        print(f"loaded {len(memory)} facts")
    snapshot = WMSnapshot.capture(memory)

    if args.parallel:
        from repro.engine import replay_commit_sequence

        engine = _parallel_engine(args, rules, memory, args.parallel)
        try:
            result = engine.run(max_waves=args.max_cycles)
        finally:
            engine.close()
        replay = replay_commit_sequence(snapshot, rules, result.firings)
        validity = "consistent" if replay.consistent else "INCONSISTENT"
        if engine.fault is not None and engine.fault.total_injected:
            counts = ", ".join(
                f"{kind}={count}"
                for kind, count in engine.fault.summary().items()
            )
            print(f"injected faults: {counts}")
        if engine.retry_count or engine.gave_up:
            print(
                f"retries: {engine.retry_count} "
                f"(gave up: {len(engine.gave_up)})"
            )
        # A deterministic wave chooses its commit order at admission:
        # a reader acts before its writer (ordered first), and only a
        # candidate that closes a cycle is held back.
        print(
            f"waves: {len(engine.waves)}, ordered first: "
            f"{engine.ordered_count}, held back: "
            f"{engine.held_count}, rule-(ii) aborts: "
            f"{engine.abort_count}, deferred: "
            f"{sum(len(w.deferred) for w in engine.waves)}"
        )
    else:
        from repro.engine import Interpreter

        interpreter = Interpreter(
            rules, memory, matcher=args.matcher, strategy=args.strategy,
            seed=args.seed,
        )
        try:
            result = interpreter.run(max_cycles=args.max_cycles)
        finally:
            interpreter.close()
        validity = "single-thread"

    print(f"stop reason: {result.stop_reason} ({validity})")
    print(f"firings ({len(result.firings)}):")
    for record in result.firings:
        print(f"  {record.rule_name}")
    if result.outputs:
        print("output:")
        for values in result.outputs:
            print("  ", *values)
    if args.dump:
        print("final working memory:")
        for wme in sorted(memory, key=lambda w: (w.relation, w.timetag)):
            print("  ", wme)
    return 0


def _prepare_observed(
    args: argparse.Namespace,
) -> tuple["obs.Observer", "ParallelEngine"]:
    """A live observer plus an engine wired to it, not yet run."""
    if args.capacity < 1:
        raise ReproError(
            f"--capacity must be >= 1, got {args.capacity}"
        )
    if not 0.0 <= args.sample_rate <= 1.0:
        raise ReproError(
            f"--sample-rate must be in [0, 1], got {args.sample_rate}"
        )
    rules, memory = _load_program(args)
    observer = obs.Observer(
        capacity=args.capacity,
        level=args.level,
        sample_rate=args.sample_rate,
        sample_seed=args.sample_seed,
    )
    engine = _parallel_engine(
        args, rules, memory, args.scheme, observer=observer
    )
    return observer, engine


def _run_observed(
    args: argparse.Namespace,
) -> tuple["obs.Observer", object]:
    """Run ``args.rules`` under the wave-parallel engine with a live
    observer attached; returns ``(observer, run_result)``."""
    observer, engine = _prepare_observed(args)
    try:
        result = engine.run(max_waves=args.max_cycles)
    finally:
        engine.close()
    return observer, result


def _require_spans(observer: "obs.Observer", what: str) -> None:
    if observer.spans is None:
        raise ReproError(
            f"{what} needs span recording — use --level sampled or "
            f"--level full (got {observer.level!r})"
        )


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        chrome_trace_json,
        prometheus_text,
        spans_json_lines,
    )

    observer, result = _run_observed(args)
    if args.format == "chrome":
        _require_spans(observer, "--format chrome")
        payload = chrome_trace_json(observer.spans, indent=None)
    elif args.format == "prom":
        payload = prometheus_text(observer.metrics)
    else:  # jsonl
        _require_spans(observer, "--format jsonl")
        payload = spans_json_lines(observer.spans)
    spans_note = (
        f"spans={len(observer.spans)} (dropped {observer.spans.dropped}, "
        f"sampled out {observer.spans.sampled_out})"
        if observer.spans is not None
        else "spans=off"
    )
    _write_or_print(payload.rstrip("\n"), args.out)
    print(
        f"# format={args.format} {spans_note}, stop={result.stop_reason}",
        file=sys.stderr,
    )
    return 0


def _render_obs_report(observer, top: int = 10) -> str:
    """The human-readable reduction of one spanned run."""
    from repro.analysis.critpath import (
        abort_chains,
        coverage,
        cycle_breakdowns,
        held_backs,
        makespan,
        ordered_firsts,
        shard_attribution,
    )

    spans = observer.spans.spans()
    breakdowns = cycle_breakdowns(spans)
    lines: list[str] = []
    lines.append(
        f"critical paths: {len(breakdowns)} cycles, "
        f"makespan {makespan(spans):.6f}s, "
        f"cycle coverage {coverage(spans):.1%}"
    )
    lines.append(
        f"  {'wave':>4} {'duration':>10} {'lock_wait':>10} "
        f"{'match':>10} {'admit':>10} {'acquire':>10} {'rhs':>10} "
        f"{'storage':>10} {'other':>10}  dominant chain"
    )
    ranked = sorted(breakdowns, key=lambda b: -b.duration)[:top]
    for b in sorted(ranked, key=lambda b: b.wave):
        chain = " > ".join(label for label, _ in b.chain[:3]) or "-"
        lines.append(
            f"  {b.wave:>4} {b.duration:>10.6f} "
            f"{b.buckets['lock_wait']:>10.6f} "
            f"{b.buckets['match']:>10.6f} "
            f"{b.buckets['admit']:>10.6f} "
            f"{b.buckets['acquire']:>10.6f} "
            f"{b.buckets['rhs']:>10.6f} "
            f"{b.buckets['storage']:>10.6f} "
            f"{b.buckets['other']:>10.6f}  {chain}"
        )
    if len(breakdowns) > top:
        lines.append(
            f"  ... {len(breakdowns) - top} more cycles "
            f"(top {top} by duration shown)"
        )

    shards = shard_attribution(spans)
    if shards is not None:
        lines.append("")
        lines.append(
            f"match shard attribution: {shards.flushes} flushes, "
            f"barrier wall {shards.flush_wall:.6f}s, "
            f"shard busy {shards.busy:.6f}s, "
            f"imbalance {shards.imbalance:.2f}x"
        )
        for index in sorted(shards.shard_seconds):
            lines.append(
                f"  shard {index}: {shards.shard_seconds[index]:.6f}s"
            )
        if shards.ipc_bytes:
            lines.append(
                f"  ipc payload: {shards.ipc_bytes} bytes "
                f"({shards.ipc_bytes / max(shards.flushes, 1):.0f}/flush)"
            )

    chains = abort_chains(spans)
    lines.append("")
    lines.append(f"rule-(ii) abort attribution: {len(chains)} aborts")
    if chains:
        lines.append(
            f"  {'victim':<16} {'txn':<6} <- {'committer':<16} "
            f"{'txn':<6} objects"
        )
        for c in chains:
            lines.append(
                f"  {c.victim_rule:<16} {c.victim_txn:<6} <- "
                f"{c.committer_rule:<16} {c.committer_txn:<6} "
                f"{', '.join(c.objs) or '-'}"
            )

    # A deterministic wave chooses its commit order at admission: the
    # candidates it cut from a cycle and the readers it put before a
    # higher-ranked writer show up here, not as aborts.
    held = held_backs(spans)
    ordered = ordered_firsts(spans)
    lines.append(
        f"admission: {len(held)} held back, {len(ordered)} ordered first"
    )
    tally = Counter(
        f"held {h.rule}: cycle {' -> '.join(h.cycle + h.cycle[:1])} "
        f"on {', '.join(h.objs)}"
        for h in held
    )
    tally.update(
        f"ordered {o.reader_rule} before {o.writer_rule} on {o.obj}"
        for o in ordered
    )
    for line, count in tally.most_common(top):
        lines.append(f"  {count:>5}  {line}")
    if len(tally) > top:
        lines.append(f"  ... {len(tally) - top} more")

    lines.append("")
    snap = observer.metrics.snapshot().get("lock.wait_seconds")
    if snap and snap.get("count"):
        lines.append(
            f"lock waits: {snap['count']} grants, "
            f"mean {snap['mean']:.6f}s, max {snap['max']:.6f}s"
        )
        buckets = ", ".join(
            f"<={bound}: {count}"
            for bound, count in snap["buckets"].items()
            if count
        )
        lines.append(f"  histogram: {buckets}")
    else:
        lines.append("lock waits: none recorded")
    return "\n".join(lines)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    observer, result = _run_observed(args)
    _require_spans(observer, "obs report")
    _write_or_print(_render_obs_report(observer, top=args.top), args.out)
    print(f"# stop={result.stop_reason}", file=sys.stderr)
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import render_profile

    observer, result = _run_observed(args)
    snapshot = observer.profiler.snapshot()
    _write_or_print(render_profile(snapshot, top_n=args.top), args.out)
    coverage = snapshot["coverage"]
    print(
        f"# stop={result.stop_reason}"
        + (f" coverage={coverage:.1%}" if coverage is not None else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_obs_health(args: argparse.Namespace) -> int:
    observer, result = _run_observed(args)
    report = observer.health.evaluate()
    if args.json:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        lines = [report.render()]
        if observer.health.transitions:
            lines.append("transitions:")
            for ts, old, new in observer.health.transitions:
                lines.append(f"  {ts:.6f}: {old} -> {new}")
        payload = "\n".join(lines)
    _write_or_print(payload, args.out)
    print(
        f"# stop={result.stop_reason} status={report.status}",
        file=sys.stderr,
    )
    return 1 if report.status == obs.RED else 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Live snapshots during a run: one status line per interval."""
    import threading

    if args.interval <= 0:
        raise ReproError(
            f"--interval must be positive, got {args.interval}"
        )
    observer, engine = _prepare_observed(args)
    outcome: dict[str, object] = {}

    def _drive() -> None:
        try:
            outcome["result"] = engine.run(max_waves=args.max_cycles)
        except Exception as exc:  # surfaced after the sampling loop
            outcome["error"] = exc

    def _sample_line() -> str:
        metrics = observer.metrics
        waves = metrics.get("wave.count")
        committed = metrics.get("firing.committed")
        aborted = metrics.get("firing.aborted")
        held = metrics.get("firing.held")
        cycle_sketch = metrics.get("cycle.sketch_seconds")
        p95 = cycle_sketch.quantile(0.95) if cycle_sketch else None
        return (
            f"waves={waves.value if waves else 0:>5} "
            f"committed={committed.value if committed else 0:>6} "
            f"aborted={aborted.value if aborted else 0:>5} "
            f"held={held.value if held else 0:>5} "
            f"cycle_p95={'%.6f' % p95 if p95 is not None else '-':>9} "
            f"health={observer.health.status}"
        )

    thread = threading.Thread(target=_drive, daemon=True)
    thread.start()
    while thread.is_alive():
        thread.join(timeout=args.interval)
        if thread.is_alive():
            print(_sample_line(), flush=True)
    engine.close()
    print(_sample_line(), flush=True)
    if "error" in outcome:
        raise ReproError(f"run failed: {outcome['error']}")
    result = outcome.get("result")
    stop = getattr(result, "stop_reason", "?")
    print(f"# stop={stop} status={observer.health.status}",
          file=sys.stderr)
    return 1 if observer.health.status == obs.RED else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.engine import replay_commit_sequence

    rules, loaded = _load_program(args)
    kinds = _parse_fault_kinds(args.fault_kinds)
    if args.fault_rate <= 0:
        raise ReproError("chaos needs --fault-rate > 0")
    print(
        f"chaos: {args.seeds} seeds, scheme={args.scheme}, "
        f"rate={args.fault_rate}, kinds={','.join(kinds)}, "
        f"retries={args.retries}"
    )
    print(
        f"{'seed':>4} {'firings':>7} {'faults':>6} {'retries':>7} "
        f"{'gave-up':>7} {'stop':<18} replay"
    )
    snapshot = WMSnapshot.capture(loaded)
    failures = 0
    for seed in range(args.seeds):
        engine = _parallel_engine(
            args,
            rules,
            snapshot.materialize(loaded.catalog),
            args.scheme,
            fault_seed=seed,
        )
        try:
            result = engine.run(max_waves=args.max_cycles)
        finally:
            engine.close()
        replay = replay_commit_sequence(snapshot, rules, result.firings)
        if not replay.consistent:
            failures += 1
        print(
            f"{seed:>4} {len(result.firings):>7} "
            f"{engine.fault.total_injected if engine.fault else 0:>6} "
            f"{engine.retry_count:>7} {len(engine.gave_up):>7} "
            f"{result.stop_reason:<18} "
            f"{'consistent' if replay.consistent else 'INCONSISTENT'}"
        )
    if failures:
        print(
            f"FAILED: {failures}/{args.seeds} seeds produced a commit "
            "sequence that does not replay single-threaded",
            file=sys.stderr,
        )
        return 1
    print(f"all {args.seeds} seeds replay consistently")
    return 0


def _cmd_storage_inspect(args: argparse.Namespace) -> int:
    from repro.wm.storage import DurableStore

    info = DurableStore.inspect(args.directory)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"directory: {info['directory']}")
    checkpoint = info["checkpoint"]
    if checkpoint:
        print(
            f"checkpoint: lsn={checkpoint['checkpoint_lsn']} "
            f"elements={checkpoint['elements']} "
            f"bytes={checkpoint['bytes']}"
        )
    else:
        print("checkpoint: none")
    rows = info["segments"]
    if rows:
        print(
            f"{'segment':<28} {'records':>8} {'bytes':>10} "
            f"{'first_lsn':>10} {'last_lsn':>10}"
        )
        for row in rows:
            print(
                f"{row['name']:<28} {row['records']:>8} "
                f"{row['bytes']:>10} "
                f"{row['first_lsn'] if row['first_lsn'] else '-':>10} "
                f"{row['last_lsn'] if row['last_lsn'] else '-':>10}"
            )
    print(
        f"total: {info['total_wal_records']} WAL records, "
        f"{info['total_wal_bytes']} bytes"
    )
    return 0


def _cmd_storage_checkpoint(args: argparse.Namespace) -> int:
    from repro.wm.storage import DurableStore

    memory, store = DurableStore.open(
        args.directory, durability=args.durability
    )
    try:
        report = store.last_recovery
        elements = store.checkpoint()
    finally:
        store.close()
    print(
        f"recovered {report.elements} elements "
        f"(replayed {report.replayed} records, "
        f"{report.seconds:.3f}s); "
        f"checkpointed {elements} elements at lsn {store.lsn}"
    )
    return 0


def _cmd_storage_chaos(args: argparse.Namespace) -> int:
    from repro.fault.storage_chaos import DRIVERS, crash_equivalence_sweep
    from repro.wm.storage import STORAGE_FAULT_SITES

    if args.seeds < 1 or args.ops < 1:
        raise ReproError("storage chaos needs --seeds >= 1 and --ops >= 1")
    print(
        f"storage chaos: {args.seeds} seeds x "
        f"{len(STORAGE_FAULT_SITES)} crash sites x "
        f"{len(DRIVERS)} drivers ({args.ops} raw ops, or the order "
        f"pipeline's firings), durability={args.durability}"
    )
    result = crash_equivalence_sweep(
        seeds=range(args.seeds),
        ops=args.ops,
        durability=args.durability,
    )
    print(
        f"{'seed':>4} {'site':<22} {'driver':<12} {'fired':>5} "
        f"{'ops':>4} recovery"
    )
    for case in result.cases:
        print(
            f"{case.seed:>4} {case.site:<22} {case.driver:<12} "
            f"{'yes' if case.fired else 'no':>5} "
            f"{case.ops_applied:>4} "
            f"{'ok' if case.ok else 'DIVERGED: ' + case.detail}"
        )
    unfired = [
        site for site, count in result.sites_fired().items() if not count
    ]
    if result.failures:
        print(
            f"FAILED: {len(result.failures)}/{len(result.cases)} cases "
            "recovered a state that is no commit-sequence prefix",
            file=sys.stderr,
        )
        return 1
    if unfired:
        print(
            f"FAILED: sites never reached: {', '.join(unfired)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"all {len(result.cases)} crash cases recovered a "
        "commit-sequence prefix exactly"
    )
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.core import ExecutionGraph, section_3_3_example

    graph = ExecutionGraph(section_3_3_example(), max_depth=args.depth)
    if args.dot:
        print(graph.to_dot())
        return 0
    print("Section 3.3 execution graph (Figure 3.2):")
    print(graph.render(max_lines=args.lines))
    print()
    print("maximal sequences:")
    for sequence in graph.maximal_sequences():
        print(f"  {sequence}")
    return 0


def _cmd_section5(args: argparse.Namespace) -> int:
    from repro.analysis.speedup import section_5_cases

    print(f"{'case':<20} {'T_single':>9} {'T_multi':>8} "
          f"{'speedup':>8} {'paper':>8}  status")
    exit_code = 0
    for case in section_5_cases():
        measured = case.run()
        ok = case.matches_paper()
        if not ok:
            exit_code = 1
        print(
            f"{case.name:<20} {measured['single']:>9g} "
            f"{measured['multi']:>8g} {measured['speedup']:>8.3f} "
            f"{case.expected_speedup:>8.3f}  "
            f"{'OK' if ok else 'MISMATCH'}"
        )
    return exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lang.lint import format_findings, lint_program

    rules, memory = _load_program(args)
    known = {wme.relation for wme in memory}
    findings = lint_program(rules, known_relations=known)
    print(format_findings(findings))
    return 1 if findings else 0


def _add_program_arguments(
    parser: argparse.ArgumentParser,
    engine: bool = True,
    scheme: bool = True,
    faults: bool = True,
) -> None:
    """The flags :func:`_load_program` and :func:`_parallel_engine`
    read.  ``engine=False`` declares the program alone, ``scheme=False``
    leaves the scheme flag to the command, and ``faults=False`` sets
    the fault flags' off defaults without declaring them."""
    parser.add_argument(
        "rules",
        help="rule file (OPS5-style DSL), or the built-in workload "
        "shortcut manners:N[:SEED]",
    )
    parser.add_argument("--facts", help="JSON-lines facts file")
    if not engine:
        return
    if scheme:
        parser.add_argument(
            "--scheme",
            choices=list(SCHEMES),
            default="rc",
            help="lock scheme for the wave-parallel engine",
        )
    parser.add_argument(
        "--matcher",
        default="rete",
        type=_matcher_spec,
        metavar="SPEC",
        help="rete | treat | naive | cond | "
        "partitioned[:inner[:shards[:backend]]] with backend one of "
        "serial|des|process "
        "(e.g. partitioned:rete:4:process)",
    )
    parser.add_argument(
        "--strategy", choices=list(STRATEGIES), default="lex"
    )
    parser.add_argument("--processors", type=_at_least_one, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-cycles", type=int, default=10_000)
    if not faults:
        parser.set_defaults(
            retries=1, fault_rate=0.0, fault_seed=0, fault_kinds=None
        )
        return
    parser.add_argument(
        "--retries",
        type=_at_least_one,
        default=1,
        metavar="N",
        help="attempts per firing before giving up (default 1 = "
        "no retry); backoff is exponential with seeded jitter",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability each fault site injects (default 0 = off)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG",
    )
    parser.add_argument(
        "--fault-kinds",
        metavar="K1,K2",
        help="comma-separated kinds from: " + ", ".join(FAULT_KINDS)
        + " (default lock_deny,abort_rhs,crash_commit)",
    )


def _add_observed_arguments(
    parser: argparse.ArgumentParser, faults: bool = True
) -> None:
    """The program flags plus the observer's."""
    _add_program_arguments(parser, faults=faults)
    parser.add_argument(
        "--level",
        choices=list(OBS_LEVELS),
        default="full",
        help="observer cost tier: metrics (aggregates only), "
        "sampled (+ head-sampled spans), full (every span; "
        "default)",
    )
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=0.1,
        metavar="P",
        help="fraction of traces the sampled level keeps "
        "(default 0.1)",
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        help="seed for the deterministic head sampler",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=65_536,
        help="span ring capacity",
    )
    parser.add_argument(
        "--out", help="write the JSON payload to this file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database production system "
        "(Srivastava/Hwang/Tan, ICDE 1990 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a rule program")
    _add_program_arguments(run, scheme=False)
    run.add_argument(
        "--parallel",
        choices=list(SCHEMES),
        help="use the wave-parallel engine with this lock scheme",
    )
    run.add_argument(
        "--dump", action="store_true", help="print final working memory"
    )
    run.set_defaults(handler=_cmd_run)

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeded fault schedules; validate replay consistency",
    )
    _add_program_arguments(chaos)
    chaos.add_argument(
        "--seeds",
        type=int,
        default=10,
        help="number of fault-plan seeds to sweep (default 10)",
    )
    chaos.set_defaults(handler=_cmd_chaos, fault_rate=0.25, retries=4)

    storage = sub.add_parser(
        "storage",
        help="durable-store maintenance: inspect, checkpoint, chaos",
    )
    storage_sub = storage.add_subparsers(
        dest="storage_command", required=True
    )

    storage_inspect = storage_sub.add_parser(
        "inspect",
        help="describe checkpoint + WAL segments without opening a "
        "store",
    )
    storage_inspect.add_argument(
        "directory", help="durable-store directory"
    )
    storage_inspect.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    storage_inspect.set_defaults(handler=_cmd_storage_inspect)

    storage_checkpoint = storage_sub.add_parser(
        "checkpoint",
        help="recover the directory, snapshot it, truncate covered "
        "segments",
    )
    storage_checkpoint.add_argument(
        "directory", help="durable-store directory"
    )
    storage_checkpoint.add_argument(
        "--durability",
        choices=["always", "batch", "none"],
        default="always",
        help="fsync discipline for the maintenance store (default always)",
    )
    storage_checkpoint.set_defaults(handler=_cmd_storage_checkpoint)

    storage_chaos = storage_sub.add_parser(
        "chaos",
        help="crash at every storage fault window; recovery must equal "
        "a commit-sequence prefix",
    )
    storage_chaos.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="number of op-sequence seeds per crash site (default 4)",
    )
    storage_chaos.add_argument(
        "--ops",
        type=int,
        default=48,
        help="operations per raw-op sequence (default 48)",
    )
    storage_chaos.add_argument(
        "--durability",
        choices=["always", "batch", "none"],
        default="batch",
        help="fsync discipline under test (default batch)",
    )
    storage_chaos.set_defaults(handler=_cmd_storage_chaos)

    graph = sub.add_parser(
        "graph", help="print the Section 3.3 execution graph"
    )
    graph.add_argument("--depth", type=int, default=12)
    graph.add_argument("--lines", type=int, default=80)
    graph.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz DOT instead of ASCII",
    )
    graph.set_defaults(handler=_cmd_graph)

    section5 = sub.add_parser(
        "section5", help="reproduce the Section 5 speedup figures"
    )
    section5.set_defaults(handler=_cmd_section5)

    obs_cmd = sub.add_parser(
        "obs",
        help="causal-span observability: export, report, profile, "
        "health, top",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_export = obs_sub.add_parser(
        "export",
        help="run with span recording; export trace/metrics/spans",
    )
    _add_observed_arguments(obs_export, faults=False)
    obs_export.add_argument(
        "--format",
        choices=["chrome", "prom", "jsonl"],
        default="chrome",
        help="chrome = trace_event JSON (Perfetto), prom = Prometheus "
        "text exposition, jsonl = one JSON span per line",
    )
    obs_export.set_defaults(handler=_cmd_obs_export)

    obs_report = obs_sub.add_parser(
        "report",
        help="run with span recording; print critical paths, abort "
        "attribution and lock-wait summary",
    )
    _add_observed_arguments(obs_report, faults=False)
    obs_report.add_argument(
        "--top",
        type=int,
        default=10,
        help="show the N most expensive cycles (default 10)",
    )
    obs_report.set_defaults(handler=_cmd_obs_report)

    obs_profile = obs_sub.add_parser(
        "profile",
        help="run with the always-on profiler; print top-N rules by "
        "self-time across match/lock-wait/acquire/rhs buckets",
    )
    _add_observed_arguments(obs_profile)
    obs_profile.add_argument(
        "--top",
        type=int,
        default=10,
        help="show the N most expensive rules (default 10)",
    )
    obs_profile.set_defaults(handler=_cmd_obs_profile, level="sampled")

    obs_health = obs_sub.add_parser(
        "health",
        help="run with the health watchdog; exit 1 when the run ends "
        "red (abort spike, retry exhaustion, lock-wait share, WAL "
        "stall)",
    )
    _add_observed_arguments(obs_health)
    obs_health.add_argument(
        "--json",
        action="store_true",
        help="emit the health report as JSON instead of text",
    )
    obs_health.set_defaults(handler=_cmd_obs_health, level="sampled")

    obs_top = obs_sub.add_parser(
        "top",
        help="run with live periodic snapshots: waves, commit/abort "
        "totals, cycle p95 and health status per interval",
    )
    _add_observed_arguments(obs_top)
    obs_top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between snapshot lines (default 0.5)",
    )
    obs_top.set_defaults(handler=_cmd_obs_top, level="sampled")

    lint = sub.add_parser(
        "lint",
        help="lint a rule program (the relations of --facts count as "
        "provided)",
    )
    _add_program_arguments(lint, engine=False)
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
