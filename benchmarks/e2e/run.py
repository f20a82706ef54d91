"""The repo's end-to-end benchmark (one command; see README.md here).

Two ways in:

``python3 benchmarks/e2e/run.py``
    All six workloads, ``--repeats`` interleaved rounds of one child
    process per run, then one traced pass per workload; prints every
    metric by name with its unit, writes ``out/results.json`` and one
    ``out/trace-<workload>.jsonl``; exits 1 if any operation failed.
    ``--smoke``, ``--only``, ``--seed``, ``--repeats``, ``--agree``.

``... --workload W --seed N --seconds S --trace 0|1``
    The driver's contract: one workload, repeats for ``S`` seconds,
    last stdout line is one JSON object with ``correct``, ``attempted``,
    ``failed`` and the end-to-end (``--trace 0``) or per-layer
    (``--trace 1``) metrics that ``BENCHMARK.json`` declares.

This parent imports nothing from ``repro`` and holds no big data: a
child's ``ru_maxrss`` starts from the size of the process that forked
it.  It runs one child at a time and waits for it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

CHILD_TIMEOUT_S = 150
DEFAULT_REPEATS = 7
SMOKE_REPEATS = 3
#: Fewest repeats a timed invocation takes, however short ``--seconds``.
MIN_REPEATS = 3
#: Untraced runs a traced invocation makes for ``trace.overhead_ratio``.
TRACE_BASE_RUNS = 3
OBS_RUNS = 3

#: Extra traced/observed runs that answer one question on one workload
#: (README, "interaction table"); elsewhere these metrics read 0.
MATCHER_PROBES = {"manners_serial": ("treat", "cond")}
OBSERVER_PROBES = {"hot_rc": ("sampled", "full")}

#: The per-layer self times that split one traced run's wall time.
BUDGET_BUCKETS = (
    "match.busy_s", "match.strategies.busy_s", "match.conflict_set.busy_s",
    "match.procpool.busy_s", "locks.acquire_s", "locks.release_s",
    "engine.self_s", "engine.actions.busy_s", "wm.busy_s",
    "wm.undo.busy_s", "wm.storage.busy_s",
)


# ---------------------------------------------------------------------------
# Specs and children
# ---------------------------------------------------------------------------


def build_spec(name: str, seed: int, smoke: bool) -> dict:
    """Everything a child needs: the generated inputs and how to run."""
    workload = wl.WORKLOADS[name]
    sizes = workload.sizes(smoke)
    rules, facts = wl.generate(workload, sizes, seed)
    return {
        "workload": name,
        "program": workload.program,
        "parties": wl.MANNERS_PARTIES,
        "sizes": sizes,
        "seed": seed,
        "engine": dict(workload.engine),
        "rules": rules,
        "facts": facts,
        "fact_digest": wl.digest([rules, facts]),
        "reference": wl.reference_firings(workload, sizes),
        "out": OUT,
        "trace_file": os.path.join(OUT, f"trace-{name}.jsonl"),
    }


def run_child(spec: dict, *, trace=False, check=False, **overrides) -> dict:
    """One run in a fresh process; never raises.

    A crash, a timeout or unparsable output comes back as
    ``{"crashed": reason}``.  The child gets its own session so a
    timeout can kill it together with any match workers it forked.
    """
    job = {**spec, "trace": trace, "check": check, **overrides}
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    job["spawned_at"] = time.time()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(json.dumps(job), CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S} s"}
    if process.returncode != 0:
        return {"crashed": f"child exited {process.returncode}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": "child printed no result"}


def measure(specs: list[dict], rounds=None, seconds=None) -> dict:
    """Untraced repeats, round-robin over ``specs`` so a slow minute
    is shared by all.  The first round's runs also check their output.

    Stops after ``rounds`` rounds, or (``seconds``) when the next round
    would not fit, having made at least ``MIN_REPEATS``.
    """
    reports: dict[str, list] = {spec["workload"]: [] for spec in specs}
    started = time.monotonic()
    done = 0
    while True:
        round_started = time.monotonic()
        for spec in specs:
            reports[spec["workload"]].append(
                run_child(spec, check=(done == 0))
            )
        done += 1
        if rounds is not None:
            if done >= rounds:
                return reports
        else:
            now = time.monotonic()
            fits = now + (now - round_started) <= started + seconds
            if done >= MIN_REPEATS and not fits:
                return reports


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def spread(values: list[float]) -> dict:
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def summarise(spec: dict, reports: list[dict]) -> dict:
    """End-to-end metrics of one workload from its repeats.

    Timings (speed-calibrated by the child; README, "noise") and
    memory are medians over the repeats, counts must repeat exactly.
    An operation is one firing of the pinned reference count: a run
    fails its shortfall, and all of its operations if it crashed or
    failed a check; all runs fail when counts differ between repeats.
    """
    reference = spec["reference"]
    good = [r for r in reports if "crashed" not in r]
    failures = [r["crashed"] for r in reports if "crashed" in r]
    failed = reference * (len(reports) - len(good))
    for report in good:
        failures += report["failures"]
        shortfall = max(0, reference - report["counts"]["firings"])
        failed += reference if report["failures"] else shortfall
    counts = good[0]["counts"] if good else {}
    if any(r["counts"] != counts for r in good):
        failures.append("counts differ between repeats")
        failed = reference * len(reports)
    summary = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "sizes": spec["sizes"],
        "fact_digest": spec["fact_digest"],
        "repeats": len(reports),
        "attempted": reference * len(reports),
        "failed": failed,
        "failed_share": failed / (reference * len(reports)),
        "failures": failures,
        "counts": counts,
        "reports": reports,
    }
    if good:
        rates = [r["counts"]["firings"] / r["run_s"] for r in good]
        summary["dispersion"] = {
            "firings_per_s": spread(rates),
            "setup_s": spread([r["setup_s"] for r in good]),
            "run_wall_s": spread([r["run_wall_s"] for r in good]),
            "setup_wall_s": spread([r["setup_wall_s"] for r in good]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in good]),
        }
        summary["end_to_end"] = {
            "firings_per_s": statistics.median(rates),
            "setup_s": statistics.median(r["setup_s"] for r in good),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in good
            ),
            "commits_per_cycle": counts["firings"] / counts["cycles"],
        }
    return summary


def traced_pass(spec: dict, summary: dict, seconds=None) -> dict:
    """Per-layer metrics of one workload whose untraced ``summary``
    (the base of every ratio) is in hand.

    Probes first (fixed cost), then traced runs — one, or as many as
    fit in ``seconds`` — keeping the fastest, whose layer self times
    are one consistent split of one run (``trace.overhead_ratio`` sets
    it against the fastest untraced run).  The first traced run
    also runs the output checks and must commit the same sequence as
    the untraced runs (the proxies do not change behaviour).
    """
    name = spec["workload"]
    started = time.monotonic()
    firings = summary["counts"]["firings"]
    base_run_s = firings / summary["end_to_end"]["firings_per_s"]
    base_best_s = firings / summary["dispersion"]["firings_per_s"]["max"]
    base_digest = summary["counts"]["firing_digest"]
    failures: list[str] = []
    probes = {
        "match.treat.busy_s": 0.0, "match.cond.busy_s": 0.0,
        "obs.sampled_ratio": 0.0, "obs.full_ratio": 0.0,
    }
    for matcher in MATCHER_PROBES.get(name, ()):
        engine = {**spec["engine"], "matcher": matcher}
        report = run_child(spec, trace=True, engine=engine)
        if "crashed" in report:
            failures.append(f"{matcher} probe: {report['crashed']}")
        else:
            probes[f"match.{matcher}.busy_s"] = (
                report["layers"]["match.busy_s"]
            )
    for level in OBSERVER_PROBES.get(name, ()):
        runs_s = [
            report["run_s"]
            for report in (
                run_child(spec, observer=level) for _ in range(OBS_RUNS)
            )
            if "crashed" not in report
        ]
        if runs_s:
            probes[f"obs.{level}_ratio"] = (
                statistics.median(runs_s) / base_run_s
            )
        else:
            failures.append(f"observer probe {level}: every run crashed")

    best = None
    runs = 0
    while True:
        run_started = time.monotonic()
        report = run_child(spec, trace=True, check=(runs == 0))
        runs += 1
        if "crashed" in report:
            failures.append(f"traced run: {report['crashed']}")
            break
        failures += report["failures"]
        if report["counts"]["firing_digest"] != base_digest:
            failures.append("traced run committed a different sequence")
        if runs == 1:
            checked = report["layers"]
        if best is None or report["run_s"] < best["run_s"]:
            best = report
        now = time.monotonic()
        if seconds is None or now + (now - run_started) > started + seconds:
            break
    if best is None:
        return {"failures": failures, "layers": None, "runs": runs}
    layers = dict(best["layers"])
    budget = sum(layers[bucket] for bucket in BUDGET_BUCKETS)
    if abs(budget - best["run_s"]) > 0.01 * best["run_s"]:
        failures.append(
            f"layer self times sum to {budget:.4f} s, the traced run "
            f"took {best['run_s']:.4f} s"
        )
    # The check timings exist only on the run that checked.
    for key in ("engine.replay.check_s", "txn.check_s",
                "wm.storage.recover_s", "wm.storage.checkpoint_s"):
        layers[key] = checked[key]
    layers.update(probes)
    layers["trace.overhead_ratio"] = best["run_s"] / base_best_s
    return {
        "failures": failures,
        "layers": layers,
        "runs": runs,
        "traced_run_s": best["run_s"],
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a driver's checkout has none: ``unknown``)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", *head[5:].split("/"))
            with open(ref, encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def identity(args, specs: list[dict]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "sizes": {s["workload"]: s["sizes"] for s in specs},
    }


def metric_rows(values: dict, declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def print_end_to_end(summary: dict, declared: list[dict]) -> None:
    name = summary["workload"]
    if "end_to_end" not in summary:
        print(f"{name:16s} every run crashed: {summary['failures']}")
        return
    units = {m["name"]: m["unit"] for m in declared}
    for metric, value in summary["end_to_end"].items():
        line = f"{name:16s} {metric:20s} {value:14.4f} {units[metric]:6s}"
        seen = summary["dispersion"].get(metric)
        if seen:
            line += (
                f" (min {seen['min']:.4f}, median {seen['median']:.4f}, "
                f"max {seen['max']:.4f}, n={summary['repeats']})"
            )
        print(line)
    print(
        f"{name:16s} {'failed_share':20s} {summary['failed_share']:14.4f} "
        f"ratio  ({summary['failed']} of {summary['attempted']} operations)"
    )
    for failure in summary["failures"]:
        print(f"{name:16s} FAILED: {failure}")


def print_layers(name: str, traced: dict, declared: list[dict]) -> None:
    for failure in traced["failures"]:
        print(f"{name:16s} FAILED: {failure}")
    if traced["layers"] is None:
        return
    for metric in declared:
        value = traced["layers"][metric["name"]]
        print(
            f"{name:16s} {metric['name']:34s} {value:16.6f} "
            f"{metric['unit']}"
        )


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def contract_mode(args, contract: dict) -> int:
    """One workload for ``--seconds``; last line is the result JSON."""
    started = time.monotonic()
    spec = build_spec(args.workload, args.seed, args.smoke)
    if args.trace:
        reports = measure([spec], rounds=TRACE_BASE_RUNS)
    else:
        reports = measure([spec], seconds=args.seconds)
    summary = summarise(spec, reports[args.workload])
    failures = list(summary["failures"])
    attempted, failed = summary["attempted"], summary["failed"]
    metrics = {}
    if "end_to_end" in summary:
        if args.trace:
            spent = time.monotonic() - started
            traced = traced_pass(
                spec, summary, seconds=max(0.0, args.seconds - spent)
            )
            failures += traced["failures"]
            attempted += spec["reference"] * traced["runs"]
            if traced["failures"]:
                failed += spec["reference"] * traced["runs"]
            if traced["layers"] is not None:
                print_layers(args.workload, traced, contract["per_layer"])
                metrics = metric_rows(
                    traced["layers"], contract["per_layer"]
                )
        else:
            print_end_to_end(summary, contract["end_to_end"])
            metrics = metric_rows(
                summary["end_to_end"], contract["end_to_end"]
            )
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if metrics else 1


def selected_specs(args) -> list[dict]:
    names = [args.only] if args.only else list(wl.WORKLOADS)
    return [build_spec(name, args.seed, args.smoke) for name in names]


def full_set(args, specs: list[dict]) -> dict:
    reports = measure(specs, rounds=args.repeats)
    return {
        spec["workload"]: summarise(spec, reports[spec["workload"]])
        for spec in specs
    }


def full_mode(args, contract: dict) -> int:
    """All (or ``--only``) workloads, then the traced pass."""
    specs = selected_specs(args)
    stamp = identity(args, specs)
    print(json.dumps(stamp))
    summaries = full_set(args, specs)
    for summary in summaries.values():
        print_end_to_end(summary, contract["end_to_end"])
    failed = sum(s["failed"] for s in summaries.values())
    traced = {}
    for spec in specs:
        summary = summaries[spec["workload"]]
        if "end_to_end" not in summary:
            continue
        result = traced_pass(spec, summary)
        traced[spec["workload"]] = result
        print_layers(spec["workload"], result, contract["per_layer"])
        failed += len(result["failures"])
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as f:
        json.dump(
            {"identity": stamp, "end_to_end": summaries, "per_layer": traced},
            f, indent=1,
        )
    print(f"failed operations: {failed}")
    return 1 if failed else 0


def agree_mode(args, contract: dict) -> int:
    """Two full sets of the same code, compared against each bound."""
    specs = selected_specs(args)
    first, second = full_set(args, specs), full_set(args, specs)
    verdict = 0
    for name in first:
        if first[name]["failed"] or second[name]["failed"]:
            verdict = 1
            print(f"{name:16s} FAILED operations")
            continue
        for metric in contract["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]
            b = second[name]["end_to_end"][metric["name"]]
            gap = abs(a - b) / min(a, b)
            ok = gap <= metric["bound"]
            verdict |= not ok
            print(
                f"{name:16s} {metric['name']:20s} {a:14.4f} {b:14.4f} "
                f"{metric['unit']:6s} gap {gap:7.4f} "
                f"bound {metric['bound']:.2f} {'PASS' if ok else 'FAIL'}"
            )
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS),
                        help="contract mode: this workload only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract mode: measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 = per-layer metrics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int,
                        help=f"rounds of the full mode (default "
                             f"{DEFAULT_REPEATS}, {SMOKE_REPEATS} with --smoke)")
    parser.add_argument("--only", choices=list(wl.WORKLOADS))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test; never recorded")
    parser.add_argument("--agree", action="store_true",
                        help="run two sets and compare against the bounds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no src/repro beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    if args.repeats is None:
        args.repeats = SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    contract = load_contract()
    os.makedirs(OUT, exist_ok=True)
    if args.workload:
        if args.seconds is None:
            args.seconds = float(contract["run_seconds"])
        return contract_mode(args, contract)
    if args.agree:
        return agree_mode(args, contract)
    return full_mode(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
