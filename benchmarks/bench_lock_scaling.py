"""Extension — lock-table scaling: one stripe vs eight.

The paper's Section 4 assumes "the lock manager" is a single shared
structure; on a multiprogrammed host that one mutex becomes the
bottleneck long before the scheme's compatibility matrix does.  This
suite measures acquire/release throughput of the scheme layer
(``try_lock_condition`` / ``try_lock_action`` / ``commit``) as a grid:

* thread count 1-8,
* contention shape (disjoint footprints, zipf-skewed shared pool,
  hot-set reads over private writes),
* scheme (standard 2PL R/W vs the Rc/Ra/Wa scheme),
* stripe count of the one ``LockManager`` (``stripes=1``, the default:
  one mutex over the whole table, vs ``stripes=8``).

Both rows run the same class, so the ratio isolates what striping
itself buys.  Under the GIL that is latch contention only — one thread
runs bytecode at a time whatever the stripe count — and it costs a
commit one mutex round trip per stripe (``release_all`` probes every
stripe's indexes), so the honest expectation on CPython is a ratio a
little under 1 (0.62x-0.83x serially on the recording host; a cell
is ~12 ms of work, so the ratio is noisy): the bar is that eight
stripes keep >= 0.5x of one stripe's serial throughput on the disjoint
workload, not that they scale.  Multi-thread cells on a 2-core host
swing with lock convoys (0.2x-2x between identical runs), so they are
reported, not gated.
(Until the two lock-manager classes were merged the ``single`` rows ran
the seed's table — every-queue release scans, a request object per
probe — and the ratio mostly measured that implementation gap.)

Throughput is lock-manager operations per second (grants + denials
from ``stats_snapshot``), best-of-``REPS`` per cell; the bar is
asserted in full runs only.

Set ``REPRO_BENCH_SMOKE=1`` (CI bench-smoke job) for a reduced grid
that exercises every code path without asserting throughput ratios.
"""

import os
import random
import threading
import time

import pytest
from conftest import report

from repro.locks import RcScheme, TwoPhaseScheme
from repro.txn.transaction import Transaction
from repro.errors import TransactionError

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
THREAD_COUNTS = (1, 2) if SMOKE else (1, 2, 4, 8)
CYCLES = 60 if SMOKE else 600  # per thread
REPS = 1 if SMOKE else 3
STRIPES = 8  # the striped rows' stripe count

SCHEMES = {"2pl": TwoPhaseScheme, "rc": RcScheme}

N_PRIVATE = 16  # per-thread objects, disjoint/hot_set workloads
N_SHARED = 64  # zipf shared pool
N_HOT = 4  # hot_set read targets


def _workload(contention, tid, cycles):
    """Deterministic per-thread schedule: list of (reads, writes)."""
    rng = random.Random(9000 + 131 * tid)
    private = [("d", tid, k) for k in range(N_PRIVATE)]
    if contention == "disjoint":
        # The probe workload: 4 condition reads + 2 action writes
        # rotating over a private footprint.  Zero cross-thread
        # conflicts, so throughput is pure lock-manager pathlength.
        return [
            (
                tuple(private[(4 * i + j) % N_PRIVATE] for j in range(4)),
                tuple(private[(4 * i + j) % N_PRIVATE] for j in range(2)),
            )
            for i in range(cycles)
        ]
    if contention == "zipf":
        # Skewed access over one shared pool: most cycles touch the
        # head of the distribution, so denials and (for Rc/Wa) rule-(ii)
        # aborts are common.
        def pick():
            return ("z", min(int(rng.paretovariate(1.1)), N_SHARED) - 1)

        return [
            (tuple(pick() for _ in range(3)), (pick(),))
            for _ in range(cycles)
        ]
    if contention == "hot_set":
        # Reads hammer a tiny hot set, writes stay private — the
        # read-mostly shape where Rc-Rc (and R-R) sharing should keep
        # denial rates low despite full overlap.
        hot = [("h", k) for k in range(N_HOT)]
        return [
            (
                (rng.choice(hot), rng.choice(hot)),
                tuple(private[(2 * i + j) % N_PRIVATE] for j in range(2)),
            )
            for i in range(cycles)
        ]
    raise ValueError(contention)


def _run_cell(scheme_name, contention, nthreads, stripes):
    """One grid cell: returns {'ops_per_s', 'commits', 'denied'}."""
    scheme = SCHEMES[scheme_name](audit=False, stripes=stripes)
    workloads = [
        _workload(contention, tid, CYCLES) for tid in range(nthreads)
    ]
    start = threading.Barrier(nthreads + 1)
    done = threading.Barrier(nthreads + 1)
    commits = [0] * nthreads
    denied = [0] * nthreads

    def worker(tid):
        schedule = workloads[tid]
        ok_count = 0
        no_count = 0
        start.wait()
        for reads, writes in schedule:
            txn = Transaction(rule_name=f"w{tid}")
            try:
                granted = True
                for obj in reads:
                    if not scheme.try_lock_condition(txn, obj):
                        granted = False
                        break
                if granted and scheme.try_lock_action(txn, writes=writes):
                    scheme.commit(txn)
                    ok_count += 1
                else:
                    scheme.abort(txn, "lock denied")
                    no_count += 1
            except TransactionError:
                # A concurrent committer force-aborted us (rule (ii))
                # mid-cycle; release whatever we still hold.
                scheme.abort(txn, "forced abort mid-cycle")
                no_count += 1
        commits[tid] = ok_count
        denied[tid] = no_count
        done.wait()

    threads = [
        threading.Thread(target=worker, args=(tid,), daemon=True)
        for tid in range(nthreads)
    ]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    done.wait()
    wall = time.perf_counter() - t0
    for t in threads:
        t.join()

    snap = scheme.manager.stats_snapshot()
    ops = snap["grants"] + snap["denials"]
    # Post-run invariants: everything released, table consistent.
    assert not scheme.manager.grant_table()
    scheme.manager.audit_now()
    assert ops > 0
    return {
        "ops_per_s": ops / wall,
        "commits": sum(commits),
        "denied": sum(denied),
    }


def _best(scheme_name, contention, nthreads, stripes):
    return max(
        (_run_cell(scheme_name, contention, nthreads, stripes)
         for _ in range(REPS)),
        key=lambda cell: cell["ops_per_s"],
    )


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("contention", ["disjoint", "zipf", "hot_set"])
def test_lock_scaling(contention, scheme_name):
    rows = []
    speedups = {}
    for nthreads in THREAD_COUNTS:
        single = _best(scheme_name, contention, nthreads, stripes=1)
        striped = _best(scheme_name, contention, nthreads, stripes=STRIPES)
        # Liveness: every shape must still commit work at both widths.
        assert single["commits"] > 0 and striped["commits"] > 0
        ratio = striped["ops_per_s"] / single["ops_per_s"]
        speedups[nthreads] = ratio
        expected = "-"
        if contention == "disjoint" and nthreads == 1:
            expected = ">= 0.5"
        rows.append(
            (f"x{nthreads} single lock-ops/s", "-",
             round(single["ops_per_s"]))
        )
        rows.append(
            (f"x{nthreads} striped({STRIPES}) lock-ops/s", "-",
             round(striped["ops_per_s"]))
        )
        rows.append(
            (f"x{nthreads} striped/single", expected, round(ratio, 2))
        )
        rows.append(
            (f"x{nthreads} striped commits", "-", striped["commits"])
        )

    # Same title in smoke and full runs, so CI's reduced grid diffs
    # cleanly against the committed full-grid baseline.
    title = f"Lock-table scaling — {scheme_name} / {contention}"
    print()
    print(title + (" (smoke)" if SMOKE else ""))
    for quantity, expected, measured in rows:
        print(f"  {quantity:<34} {str(expected):>8} {measured:>12}")
    report(title, rows)

    assert all(s > 0 for s in speedups.values())
    if not SMOKE and contention == "disjoint":
        # Acceptance: sharding the table keeps most of one stripe's
        # serial throughput (see the module docstring).
        assert speedups[1] >= 0.5
