"""The Rc/Ra/Wa scheme vs standard 2PL, hands-on (Section 4).

Walks through the paper's locking story at four levels:

1. **Table 4.1** — the compatibility matrix, printed from the live
   lock manager.
2. **Figures 4.3/4.4** — the commit-order rules, driven directly
   against the :class:`RcScheme` API.
3. **The deterministic wave** — the same reader/writer pair through
   :class:`ParallelEngine`, which knows its commit order and so
   decides rule (ii) before any lock is taken.
4. **The performance claim** — the reader/writer pathology simulated
   under both schemes with the discrete-event simulator.

Run with::

    python examples/locking_schemes.py
"""

from repro import (
    History,
    ParallelEngine,
    RcScheme,
    Transaction,
    TwoPhaseScheme,
    WorkingMemory,
    is_conflict_serializable,
    parse_program,
    simulate_lock_scheme,
    table_4_1,
)
from repro.sim.workload import reader_writer_chain


def show_table_4_1() -> None:
    print("Table 4.1 — lock compatibility (requested vs held):")
    print("          held Rc   held Ra   held Wa")
    rows = table_4_1()
    for start in (0, 3, 6):
        requested = rows[start][0]
        cells = "      ".join(g for _, _, g in rows[start:start + 3])
        print(f"  req {requested:<3s}    {cells}")
    print("  (Wa over Rc = Y is 'the key to enhanced parallelism')\n")


def figure_4_3() -> None:
    print("Figure 4.3 — Pj holds Rc(q); Pi takes Wa(q) anyway:")

    # (a) Rc holder reaches commit first: both survive.
    history = History()
    scheme = RcScheme(history=history)
    pi, pj = Transaction(rule_name="Pi"), Transaction(rule_name="Pj")
    scheme.lock_condition(pj, "q")
    scheme.lock_action(pi, writes=["q"])
    scheme.commit(pj)
    outcome = scheme.commit(pi)
    assert not outcome.victims
    print(f"  (a) Pj commits first -> both commit; "
          f"serial order {' '.join(history.commit_order())}, "
          f"serializable={is_conflict_serializable(history)}")

    # (b) Wa holder reaches commit first: Rc holders are aborted.
    scheme = RcScheme()
    pi, pj = Transaction(rule_name="Pi"), Transaction(rule_name="Pj")
    scheme.lock_condition(pj, "q")
    scheme.lock_action(pi, writes=["q"])
    outcome = scheme.commit(pi)
    scheme.abort(pj)
    assert [v.rule_name for v in outcome.victims] == ["Pj"]
    print(f"  (b) Pi commits first -> Pj forced to abort "
          f"(victims: {[v.rule_name for v in outcome.victims]})\n")


def figure_4_4() -> None:
    print("Figure 4.4 — circular conflict (Pi: Rc q, Wa r; Pj: Rc r, Wa q):")
    scheme = RcScheme()
    pi, pj = Transaction(rule_name="Pi"), Transaction(rule_name="Pj")
    scheme.lock_condition(pi, "q")
    scheme.lock_condition(pj, "r")
    scheme.lock_action(pi, writes=["r"])
    scheme.lock_action(pj, writes=["q"])
    outcome = scheme.commit(pi)
    scheme.abort(pj)
    print(f"  Pi commits -> Pj aborts; exactly one survives "
          f"({pi.state.value} / {pj.state.value})")
    print("  (Under 2PL this same shape deadlocks; under Rc it cannot.)\n")


def two_pl_contrast() -> None:
    print("2PL contrast — the writer is blocked by a condition reader:")
    scheme = TwoPhaseScheme()
    reader, writer = Transaction(rule_name="reader"), Transaction(
        rule_name="writer"
    )
    scheme.lock_condition(reader, "q")
    granted = scheme.try_lock_action(writer, writes=["q"])
    print(f"  writer W(q) while reader holds R(q): granted={granted}\n")


def deterministic_wave() -> None:
    print("Deterministic wave — writer ranked first, two readers of q:")
    rules = parse_program("""
(p writer 10 (item ^id "q" ^state "fresh") --> (modify 1 ^state "done"))
(p reader-1 (item ^id "q" ^state "fresh") --> (make seen ^by 1))
(p reader-2 (item ^id "q" ^state "fresh") --> (make seen ^by 2))
""")
    for scheme in ("rc", "2pl"):
        wm = WorkingMemory()
        wm.make("item", id="q", state="fresh")
        engine = ParallelEngine(rules, wm, scheme=scheme, strategy="priority")
        engine.run()
        deferred = sum(len(w.deferred) for w in engine.waves)
        print(
            f"  {scheme:>3s}: held back={engine.held_count}  "
            f"rule-(ii) aborts={engine.abort_count}  "
            f"deferred={deferred}  "
            f"lock grants={engine.scheme.manager.stats_snapshot()['grants']}"
        )
    print("  (Rule (ii) aborts read 0: the wave acts in conflict-"
          "resolution order,\n   so it knows the writer commits first "
          "and never locks its readers.)\n")


def performance_claim() -> None:
    print("Performance — 6 long readers + 1 writer on 12 processors:")
    batch = reader_writer_chain(n_readers=6, act_time=8)
    for scheme in ("2pl", "rc"):
        result = simulate_lock_scheme(batch, 12, scheme=scheme)
        print(
            f"  {scheme:>3s}: makespan={result.makespan:>5g}  "
            f"committed={len(result.committed)}  "
            f"aborted={len(result.aborted)}  "
            f"blocked={result.blocked_time:g}  "
            f"wasted={result.wasted_time:g}"
        )
    rc = simulate_lock_scheme(batch, 12, scheme="rc")
    two_pl = simulate_lock_scheme(batch, 12, scheme="2pl")
    assert rc.makespan < two_pl.makespan
    print(f"  -> Rc commits the writer {two_pl.makespan / rc.makespan:.1f}x "
          f"sooner, paying with aborted reader work.")


def main() -> None:
    show_table_4_1()
    figure_4_3()
    figure_4_4()
    two_pl_contrast()
    deterministic_wave()
    performance_claim()
    print("\nlocking_schemes OK")


if __name__ == "__main__":
    main()
