"""Extension — multi-user parallelism (Section 2: "tasks of different
users can be done in parallel").

Three users' rule sets run over one shared database through the
Rc scheme.  Measured: fairness (firings per user under round-robin
scheduling), wave parallelism, and the semantic-consistency guarantee
on the combined commit sequence.
"""

from conftest import report

from repro.engine import MultiUserEngine, Session, replay_commit_sequence
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.txn.serializability import is_conflict_serializable
from repro.wm import WMSnapshot, WorkingMemory

N_ORDERS = 12


def _sessions():
    return [
        Session.of(
            "billing",
            [
                RuleBuilder("invoice")
                .when("order", id=var("o"), state="new")
                .modify(1, state="paid")
                .make("invoice", order=var("o"))
                .build()
            ],
        ),
        Session.of(
            "shipping",
            [
                RuleBuilder("ship")
                .when("order", id=var("o"), state="paid")
                .modify(1, state="shipped")
                .build()
            ],
        ),
        Session.of(
            "analytics",
            [
                RuleBuilder("tally")
                .when("invoice", order=var("o"))
                .when_not("tally", order=var("o"))
                .make("tally", order=var("o"))
                .build()
            ],
        ),
    ]


def _memory():
    wm = WorkingMemory()
    for i in range(1, N_ORDERS + 1):
        wm.make("order", id=i, state="new")
    return wm


def test_multiuser_fairness_and_consistency(benchmark):
    def run():
        wm = _memory()
        snapshot = WMSnapshot.capture(wm)
        engine = MultiUserEngine(_sessions(), wm, scheme="rc")
        result = engine.run()
        return engine, result, snapshot, wm

    engine, result, snapshot, wm = benchmark(run)
    counts = engine.firings_by_user()
    assert counts == {
        "billing": N_ORDERS,
        "shipping": N_ORDERS,
        "analytics": N_ORDERS,
    }
    all_rules = [p for s in engine.sessions for p in s.productions]
    replay = replay_commit_sequence(snapshot, all_rules, result.firings)
    assert replay.consistent, replay.detail
    assert is_conflict_serializable(engine.history)

    report(
        "Multi-user execution — 3 users, shared database, Rc scheme",
        [
            ("firings: billing", N_ORDERS, counts["billing"]),
            ("firings: shipping", N_ORDERS, counts["shipping"]),
            ("firings: analytics", N_ORDERS, counts["analytics"]),
            ("waves", "-", len(engine.waves)),
            ("rule-(ii) aborts", "-", engine.abort_count),
            # A deterministic wave reads rule (ii)'s outcome off its own
            # commit order and never locks the loser.
            ("held back (rule (ii) at admission)", "-", engine.held_count),
            ("semantically consistent", "yes",
             "yes" if replay.consistent else "NO"),
            ("serializable", "yes",
             "yes" if is_conflict_serializable(engine.history) else "NO"),
        ],
    )


def test_multiuser_width_one_alternates(benchmark):
    """At wave width 1 the scheduler strictly alternates runnable
    users — the fairness floor."""

    def run():
        wm = WorkingMemory()
        for i in range(8):
            wm.make("a", id=i)
            wm.make("b", id=i)
        sessions = [
            Session.of(
                "user-a",
                [RuleBuilder("eat-a").when("a", id=var("x")).remove(1).build()],
            ),
            Session.of(
                "user-b",
                [RuleBuilder("eat-b").when("b", id=var("x")).remove(1).build()],
            ),
        ]
        engine = MultiUserEngine(sessions, wm, processors=1)
        result = engine.run()
        return [engine.user_of(r.rule_name) for r in result.firings]

    owners = benchmark(run)
    alternations = sum(
        1 for a, b in zip(owners, owners[1:]) if a != b
    )
    assert alternations == len(owners) - 1
    report(
        "Multi-user — strict alternation at width 1",
        [
            ("firings", 16, len(owners)),
            ("alternations", 15, alternations),
        ],
    )
