"""Tests for multi-user execution over a shared database."""

import pytest

from repro.engine import MultiUserEngine, Session, replay_commit_sequence
from repro.errors import EngineError
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.txn.serializability import is_conflict_serializable
from repro.wm import WMSnapshot, WorkingMemory


def shipping_session():
    return Session.of(
        "shipping",
        [
            RuleBuilder("ship")
            .when("order", id=var("o"), state="paid")
            .modify(1, state="shipped")
            .build()
        ],
    )


def billing_session():
    return Session.of(
        "billing",
        [
            RuleBuilder("invoice")
            .when("order", id=var("o"), state="new")
            .modify(1, state="paid")
            .make("invoice", order=var("o"))
            .build()
        ],
    )


def analytics_session():
    return Session.of(
        "analytics",
        [
            RuleBuilder("tally")
            .when("invoice", order=var("o"))
            .when_not("tally", order=var("o"))
            .make("tally", order=var("o"))
            .build()
        ],
    )


def make_memory(n=4):
    wm = WorkingMemory()
    for i in range(1, n + 1):
        wm.make("order", id=i, state="new")
    return wm


class TestMultiUser:
    def test_all_sessions_make_progress(self):
        wm = make_memory()
        engine = MultiUserEngine(
            [shipping_session(), billing_session(), analytics_session()],
            wm,
        )
        engine.run()
        counts = engine.firings_by_user()
        assert counts == {"shipping": 4, "billing": 4, "analytics": 4}

    def test_final_state_complete(self):
        wm = make_memory()
        MultiUserEngine(
            [shipping_session(), billing_session(), analytics_session()],
            wm,
        ).run()
        assert all(
            w["state"] == "shipped" for w in wm.elements("order")
        )
        assert wm.count("tally") == 4

    @pytest.mark.parametrize("scheme", ["rc", "2pl"])
    def test_combined_run_semantically_consistent(self, scheme):
        wm = make_memory()
        sessions = [
            shipping_session(),
            billing_session(),
            analytics_session(),
        ]
        snapshot = WMSnapshot.capture(wm)
        engine = MultiUserEngine(sessions, wm, scheme=scheme)
        result = engine.run()
        all_rules = [
            p for session in sessions for p in session.productions
        ]
        outcome = replay_commit_sequence(
            snapshot, all_rules, result.firings
        )
        assert outcome.consistent, outcome.detail
        assert is_conflict_serializable(engine.history)

    @pytest.mark.parametrize("processors", [None, 1, 3])
    @pytest.mark.parametrize("scheme", ["rc", "2pl"])
    @pytest.mark.parametrize(
        "strategy", ["lex", "mea", "priority", "fifo", "random"]
    )
    def test_every_base_strategy_stays_consistent(
        self, strategy, scheme, processors
    ):
        wm = make_memory()
        sessions = [
            shipping_session(),
            billing_session(),
            analytics_session(),
        ]
        snapshot = WMSnapshot.capture(wm)
        engine = MultiUserEngine(
            sessions, wm, scheme=scheme, base_strategy=strategy,
            processors=processors, seed=4,
        )
        result = engine.run()
        assert engine.firings_by_user() == {
            "shipping": 4, "billing": 4, "analytics": 4,
        }
        all_rules = [
            p for session in sessions for p in session.productions
        ]
        outcome = replay_commit_sequence(
            snapshot, all_rules, result.firings
        )
        assert outcome.consistent, outcome.detail
        assert is_conflict_serializable(engine.history)
        assert engine.scheme.manager.grant_table() == {}

    @pytest.mark.parametrize("processors", [1, 2, 4])
    @pytest.mark.parametrize(
        "strategy", ["lex", "mea", "priority", "fifo", "random"]
    )
    def test_lead_user_rotates_every_wave(self, strategy, processors):
        wm = WorkingMemory()
        users = ["user-a", "user-b", "user-c"]
        sessions = []
        for user in users:
            relation = user[-1]
            for i in range(6):
                wm.make(relation, id=i)
            sessions.append(
                Session.of(
                    user,
                    [
                        RuleBuilder(f"eat-{relation}")
                        .when(relation, id=var("x"))
                        .remove(1)
                        .build()
                    ],
                )
            )
        engine = MultiUserEngine(
            sessions, wm, base_strategy=strategy,
            processors=processors, seed=2,
        )
        engine.run()
        # Nothing conflicts, so a wave commits its candidates in wave
        # order: round-robin from that wave's lead user.
        for number, wave in enumerate(engine.waves[:3]):
            owners = [engine.user_of(rule) for rule in wave.committed]
            assert owners == [
                users[(number + k) % 3] for k in range(processors)
            ]

    def test_round_robin_interleaves_users(self):
        """With both users continuously runnable, neither fires twice
        before the other fires once."""
        wm = WorkingMemory()
        for i in range(6):
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
        owners = [engine.user_of(r.rule_name) for r in result.firings]
        for first, second in zip(owners, owners[1:]):
            assert first != second  # strict alternation under width 1

    def test_duplicate_rule_names_rejected(self):
        rule = RuleBuilder("dup").when("a", id=var("x")).remove(1).build()
        with pytest.raises(EngineError):
            MultiUserEngine(
                [Session.of("u1", [rule]), Session.of("u2", [rule])],
                WorkingMemory(),
            )

    def test_user_of_unknown_rule(self):
        engine = MultiUserEngine(
            [shipping_session()], make_memory()
        )
        assert engine.user_of("ship") == "shipping"
        with pytest.raises(EngineError):
            engine.user_of("ghost")

    def test_contending_users_stay_consistent(self):
        """Two users racing on the same tuples — the shared-database
        case the lock schemes exist for."""
        wm = WorkingMemory()
        for i in range(4):
            wm.make("doc", id=i, state="draft")
        sessions = [
            Session.of(
                "editor",
                [
                    RuleBuilder("publish")
                    .when("doc", id=var("d"), state="draft")
                    .modify(1, state="published")
                    .build()
                ],
            ),
            Session.of(
                "janitor",
                [
                    RuleBuilder("purge")
                    .when("doc", id=var("d"), state="draft")
                    .remove(1)
                    .build()
                ],
            ),
        ]
        snapshot = WMSnapshot.capture(wm)
        engine = MultiUserEngine(sessions, wm, scheme="rc", seed=3)
        result = engine.run()
        all_rules = [
            p for session in sessions for p in session.productions
        ]
        outcome = replay_commit_sequence(
            snapshot, all_rules, result.firings
        )
        assert outcome.consistent, outcome.detail
        # Every doc was either published or purged, never both.
        assert wm.count("doc") + sum(
            1 for r in result.firings if r.rule_name == "purge"
        ) == 4
