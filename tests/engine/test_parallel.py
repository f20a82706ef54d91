"""Tests for the wave-parallel engine under both lock schemes."""

import hashlib

import pytest

from repro.engine import Interpreter, ParallelEngine, replay_commit_sequence
from repro.errors import EngineError
from repro.lang import RuleBuilder, parse_program
from repro.lang.builder import gt, var
from repro.txn.serializability import is_conflict_serializable
from repro.wm import WMSnapshot, WorkingMemory


def fresh_order_wm():
    wm = WorkingMemory()
    for i in range(1, 6):
        wm.make("order", id=i, status="open", total=40 + i * 10)
    wm.make("hold", order=3)
    return wm


@pytest.mark.parametrize("scheme", ["rc", "2pl", "c2pl"])
class TestBothSchemes:
    def test_reaches_same_final_state_as_single_thread(
        self, scheme, order_rules
    ):
        serial_wm = fresh_order_wm()
        Interpreter(order_rules, serial_wm).run()
        parallel_wm = fresh_order_wm()
        ParallelEngine(order_rules, parallel_wm, scheme=scheme).run()
        assert (
            parallel_wm.value_identity_set()
            == serial_wm.value_identity_set()
        )

    def test_commit_sequence_replays_single_threaded(
        self, scheme, order_rules
    ):
        wm = fresh_order_wm()
        snapshot = WMSnapshot.capture(wm)
        engine = ParallelEngine(order_rules, wm, scheme=scheme)
        result = engine.run()
        outcome = replay_commit_sequence(
            snapshot, order_rules, result.firings
        )
        assert outcome.consistent, outcome.detail

    def test_history_conflict_serializable(self, scheme, order_rules):
        wm = fresh_order_wm()
        engine = ParallelEngine(order_rules, wm, scheme=scheme)
        engine.run()
        assert is_conflict_serializable(engine.history)

    def test_quiescent_stop(self, scheme, order_rules):
        engine = ParallelEngine(
            order_rules, fresh_order_wm(), scheme=scheme
        )
        result = engine.run()
        assert result.stop_reason == "quiescent"

    def test_processor_cap_limits_wave_width(self, scheme, order_rules):
        wm = fresh_order_wm()
        engine = ParallelEngine(
            order_rules, wm, scheme=scheme, processors=1
        )
        result = engine.run()
        assert all(len(w.committed) <= 1 for w in engine.waves)
        assert result.stop_reason == "quiescent"


class TestSchemeDifferences:
    def _contention_rules(self):
        """Two rules whose instantiations conflict on the same tuple."""
        toggle = (
            RuleBuilder("toggle")
            .when("flag", id=var("f"), state="on")
            .modify(1, state="off")
            .build()
        )
        observe = (
            RuleBuilder("observe")
            .when("flag", id=var("f"), state="on")
            .make("seen", flag=var("f"))
            .build()
        )
        return [toggle, observe]

    def test_rc_aborts_or_defers_conflicting_wave_member(self):
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        engine = ParallelEngine(
            self._contention_rules(), wm, scheme="rc", strategy="priority"
        )
        result = engine.run()
        # Whatever interleaving happened, the run must be replayable.
        snapshot_rules = self._contention_rules()
        assert result.stop_reason == "quiescent"
        assert is_conflict_serializable(engine.history)

    def test_2pl_defers_blocked_writer(self):
        wm = WorkingMemory()
        wm.make("flag", id=1, state="on")
        engine = ParallelEngine(
            self._contention_rules(), wm, scheme="2pl"
        )
        result = engine.run()
        assert result.stop_reason == "quiescent"
        deferred = [w for wave in engine.waves for w in wave.deferred]
        aborted = [w for wave in engine.waves for w in wave.aborted]
        # Under 2PL conflicts defer rather than abort.
        assert not aborted or deferred is not None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(EngineError):
            ParallelEngine([], WorkingMemory(), scheme="optimistic")


class TestWaveAccounting:
    def test_waves_recorded(self, order_rules):
        engine = ParallelEngine(order_rules, fresh_order_wm())
        engine.run()
        assert len(engine.waves) >= 1
        assert str(engine.waves[0]).startswith("wave 1")

    def test_halt_in_wave_stops_run(self):
        wm = WorkingMemory()
        wm.make("go", v=1)
        rules = [RuleBuilder("stop").when("go", v=1).halt().build()]
        result = ParallelEngine(rules, wm).run()
        assert result.halted
        assert result.stop_reason == "halt"

    def test_outputs_collected_across_waves(self):
        wm = WorkingMemory()
        wm.make("x", v=1)
        rules = [
            RuleBuilder("w")
            .when("x", v=var("n"))
            .write(var("n"))
            .remove(1)
            .build()
        ]
        result = ParallelEngine(rules, wm).run()
        assert result.outputs == [(1,)]


# The e2e benchmark's "lanes" program (``hot_rc``/``hot_2pl``) at its
# smoke size: every firing reads its lane's gauge, a ``bump`` job (one
# round of jobs in four) also writes it.
LANES = """
(p work
   (job ^id <j> ^kind "work" ^gauge <g> ^left <n> ^left > 0)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left (<n> - 1)))

(p bump
   (job ^id <j> ^kind "bump" ^gauge <g> ^left <n> ^left > 0)
   (gauge ^id <g> ^level <v>)
   -->
   (modify 1 ^left (<n> - 1))
   (modify 2 ^level (<v> + 1)))
"""


def lanes_memory(jobs=16, depth=6, gauges=2, every=4):
    wm = WorkingMemory()
    for g in range(gauges):
        wm.make("gauge", id=g, level=0)
    for position in range(jobs):
        writer = (position // gauges) % every == 0
        wm.make(
            "job", id=position, kind="bump" if writer else "work",
            gauge=position % gauges, left=depth,
        )
    return wm


@pytest.mark.parametrize("processors", [None, 1, 3])
@pytest.mark.parametrize("scheme", ["rc", "2pl"])
@pytest.mark.parametrize(
    "strategy", ["lex", "mea", "priority", "fifo", "random"]
)
def test_every_strategy_orders_waves_consistently(
    strategy, scheme, processors
):
    rules = parse_program(LANES)
    wm = lanes_memory(jobs=8, depth=3)
    snapshot = WMSnapshot.capture(wm)
    engine = ParallelEngine(
        rules, wm, scheme=scheme, strategy=strategy,
        processors=processors, seed=4,
    )
    result = engine.run()
    assert result.stop_reason == "quiescent"
    assert len(result.firings) == 8 * 3
    if processors is not None:
        assert all(
            len(w.committed) + len(w.aborted) + len(w.deferred)
            <= processors
            for w in engine.waves
        )
    outcome = replay_commit_sequence(snapshot, rules, result.firings)
    assert outcome.consistent, outcome.detail
    assert is_conflict_serializable(engine.history)
    assert engine.scheme.manager.grant_table() == {}


@pytest.mark.parametrize(
    "scheme, digest, waves, held, deferrals",
    [
        ("rc", "817e84ecee718c05", 16, 5, 0),
        ("2pl", "0747bac9b6dfbff7", 19, 0, 20),
    ],
)
def test_lanes_commit_sequence_is_pinned(
    scheme, digest, waves, held, deferrals
):
    """``Strategy.order`` must produce the order repeated ``select``
    produced: the ``2pl`` values were recorded with the selection-sort
    wave ordering (LEX, 8 processors) and may not move.  The ``rc``
    cell is re-pinned to the run wave admission chooses — readers act
    before their writers (48 edges against rank, was 88 hold-backs) and
    a short wave is refilled from the ranking: 25 -> 16 waves, the only
    5 hold-backs left are second ``bump`` firings on one gauge."""
    engine = ParallelEngine(
        parse_program(LANES), lanes_memory(), scheme=scheme,
        strategy="lex", processors=8,
    )
    result = engine.run()
    sha = hashlib.sha256()
    for record in result.firings:
        sha.update(
            repr((record.rule_name, record.value_identities)).encode()
        )
    assert len(result.firings) == 16 * 6
    assert sha.hexdigest()[:16] == digest
    assert len(engine.waves) == result.cycles == waves
    assert engine.held_count == held
    assert engine.ordered_count == (48 if scheme == "rc" else 0)
    assert engine.abort_count == 0
    assert sum(len(w.deferred) for w in engine.waves) == deferrals
