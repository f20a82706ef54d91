"""Process-backend substrate: wire hygiene, equivalence, crashes.

Four load-bearing suites (ISSUE 10):

* **Pickle hygiene** — every class that crosses the worker boundary
  (WME, ConditionElement, Production, Instantiation) round-trips by
  its defining fields only; forced-compiled derived state (closures,
  token plans, cached mappings) must never appear in the pickle
  stream, and restored objects must arrive with their caches cold.
* **Framing** — the chunked length-prefixed protocol survives
  multi-chunk payloads and reports exact payload byte counts.
* **Equivalence property** — random programs driven through serial,
  thread and process backends produce bit-identical conflict sets
  (membership, deltas AND variable bindings) against the monolithic
  oracle, operation by operation.
* **Crash containment** — a worker killed mid-batch surfaces as a
  clean :class:`MatchError` (no hang); the pool restarts from a fresh
  snapshot on the next use and fired marks survive restarts.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import Interpreter
from repro.engine.interpreter import parse_matcher_spec
from repro.errors import EngineError, MatchError
from repro.lang import RuleBuilder, parse_program
from repro.lang.builder import gt, var
from repro.match import PartitionedMatcher
from repro.match.instantiation import Instantiation
from repro.match.naive import NaiveMatcher
from repro.match.procpool import (
    ProcessPool,
    decode_delta,
    decode_instantiation,
    decode_wme,
    encode_delta,
    encode_instantiation,
    encode_wme,
    recv_message,
    send_message,
)
from repro.wm import WorkingMemory
from repro.wm.element import WME
from repro.wm.memory import WMDelta


def _program():
    # Same shapes the partitioned suite uses: joins, negation,
    # predicates — the cases where a stale replica would diverge.
    return [
        RuleBuilder("match-pair")
        .when("a", k=var("x"))
        .when("b", k=var("x"))
        .remove(1)
        .build(),
        RuleBuilder("lonely-a")
        .when("a", k=var("x"))
        .when_not("b", k=var("x"))
        .remove(1)
        .build(),
        RuleBuilder("big-a")
        .when("a", v=gt(5))
        .remove(1)
        .build(),
        RuleBuilder("triple")
        .when("a", k=var("x"))
        .when("b", k=var("x"), v=var("y"))
        .when_not("c", k=var("y"))
        .remove(2)
        .build(),
    ]


# ---------------------------------------------------------------------------
# Pickle hygiene (satellite 1)
# ---------------------------------------------------------------------------


class TestPickleHygiene:
    """Derived/compiled state must never hit the wire."""

    def test_wme_roundtrip_drops_cached_mapping(self):
        wme = WME.make("order", {"id": 1, "status": "open"})
        wme.mapping()  # force the cached dict
        data = pickle.dumps(wme, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_mapping" not in data
        restored = pickle.loads(data)
        assert restored == wme
        assert restored.timetag == wme.timetag
        assert not hasattr(restored, "_mapping")

    def test_condition_element_roundtrip_drops_closures(self):
        element = _program()[3].lhs[1]  # tests + variables
        element.compiled()  # force closure compilation
        element.variables()
        data = pickle.dumps(element, protocol=pickle.HIGHEST_PROTOCOL)
        for cached in (b"_compiled", b"_parts", b"_variables",
                       b"_alpha_key"):
            assert cached not in data
        restored = pickle.loads(data)
        assert restored == element
        assert not hasattr(restored, "_compiled")
        # The restored element recompiles on its own side and matches.
        wme = WME.make("b", {"k": 1, "v": 2})
        assert restored.alpha_matches(wme)

    def test_production_roundtrip_drops_token_plans(self):
        production = _program()[0]
        production.token_plan()
        production.lex_static()
        data = pickle.dumps(production, protocol=pickle.HIGHEST_PROTOCOL)
        for cached in (b"_token_plan", b"_variable_index",
                       b"_lex_static"):
            assert cached not in data
        restored = pickle.loads(data)
        assert restored.name == production.name
        assert restored.lhs == production.lhs
        assert not hasattr(restored, "_token_plan")
        assert not hasattr(restored, "_lex_static")
        assert restored.lex_static() == production.lex_static()
        # Rebuilt through __post_init__, so it re-validates itself.
        assert restored._validated

    def test_instantiation_roundtrip_carries_plain_bindings(self):
        production = _program()[0]
        a = WME.make("a", {"k": 1})
        b = WME.make("b", {"k": 1})
        inst = Instantiation(production, (a, b), (("x", 1),))
        inst.lock_footprint()
        data = pickle.dumps(inst, protocol=pickle.HIGHEST_PROTOCOL)
        for cached in (b"_slot_index", b"_slot_token", b"_recency",
                       b"_identity", b"_lex_key", b"_lex_static",
                       b"_lock_footprint"):
            assert cached not in data
        restored = pickle.loads(data)
        assert restored == inst
        assert restored.bindings_items == (("x", 1),)
        assert restored.recency_key() == inst.recency_key()
        assert restored.lex_key() == inst.lex_key()
        assert restored.lock_footprint() == inst.lock_footprint()

    def test_slot_token_instantiation_materializes_before_pickling(self):
        # Matcher-produced instantiations ride the slotted-token path;
        # their pickle must carry materialized pairs, not the index.
        memory = WorkingMemory()
        matcher = NaiveMatcher(memory)
        matcher.add_productions(_program())
        matcher.attach()
        memory.make("a", k=2)
        memory.make("b", k=2, v=7)
        inst = next(
            i for i in matcher.conflict_set
            if i.rule_name == "match-pair"
        )
        restored = pickle.loads(pickle.dumps(inst))
        assert restored == inst
        assert dict(restored.bindings_items) == dict(inst.bindings_items)


# ---------------------------------------------------------------------------
# Wire format + framing
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_wme_codec_preserves_identity(self):
        wme = WME.make("order", {"id": 3, "total": 75})
        restored = decode_wme(encode_wme(wme))
        assert restored == wme
        assert restored.timetag == wme.timetag

    def test_delta_codec(self):
        delta = WMDelta("remove", WME.make("a", {"k": 1}))
        restored = decode_delta(encode_delta(delta))
        assert restored.kind == "remove"
        assert restored.wme == delta.wme

    def test_instantiation_codec_rebinds_canonical_production(self):
        production = _program()[0]
        inst = Instantiation(
            production,
            (WME.make("a", {"k": 1}), WME.make("b", {"k": 1})),
            (("x", 1),),
        )
        payload = encode_instantiation(inst)
        # Only scalars on the wire.
        assert payload[0] == "match-pair"
        assert all(isinstance(w, tuple) for w in payload[1])
        restored = decode_instantiation(
            payload, {"match-pair": production}
        )
        assert restored == inst
        assert restored.production is production  # canonical object

    def test_framing_roundtrip_counts_payload_bytes(self):
        import multiprocessing

        parent, child = multiprocessing.get_context().Pipe(duplex=True)
        try:
            message = ("replay", tuple(range(100)))
            sent = send_message(parent, message)
            received, nbytes = recv_message(child, timeout=5.0)
            assert received == message
            assert nbytes == sent == len(
                pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            )
        finally:
            parent.close()
            child.close()

    def test_framing_chunks_large_payloads(self, monkeypatch):
        import multiprocessing

        import repro.match.procpool as procpool

        monkeypatch.setattr(procpool, "CHUNK_BYTES", 64)
        parent, child = multiprocessing.get_context().Pipe(duplex=True)
        try:
            message = ("blob", "x" * 1000)
            send_message(parent, message)
            received, nbytes = recv_message(child, timeout=5.0)
            assert received == message
            assert nbytes > 64  # genuinely crossed in multiple chunks
        finally:
            parent.close()
            child.close()

    def test_recv_timeout_raises(self):
        import multiprocessing

        parent, child = multiprocessing.get_context().Pipe(duplex=True)
        try:
            with pytest.raises(TimeoutError):
                recv_message(child, timeout=0.05)
        finally:
            parent.close()
            child.close()


# ---------------------------------------------------------------------------
# Equivalence property (satellite 3)
# ---------------------------------------------------------------------------

_operation = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 3),
        st.integers(0, 8),
    ),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("modify"), st.integers(0, 30), st.integers(0, 3)),
)


def _apply(memory: WorkingMemory, operation) -> None:
    if operation[0] == "add":
        _, relation, k, v = operation
        memory.make(relation, k=k, v=v)
        return
    live = sorted(memory, key=lambda w: w.timetag)
    if not live:
        return
    if operation[0] == "remove":
        memory.remove(live[operation[1] % len(live)])
    else:
        memory.modify(live[operation[1] % len(live)], {"k": operation[2]})


def _bindings_map(matcher):
    return {
        i.identity(): tuple(sorted(i.bindings_items))
        for i in matcher.conflict_set
    }


@given(operations=st.lists(_operation, min_size=1, max_size=10))
@settings(max_examples=10, deadline=None)
def test_process_backend_equals_serial_and_thread(operations):
    memory = WorkingMemory()
    oracle = NaiveMatcher(memory)
    oracle.add_productions(_program())
    oracle.attach()
    backends = {
        name: PartitionedMatcher(
            memory, shards=2, inner="rete", backend=name
        )
        for name in ("serial", "thread", "process")
    }
    try:
        for matcher in backends.values():
            matcher.add_productions(_program())
            matcher.attach()
        oracle.conflict_set.take_delta()
        for matcher in backends.values():
            matcher.conflict_set.take_delta()
        for operation in operations:
            _apply(memory, operation)
            members = oracle.conflict_set.members()
            delta = oracle.conflict_set.take_delta()
            bindings = _bindings_map(oracle)
            for name, matcher in backends.items():
                assert matcher.conflict_set.members() == members, (
                    f"membership diverged under {name}"
                )
                ours = matcher.conflict_set.take_delta()
                assert ours.added == delta.added, f"adds diverged: {name}"
                assert ours.removed == delta.removed, (
                    f"removes diverged: {name}"
                )
                assert _bindings_map(matcher) == bindings, (
                    f"bindings diverged under {name}"
                )
    finally:
        for matcher in backends.values():
            matcher.detach()
        oracle.detach()


def test_process_backend_production_churn_stays_consistent():
    """add/remove_production route to live workers and stay exact."""
    memory = WorkingMemory()
    matcher = PartitionedMatcher(
        memory, shards=2, inner="treat", backend="process"
    )
    try:
        matcher.add_productions(_program())
        matcher.attach()
        memory.make("a", k=1, v=9)
        assert matcher.conflict_set.rule_names() >= {"lonely-a", "big-a"}
        matcher.remove_production("big-a")
        assert "big-a" not in matcher.conflict_set.rule_names()
        matcher.add_production(_program()[2])
        assert "big-a" in matcher.conflict_set.rule_names()
    finally:
        matcher.detach()


def test_process_backend_batch_flushes_once():
    memory = WorkingMemory()
    matcher = PartitionedMatcher(
        memory, shards=2, inner="rete", backend="process"
    )
    try:
        matcher.add_productions(_program())
        matcher.attach()
        pool = matcher._procpool
        assert pool is not None and pool.alive
        roundtrips = pool.roundtrips
        with matcher.batch():
            memory.make("a", k=1, v=1)
            memory.make("b", k=1, v=2)
            assert pool.roundtrips == roundtrips  # deferred
        assert pool.roundtrips == roundtrips + 1  # one barrier
        assert "match-pair" in matcher.conflict_set.rule_names()
    finally:
        matcher.detach()


def test_process_backend_rejects_custom_inner_factory():
    with pytest.raises(MatchError, match="named inner matcher"):
        PartitionedMatcher(
            WorkingMemory(),
            shards=2,
            inner=lambda m: NaiveMatcher(m),
            backend="process",
        )


# ---------------------------------------------------------------------------
# Crash containment (satellite 3b)
# ---------------------------------------------------------------------------


def _kill_worker(pool: ProcessPool, index: int = 0) -> None:
    process = pool._processes[index]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5.0)


class TestCrashContainment:
    def _matcher(self):
        memory = WorkingMemory()
        matcher = PartitionedMatcher(
            memory, shards=2, inner="rete", backend="process",
            procpool_timeout=10.0,
        )
        matcher.add_productions(_program())
        matcher.attach()
        memory.make("a", k=1, v=9)
        return memory, matcher

    def test_worker_killed_mid_batch_raises_matcherror(self):
        memory, matcher = self._matcher()
        try:
            pool = matcher._procpool
            _kill_worker(pool)
            started = time.monotonic()
            with pytest.raises(MatchError, match="died mid-batch"):
                pool.replay(
                    [WMDelta("add", WME.make("a", {"k": 2, "v": 1}))]
                )
            assert time.monotonic() - started < 10.0  # no hang
            assert not pool.alive  # whole pool torn down
        finally:
            matcher.detach()

    def test_pool_restarts_from_snapshot_on_next_use(self):
        memory, matcher = self._matcher()
        try:
            first = matcher._procpool
            _kill_worker(first)
            # Next WM operation finds the pool dead and restarts it
            # from the current snapshot — silently, with the conflict
            # set still exact.
            memory.make("b", k=1, v=2)
            second = matcher._procpool
            assert second is not first and second.alive
            oracle_memory = WorkingMemory()
            oracle = NaiveMatcher(oracle_memory)
            oracle.add_productions(_program())
            oracle.attach()
            for wme in sorted(memory, key=lambda w: w.timetag):
                oracle_memory.add(wme)

            def signatures(m):
                return {
                    (i.rule_name, i.timetags())
                    for i in m.conflict_set
                }

            assert signatures(matcher) == signatures(oracle)
        finally:
            matcher.detach()

    def test_fired_marks_survive_pool_restart(self):
        memory, matcher = self._matcher()
        try:
            fired = next(iter(matcher.conflict_set))
            matcher.conflict_set.mark_fired(fired)
            _kill_worker(matcher._procpool)
            memory.make("c", k=0)  # triggers the silent restart
            assert fired in matcher.conflict_set.members()
            assert fired not in matcher.conflict_set.eligible()
        finally:
            matcher.detach()

    def test_worker_error_reply_is_contained(self):
        memory, matcher = self._matcher()
        try:
            pool = matcher._procpool
            with pytest.raises(MatchError, match="unknown command"):
                pool._route(0, ("bogus",))
        finally:
            matcher.detach()

    def test_detach_shuts_down_pool(self):
        memory, matcher = self._matcher()
        pool = matcher._procpool
        matcher.detach()
        assert matcher._procpool is None
        assert not pool.alive

    def test_interpreter_context_manager_closes_pool(self):
        rules = parse_program(
            """
(p toggle 10
   (flag ^id <f> ^state on)
   -->
   (modify 1 ^state off))
"""
        )
        memory = WorkingMemory()
        memory.make("flag", id=1, state="on")
        with Interpreter(
            rules, memory, matcher="partitioned:rete:2:process"
        ) as interpreter:
            result = interpreter.run()
            pool = interpreter.matcher._procpool
            assert result.stop_reason == "quiescent"
        assert interpreter.matcher._procpool is None
        assert pool is None or not pool.alive


# ---------------------------------------------------------------------------
# Engine-level equivalence
# ---------------------------------------------------------------------------


ENGINE_RULES = """
(p bootstrap 5
   (seed ^n <n>)
   -->
   (make item ^v <n>)
   (remove 1))

(p grow 3
   (item ^v <v>)
   -(done ^v <v>)
   -->
   (make done ^v <v>))
"""


def test_interpreter_process_run_equals_serial_run():
    rules = parse_program(ENGINE_RULES)
    results = {}
    memories = {}
    for spec in ("rete", "partitioned:rete:2:process"):
        memory = WorkingMemory()
        for n in range(4):
            memory.make("seed", n=n)
        with Interpreter(rules, memory, matcher=spec) as interpreter:
            results[spec] = interpreter.run()
        memories[spec] = memory
    serial, process = results.values()
    assert process.stop_reason == serial.stop_reason == "quiescent"
    assert [f.rule_name for f in process.firings] == [
        f.rule_name for f in serial.firings
    ]
    first, second = memories.values()
    assert first.value_identity_set() == second.value_identity_set()


# ---------------------------------------------------------------------------
# Spec parsing (satellite 2)
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_process_spec_parses(self):
        assert parse_matcher_spec("partitioned:rete:4:process") == (
            "partitioned:rete:4:process"
        )

    def test_plain_names_pass_through(self):
        assert parse_matcher_spec("rete") == "rete"

    @pytest.mark.parametrize(
        "spec",
        [
            "partitioned:rete:4:prcess",  # the ISSUE's typo
            "partitioned:rete:4:processes",
            "partitioned:bogus:4:process",
        ],
    )
    def test_typoed_backend_fails_at_parse_time(self, spec):
        with pytest.raises(MatchError) as excinfo:
            parse_matcher_spec(spec)
        if "prcess" in spec or "processes" in spec:
            message = str(excinfo.value)
            for backend in ("thread", "serial", "des", "process"):
                assert backend in message

    def test_unknown_plain_matcher_lists_alternatives(self):
        with pytest.raises(EngineError) as excinfo:
            parse_matcher_spec("rette")
        message = str(excinfo.value)
        assert "rete" in message and "partitioned" in message

    def test_cli_rejects_typoed_backend_at_parse_time(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        rules = tmp_path / "r.ops"
        rules.write_text(
            "(p noop 1\n   (a ^k <k>)\n   -->\n   (remove 1))\n"
        )
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", str(rules),
                 "--matcher", "partitioned:rete:4:prcess"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "process" in err  # the valid-backend list is printed


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_procpool_counters_and_flush_annotations():
    import repro.obs as obs

    observer = obs.Observer(level="full")
    memory = WorkingMemory()
    matcher = PartitionedMatcher(
        memory, shards=2, inner="rete", backend="process",
        observer=observer,
    )
    try:
        matcher.add_productions(_program())
        matcher.attach()
        memory.make("a", k=1, v=9)
        memory.make("b", k=1, v=2)
        snap = observer.metrics.snapshot()
        assert snap["procpool.roundtrips"]["value"] >= 2
        assert snap["procpool.bytes"]["value"] > 0
        flushes = [
            s for s in observer.spans.spans()
            if s.name == "match.flush"
        ]
        assert flushes
        annotated = [
            s for s in flushes if "shard_seconds" in s.fields
        ]
        assert annotated
        assert all(
            len(s.fields["shard_seconds"]) == 2 for s in annotated
        )
        assert any(
            s.fields.get("ipc_bytes_out", 0) > 0 for s in annotated
        )
    finally:
        matcher.detach()


def test_shard_attribution_consumes_worker_seconds():
    from repro.analysis.critpath import shard_attribution

    import repro.obs as obs

    observer = obs.Observer(level="full")
    memory = WorkingMemory()
    matcher = PartitionedMatcher(
        memory, shards=2, inner="rete", backend="process",
        observer=observer,
    )
    try:
        matcher.add_productions(_program())
        matcher.attach()
        memory.make("a", k=1, v=9)
        memory.make("b", k=1, v=2)
    finally:
        matcher.detach()
    attribution = shard_attribution(observer.spans.spans())
    assert attribution is not None
    assert attribution.flushes >= 2
    assert set(attribution.shard_seconds) == {0, 1}
    assert attribution.busy > 0
    assert attribution.ipc_bytes > 0


def test_stats_reports_procpool():
    memory = WorkingMemory()
    matcher = PartitionedMatcher(
        memory, shards=2, inner="rete", backend="process"
    )
    try:
        matcher.add_productions(_program())
        matcher.attach()
        stats = matcher.stats()
        assert stats["backend"] == "process"
        assert stats["procpool"]["workers"] == 2
        assert stats["procpool"]["alive"] is True
        assert stats["procpool"]["roundtrips"] >= 1
    finally:
        matcher.detach()
