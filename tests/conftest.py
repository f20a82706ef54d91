"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import json

import pytest

from repro.lang import RuleBuilder
from repro.lang.builder import gt, var
from repro.locks import RcScheme
from repro.txn import Transaction
from repro.wm import DurableStore, WorkingMemory


@pytest.fixture
def wal_records():
    """``read(directory)``: every WAL record of a durable-store
    directory, in replay order."""

    def read(directory) -> list[dict]:
        return [
            json.loads(line)
            for path in DurableStore.segment_paths(directory)
            for line in path.read_text().splitlines()
            if line.strip()
        ]

    return read


@pytest.fixture
def wm() -> WorkingMemory:
    """An empty, unsynchronized working memory."""
    return WorkingMemory()


@pytest.fixture
def order_rules():
    """A small order-processing program used across engine tests.

    ``ship`` ships open orders above a total unless held; ``audit``
    consumes shipments of shipped orders.
    """
    ship = (
        RuleBuilder("ship")
        .when("order", id=var("o"), status="open", total=gt(50))
        .when_not("hold", order=var("o"))
        .modify(1, status="shipped")
        .make("shipment", order=var("o"))
        .build()
    )
    audit = (
        RuleBuilder("audit")
        .when("shipment", order=var("o"))
        .when("order", id=var("o"), status="shipped")
        .make("audit", order=var("o"))
        .remove(1)
        .build()
    )
    return [ship, audit]


@pytest.fixture
def order_wm() -> WorkingMemory:
    """Working memory with five orders (one held, one small)."""
    memory = WorkingMemory()
    for i in range(1, 6):
        memory.make("order", id=i, status="open", total=40 + i * 10)
    memory.make("hold", order=3)
    return memory


@pytest.fixture
def rule_ii_by_hand():
    """``drive(observer)``: rule (ii) where it still runs.

    A deterministic wave decides rule (ii) at admission and never
    aborts anybody, so the tests of the abort's telemetry drive
    ``RcScheme`` the way a racing executor meets it: ``observe`` holds
    Rc on the flag, ``toggle`` takes Wa over it and reaches its commit
    point first.  Transactions are bound to ``firing`` spans as the
    executors bind them.
    """

    def drive(observer) -> None:
        spans = observer.spans
        scheme = RcScheme(observer=observer)
        reader = Transaction(rule_name="observe")
        writer = Transaction(rule_name="toggle")
        for txn in (reader, writer):
            spans.bind(
                txn.txn_id,
                spans.start("firing", rule=txn.rule_name, txn=txn.txn_id),
            )
        scheme.lock_condition(reader, ("flag", 1))
        scheme.lock_action(writer, writes=[("flag", 1)])
        assert scheme.commit(writer).victims == [reader]
        scheme.abort(reader, "rule (ii) victim")
        for txn in (reader, writer):
            spans.for_txn(txn.txn_id).finish()
            spans.unbind(txn.txn_id)

    return drive
