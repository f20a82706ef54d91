"""Order fulfillment: a database production system run in parallel.

The paper's Section 1 motivates database production systems with
"manufacturing and process control" applications needing rule-based
reasoning over shared, persistent data.  This example models a small
fulfillment pipeline — reserve stock, pick, pack, ship, and restock —
and runs it three ways:

1. single execution thread (the baseline semantics),
2. the wave-parallel engine under standard 2PL,
3. the wave-parallel engine under the paper's Rc/Ra/Wa scheme,

then verifies all three reach the same database state and that each
parallel commit sequence replays single-threaded (Definition 3.2).

Run with::

    python examples/order_fulfillment.py
"""

from repro import (
    Interpreter,
    ParallelEngine,
    RuleBuilder,
    WMSnapshot,
    WorkingMemory,
    is_conflict_serializable,
    parse_production,
    replay_commit_sequence,
    var,
)

N_ORDERS = 8
STOCK_PER_SKU = 4


def build_rules():
    # The DSL allows several tests on one attribute (^qty binds AND
    # compares), which the keyword-based builder cannot express.
    reserve = parse_production(
        """
        (p reserve
           (order ^id <o> ^sku <s> ^state "new")
           (stock ^sku <s> ^qty <q> ^qty >= 1)
           -->
           (modify 1 ^state "reserved")
           (modify 2 ^qty (<q> - 1)))
        """
    )
    pick = (
        RuleBuilder("pick")
        .when("order", id=var("o"), state="reserved")
        .when_not("pick-ticket", order=var("o"))
        .make("pick-ticket", order=var("o"))
        .modify(1, state="picked")
        .build()
    )
    pack = (
        RuleBuilder("pack")
        .when("order", id=var("o"), state="picked")
        .when("pick-ticket", order=var("o"))
        .remove(2)
        .modify(1, state="packed")
        .build()
    )
    ship = (
        RuleBuilder("ship")
        .when("order", id=var("o"), state="packed")
        .modify(1, state="shipped")
        .make("manifest", order=var("o"))
        .build()
    )
    restock = (
        RuleBuilder("restock")
        .when("stock", sku=var("s"), qty=0)
        .when_not("po", sku=var("s"))
        .make("po", sku=var("s"))
        .build()
    )
    return [reserve, pick, pack, ship, restock]


def build_memory() -> WorkingMemory:
    wm = WorkingMemory()
    for sku in ("widget", "gadget"):
        wm.make("stock", sku=sku, qty=STOCK_PER_SKU)
    for order_id in range(1, N_ORDERS + 1):
        sku = "widget" if order_id % 2 else "gadget"
        wm.make("order", id=order_id, sku=sku, state="new")
    return wm


def main() -> None:
    rules = build_rules()

    # -- single thread --------------------------------------------------------
    serial_wm = build_memory()
    serial = Interpreter(rules, serial_wm).run()
    print(f"single thread : {len(serial)} firings, "
          f"{serial_wm.count('manifest')} shipped, "
          f"{serial_wm.count('po')} purchase orders")

    # -- parallel, both schemes -------------------------------------------------
    for scheme in ("2pl", "rc"):
        wm = build_memory()
        snapshot = WMSnapshot.capture(wm)
        engine = ParallelEngine(rules, wm, scheme=scheme, seed=7)
        result = engine.run()
        waves = len(engine.waves)
        # A deterministic wave decides rule (ii) from its own commit
        # order: the would-be victims are held back before locking.
        print(
            f"parallel ({scheme:>3s}): {len(result)} firings in {waves} "
            f"waves, {engine.held_count} held back, "
            f"{engine.abort_count} rule-(ii) aborts, "
            f"{wm.count('manifest')} shipped"
        )

        # Same final database as the serial run?
        assert (
            wm.value_identity_set() == serial_wm.value_identity_set()
        ), f"{scheme}: parallel final state diverged"
        # Commit sequence semantically consistent (Definition 3.2)?
        replay = replay_commit_sequence(snapshot, rules, result.firings)
        assert replay.consistent, replay.detail
        # Lock history conflict-serializable?
        assert is_conflict_serializable(engine.history)
        print(f"               semantic consistency: OK ({replay.detail})")

    # Every order ends shipped; both SKUs were drained to 0 and reordered.
    shipped = [
        w for w in serial_wm.elements("order") if w["state"] == "shipped"
    ]
    assert len(shipped) == N_ORDERS
    assert serial_wm.count("po") == 2
    print("\norder_fulfillment OK")


if __name__ == "__main__":
    main()
