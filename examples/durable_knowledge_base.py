"""A durable knowledge base — the paper's Section 1 pitch.

"Expert system users are asking for knowledge sharing and knowledge
persistence, features found currently in databases."  This example
shows persistence bolted onto the production system: the working
memory journals to a write-ahead log with checkpoints
(`repro.wm.storage.DurableStore`); we run rules, simulate a crash
(abandon the process state), recover from disk, continue the run
seamlessly, and read the recovered facts back.

Run with::

    python examples/durable_knowledge_base.py
"""

import tempfile
from pathlib import Path

from repro import Interpreter, RuleBuilder, WorkingMemory, var
from repro.lang.builder import gt
from repro.wm import DurableStore


def build_rules():
    classify = (
        RuleBuilder("classify-vip")
        .when("customer", cid=var("c"), spend=gt(1000))
        .when_not("vip", cid=var("c"))
        .make("vip", cid=var("c"))
        .build()
    )
    upgrade = (
        RuleBuilder("upgrade-open-orders")
        .when("vip", cid=var("c"))
        .when("order", id=var("o"), customer=var("c"), tier="standard")
        .modify(2, tier="express")
        .build()
    )
    return [classify, upgrade]


def seed(wm: WorkingMemory) -> None:
    wm.make("customer", cid="c1", spend=2500)
    wm.make("customer", cid="c2", spend=300)
    wm.make("customer", cid="c3", spend=1800)
    for order_id, customer in [(1, "c1"), (2, "c2"), (3, "c1"), (4, "c3")]:
        wm.make("order", id=order_id, customer=customer, tier="standard")


def main() -> None:
    rules = build_rules()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "kb"

        # -- session 1: seed, run a little, checkpoint mid-flight. -----
        wm = WorkingMemory()
        store = DurableStore(wm, directory)
        seed(wm)
        interpreter = Interpreter(rules, wm)
        interpreter.step()          # fire one rule...
        store.checkpoint()          # ...checkpoint...
        interpreter.step()          # ...one more firing lands in the WAL
        fired_before = len(interpreter.result.firings)
        print(f"session 1: {fired_before} firings persisted, then 'crash'")
        store.close()
        del wm, interpreter        # simulate losing all process state

        # -- session 2: recover from disk and finish the run. -----------
        recovered, store2 = DurableStore.open(directory)
        print(f"session 2: recovered {len(recovered)} facts from "
              f"checkpoint + WAL")
        result = Interpreter(rules, recovered).run()
        print(f"session 2: finished with {len(result.firings)} more "
              f"firings -> quiescent")
        store2.close()

        # -- read the recovered knowledge base. --------------------------
        vips = sorted(wme["cid"] for wme in recovered.elements("vip"))
        print("VIP customers:", vips)
        express = sorted(
            wme["id"] for wme in recovered.elements("order")
            if wme["tier"] == "express"
        )
        print("express orders:", express)

        assert vips == ["c1", "c3"]
        assert express == [1, 3, 4]
    print("\ndurable_knowledge_base OK")


if __name__ == "__main__":
    main()
