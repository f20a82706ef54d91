"""The engines' choices on real programs, pinned by commit digest.

Every strategy is a total order, so a run's commit sequence is a
function of the program, the strategy and (for ``random``) the seed —
not of how the conflict set stores or ranks its candidates.  These
digests were recorded before the conflict set bucketed its eligible
members by strategy head; any change to how *select* or a wave's
``order`` reads the conflict set must leave them as they are.

Programs are the ``benchmarks/e2e`` generators at smoke size, seed 5;
the digest is the benchmark's own ``firing_digest`` (rule names and
value identities, timetag-free).  ``MULTIUSER`` also pins how a
multi-user wave deals its users' rankings and when a ``random``
ranking draws.  ``HISTORIES`` pins each wave cell's ``engine.history``,
the serializability log rebuilt from the same commit sequence.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
import run as e2e  # noqa: E402
from child import firing_digest  # noqa: E402

from repro.engine import (  # noqa: E402
    Interpreter,
    MultiUserEngine,
    ParallelEngine,
    Session,
)
from repro.lang import parse_program  # noqa: E402
from repro.wm import WorkingMemory  # noqa: E402

#: (program, strategy) -> (firing_digest, firings), Interpreter + Rete.
INTERPRETER = {
    ("orders", "lex"): ("2dff21499778a282", 120),
    ("orders", "mea"): ("995c01e415751fa9", 120),
    ("orders", "priority"): ("2dff21499778a282", 120),
    ("orders", "fifo"): ("7ab161809bc44a72", 120),
    ("orders", "random"): ("40915807e3bc882d", 120),
    ("manners", "lex"): ("b9b8ad8ec6bf18cf", 22),
    ("manners", "mea"): ("b9b8ad8ec6bf18cf", 22),
    ("manners", "priority"): ("5b529ee1dc6925a0", 22),
    ("manners", "fifo"): ("cb9a3b771331588b", 22),
    ("manners", "random"): ("86ccb6e880817d59", 22),
    ("lanes", "lex"): ("c090ef070fb0bc51", 96),
    ("lanes", "mea"): ("2a020be490a2d553", 96),
    ("lanes", "priority"): ("c090ef070fb0bc51", 96),
    ("lanes", "fifo"): ("852b31344d701379", 96),
    ("lanes", "random"): ("e13884104688ff1e", 96),
}

#: (workload, strategy) -> (firing_digest, firings, waves), the
#: workload's ParallelEngine scheme and width: ``order(·, width)`` and
#: admission's lazy rest.
WAVES = {
    ("hot_rc", "lex"): ("fa33b63acb567f8b", 96, 16),
    ("hot_rc", "mea"): ("b78586209cfc546c", 96, 12),
    ("hot_rc", "priority"): ("fa33b63acb567f8b", 96, 16),
    ("hot_rc", "fifo"): ("112156095494318e", 96, 14),
    ("hot_rc", "random"): ("d86a973304993e30", 96, 14),
    ("hot_2pl", "lex"): ("7149e9e1996b589e", 96, 19),
    ("hot_2pl", "mea"): ("c52d997a262dcc18", 96, 18),
    ("hot_2pl", "priority"): ("7149e9e1996b589e", 96, 19),
    ("hot_2pl", "fifo"): ("65e6e249dd00e736", 96, 30),
    ("hot_2pl", "random"): ("2b6f07e7ffc352dc", 96, 22),
    ("manners_rc", "lex"): ("c2f24c96542dbfec", 18, 9),
    ("manners_rc", "mea"): ("4bd2e8efaf977d64", 18, 9),
    ("manners_rc", "priority"): ("c2f24c96542dbfec", 18, 9),
    ("manners_rc", "fifo"): ("e839517049524ac1", 18, 9),
    ("manners_rc", "random"): ("51505e0162fdb843", 18, 9),
}

#: (workload, strategy) -> (history_digest, operations) of the
#: ``WAVES`` cell's ``engine.history``: which reads, writes and commits,
#: in which order.  Recorded while the certifier kept its own log.
HISTORIES = {
    ("hot_rc", "lex"): ("1c26654b318cc989", 528),
    ("hot_rc", "mea"): ("2ec19b4950afb274", 528),
    ("hot_rc", "priority"): ("1c26654b318cc989", 528),
    ("hot_rc", "fifo"): ("368db2b510ede331", 528),
    ("hot_rc", "random"): ("d252ca357b45026a", 528),
    ("hot_2pl", "lex"): ("48f4597848153b53", 528),
    ("hot_2pl", "mea"): ("c58bbbe9526aaf7a", 528),
    ("hot_2pl", "priority"): ("48f4597848153b53", 528),
    ("hot_2pl", "fifo"): ("5121e7c92b82526f", 528),
    ("hot_2pl", "random"): ("7bf5963bf7189d04", 528),
    ("manners_rc", "lex"): ("d8848b2814a49a4c", 182),
    ("manners_rc", "mea"): ("ea522bff99e94f2e", 182),
    ("manners_rc", "priority"): ("d8848b2814a49a4c", 182),
    ("manners_rc", "fifo"): ("fe35ae0df575fd67", 182),
    ("manners_rc", "random"): ("0f46ca80aea0bbf8", 182),
}

#: (workload, strategy) -> (firing_digest, firings, waves), the rules
#: dealt alternately to two sessions of a MultiUserEngine with the
#: workload's scheme and width: the round-robin deal, the rotating lead
#: user and (for ``random``) when each user's ranking draws.
MULTIUSER = {
    ("hot_rc", "lex"): ("345f588ce163003b", 96, 13),
    ("hot_rc", "random"): ("10da3111d8c26695", 96, 13),
    ("manners_rc", "lex"): ("f97475bdd25a74c4", 18, 9),
    ("manners_rc", "random"): ("19ea54fc9ca6aec9", 18, 9),
}

WORKLOAD_OF = {
    "orders": "orders_durable", "manners": "manners_serial",
    "lanes": "hot_rc",
}
RANDOM_SEED = 3


def _loaded(workload: str):
    spec = e2e.build_spec(workload, 5, smoke=True)
    memory = WorkingMemory()
    for relation, values in spec["facts"]:
        memory.make(relation, values)
    return spec, parse_program(spec["rules"]), memory


def _waves(workload: str, strategy: str) -> ParallelEngine:
    """The ``WAVES`` cell's engine, run to quiescence and closed."""
    spec, rules, memory = _loaded(workload)
    config = spec["engine"]
    with ParallelEngine(
        rules, memory, scheme=config["scheme"],
        processors=config["processors"], strategy=strategy,
        seed=RANDOM_SEED,
    ) as engine:
        engine.run(max_waves=10**9)
    return engine


def history_digest(history) -> str:
    """Digest of a history's operations, its transaction ids renumbered
    by first appearance (the ids themselves are process-global)."""
    sha = hashlib.sha256()
    number: dict[str, int] = {}
    for op in history.operations():
        txn = number.setdefault(op.txn_id, len(number))
        sha.update(repr((op.kind, txn, op.obj)).encode())
    return sha.hexdigest()[:16]


@pytest.mark.parametrize(
    "program, strategy", list(INTERPRETER), ids=map("-".join, INTERPRETER)
)
def test_interpreter_choices_are_pinned(program, strategy):
    _, rules, memory = _loaded(WORKLOAD_OF[program])
    with Interpreter(
        rules, memory, strategy=strategy, seed=RANDOM_SEED
    ) as engine:
        result = engine.run(max_cycles=10**9)
    assert (
        firing_digest(result.firings), len(result.firings)
    ) == INTERPRETER[program, strategy]


@pytest.mark.parametrize(
    "workload, strategy", list(WAVES), ids=map("-".join, WAVES)
)
def test_wave_choices_are_pinned(workload, strategy):
    result = _waves(workload, strategy).result
    assert (
        firing_digest(result.firings), len(result.firings), result.cycles
    ) == WAVES[workload, strategy]


@pytest.mark.parametrize(
    "workload, strategy", list(HISTORIES), ids=map("-".join, HISTORIES)
)
def test_wave_histories_are_pinned(workload, strategy):
    history = _waves(workload, strategy).history
    assert (
        history_digest(history), len(history)
    ) == HISTORIES[workload, strategy]


@pytest.mark.parametrize(
    "workload, strategy", list(MULTIUSER), ids=map("-".join, MULTIUSER)
)
def test_multiuser_choices_are_pinned(workload, strategy):
    spec, rules, memory = _loaded(workload)
    config = spec["engine"]
    sessions = [
        Session.of("even", rules[0::2]), Session.of("odd", rules[1::2])
    ]
    with MultiUserEngine(
        sessions, memory, scheme=config["scheme"],
        processors=config["processors"], base_strategy=strategy,
        seed=RANDOM_SEED,
    ) as engine:
        result = engine.run(max_waves=10**9)
    assert (
        firing_digest(result.firings), len(result.firings), result.cycles
    ) == MULTIUSER[workload, strategy]
