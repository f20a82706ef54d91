"""Lock modes and the compatibility matrices.

Section 4.3 defines three lock kinds::

    Rc: Read lock for condition evaluation.
    Ra: Read lock for action execution.
    Wa: Write lock for action execution.

and Table 4.1 gives the new compatibility matrix.  Reconstructed from
the text's grant rules:

* "The lock manager will grant a Rc lock as long as no production has
  already placed a Wa lock on the same data item."
* "an Ra lock can be granted only if there is no other production
  currently holding a Wa lock"
* "a Wa lock can be granted only if there is no outstanding Ra or Wa
  lock.  Note that a Wa lock can be granted even if another production
  is holding a Rc lock on the data (allowing Rc–Wa conflict to
  exist!). This is the key to enhanced parallelism."

which yields (rows: lock requested by P_i; columns: lock held by P_j)::

            held Rc   held Ra   held Wa
    req Rc     Y         Y         N
    req Ra     Y         Y         N
    req Wa     Y         N         N

For comparison, standard 2PL (Section 4.2) uses plain ``R``/``W`` with
the classical matrix (R-R compatible, everything else not).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class LockMode(enum.Enum):
    """All lock modes across both schemes.

    ``R``/``W`` belong to standard 2PL; ``RC``/``RA``/``WA`` to the
    improved scheme.  A single enum keeps the manager generic.
    """

    R = "R"
    W = "W"
    RC = "Rc"
    RA = "Ra"
    WA = "Wa"

    # Modes key every grant-map set and compatibility lookup; enum's
    # default ``hash(self._name_)`` is a Python-level call.  Members
    # are singletons compared by identity, so the C-level identity
    # hash is equivalent and much cheaper on the manager's hot paths.
    __hash__ = object.__hash__

    @property
    def is_read(self) -> bool:
        return self in (LockMode.R, LockMode.RC, LockMode.RA)

    @property
    def is_write(self) -> bool:
        return self in (LockMode.W, LockMode.WA)

    def __str__(self) -> str:
        return self.value


#: Table 4.1 — the improved scheme.  ``COMPATIBILITY[requested][held]``
#: is True when the requested mode can be granted alongside the held one.
COMPATIBILITY: dict[LockMode, dict[LockMode, bool]] = {
    LockMode.RC: {
        LockMode.RC: True,
        LockMode.RA: True,
        LockMode.WA: False,
    },
    LockMode.RA: {
        LockMode.RC: True,
        LockMode.RA: True,
        LockMode.WA: False,
    },
    LockMode.WA: {
        LockMode.RC: True,  # the deliberate Rc-Wa conflict: the key
        LockMode.RA: False,  # to enhanced parallelism (Section 4.3)
        LockMode.WA: False,
    },
}

#: Standard 2PL read/write matrix (Section 4.2).
TWO_PHASE_COMPATIBILITY: dict[LockMode, dict[LockMode, bool]] = {
    LockMode.R: {LockMode.R: True, LockMode.W: False},
    LockMode.W: {LockMode.R: False, LockMode.W: False},
}

_ALL_MATRICES = (COMPATIBILITY, TWO_PHASE_COMPATIBILITY)


class SchemeModes(NamedTuple):
    """The modes a scheme requests for a firing's condition reads and
    action writes, and whether it takes the whole footprint up front."""

    condition: LockMode
    action_write: LockMode
    preclaims: bool = False


#: Every lock scheme by name: the one place a scheme's modes are kept,
#: read by the lock schemes and by a deterministic wave, which decides
#: its grants from them and Table 4.1 without a lock manager.
SCHEME_MODES: dict[str, SchemeModes] = {
    "rc": SchemeModes(LockMode.RC, LockMode.WA),
    "2pl": SchemeModes(LockMode.R, LockMode.W),
    "c2pl": SchemeModes(LockMode.R, LockMode.W, preclaims=True),
}


def compatible(requested: LockMode, held: LockMode) -> bool:
    """True when ``requested`` can be granted while ``held`` is held
    by a *different* transaction.

    Modes from different schemes never meet in one manager; mixing them
    is a programming error and raises ``KeyError`` deliberately.
    """
    for matrix in _ALL_MATRICES:
        if requested in matrix:
            return matrix[requested][held]
    raise KeyError(requested)


def is_upgrade(held: LockMode, requested: LockMode) -> bool:
    """True when ``requested`` strictly strengthens ``held`` for one
    transaction (the manager then re-checks only against *others*).

    Upgrades: ``R -> W``, ``Rc -> Ra``, ``Rc -> Wa``, ``Ra -> Wa``.
    """
    upgrades = {
        (LockMode.R, LockMode.W),
        (LockMode.RC, LockMode.RA),
        (LockMode.RC, LockMode.WA),
        (LockMode.RA, LockMode.WA),
    }
    return (held, requested) in upgrades


def table_4_1() -> list[tuple[str, str, str]]:
    """Render Table 4.1 as (requested, held, Y/N) rows, paper order.

    Used by ``benchmarks/bench_table_4_1_lock_compat.py`` to print the
    matrix next to the paper's expected entries.
    """
    order = (LockMode.RC, LockMode.RA, LockMode.WA)
    rows: list[tuple[str, str, str]] = []
    for requested in order:
        for held in order:
            granted = "Y" if COMPATIBILITY[requested][held] else "N"
            rows.append((str(requested), str(held), granted))
    return rows


#: The paper's Table 4.1 entries, for the benchmark's expected column
#: (rows requested, columns held, reading order Rc, Ra, Wa).
PAPER_TABLE_4_1: tuple[str, ...] = (
    "Y", "Y", "N",  # requested Rc vs held Rc, Ra, Wa
    "Y", "Y", "N",  # requested Ra
    "Y", "N", "N",  # requested Wa  (Rc-Wa allowed!)
)
