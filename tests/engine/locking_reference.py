"""The deterministic wave driven through a real lock manager.

``ParallelEngine`` decides every grant of a deterministic wave from
the footprints (:class:`~repro.engine.footprint.FootprintScheme`).  This
subclass is the driver it replaced, kept as the reference model: the
same waves, but every condition and action lock is requested from the
scheme's :class:`~repro.locks.manager.LockManager` in ``repr`` order,
recorded in ``history``, and released by the scheme's commit (rule (ii)
included) or abort.  Tests run both and require the same waves.
"""

from __future__ import annotations

from repro.engine.multiuser import MultiUserEngine
from repro.engine.parallel import ParallelEngine
from repro.locks import SCHEMES
from repro.txn.schedule import History


class _LockTaking:
    """The real scheme in place of the footprints."""

    def _make_scheme(self, scheme):
        return SCHEMES[scheme](history=History(), observer=self.obs)

    @property
    def history(self) -> History:
        return self.scheme.manager.history

    def _lock_condition(self, txn, reads, writes) -> bool:
        return super()._lock_condition(txn, sorted(reads, key=repr), writes)


class LockingParallelEngine(_LockTaking, ParallelEngine):
    pass


class LockingMultiUserEngine(_LockTaking, MultiUserEngine):
    pass


def wave_outcomes(engine) -> list[tuple]:
    """Every wave's ``(committed, deferred, aborted, held, ordered)``."""
    return [
        (w.committed, w.deferred, w.aborted, w.held, w.ordered)
        for w in engine.waves
    ]
