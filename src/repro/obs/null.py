"""The disabled observer and the process-wide default — standard
library only, so any layer may import it to learn that telemetry is
off without loading the telemetry stack (:mod:`repro.obs.observer`
and everything behind it)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.observer import Observer


class NullObserver:
    """The disabled observer: ``begin``, ``end`` and ``event`` do
    nothing, and guarded call sites (``enabled`` is False) never make
    them.  ``spans`` is None, matching a live observer below the
    ``"sampled"`` level.
    """

    enabled = False
    spans = None

    def clock(self) -> float:
        return 0.0

    def begin(self, name, parent=None, /, **fields) -> None:
        return None

    def end(self, step, /, **fields) -> None:
        return None

    def event(self, name, parent=None, /, **fields) -> None:
        return None


#: The process-wide disabled observer (see :mod:`repro.obs`).
NULL_OBSERVER = NullObserver()

_default: Observer | NullObserver = NULL_OBSERVER


def get_observer() -> Observer | NullObserver:
    """The observer newly constructed components will attach to."""
    return _default


def set_observer(
    observer: Observer | NullObserver,
) -> Observer | NullObserver:
    """Install ``observer`` as the default; returns the previous one."""
    global _default
    previous = _default
    _default = observer
    return previous
