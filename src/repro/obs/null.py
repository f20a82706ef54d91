"""The disabled observer and the process-wide default — standard
library only, so any layer may import it to learn that telemetry is
off without loading the telemetry stack (:mod:`repro.obs.observer`
and everything behind it)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.observer import Observer


def _noop(*args, **kwargs) -> None:
    return None


class NullObserver:
    """The disabled observer: every hook is a no-op.

    ``enabled`` is False, so correctly guarded call sites never even
    invoke the hooks; answering any public name with a no-op is a
    safety net for unguarded (cold-path) calls.  ``spans`` is None,
    matching a live observer below the ``"sampled"`` level.
    """

    enabled = False
    spans = None
    sampler = None

    def clock(self) -> float:
        return 0.0

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return _noop


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
