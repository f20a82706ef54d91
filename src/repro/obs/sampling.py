"""Deterministic head-based trace sampling.

A production engine cannot afford the full span tree on every run,
but it also cannot afford to lose whole categories of evidence.  Head sampling is
the standard answer: decide *once, at the root*, whether a trace is
kept, and let every descendant span inherit that decision, so a
sampled run carries its complete run → cycle → phase → firing subtree
and an unsampled run costs almost nothing (a sentinel object and a
counter bump per would-be span).

Two properties the rest of the telemetry layer depends on:

* **Determinism.**  The keep/drop decision for the *n*-th root span is
  a pure function of ``(seed, rate, n)`` — a BLAKE2 hash mapped into
  the unit interval — so the same program run twice under the same
  seed and rate records the *identical* sampled span set.  Tests pin
  this; it also makes sampled benchmarks reproducible.
* **Whole-trace coherence.**  A child span is kept iff its root was
  kept.  There is no per-span coin flip, so analysis never sees a
  ``firing`` whose ``cycle`` is missing (the half-trace failure mode
  tail-sampling systems fight).

The sampler only gates *root* spans (spans started with no parent —
the engines' ``run`` spans and the store's standalone checkpoint /
recovery spans).  Aggregate telemetry (metrics, quantile
sketches, the per-rule profiler, health windows) is derived from each
step's close, and a step under a sampled-out trace is still timed, so
aggregates see **every** run regardless of the sampling decision —
sampling trades away causal detail, never totals.
"""

from __future__ import annotations

import hashlib
import threading

#: Resolution of the deterministic unit-interval hash.
_SCALE = 1 << 32


class HeadSampler:
    """Seeded, rate-configurable keep/drop decisions for trace roots.

    Parameters
    ----------
    rate:
        Fraction of root spans to keep, in ``[0, 1]``.  ``1.0`` keeps
        everything (the ``full`` level's behavior), ``0.0`` drops
        everything.
    seed:
        Decision-stream seed.  Two samplers with the same seed and
        rate make the same decision for the same root index.
    """

    def __init__(self, rate: float = 0.1, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._threshold = int(rate * _SCALE)
        self._index = 0
        self._mutex = threading.Lock()
        #: Decisions made / kept so far (for accounting and tests).
        self.decisions = 0
        self.kept = 0

    def keep(self, index: int) -> bool:
        """The pure decision function: keep the ``index``-th root?

        Stateless and deterministic — usable offline to predict which
        traces a run kept.
        """
        if self._threshold >= _SCALE:
            return True
        if self._threshold <= 0:
            return False
        digest = hashlib.blake2b(
            f"{self.seed}:{index}".encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest[:4], "big") < self._threshold

    def decide(self) -> bool:
        """Consume the next root index and return its decision."""
        with self._mutex:
            self._index += 1
            index = self._index
            self.decisions += 1
            kept = self.keep(index)
            if kept:
                self.kept += 1
            return kept

    def reset(self) -> None:
        """Rewind the decision stream (same seed ⇒ same decisions)."""
        with self._mutex:
            self._index = 0
            self.decisions = 0
            self.kept = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HeadSampler rate={self.rate} seed={self.seed} "
            f"kept={self.kept}/{self.decisions}>"
        )


class DroppedSpan:
    """The inert span a sampled-out trace gets instead of real spans.

    Absorbs the mutation surface of :class:`~repro.obs.spans.Span`
    (annotate, link, finish) as no-ops.  Identity is the
    contract: the recorder hands out **one** instance, and a span
    started under it (or under its ``-1`` id) is that instance again,
    counted in :attr:`~repro.obs.spans.SpanRecorder.sampled_out`.
    """

    __slots__ = ()

    #: Sentinel id — never collides with real (positive) span ids.
    span_id = -1

    def annotate(self, **fields: object) -> "DroppedSpan":
        return self

    def link(self, target, kind: str = "causes") -> "DroppedSpan":
        return self

    def finish(self, ts=None, **fields: object) -> "DroppedSpan":
        return self
