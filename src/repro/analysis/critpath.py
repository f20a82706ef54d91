"""Critical-path extraction and abort-chain attribution.

The analysis half of the causal-tracing layer: the span trees emitted
by the engines (:mod:`repro.obs.spans`) answer the Section 5 questions
only once they are *reduced* — where did each wave's time go
(lock-wait vs. match vs. RHS, the Figure 5.1/5.3 decomposition), and
which committed Wa transaction caused each Rc abort (the Table
4.1/Figure 5.2 commit-rule behavior).

Two toolkits:

* **Per-cycle attribution** (:func:`cycle_breakdowns`) — for every
  ``cycle`` span, a sweep over its descendants attributes each instant
  of the cycle to the *deepest* covering span's category (``lock_wait``
  / ``match`` / ``admit`` / ``acquire`` / ``rhs`` / ``other``).  The
  buckets sum to the cycle duration exactly, so summing cycles against
  the ``run`` span's makespan is a built-in self-check
  (:func:`coverage`).
  :func:`critical_chain` extracts the dominant child chain — the
  longest spine of each wave.
* **Abort chains** (:func:`abort_chains`) — walks ``rc_wa_abort``
  links, mapping every rule-(ii) victim back to the committing Wa
  transaction's span.  A deterministic wave chooses its commit order at
  admission instead, and :func:`held_backs` / :func:`ordered_firsts`
  read the choices it recorded: one ``held`` record per candidate cut
  from a cycle (the ring of admitted rules it would have closed and
  the two objects tying it in), one ``ordered`` record per reader that
  acted before a writer ranked above it (rule (i)).

All functions accept live :class:`~repro.obs.spans.Span` objects, a
:class:`~repro.obs.spans.SpanRecorder`, or plain span dicts re-read
from a JSONL dump — analysis works offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Attribution buckets, in report order.
CATEGORIES = (
    "lock_wait", "match", "admit", "acquire", "rhs", "storage", "other",
)


def categorize(name: str) -> str:
    """Map a span name to its attribution bucket."""
    if name.startswith("lock."):
        return "lock_wait"
    if name.startswith("match") or name == "phase.match":
        return "match"
    if name in ("phase.admit", "held", "ordered"):
        return "admit"
    if name == "phase.acquire" or name == "acquire":
        return "acquire"
    if name in ("firing", "rhs", "phase.act") or name.startswith("txn."):
        return "rhs"
    if name.startswith("storage."):
        return "storage"
    return "other"


# -- span normalization ------------------------------------------------------------------


@dataclass
class SpanNode:
    """A normalized span: live object or JSONL dict, same shape."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None
    fields: dict
    links: list[tuple[int, str]]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def label(self) -> str:
        tag = self.fields.get("rule") or self.fields.get("txn")
        return f"{self.name}[{tag}]" if tag else self.name


def _normalize(spans: Iterable) -> list[SpanNode]:
    out: list[SpanNode] = []
    for span in spans:
        if isinstance(span, Mapping):
            out.append(
                SpanNode(
                    span_id=span["span_id"],
                    parent_id=span.get("parent_id"),
                    name=span["name"],
                    start=span["start"],
                    end=span.get("end"),
                    fields=dict(span.get("fields", {})),
                    links=[
                        (link["target"], link.get("kind", "causes"))
                        for link in span.get("links", [])
                    ],
                )
            )
        else:  # live Span
            out.append(
                SpanNode(
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    name=span.name,
                    start=span.start,
                    end=span.end,
                    fields=dict(span.fields),
                    links=list(span.links),
                )
            )
    return out


def build_tree(spans: Iterable) -> tuple[list[SpanNode], dict[int, SpanNode]]:
    """Normalize spans and wire parent/child pointers.

    Returns ``(roots, by_id)``; spans whose parent fell out of the
    span ring are treated as roots.
    """
    nodes = _normalize(
        spans.spans() if hasattr(spans, "spans") else spans
    )
    by_id = {node.span_id: node for node in nodes}
    roots: list[SpanNode] = []
    for node in nodes:
        parent = (
            by_id.get(node.parent_id)
            if node.parent_id is not None
            else None
        )
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots, by_id


# -- per-cycle attribution ---------------------------------------------------------------


@dataclass
class CycleBreakdown:
    """Where one wave's time went."""

    wave: int
    start: float
    duration: float
    #: category -> attributed seconds; sums to ``duration`` exactly.
    buckets: dict[str, float]
    #: The dominant chain: ``(label, clipped duration)`` per level.
    chain: list[tuple[str, float]]

    @property
    def dominant(self) -> str:
        """The heaviest non-``other`` bucket (or ``"other"``)."""
        ranked = sorted(
            self.buckets.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for name, value in ranked:
            if name != "other" and value > 0:
                return name
        return "other"


def _descendants(node: SpanNode) -> list[tuple[SpanNode, int]]:
    """All finished descendants with their depth below ``node``."""
    out: list[tuple[SpanNode, int]] = []
    stack = [(child, 1) for child in node.children]
    while stack:
        current, depth = stack.pop()
        if current.end is not None:
            out.append((current, depth))
        stack.extend((child, depth + 1) for child in current.children)
    return out


def _attribute(cycle: SpanNode) -> dict[str, float]:
    """Sweep the cycle interval; deepest covering span wins each slice."""
    buckets = {name: 0.0 for name in CATEGORIES}
    lo, hi = cycle.start, cycle.end if cycle.end is not None else cycle.start
    if hi <= lo:
        return buckets
    covers = [
        (max(node.start, lo), min(node.end, hi), depth, categorize(node.name))
        for node, depth in _descendants(cycle)
        if min(node.end, hi) > max(node.start, lo)
    ]
    boundaries = sorted(
        {lo, hi}
        | {start for start, _, _, _ in covers}
        | {end for _, end, _, _ in covers}
    )
    for left, right in zip(boundaries, boundaries[1:]):
        if right <= lo or left >= hi:
            continue
        mid = (left + right) / 2.0
        best_depth, best_cat = -1, "other"
        for start, end, depth, cat in covers:
            if start <= mid < end and depth > best_depth:
                best_depth, best_cat = depth, cat
        buckets[best_cat] += right - left
    return buckets


def critical_chain(node: SpanNode) -> list[tuple[str, float]]:
    """The dominant descent: at each level, the longest finished child."""
    chain: list[tuple[str, float]] = []
    current = node
    while True:
        finished = [c for c in current.children if c.end is not None]
        if not finished:
            break
        heaviest = max(finished, key=lambda c: (c.duration, -c.span_id))
        chain.append((heaviest.label(), heaviest.duration))
        current = heaviest
    return chain


def cycle_breakdowns(spans: Iterable) -> list[CycleBreakdown]:
    """One :class:`CycleBreakdown` per finished ``cycle`` span."""
    roots, by_id = build_tree(spans)
    out: list[CycleBreakdown] = []
    for node in by_id.values():
        if node.name != "cycle" or node.end is None:
            continue
        out.append(
            CycleBreakdown(
                wave=int(node.fields.get("wave", len(out) + 1)),
                start=node.start,
                duration=node.duration,
                buckets=_attribute(node),
                chain=critical_chain(node),
            )
        )
    out.sort(key=lambda b: (b.start, b.wave))
    return out


def makespan(spans: Iterable) -> float:
    """The run's measured wall (or virtual) extent.

    The ``run`` span when present; otherwise the envelope of all
    finished spans.
    """
    roots, by_id = build_tree(spans)
    runs = [
        node for node in by_id.values()
        if node.name == "run" and node.end is not None
    ]
    if runs:
        return sum(node.duration for node in runs)
    finished = [n for n in by_id.values() if n.end is not None]
    if not finished:
        return 0.0
    return max(n.end for n in finished) - min(n.start for n in finished)


def coverage(spans: Iterable) -> float:
    """Σ per-cycle critical-path time over the measured makespan.

    The acceptance self-check: with cycles back to back inside the
    run span this lands within a few percent of 1.0; a low value
    means spans are missing or the clock rules were violated.
    """
    total = makespan(spans)
    if total <= 0:
        return 0.0
    return sum(b.duration for b in cycle_breakdowns(spans)) / total


# -- shard attribution -------------------------------------------------------------------


@dataclass
class ShardAttribution:
    """Where the partitioned matcher's shard time went across a run.

    Built from ``match.flush`` spans: every flush carries its
    ``shard_seconds`` — wall seconds on the serial substrate, virtual
    charges on DES, and on **process** worker self-times reported over
    IPC (they overlap in parent wall time).
    """

    #: Finished ``match.flush`` spans observed.
    flushes: int
    #: shard index -> summed busy seconds (virtual or worker-reported).
    shard_seconds: dict[int, float]
    #: Σ flush-span durations (the parent-side cost of the barriers).
    flush_wall: float
    #: IPC payload bytes (process backend; 0 elsewhere).
    ipc_bytes: int

    @property
    def busy(self) -> float:
        """Total shard busy time across the run."""
        return sum(self.shard_seconds.values())

    @property
    def imbalance(self) -> float:
        """Busiest shard over mean shard busy time (1.0 = balanced)."""
        if not self.shard_seconds:
            return 1.0
        values = list(self.shard_seconds.values())
        mean = sum(values) / len(values)
        if mean <= 0:
            return 1.0
        return max(values) / mean


def shard_attribution(spans: Iterable) -> ShardAttribution | None:
    """Reduce ``match.flush`` spans to per-shard busy time.

    Returns None when the run used a monolithic matcher (no flush
    spans) — callers skip the report section.
    """
    roots, by_id = build_tree(spans)
    shard_seconds: dict[int, float] = {}
    flushes = 0
    flush_wall = 0.0
    ipc_bytes = 0
    for node in by_id.values():
        if node.name != "match.flush" or node.end is None:
            continue
        flushes += 1
        flush_wall += node.duration
        ipc_bytes += int(node.fields.get("ipc_bytes_out", 0))
        ipc_bytes += int(node.fields.get("ipc_bytes_in", 0))
        for index, seconds in enumerate(node.fields["shard_seconds"]):
            shard_seconds[index] = (
                shard_seconds.get(index, 0.0) + float(seconds)
            )
    if not flushes:
        return None
    return ShardAttribution(
        flushes=flushes,
        shard_seconds=shard_seconds,
        flush_wall=flush_wall,
        ipc_bytes=ipc_bytes,
    )


# -- abort attribution -------------------------------------------------------------------


@dataclass
class AbortChain:
    """One rule-(ii) abort mapped back to its cause."""

    victim_rule: str
    victim_txn: str
    victim_span: int
    committer_rule: str
    committer_txn: str
    committer_span: int
    objs: tuple[str, ...]


def abort_chains(spans: Iterable) -> list[AbortChain]:
    """Every ``rc_wa_abort`` link as a victim → committer chain."""
    roots, by_id = build_tree(spans)
    out: list[AbortChain] = []
    for node in by_id.values():
        for target_id, kind in node.links:
            if kind != "rc_wa_abort":
                continue
            committer = by_id.get(target_id)
            out.append(
                AbortChain(
                    victim_rule=str(node.fields.get("rule", "?")),
                    victim_txn=str(node.fields.get("txn", "?")),
                    victim_span=node.span_id,
                    committer_rule=str(
                        committer.fields.get("rule", "?")
                        if committer is not None else "?"
                    ),
                    committer_txn=str(
                        node.fields.get("aborted_by_txn")
                        or (
                            committer.fields.get("txn", "?")
                            if committer is not None else "?"
                        )
                    ),
                    committer_span=target_id,
                    objs=tuple(
                        str(o)
                        for o in node.fields.get("conflict_objs", ())
                    ),
                )
            )
    out.sort(key=lambda c: (c.victim_span, c.committer_span))
    return out


@dataclass
class HeldBack:
    """One candidate wave admission cut from a cycle.

    ``cycle`` starts with the held rule and follows the precedence
    edges through the admitted rules it would have tied into a ring;
    ``objs`` are the two objects on its own edges — what it reads that
    ``cycle[1]`` writes, what ``cycle[-1]`` reads that it writes.
    """

    wave: int
    rule: str
    cycle: tuple[str, ...]
    objs: tuple[str, ...]


def _records(spans: Iterable, name: str) -> list[SpanNode]:
    """Every span called ``name``, in recording order."""
    roots, by_id = build_tree(spans)
    return [node for node in by_id.values() if node.name == name]


def held_backs(spans: Iterable) -> list[HeldBack]:
    """Every ``held`` record, in the order the waves decided them."""
    return [
        HeldBack(
            wave=int(node.fields.get("wave", 0)),
            rule=str(node.fields.get("rule", "?")),
            cycle=tuple(map(str, node.fields.get("cycle", ()))),
            objs=tuple(map(str, node.fields.get("objs", ()))),
        )
        for node in _records(spans, "held")
    ]


@dataclass
class OrderedFirst:
    """One reader that acted before a writer ranked above it."""

    wave: int
    reader_rule: str
    writer_rule: str
    obj: str


def ordered_firsts(spans: Iterable) -> list[OrderedFirst]:
    """Every ``ordered`` record, in the order the waves decided them."""
    return [
        OrderedFirst(
            wave=int(node.fields.get("wave", 0)),
            reader_rule=str(node.fields.get("reader", "?")),
            writer_rule=str(node.fields.get("writer", "?")),
            obj=str(node.fields.get("obj", "?")),
        )
        for node in _records(spans, "ordered")
    ]
