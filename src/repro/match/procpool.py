"""Multi-process match substrate: worker loop, wire format, framing.

The paper's intra-phase match parallelism (Sections 2 and 5) promises
real speedup on multiple *processors* — but CPython's GIL serializes
the :class:`~repro.match.partitioned.PartitionedMatcher` thread
backend, so its Figure 5.x speedup shapes were only ever demonstrated
on virtual (DES) clocks.  This module is the escape hatch: a
persistent pool of **worker processes**, each owning one rule shard
and a full replica of working memory, kept consistent by streaming
the same WM deltas the thread backend already replays.

Design (share-nothing, rule-partitioned — the rule class the CHR
parallelism survey and "Parallelisable Existential Rules" identify as
safely process-parallel):

* **Replication, not sharing** — each worker holds its own
  :class:`~repro.wm.memory.WorkingMemory` replica and a private inner
  matcher (naive/Rete/TREAT/cond) subscribed to it.  The parent
  streams :class:`~repro.wm.memory.WMDelta` batches; workers apply
  them, match incrementally, and return **conflict-set deltas**
  (instantiation adds/removes), never full conflict sets.
* **Compact wire format** — instantiations cross the boundary as
  ``(rule_name, wme_triples, bindings_items)`` tuples; the parent
  reconstructs against its own canonical
  :class:`~repro.lang.production.Production` objects, so the shared
  conflict set stays bit-identical to the serial oracle.  Compiled
  state (closures, token plans, cached hashes) never crosses: every
  class on the wire has a ``__reduce__`` that strips derived state,
  and workers rebuild plans from the AST on their side
  (``tests/match/test_procpool.py`` pins this).
* **Chunked pickle framing** — messages are length-prefixed pickles
  split into bounded chunks over ``multiprocessing`` pipes, so a huge
  warmup snapshot can't hit platform ``send_bytes`` limits, and the
  parent can count IPC bytes exactly (the ``procpool.bytes`` /
  ``procpool.roundtrips`` counters and per-flush span annotations).
* **Crash containment** — a worker that dies mid-batch surfaces as
  :class:`~repro.errors.MatchError` in the parent (no hang: EOF and
  a poll timeout both trip it); the pool tears down cleanly and the
  partitioned matcher restarts it from a fresh snapshot on next use.

The pool is deliberately *not* a ``concurrent.futures`` executor:
workers are stateful (replica + matcher), so requests must be routed
to the shard that owns the rule, and replies must be collected in
shard order for the deterministic merge.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
from typing import Iterable, Sequence

from repro.errors import MatchError
from repro.lang.production import Production
from repro.match.base import matcher_class
from repro.match.instantiation import Instantiation
from repro.wm.element import WME
from repro.wm.memory import WMDelta, WorkingMemory

#: Frame chunk bound.  ``Connection.send_bytes`` rejects payloads
#: around the signed-32-bit mark on some platforms; staying far below
#: keeps framing portable and bounds peak pipe-buffer pressure.
CHUNK_BYTES = 16 << 20

#: Header layout: total payload length, chunk count.
_HEADER = struct.Struct("<QI")

#: Default seconds the parent waits on a worker reply before declaring
#: it dead.  Generous — match batches are milliseconds; only a truly
#: wedged or killed worker ever trips it.
DEFAULT_TIMEOUT = 120.0


def default_context() -> str:
    """The multiprocessing start method to use.

    ``fork`` when the platform offers it (fast warmup — the worker
    inherits loaded modules), else ``spawn``.  Overridable via the
    ``REPRO_PROCPOOL_CONTEXT`` environment variable; either way the
    protocol is spawn-safe — productions and snapshots are shipped
    explicitly, never inherited.
    """
    configured = os.environ.get("REPRO_PROCPOOL_CONTEXT")
    if configured:
        return configured
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
#
# Everything on the wire is plain tuples of scalars — no live WMEs, no
# Production ASTs in the steady state (productions ship once, at pool
# start / add_production, via their closure-free ``__reduce__``).


def encode_wme(wme: WME) -> tuple:
    """``(relation, items, timetag)`` — the WME's defining fields."""
    return (wme.relation, wme.items, wme.timetag)


def decode_wme(payload: tuple) -> WME:
    relation, items, timetag = payload
    return WME(relation, items, timetag)


def encode_delta(delta: WMDelta) -> tuple:
    return (delta.kind, delta.wme.relation, delta.wme.items,
            delta.wme.timetag)


def decode_delta(payload: tuple) -> WMDelta:
    kind, relation, items, timetag = payload
    return WMDelta(kind, WME(relation, items, timetag))


def encode_instantiation(instantiation: Instantiation) -> tuple:
    """``(rule_name, wme_triples, bindings_items)``.

    ``bindings_items`` materializes lazily from the slot token here,
    on the worker side — the slot index itself never crosses.
    """
    return (
        instantiation.production.name,
        tuple(encode_wme(w) for w in instantiation.wmes),
        instantiation.bindings_items,
    )


def decode_instantiation(
    payload: tuple, productions: dict[str, Production]
) -> Instantiation:
    """Rebuild against the parent's canonical production objects."""
    rule_name, wme_payloads, bindings_items = payload
    return Instantiation(
        productions[rule_name],
        tuple(decode_wme(w) for w in wme_payloads),
        bindings_items,
    )


# ---------------------------------------------------------------------------
# Chunked pickle framing
# ---------------------------------------------------------------------------


def send_message(conn, obj: object) -> int:
    """Frame ``obj`` onto ``conn``; returns payload bytes (sans header)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    total = len(data)
    chunks = max(1, -(-total // CHUNK_BYTES))
    conn.send_bytes(_HEADER.pack(total, chunks))
    for i in range(chunks):
        conn.send_bytes(data[i * CHUNK_BYTES:(i + 1) * CHUNK_BYTES])
    return total


def recv_message(conn, timeout: float | None = None) -> tuple[object, int]:
    """Read one framed message; returns ``(object, payload_bytes)``.

    Raises :class:`EOFError` when the peer is gone and
    :class:`TimeoutError` when ``timeout`` elapses with no header —
    the pool maps both to a dead worker.
    """
    if timeout is not None and not conn.poll(timeout):
        raise TimeoutError(f"no reply within {timeout}s")
    header = conn.recv_bytes()
    total, chunks = _HEADER.unpack(header)
    if chunks == 1:
        data = conn.recv_bytes()
    else:
        parts = [conn.recv_bytes() for _ in range(chunks)]
        data = b"".join(parts)
    if len(data) != total:
        raise MatchError(
            f"framing error: expected {total} payload bytes, "
            f"got {len(data)}"
        )
    return pickle.loads(data), total


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------


def _take_encoded_delta(matcher) -> tuple[tuple, tuple]:
    """The inner matcher's conflict-set delta, encoded and sorted.

    Sorting here (recency-desc, then rule name — mirroring the
    partitioned merge key) makes worker replies deterministic, so a
    wire capture is stable across runs.
    """
    delta = matcher.conflict_set.take_delta()
    key = Instantiation.merge_key
    added = tuple(
        encode_instantiation(i) for i in sorted(delta.added, key=key)
    )
    removed = tuple(
        encode_instantiation(i) for i in sorted(delta.removed, key=key)
    )
    return added, removed


def worker_main(conn, inner_name: str) -> None:
    """One shard's worker: replica store + private inner matcher.

    Commands (request → reply):

    * ``("reset", productions, wme_triples)`` → ``("ok", seconds,
      members, ())`` — rebuild replica and matcher from scratch; the
      reply's "delta" is the full initial membership as adds.
    * ``("replay", delta_payloads)`` → ``("ok", seconds, added,
      removed)`` — apply one batch, match incrementally.
    * ``("add_production", production)`` / ``("remove_production",
      name)`` → ``("ok", seconds, added, removed)``.
    * ``("ping",)`` → ``("ok", 0.0, (), ())`` — liveness probe.
    * ``("close",)`` — exit the loop (no reply).

    Any exception is reported as ``("error", repr, traceback_text)``
    and the loop continues — a malformed request must not take the
    replica down with it.
    """
    memory = WorkingMemory()
    matcher = matcher_class(inner_name)(memory)
    matcher.attach()
    while True:
        try:
            message, _ = recv_message(conn)
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "close":
            break
        try:
            started = time.perf_counter()
            if command == "reset":
                _, productions, wme_triples = message
                memory = WorkingMemory()
                matcher = matcher_class(inner_name)(memory)
                matcher.add_productions(productions)
                matcher.attach()
                for payload in wme_triples:
                    memory.add(decode_wme(payload))
                matcher.conflict_set.take_delta()
                members = tuple(
                    encode_instantiation(i)
                    for i in matcher.conflict_set
                )
                reply = (
                    "ok", time.perf_counter() - started, members, (),
                )
            elif command == "replay":
                _, delta_payloads = message
                for payload in delta_payloads:
                    memory.apply(decode_delta(payload))
                seconds = time.perf_counter() - started
                added, removed = _take_encoded_delta(matcher)
                reply = ("ok", seconds, added, removed)
            elif command == "add_production":
                _, production = message
                matcher.add_production(production)
                seconds = time.perf_counter() - started
                added, removed = _take_encoded_delta(matcher)
                reply = ("ok", seconds, added, removed)
            elif command == "remove_production":
                _, name = message
                matcher.remove_production(name)
                seconds = time.perf_counter() - started
                added, removed = _take_encoded_delta(matcher)
                reply = ("ok", seconds, added, removed)
            elif command == "ping":
                reply = ("ok", 0.0, (), ())
            else:
                reply = ("error", f"unknown command {command!r}", "")
        except Exception as exc:  # noqa: BLE001 - reported to parent
            import traceback

            reply = ("error", repr(exc), traceback.format_exc())
        try:
            send_message(conn, reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ---------------------------------------------------------------------------
# The parent-side pool
# ---------------------------------------------------------------------------


class ShardReply:
    """One worker's decoded reply to a routed command."""

    __slots__ = ("seconds", "added", "removed", "bytes_in")

    def __init__(self, seconds, added, removed, bytes_in) -> None:
        self.seconds = seconds
        self.added = added
        self.removed = removed
        self.bytes_in = bytes_in


class ProcessPool:
    """A persistent worker-process pool, one worker per rule shard.

    Lifecycle: construct, :meth:`start` with per-shard production
    lists and a WM snapshot, then :meth:`replay` batches /
    :meth:`add_production` / :meth:`remove_production`, and finally
    :meth:`shutdown`.  All methods raise :class:`MatchError` (after
    tearing the pool down) when a worker has died — the caller
    restarts by constructing a fresh pool.

    Attributes
    ----------
    roundtrips, bytes_out, bytes_in:
        Cumulative IPC accounting (message payload bytes, both
        directions), feeding the ``procpool.*`` counters and the
        per-flush span annotations.
    """

    def __init__(
        self,
        shards: int,
        inner_name: str,
        context: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if shards < 1:
            raise MatchError(f"need >= 1 worker, got {shards}")
        import multiprocessing

        self.shards = shards
        self.inner_name = inner_name
        self.timeout = timeout
        self._ctx = multiprocessing.get_context(
            context if context is not None else default_context()
        )
        self._processes: list = []
        self._conns: list = []
        self._alive = False
        self.roundtrips = 0
        self.bytes_out = 0
        self.bytes_in = 0
        #: IPC accounting for the most recent fan-out (one "roundtrip"
        #: = one command fanned to every worker and all replies read).
        self.last_bytes_out = 0
        self.last_bytes_in = 0

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive and all(
            p.is_alive() for p in self._processes
        )

    def start(
        self,
        assignments: Sequence[Sequence[Production]],
        snapshot: Iterable[WME],
    ) -> list[ShardReply]:
        """Spawn workers and seed each with its shard + the snapshot.

        Returns per-shard replies whose ``added`` carries the full
        initial conflict-set membership (encoded), in shard order.
        """
        if len(assignments) != self.shards:
            raise MatchError(
                f"expected {self.shards} shard assignments, "
                f"got {len(assignments)}"
            )
        if self._alive:
            self.shutdown()
        self._processes = []
        self._conns = []
        for index in range(self.shards):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, self.inner_name),
                name=f"match-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)
        self._alive = True
        wme_triples = tuple(encode_wme(w) for w in snapshot)
        return self._fan_out(
            [
                ("reset", tuple(assignments[i]), wme_triples)
                for i in range(self.shards)
            ]
        )

    def shutdown(self) -> None:
        """Stop every worker; idempotent, never raises."""
        for conn in self._conns:
            try:
                send_message(conn, ("close",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._processes = []
        self._conns = []
        self._alive = False

    # -- commands ------------------------------------------------------------------------

    def replay(self, deltas: Sequence[WMDelta]) -> list[ShardReply]:
        """Stream one delta batch to every worker; replies in shard order."""
        payloads = tuple(encode_delta(d) for d in deltas)
        return self._fan_out(
            [("replay", payloads)] * self.shards
        )

    def add_production(
        self, shard: int, production: Production
    ) -> ShardReply:
        return self._route(shard, ("add_production", production))

    def remove_production(self, shard: int, name: str) -> ShardReply:
        return self._route(shard, ("remove_production", name))

    def ping(self) -> None:
        """Round-trip every worker (warmup / liveness check)."""
        self._fan_out([("ping",)] * self.shards)

    # -- plumbing ------------------------------------------------------------------------

    def _fan_out(self, messages: Sequence[tuple]) -> list[ShardReply]:
        """Send one message per worker, then collect every reply.

        Sends complete before any receive, so workers run
        concurrently; replies are read in shard order — the order the
        deterministic merge folds them in.
        """
        self._require_alive()
        self.last_bytes_out = 0
        self.last_bytes_in = 0
        for index, message in enumerate(messages):
            sent = self._send(index, message)
            self.bytes_out += sent
            self.last_bytes_out += sent
        replies = [self._recv(index) for index in range(self.shards)]
        self.roundtrips += 1
        return replies

    def _route(self, shard: int, message: tuple) -> ShardReply:
        self._require_alive()
        self.last_bytes_out = 0
        self.last_bytes_in = 0
        sent = self._send(shard, message)
        self.bytes_out += sent
        self.last_bytes_out += sent
        reply = self._recv(shard)
        self.roundtrips += 1
        return reply

    def _require_alive(self) -> None:
        if not self._alive:
            raise MatchError("process pool is not running")

    def _send(self, index: int, message: tuple) -> int:
        try:
            return send_message(self._conns[index], message)
        except (BrokenPipeError, OSError) as exc:
            self._die(index, exc)

    def _recv(self, index: int) -> ShardReply:
        try:
            reply, nbytes = recv_message(
                self._conns[index], timeout=self.timeout
            )
        except (EOFError, OSError, TimeoutError) as exc:
            self._die(index, exc)
        self.bytes_in += nbytes
        self.last_bytes_in += nbytes
        if reply[0] != "ok":
            _, error, trace = reply
            self.shutdown()
            raise MatchError(
                f"match worker {index} failed: {error}\n{trace}"
            )
        _, seconds, added, removed = reply
        return ShardReply(seconds, added, removed, nbytes)

    def _die(self, index: int, exc: Exception):
        """A worker is gone: tear the whole pool down, raise cleanly."""
        exitcode = None
        if index < len(self._processes):
            exitcode = self._processes[index].exitcode
        self.shutdown()
        raise MatchError(
            f"match worker {index} died mid-batch "
            f"(exitcode={exitcode}): {exc!r}; pool shut down — "
            f"it restarts from a fresh snapshot on next use"
        ) from exc

    def stats(self) -> dict[str, object]:
        return {
            "workers": self.shards,
            "alive": self.alive,
            "context": self._ctx.get_start_method(),
            "roundtrips": self.roundtrips,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
        }
