"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the production system can catch one base class.  The
sub-hierarchies mirror the subsystems: working memory, rule language,
matching, locking, transactions, and the simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Working memory
# ---------------------------------------------------------------------------


class WorkingMemoryError(ReproError):
    """Base class for working-memory errors."""


class SchemaError(WorkingMemoryError):
    """A schema definition or a WME violating its schema."""


class UnknownElementError(WorkingMemoryError):
    """An operation referenced a WME timetag not present in memory."""


class StorageFailure(WorkingMemoryError):
    """A durable-store write failed (real I/O error or injected fault)."""


class StorageError(WorkingMemoryError):
    """A durable-store directory holds state this version cannot open."""


class DuplicateSchemaError(SchemaError):
    """A relation schema was declared twice with conflicting attributes."""


# ---------------------------------------------------------------------------
# Rule language
# ---------------------------------------------------------------------------


class LanguageError(ReproError):
    """Base class for rule-language errors."""


class ParseError(LanguageError):
    """The rule DSL text could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ValidationError(LanguageError):
    """A structurally valid production violates a semantic rule.

    Examples: an RHS action referencing a variable never bound on the
    LHS, or a ``modify`` action naming a negated condition element.
    """


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


class MatchError(ReproError):
    """Base class for match-phase errors."""


# ---------------------------------------------------------------------------
# Transactions and locking
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction errors."""


class TransactionAborted(TransactionError):
    """Raised inside a transaction that has been aborted.

    The Rc/Ra/Wa scheme of Section 4.3 aborts Rc holders when a
    conflicting Wa holder commits first; the engine translates that
    abort into this exception so the firing unwinds cleanly.
    """

    def __init__(self, txn_id: str, reason: str = "") -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(f"transaction {txn_id} aborted{detail}")
        self.txn_id = txn_id
        self.reason = reason


class NotSerializable(TransactionError):
    """A firing was about to commit after another firing overwrote
    something it read: the commit sequence would not be a serial
    order (:class:`repro.txn.schedule.Certifier`)."""


class LockError(ReproError):
    """Base class for lock-manager errors."""


class DeadlockDetected(LockError):
    """The waits-for graph contains a cycle involving the requester."""

    def __init__(self, victim: str, cycle: tuple[str, ...]) -> None:
        super().__init__(
            f"deadlock: victim {victim}, cycle {' -> '.join(cycle)}"
        )
        self.victim = victim
        self.cycle = cycle


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class InjectedFault(ReproError):
    """Base class for failures raised on purpose by the fault layer.

    Engines treat these as *survivable*: the firing is rolled back and
    re-driven (or abandoned) by the retry policy, never propagated as a
    crash of the run itself.
    """


class FiringCrashed(InjectedFault):
    """A firing thread was killed after executing its RHS but before
    its commit was recorded — the mid-flight crash scenario."""

    def __init__(self, txn_id: str, rule_name: str = "") -> None:
        rule = f" ({rule_name})" if rule_name else ""
        super().__init__(f"firing {txn_id}{rule} crashed before commit")
        self.txn_id = txn_id
        self.rule_name = rule_name


# ---------------------------------------------------------------------------
# Simulator and engine
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-simulator errors."""


class EngineError(ReproError):
    """Base class for interpreter/engine errors."""
