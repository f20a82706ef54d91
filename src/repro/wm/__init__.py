"""Working-memory substrate: the "database" of the production system.

The paper stores working memory in a DBMS; here working memory is an
in-memory relational store with schemas, an undo log
(so a production firing can be aborted, as the Rc/Ra/Wa scheme of
Section 4.3 requires), and snapshots (so the execution-graph search of
Section 3 can explore alternative futures).

Public classes
--------------
:class:`~repro.wm.element.WME`
    An immutable working-memory element: a relation name plus an
    attribute/value mapping, stamped with a creation timetag.
:class:`~repro.wm.schema.RelationSchema` / :class:`~repro.wm.schema.Catalog`
    Relational schemas and the system catalog.
:class:`~repro.wm.memory.WorkingMemory`
    The mutable store with make/modify/remove and listeners.  It keeps
    two maps — timetag → WME and relation → its WMEs — and no value
    postings: the Rete alpha memories and TREAT's own postings are the
    match-side indexes, each kept by the matcher that reads it.
:class:`~repro.wm.undo.UndoLog`
    Records inverse operations for transactional abort.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "element": ("WME", "Timetag"),
        "schema": ("RelationSchema", "Catalog"),
        "memory": ("WorkingMemory", "WMDelta"),
        "undo": ("UndoLog",),
        "snapshot": ("WMSnapshot",),
        "storage": (
            "DurableStore", "DURABILITY_MODES", "STORAGE_FAULT_SITES",
            "SegmentInfo", "RecoveryReport", "serialize_wme",
            "deserialize_wme",
        ),
    },
)
