"""Relation schemas and the system catalog.

A *database* production system (the paper's setting, in contrast to
main-memory OPS5) stores working memory in relations.  This module
provides the schema layer: relation declarations with typed attributes,
a system catalog, and validation of WMEs against their declared schema.

The catalog also materializes the paper's observation at the end of
Section 4.3: a relation-level lock "is equivalent to locking the
appropriate tuple in the 'SYSTEM-CATALOG' relation".  The catalog hands
out exactly that lockable key via :meth:`Catalog.catalog_lock_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import DuplicateSchemaError, SchemaError
from repro.wm.element import Scalar, WME

#: Attribute type names accepted in schema declarations.
ATTRIBUTE_TYPES = ("symbol", "int", "float", "number", "bool", "any")

_PYTHON_TYPES: dict[str, tuple[type, ...]] = {
    "symbol": (str,),
    "int": (int,),
    "float": (float, int),
    "number": (int, float),
    "bool": (bool,),
}


@dataclass(frozen=True)
class AttributeDef:
    """One attribute of a relation schema.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"status"``.
    type_name:
        One of :data:`ATTRIBUTE_TYPES`.  ``"any"`` disables checking.
    required:
        When true, every WME of the relation must carry the attribute.
    """

    name: str
    type_name: str = "any"
    required: bool = False

    def __post_init__(self) -> None:
        if self.type_name not in ATTRIBUTE_TYPES:
            raise SchemaError(
                f"attribute {self.name!r}: unknown type {self.type_name!r}; "
                f"expected one of {ATTRIBUTE_TYPES}"
            )

    def accepts(self, value: Scalar) -> bool:
        """True when ``value`` is permissible for this attribute."""
        if value is None or self.type_name == "any":
            return True
        expected = _PYTHON_TYPES[self.type_name]
        if isinstance(value, bool) and bool not in expected:
            # bool is an int subclass; reject it for int/number columns
            # so schemas stay meaningful.
            return False
        return isinstance(value, expected)


@dataclass(frozen=True)
class RelationSchema:
    """Schema for one working-memory relation (OPS5: *literalize*).

    Parameters
    ----------
    name:
        Relation (class) name.
    attributes:
        Attribute definitions, keyed by name.
    key:
        Optional name of the primary-key attribute; used for tuple-level
        lock granularity and for ``modify`` identity.
    """

    name: str
    attributes: tuple[AttributeDef, ...] = ()
    key: str | None = None

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(
                f"relation {self.name!r}: duplicate attribute names in {names}"
            )
        if self.key is not None and self.key not in names:
            raise SchemaError(
                f"relation {self.name!r}: key {self.key!r} is not an attribute"
            )

    @staticmethod
    def define(
        name: str,
        attributes: Iterable[str | AttributeDef] | Mapping[str, str] = (),
        key: str | None = None,
    ) -> "RelationSchema":
        """Convenience constructor.

        ``attributes`` may be a list of attribute names (all typed
        ``any``), a list of :class:`AttributeDef`, or a mapping of
        name to type-name:

        >>> RelationSchema.define("order", {"id": "int", "status": "symbol"},
        ...                       key="id").key
        'id'
        """
        defs: list[AttributeDef] = []
        if isinstance(attributes, Mapping):
            defs = [AttributeDef(n, t) for n, t in attributes.items()]
        else:
            for item in attributes:
                if isinstance(item, AttributeDef):
                    defs.append(item)
                else:
                    defs.append(AttributeDef(item))
        return RelationSchema(name, tuple(defs), key)

    def attribute(self, name: str) -> AttributeDef | None:
        """Return the definition for ``name``, or ``None`` if undeclared."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def validate(self, wme: WME) -> None:
        """Raise :class:`SchemaError` when ``wme`` violates this schema."""
        if wme.relation != self.name:
            raise SchemaError(
                f"WME relation {wme.relation!r} validated against schema "
                f"{self.name!r}"
            )
        declared = {a.name for a in self.attributes}
        for attr_name, value in wme.items:
            if self.attributes and attr_name not in declared:
                raise SchemaError(
                    f"relation {self.name!r} has no attribute {attr_name!r}"
                )
            definition = self.attribute(attr_name)
            if definition is not None and not definition.accepts(value):
                raise SchemaError(
                    f"relation {self.name!r}.{attr_name}: value {value!r} "
                    f"does not satisfy type {definition.type_name!r}"
                )
        for attr in self.attributes:
            if attr.required and attr.name not in wme:
                raise SchemaError(
                    f"relation {self.name!r}: required attribute "
                    f"{attr.name!r} missing from {wme}"
                )


class Catalog:
    """The system catalog: the set of declared relation schemas.

    The catalog is itself modeled as a relation (``SYSTEM-CATALOG``)
    whose tuples are the schemas, so relation-level lock escalation can
    target a concrete lockable object (Section 4.3, last paragraph):
    :meth:`catalog_lock_key`, which
    ``Instantiation.lock_footprint()`` reads for negated condition
    elements and writes for every membership change.
    """

    #: Name of the distinguished catalog relation used for escalation.
    SYSTEM_RELATION = "SYSTEM-CATALOG"

    def __init__(self, schemas: Iterable[RelationSchema] = ()) -> None:
        self._schemas: dict[str, RelationSchema] = {}
        for schema in schemas:
            self.declare(schema)

    def declare(self, schema: RelationSchema) -> RelationSchema:
        """Register ``schema``; re-declaring identically is a no-op.

        Raises
        ------
        DuplicateSchemaError
            If a different schema with the same name already exists.
        """
        existing = self._schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise DuplicateSchemaError(
                f"relation {schema.name!r} already declared with a "
                f"different schema"
            )
        self._schemas[schema.name] = schema
        return schema

    def get(self, name: str) -> RelationSchema | None:
        """Return the schema for ``name``, or ``None`` if undeclared."""
        return self._schemas.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    def validate(self, wme: WME) -> None:
        """Validate ``wme`` against its schema, if one is declared.

        Undeclared relations are allowed (schema-on-write is opt-in),
        matching OPS5 where ``literalize`` is advisory.
        """
        schema = self._schemas.get(wme.relation)
        if schema is not None:
            schema.validate(wme)

    @staticmethod
    def catalog_lock_key(relation: str) -> tuple[str, str]:
        """The lockable object representing the whole ``relation``.

        A relation-level lock (e.g. for a negative condition that
        depends on the *absence* of tuples) is "equivalent to locking
        the appropriate tuple in the 'SYSTEM-CATALOG' relation".
        """
        return (Catalog.SYSTEM_RELATION, relation)
