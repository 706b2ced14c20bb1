"""Schema metadata for the in-memory relational substrate.

A :class:`Schema` is an ordered collection of named, typed attributes. It is
deliberately small: Reptile only needs dimension attributes (categorical,
hashable values) and measure attributes (floats), so the type system
distinguishes just those two kinds plus a generic fallback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator


class AttributeKind(enum.Enum):
    """Role an attribute plays in a hierarchical dataset."""

    DIMENSION = "dimension"
    MEASURE = "measure"
    OTHER = "other"


@dataclass(frozen=True)
class Attribute:
    """A single named attribute.

    Parameters
    ----------
    name:
        Attribute name, unique within its schema.
    kind:
        Whether the attribute is a dimension (categorical, groupable),
        a measure (numeric, aggregatable), or neither.
    """

    name: str
    kind: AttributeKind = AttributeKind.OTHER

    def is_dimension(self) -> bool:
        return self.kind is AttributeKind.DIMENSION

    def is_measure(self) -> bool:
        return self.kind is AttributeKind.MEASURE


class SchemaError(ValueError):
    """Raised for malformed schemas or schema mismatches."""


class Schema:
    """An ordered, duplicate-free list of :class:`Attribute`.

    Schemas are immutable; all "mutating" operations return new schemas.
    """

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute | str]):
        attrs: list[Attribute] = []
        for a in attributes:
            if isinstance(a, str):
                a = Attribute(a)
            attrs.append(a)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self._attributes = tuple(attrs)
        self._index = {a.name: i for i, a in enumerate(attrs)}

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            try:
                return self._attributes[self._index[key]]
            except KeyError:
                raise SchemaError(f"no attribute named {key!r}") from None
        return self._attributes[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(a.name for a in self._attributes)
        return f"Schema([{inner}])"

    # -- accessors ----------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(a.name for a in self._attributes)

    def position(self, name: str) -> int:
        """Index of attribute ``name`` in schema order."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def dimensions(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.is_dimension())

    def measures(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.is_measure())

    # -- algebra ------------------------------------------------------------------
    def union(self, other: "Schema") -> "Schema":
        """Concatenation of two schemas with disjoint attribute names."""
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise SchemaError(f"schemas overlap on {sorted(overlap)}")
        return Schema(list(self._attributes) + list(other._attributes))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Schema with attributes renamed according to ``mapping``."""
        out = []
        for a in self._attributes:
            out.append(Attribute(mapping.get(a.name, a.name), a.kind))
        return Schema(out)


def dimension(name: str) -> Attribute:
    """Shorthand constructor for a dimension attribute."""
    return Attribute(name, AttributeKind.DIMENSION)


def measure(name: str) -> Attribute:
    """Shorthand constructor for a measure attribute."""
    return Attribute(name, AttributeKind.MEASURE)
