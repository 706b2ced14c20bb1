"""Dimension hierarchies (§3.1) and their functional-dependency structure.

A dimension's hierarchy ``H = [A1, ..., Ak]`` is an ordered attribute list
where every more specific attribute functionally determines every less
specific one (``An → Am`` for ``m < n``): a village determines its district,
a day determines its month. :class:`Hierarchy` records the order;
:class:`Dimensions` holds all hierarchies of a dataset and answers
navigation queries (next drill-down attribute, ancestors, prefixes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .relation import Relation


class HierarchyError(ValueError):
    """Raised for malformed hierarchies or FD violations."""


def fd_violation(parent_codes: np.ndarray, child_codes: np.ndarray,
                 n_child: int) -> int | None:
    """Where the FD ``child → parent`` first fails over aligned codes.

    The one FD decision of registration and ingest: scatter each row's
    parent code to its child code (a table of ``n_child`` slots; codes
    absent from the rows are never read), and the FD holds iff gathering
    it back returns every row's own parent code. Returns None when it
    holds, else the first row whose parent differs from the parent of
    the first row with its child code.
    """
    parent_of = np.empty(n_child, dtype=parent_codes.dtype)
    parent_of[child_codes] = parent_codes
    if np.array_equal(parent_of[child_codes], parent_codes):
        return None
    _, first = np.unique(child_codes, return_index=True)
    parent_of[child_codes[first]] = parent_codes[first]
    return int(np.argmax(parent_of[child_codes] != parent_codes))


@dataclass(frozen=True)
class Hierarchy:
    """An ordered list of attributes, least to most specific.

    ``Hierarchy("geo", ["district", "village"])`` means
    ``village → district`` (each village belongs to exactly one district).
    """

    name: str
    attributes: tuple[str, ...]

    def __init__(self, name: str, attributes: Sequence[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        if not self.attributes:
            raise HierarchyError(f"hierarchy {name!r} has no attributes")
        if len(set(self.attributes)) != len(self.attributes):
            raise HierarchyError(
                f"hierarchy {name!r} repeats attributes: {self.attributes}")

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    @property
    def root(self) -> str:
        """Least specific attribute."""
        return self.attributes[0]

    @property
    def leaf(self) -> str:
        """Most specific attribute."""
        return self.attributes[-1]

    def level(self, attribute: str) -> int:
        """0-based depth of ``attribute`` (0 = least specific)."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise HierarchyError(
                f"{attribute!r} is not in hierarchy {self.name!r}") from None

    def prefix(self, depth: int) -> tuple[str, ...]:
        """The ``depth`` least-specific attributes (depth may be 0)."""
        if not 0 <= depth <= len(self.attributes):
            raise HierarchyError(
                f"depth {depth} out of range for hierarchy {self.name!r}")
        return self.attributes[:depth]

    def next_attribute(self, depth: int) -> str | None:
        """Attribute revealed by drilling from ``depth`` to ``depth+1``."""
        if depth < len(self.attributes):
            return self.attributes[depth]
        return None

    def more_specific(self, a: str, b: str) -> bool:
        """True iff ``a`` is strictly more specific than ``b``."""
        return self.level(a) > self.level(b)

    def validate_fds(self, relation: Relation) -> None:
        """Check ``A_{i+1} → A_i`` holds in ``relation`` for all levels.

        Raises :class:`HierarchyError` on the first violated dependency,
        and :class:`~repro.relational.encoding.EncodingError` when a
        hierarchy column holds an unhashable cell.
        :func:`fd_violation` decides over the encoded code arrays; the
        per-row loop only runs to reconstruct the exact error message
        once a violation is detected.
        """
        for parent, child in zip(self.attributes, self.attributes[1:]):
            pe = relation.encoding(parent)
            ce = relation.encoding(child)
            # Sized by the child domain, which a derived relation may
            # share wider than its rows.
            if fd_violation(pe.codes, ce.codes, ce.cardinality) is None:
                continue
            seen: dict = {}
            for p, c in zip(relation.column(parent), relation.column(child)):
                # Parents compare like dict keys, as the encoding does:
                # one NaN object repeated is one parent.
                if c in seen and seen[c] is not p and seen[c] != p:
                    raise HierarchyError(
                        f"FD {child} → {parent} violated: {c!r} maps to both "
                        f"{seen[c]!r} and {p!r}")
                seen[c] = p


class Dimensions:
    """All hierarchies of a dataset, with navigation helpers."""

    def __init__(self, hierarchies: Iterable[Hierarchy]):
        self._hierarchies: dict[str, Hierarchy] = {}
        owner: dict[str, str] = {}
        for h in hierarchies:
            if h.name in self._hierarchies:
                raise HierarchyError(f"duplicate hierarchy name {h.name!r}")
            for a in h.attributes:
                if a in owner:
                    raise HierarchyError(
                        f"attribute {a!r} appears in hierarchies "
                        f"{owner[a]!r} and {h.name!r}")
                owner[a] = h.name
            self._hierarchies[h.name] = h
        self._owner = owner

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[str]]) -> "Dimensions":
        """``Dimensions({"geo": ["district", "village"], "time": ["year"]})``."""
        return cls(Hierarchy(name, attrs) for name, attrs in mapping.items())

    # -- container protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._hierarchies)

    def __iter__(self) -> Iterator[Hierarchy]:
        return iter(self._hierarchies.values())

    def __contains__(self, name: str) -> bool:
        return name in self._hierarchies

    def __getitem__(self, name: str) -> Hierarchy:
        try:
            return self._hierarchies[name]
        except KeyError:
            raise HierarchyError(f"no hierarchy named {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._hierarchies)

    def attributes(self) -> tuple[str, ...]:
        """Every dimension attribute, grouped by hierarchy in order."""
        out: list[str] = []
        for h in self:
            out.extend(h.attributes)
        return tuple(out)

    def hierarchy_of(self, attribute: str) -> Hierarchy:
        """The hierarchy that owns ``attribute``."""
        try:
            return self._hierarchies[self._owner[attribute]]
        except KeyError:
            raise HierarchyError(
                f"attribute {attribute!r} belongs to no hierarchy") from None

    def validate(self, relation: Relation) -> None:
        """Validate every hierarchy's FDs against ``relation``."""
        for h in self:
            h.validate_fds(relation)


@dataclass
class DrillState:
    """How far each hierarchy has been drilled into.

    ``depths[name]`` counts revealed attributes of hierarchy ``name``.
    The group-by attribute set of the current view is the union of all
    hierarchy prefixes.
    """

    dimensions: Dimensions
    depths: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for h in self.dimensions:
            self.depths.setdefault(h.name, 0)
        for name, depth in self.depths.items():
            if not 0 <= depth <= len(self.dimensions[name]):
                raise HierarchyError(
                    f"depth {depth} out of range for hierarchy {name!r}")

    @classmethod
    def from_groupby(cls, dimensions: Dimensions,
                     group_by: Sequence[str]) -> "DrillState":
        """Infer drill depths from a group-by attribute list.

        The attributes of each hierarchy that appear in ``group_by`` must
        form a prefix of that hierarchy (you cannot group by village without
        district in a strict drill-down workflow).
        """
        depths: dict[str, int] = {h.name: 0 for h in dimensions}
        for a in group_by:
            h = dimensions.hierarchy_of(a)
            depths[h.name] = max(depths[h.name], h.level(a) + 1)
        state = cls(dimensions, depths)
        grouped = set(group_by)
        for h in dimensions:
            for a in h.prefix(depths[h.name]):
                if a not in grouped:
                    raise HierarchyError(
                        f"group-by {sorted(grouped)} skips {a!r}; drill-down "
                        f"prefixes must be contiguous")
        return state

    def group_by(self) -> tuple[str, ...]:
        """Current group-by attributes (hierarchy prefixes, in order)."""
        out: list[str] = []
        for h in self.dimensions:
            out.extend(h.prefix(self.depths[h.name]))
        return tuple(out)

    def candidates(self) -> list[tuple[Hierarchy, str]]:
        """Hierarchies that can still drill down, with their next attribute."""
        out = []
        for h in self.dimensions:
            nxt = h.next_attribute(self.depths[h.name])
            if nxt is not None:
                out.append((h, nxt))
        return out

    def drill(self, hierarchy: str) -> "DrillState":
        """A new state one level deeper along ``hierarchy``."""
        h = self.dimensions[hierarchy]
        depth = self.depths[h.name]
        if h.next_attribute(depth) is None:
            raise HierarchyError(f"hierarchy {hierarchy!r} is fully drilled")
        depths = dict(self.depths)
        depths[h.name] = depth + 1
        return DrillState(self.dimensions, depths)
