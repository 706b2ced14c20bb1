"""The hierarchical dataset abstraction Reptile is initialized with (§2.1).

A :class:`HierarchicalDataset` bundles the base fact relation, its dimension
hierarchies, the measure attribute(s), and any auxiliary datasets the user
registers (§3.3.2). Auxiliary datasets join to the facts on a subset of
dimension attributes and contribute extra predictive measures (e.g. the
satellite rainfall estimates of Example 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .hierarchy import Dimensions, HierarchyError
from .relation import Relation


class DatasetError(ValueError):
    """Raised for inconsistent dataset definitions."""


#: The largest |x| a measure cell may hold. Fewer than 1e19 rows fit
#: in any memory, so every roll-up's Σ|x| stays below 1e89: its total
#: and total² and its sum of squares below 1e178, and the EM fit's
#: products of a variance and a residual sum (~x³) below 1e267, all
#: finite in float64 (max 1.8e308). On the demo, a fit over two cells
#: of 1e105 already overflowed to NaN.
MEASURE_LIMIT = 1e70


def measure_fault(values: np.ndarray) -> str | None:
    """Why a measure column's cells may not enter a dataset, or None:
    a NaN or ±inf cell, or one whose |x| passes :data:`MEASURE_LIMIT`.
    One min/max pass, no temporary array."""
    if not len(values):
        return None
    largest = max(-float(values.min()), float(values.max()))
    if largest <= MEASURE_LIMIT:
        return None
    if not np.isfinite(largest):  # a NaN cell makes min and max NaN
        return "is not finite: NaN or ±inf in a row"
    return (f"is too large: a cell's |x| passes {MEASURE_LIMIT:g}, "
            f"where roll-ups and fits overflow")


@dataclass(frozen=True)
class AuxiliaryDataset:
    """An auxiliary dataset registration (§3.3.2).

    Parameters
    ----------
    name:
        Identifier used for the derived feature columns.
    relation:
        The auxiliary relation itself.
    join_on:
        Dimension attributes of the base dataset that the auxiliary data
        keys on. The auxiliary measures become applicable once the current
        drill-down level includes all of ``join_on``.
    measures:
        The auxiliary relation's measure attributes to use as features.
    """

    name: str
    relation: Relation
    join_on: tuple[str, ...]
    measures: tuple[str, ...]

    def __init__(self, name: str, relation: Relation,
                 join_on: Sequence[str], measures: Sequence[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "join_on", tuple(join_on))
        object.__setattr__(self, "measures", tuple(measures))
        for a in self.join_on + self.measures:
            if a not in relation.schema:
                raise DatasetError(
                    f"auxiliary dataset {name!r} lacks attribute {a!r}")
        for m in self.measures:
            if not relation.schema[m].is_measure():
                raise DatasetError(f"auxiliary dataset {name!r} measure "
                                   f"{m!r} is not a measure attribute")

    def lookup(self) -> dict[tuple, dict[str, float]]:
        """Map join key -> {measure: value}, averaging duplicate keys.

        Built once from the encoded join-key code columns (one bincount
        per measure instead of a per-row Python accumulation loop) and
        memoized on the registration: auxiliary datasets are immutable
        (the caching layer's ``spec_signature`` already relies on this),
        so every feature build after the first reuses the same mapping
        instead of re-materializing ``{tuple: dict}`` over full row
        dicts on each access.
        """
        cached = self.__dict__.get("_lookup_cache")
        if cached is not None:
            return cached
        gidx = self.relation.group_index(list(self.join_on))
        counts = np.bincount(gidx.gids, minlength=gidx.n_groups)
        means = {m: np.bincount(gidx.gids,
                                weights=self.relation.measure_array(m),
                                minlength=gidx.n_groups) / counts
                 for m in self.measures}
        result = {key: {m: float(means[m][i]) for m in self.measures}
                  for i, key in enumerate(gidx.keys())}
        object.__setattr__(self, "_lookup_cache", result)
        return result


class HierarchicalDataset:
    """Base relation + hierarchies + measures + auxiliary data.

    This is the object passed to :class:`repro.core.session.Reptile`.
    The relation typed every column when it was built (each dimension
    column holds one key cell type); here the measure must be a measure
    attribute and every measure cell finite with |x| at most
    :data:`MEASURE_LIMIT`, else :class:`DatasetError` — the rule ingest
    applies to each delta's cells (a NaN cell could never be retracted,
    and a NaN or an overflowing sum poisons every fit over its groups).
    ``validate=False`` skips only the hierarchy FD check.
    """

    def __init__(self, relation: Relation, dimensions: Dimensions,
                 measure: str, *, validate: bool = True,
                 auxiliary: Sequence[AuxiliaryDataset] = ()):
        self.relation = relation
        self.dimensions = dimensions
        self.measure = measure
        self.auxiliary: dict[str, AuxiliaryDataset] = {}
        if measure not in relation.schema:
            raise DatasetError(f"measure {measure!r} not in relation schema")
        if not relation.schema[measure].is_measure():
            raise DatasetError(f"{measure!r} is not a measure attribute")
        for a in dimensions.attributes():
            if a not in relation.schema:
                raise DatasetError(
                    f"hierarchy attribute {a!r} not in relation schema")
        fault = measure_fault(relation.measure_array(measure))
        if fault is not None:
            raise DatasetError(f"measure {measure!r} {fault}")
        if validate:
            try:
                dimensions.validate(relation)
            except HierarchyError as exc:
                raise DatasetError(str(exc)) from exc
        for aux in auxiliary:
            self.add_auxiliary(aux)

    @classmethod
    def build(cls, relation: Relation,
              hierarchies: Mapping[str, Sequence[str]], measure: str,
              **kwargs) -> "HierarchicalDataset":
        """Convenience constructor from a plain hierarchy mapping."""
        return cls(relation, Dimensions.from_mapping(hierarchies), measure,
                   **kwargs)

    # -- auxiliary data -------------------------------------------------------------
    def add_auxiliary(self, aux: AuxiliaryDataset) -> None:
        """Register an auxiliary dataset (§3.3.2).

        Each join column must hold the base dimension column's cell
        type: with another one (``"1986"`` against ``1986``) the join
        would match no group, so it raises :class:`DatasetError`.
        """
        if aux.name in self.auxiliary:
            raise DatasetError(f"duplicate auxiliary dataset {aux.name!r}")
        for a in aux.join_on:
            try:
                self.dimensions.hierarchy_of(a)
            except HierarchyError:
                raise DatasetError(
                    f"auxiliary dataset {aux.name!r} joins on {a!r}, which is "
                    f"not a dimension attribute") from None
            want = self.relation.encoding(a).cell_type
            got = aux.relation.encoding(a).cell_type
            if want is not None and got is not None and got is not want:
                raise DatasetError(
                    f"auxiliary dataset {aux.name!r} joins on {a!r} with "
                    f"{got.__name__} cells, but the dimension column holds "
                    f"{want.__name__} cells")
        self.auxiliary[aux.name] = aux

    def applicable_auxiliary(self, group_by: Sequence[str]
                             ) -> list[AuxiliaryDataset]:
        """Auxiliary datasets whose join keys are all in ``group_by``."""
        grouped = set(group_by)
        return [aux for aux in self.auxiliary.values()
                if set(aux.join_on) <= grouped]

    # -- navigation helpers -----------------------------------------------------------
    def attribute_domain(self, attribute: str) -> list:
        """Distinct values of a dimension attribute, sorted.

        Served from the relation's dictionary encoding — the
        domain is already the distinct value set, and is shared with the
        cube and the serving fingerprints.
        """
        enc = self.relation.encoding(attribute)
        present = np.unique(enc.codes)
        if len(present) == enc.cardinality:
            domain = list(enc.domain)
        else:
            # Derived relations can share a domain wider than their rows;
            # report only the values actually present.
            domain = enc.decode(present)
        return domain if enc.domain_sorted else sorted(domain)

    def leaf_group_by(self) -> tuple[str, ...]:
        """The most specific group-by: every hierarchy fully drilled."""
        return self.dimensions.attributes()

    def __repr__(self) -> str:
        dims = {h.name: list(h.attributes) for h in self.dimensions}
        return (f"HierarchicalDataset(n={len(self.relation)}, dims={dims}, "
                f"measure={self.measure!r})")

