"""User complaints over aggregate query results (§3.1).

A complaint identifies one tuple of the current view (by its group-by
coordinates) and supplies ``f_comp : t → ℝ``, a function of the tuple's
aggregate value that the user wants minimised. The three shapes used
throughout the paper are provided: *too high*, *too low*, and *should be v*
(e.g. ``f_comp(t) = |t[count] − v|``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..relational.aggregates import AggState, decompose, evaluate_composite


class Direction(enum.Enum):
    """Which way the complained value deviates from the user's expectation."""

    TOO_HIGH = "high"
    TOO_LOW = "low"
    TARGET = "target"


@dataclass(frozen=True)
class Complaint:
    """A complaint about one aggregate value of one view tuple.

    Parameters
    ----------
    coordinates:
        Group-by attribute values identifying the complained tuple
        ``t_c`` (kept as a read-only copy, so a complaint never changes).
    aggregate:
        The complained statistic: count, sum, mean, std or var (composites
        decompose per footnote 3/4).
    direction:
        TOO_HIGH, TOO_LOW, or TARGET.
    target:
        The expected value when ``direction`` is TARGET.
    """

    coordinates: Mapping
    aggregate: str
    direction: Direction
    target: float | None = None

    def __post_init__(self):
        decompose(self.aggregate)  # validates the aggregate name
        if self.direction is Direction.TARGET:
            if self.target is None:
                raise ValueError("TARGET complaints need a target value")
            if not np.isfinite(self.target):
                raise ValueError(f"complaint target must be a finite "
                                 f"number, got {self.target!r}")
        object.__setattr__(self, "coordinates",
                           MappingProxyType(dict(self.coordinates)))

    # -- constructors --------------------------------------------------------------
    @classmethod
    def too_high(cls, coordinates: Mapping, aggregate: str) -> "Complaint":
        """"The value is higher than it should be.\""""
        return cls(coordinates, aggregate, Direction.TOO_HIGH)

    @classmethod
    def too_low(cls, coordinates: Mapping, aggregate: str) -> "Complaint":
        """"The value is lower than it should be.\""""
        return cls(coordinates, aggregate, Direction.TOO_LOW)

    @classmethod
    def should_be(cls, coordinates: Mapping, aggregate: str,
                  value: float) -> "Complaint":
        """"The value should have been ``value``" (Example 8)."""
        return cls(coordinates, aggregate, Direction.TARGET, target=value)

    # -- f_comp ----------------------------------------------------------------------
    def penalty(self, value: float) -> float:
        """``f_comp`` applied to an aggregate value (lower is better)."""
        if self.direction is Direction.TOO_HIGH:
            return float(value)
        if self.direction is Direction.TOO_LOW:
            return float(-value)
        return abs(float(value) - float(self.target))

    def penalty_of_state(self, state: AggState) -> float:
        """``f_comp`` applied to a (possibly repaired) aggregate state."""
        return self.penalty(evaluate_composite(self.aggregate, state))

    def penalty_values(self, values) -> np.ndarray:
        """``f_comp`` applied elementwise to an array of aggregate values.

        Bitwise-identical per element to :meth:`penalty` (the array ranker
        depends on this to match the scalar path exactly).
        """
        values = np.asarray(values, dtype=float)
        if self.direction is Direction.TOO_HIGH:
            return values
        if self.direction is Direction.TOO_LOW:
            return -values
        return np.abs(values - float(self.target))

    def base_statistics(self) -> tuple[str, ...]:
        """The distributive statistics the complaint decomposes into."""
        return decompose(self.aggregate)

    def __repr__(self) -> str:
        where = ", ".join(f"{k}={v!r}" for k, v in self.coordinates.items())
        if self.direction is Direction.TARGET:
            return f"Complaint({self.aggregate} should be {self.target} at {where})"
        return f"Complaint({self.aggregate} too {self.direction.value} at {where})"
