"""Bridging abstract states and real vectors for acceleration.

An abstract state over v variables maps to a 2v-coordinate vector laid
out as (lower_1, upper_1, ..., lower_v, upper_v).  Infinite bounds
cannot enter the numeric transformations, so extraction reports them
as an excluded coordinate set and combination restores them as the
corresponding infinity.  Accelerated estimates occasionally come back
with an inverted pair (lower > upper); combination swaps the pair and
flags the variable so callers can skip injecting it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intervals import AbstractState, Interval

Coord = tuple[str, str]  # (variable name, "lower" | "upper")


@dataclass(frozen=True)
class ExtractionSchema:
    """Fixed coordinate layout for one analysis run."""

    coords: tuple[Coord, ...]

    def __post_init__(self) -> None:
        if len(self.coords) % 2 != 0:
            raise ValueError("schema must pair lower and upper coordinates")
        for j in range(0, len(self.coords), 2):
            (v1, k1), (v2, k2) = self.coords[j], self.coords[j + 1]
            if v1 != v2 or k1 != "lower" or k2 != "upper":
                raise ValueError(
                    "schema coordinates must come as (var, lower), (var, upper) pairs"
                )
        names = [v for v, _ in self.coords[::2]]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable in extraction schema")

    @classmethod
    def for_variables(cls, names: Sequence[str]) -> "ExtractionSchema":
        coords: list[Coord] = []
        for name in names:
            coords.append((name, "lower"))
            coords.append((name, "upper"))
        return cls(tuple(coords))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coords[::2])

    @property
    def dimension(self) -> int:
        return len(self.coords)


def bound_row(x: AbstractState) -> np.ndarray:
    """State bounds as a flat (lo, hi, lo, hi, ...) coordinate row.

    Infinite bounds stay in the row as they are; a Bottom component
    gives the pair (inf, -inf).
    """
    row = np.empty(2 * len(x))
    for j, iv in enumerate(x.intervals):
        row[2 * j] = iv.lo
        row[2 * j + 1] = iv.hi
    return row


def state_from_row(names: Sequence[str], row: Sequence[float]) -> AbstractState:
    """The inverse of ``bound_row``: the state with one interval per
    (lo, hi) pair of ``row``, named by ``names``."""
    return AbstractState(
        (name, Interval(row[2 * j], row[2 * j + 1])) for j, name in enumerate(names)
    )


@dataclass(frozen=True)
class ExtractionResult:
    """The finite coordinates of a state plus the excluded coordinates."""

    vector: np.ndarray
    excluded: frozenset[Coord]


def extract(x: AbstractState, schema: ExtractionSchema) -> ExtractionResult:
    """Read the state's bounds into a vector per the schema layout.

    A coordinate goes to the excluded set instead of the vector exactly
    when its ``bound_row`` entry is non-finite: infinite bounds and both
    bounds of a Bottom component.  An empty vector means there is
    nothing to accelerate.
    """
    if x.names != schema.variables:
        raise ValueError(
            f"state variables {x.names} do not match schema {schema.variables}"
        )
    row = bound_row(x)
    finite = np.isfinite(row)
    excluded = frozenset(
        coord for coord, ok in zip(schema.coords, finite) if not ok
    )
    return ExtractionResult(row[finite], excluded)


def combine_detailed(
    y: Sequence[float],
    excluded: frozenset[Coord] | set[Coord],
    schema: ExtractionSchema,
) -> tuple[AbstractState, frozenset[str]]:
    """Rebuild an abstract state from a vector, also reporting which
    variables had their (inverted) bound pair swapped."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise ValueError("combine expects a flat coordinate vector")
    if np.any(np.isnan(arr)) or np.any(np.isinf(arr)):
        raise ValueError("combined vector must contain only finite values")
    expected = schema.dimension - len(excluded)
    if len(arr) != expected:
        raise ValueError(
            f"vector has {len(arr)} coordinates, schema minus excluded "
            f"requires {expected}"
        )
    pos = 0
    items: list[tuple[str, Interval]] = []
    swapped: set[str] = set()
    for j in range(0, schema.dimension, 2):
        name = schema.coords[j][0]
        if schema.coords[j] in excluded:
            lo = -math.inf
        else:
            lo = float(arr[pos])
            pos += 1
        if schema.coords[j + 1] in excluded:
            hi = math.inf
        else:
            hi = float(arr[pos])
            pos += 1
        if lo > hi:
            lo, hi = hi, lo
            swapped.add(name)
        items.append((name, Interval(lo, hi)))
    return AbstractState(items), frozenset(swapped)
