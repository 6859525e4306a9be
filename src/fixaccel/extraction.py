"""Bridging abstract states and real vectors for acceleration.

An abstract state over v variables maps to a 2v-coordinate vector laid
out as (lower_1, upper_1, ..., lower_v, upper_v).  Infinite bounds
cannot enter the numeric transformations, so extraction reports them
as an excluded coordinate set and combination restores them as the
corresponding infinity.  Accelerated estimates occasionally come back
with an inverted pair (lower > upper); combination swaps the pair and
reports the variable (``engine._inject`` keeps that variable's bounds).
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
    """Fixed coordinate layout for one analysis run: its variables'
    names, each giving the coordinates (name, "lower"), (name, "upper")
    in ``bound_row``'s order."""

    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.variables, str) or not all(isinstance(v, str) for v in self.variables):
            raise ValueError("schema variables must be a sequence of names")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable in extraction schema")

    @classmethod
    def for_variables(cls, names: Sequence[str]) -> "ExtractionSchema":
        # a bare string goes to __post_init__ as it is, which rejects it
        return cls(names if isinstance(names, str) else tuple(names))

    @property
    def coords(self) -> tuple[Coord, ...]:
        return tuple((v, k) for v in self.variables for k in ("lower", "upper"))

    @property
    def dimension(self) -> int:
        return 2 * len(self.variables)


def bound_row(x: AbstractState) -> list[float]:
    """State bounds as a flat [lo, hi, lo, hi, ...] list of floats, the
    row every caller reads.

    Infinite bounds stay in the row as they are; a Bottom component
    gives the pair (inf, -inf).
    """
    return [b for iv in x.intervals for b in (iv.lo, iv.hi)]


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
    row = np.array(bound_row(x))
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
    variables had their (inverted) bound pair swapped.

    The vector fills the schema's row in order, skipping the excluded
    coordinates, which take -inf (a lower bound) or inf (an upper one);
    each pair with lo > hi is swapped, and the row is read back by
    ``state_from_row``."""
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
    values = iter(arr.tolist())
    row = [
        next(values) if c not in excluded else -math.inf if c[1] == "lower" else math.inf
        for c in schema.coords
    ]
    swapped = set()
    for j in range(0, len(row), 2):
        if row[j] > row[j + 1]:
            row[j], row[j + 1] = row[j + 1], row[j]
            swapped.add(schema.variables[j // 2])
    return state_from_row(schema.variables, row), frozenset(swapped)
