"""Floating-point interval lattice with widening operators.

Intervals carry 64-bit float bounds (round-to-nearest, no directed
rounding) and form a lattice under inclusion: Bottom is the least
element, [-inf, +inf] the greatest.  Abstract states are named,
ordered vectors of intervals with all lattice operations lifted
pointwise.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

INF = math.inf


def _check_bound(value: float, what: str) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"NaN {what} is not a legal interval bound")
    return value


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with extended-real bounds, or Bottom.

    Bottom (the empty interval) is canonically encoded as
    ``Interval(+inf, -inf)`` and exposed as the module constant
    ``BOTTOM``; every other instance must satisfy ``lo <= hi``.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = _check_bound(self.lo, "lower bound")
        hi = _check_bound(self.hi, "upper bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi and not (lo == INF and hi == -INF):
            raise ValueError(f"empty interval [{lo}, {hi}]: use BOTTOM")

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    def __repr__(self) -> str:
        if self.is_bottom:
            return "BOTTOM"
        return f"[{self.lo:g}, {self.hi:g}]"


BOTTOM = Interval(INF, -INF)
TOP = Interval(-INF, INF)


def join(a: Interval, b: Interval) -> Interval:
    """Smallest interval containing both ``a`` and ``b``."""
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def leq(a: Interval, b: Interval) -> bool:
    """Inclusion order: ``a`` within ``b``; Bottom below everything."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    return b.lo <= a.lo and a.hi <= b.hi


@dataclass(frozen=True)
class ThresholdSet:
    """A finite ascending set of landing points for threshold widening.

    The set implicitly contains -inf and +inf, so ``snap_up`` and
    ``snap_down`` are total.
    """

    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vals = tuple(_check_bound(v, "threshold") for v in self.values)
        if any(math.isinf(v) for v in vals):
            raise ValueError("thresholds must be finite (+-inf are implicit)")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("thresholds must be strictly ascending")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def snap_up(self, x: float) -> float:
        """Smallest threshold >= x (or +inf)."""
        i = bisect_left(self.values, x)
        return self.values[i] if i < len(self.values) else INF

    def snap_down(self, x: float) -> float:
        """Largest threshold <= x (or -inf)."""
        i = bisect_right(self.values, x)
        return self.values[i - 1] if i else -INF


def widen_thresholds(a: Interval, b: Interval, t: ThresholdSet) -> Interval:
    """Widening with thresholds: unstable bounds snap to the nearest
    threshold beyond the joined value instead of jumping to +-inf."""
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    lo = a.lo if a.lo <= b.lo else t.snap_down(b.lo)
    hi = a.hi if a.hi >= b.hi else t.snap_up(b.hi)
    return Interval(lo, hi)


# Standard widening is threshold widening with no thresholds but the
# implicit +-inf.
NO_THRESHOLDS = ThresholdSet()


def widen_std(a: Interval, b: Interval) -> Interval:
    """Standard interval widening: unstable bounds jump to +-inf."""
    return widen_thresholds(a, b, NO_THRESHOLDS)


def affine_eval(c0: float, terms: Iterable[tuple[float, Interval]]) -> Interval:
    """Evaluate ``c0 + sum coeff_i * arg_i`` in interval arithmetic.

    Any Bottom argument makes the result Bottom.  Zero coefficients are
    dropped so they cannot produce 0 * inf.
    """
    c0 = float(c0)
    if math.isnan(c0) or math.isinf(c0):
        raise ValueError(f"constant term must be finite, got {c0}")
    lo = hi = c0
    for coeff, arg in terms:
        coeff = float(coeff)
        if math.isnan(coeff) or math.isinf(coeff):
            raise ValueError(f"coefficient must be finite, got {coeff}")
        if arg.is_bottom:
            return BOTTOM
        if coeff == 0.0:
            continue
        if coeff > 0.0:
            lo += coeff * arg.lo
            hi += coeff * arg.hi
        else:
            lo += coeff * arg.hi
            hi += coeff * arg.lo
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("NaN produced in affine interval evaluation")
    return Interval(lo, hi)


class AbstractState:
    """A named, ordered vector of intervals (one per state variable).

    The variable ordering is fixed at construction; all lattice
    operations require both operands to share it exactly.
    """

    __slots__ = ("_names", "_intervals")

    def __init__(self, items: Iterable[tuple[str, Interval]] | Mapping[str, Interval]):
        if isinstance(items, Mapping):
            pairs = list(items.items())
        else:
            pairs = list(items)
        names = tuple(name for name, _ in pairs)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in abstract state")
        self._names = names
        self._intervals = tuple(iv for _, iv in pairs)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    def __getitem__(self, name: str) -> Interval:
        try:
            return self._intervals[self._names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[tuple[str, Interval]]:
        return iter(zip(self._names, self._intervals))

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractState):
            return NotImplemented
        return self._names == other._names and self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash((self._names, self._intervals))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {iv!r}" for n, iv in self)
        return f"{{{inner}}}"

    def _check_same_vars(self, other: "AbstractState") -> None:
        if self._names != other._names:
            raise ValueError(
                f"mismatched state variables: {self._names} vs {other._names}"
            )


def state_join(x: AbstractState, y: AbstractState) -> AbstractState:
    x._check_same_vars(y)
    return AbstractState(
        (n, join(a, b)) for (n, a), b in zip(x, y.intervals)
    )


def state_leq(x: AbstractState, y: AbstractState) -> bool:
    x._check_same_vars(y)
    return all(leq(a, b) for a, b in zip(x.intervals, y.intervals))


def state_widen_std(x: AbstractState, y: AbstractState) -> AbstractState:
    return state_widen_thresholds(x, y, NO_THRESHOLDS)


def state_widen_thresholds(
    x: AbstractState, y: AbstractState, t: ThresholdSet
) -> AbstractState:
    x._check_same_vars(y)
    return AbstractState(
        (n, widen_thresholds(a, b, t)) for (n, a), b in zip(x, y.intervals)
    )
