"""Sequence transformations with stall detection.

Implements Aitken's delta-squared transformation and the even diagonal
of the scalar epsilon-algorithm and of the vector epsilon-algorithm
(the latter with the Samelson inverse v / (v . v)).  All transformations
watch for near-zero denominators ("stalls"): a stalled element keeps
the last valid value so downstream convergence detection still has
something to compare.

The functions transform a whole sequence at once; the epsilon ones
report the tip of each even column.  ``EstimateStream`` is the
engine's estimator: it updates one antidiagonal of the table per row as
rows arrive, and reports the newest valid cell of the deepest even
column, with a stall test relative to the element.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class TransformConfig:
    """Numerical guards shared by all transformations.

    ``stall_tolerance`` is relative: in the whole-sequence functions a
    denominator d built from an element b stalls when
    |d| < stall_tolerance * max(1, |b|); ``EstimateStream``'s epsilon
    methods drop the floor of 1, |d| < max(stall_tolerance * |b|,
    smallest normal float), so that a sequence of any scale forms its
    columns.
    """

    stall_tolerance: float = 1e-12
    norm: str = "infinity"  # "infinity" | "euclidean"

    def __post_init__(self) -> None:
        if not self.stall_tolerance > 0:
            raise ValueError("stall_tolerance must be positive")
        if self.norm not in ("infinity", "euclidean"):
            raise ValueError(f"unknown norm {self.norm!r}")


class TransformedElement(NamedTuple):
    """One output element: its (possibly retained) value and whether the
    defining denominator stalled."""

    value: object  # float for scalar transforms, ndarray for vector ones
    stalled: bool


def _as_clean_array(x: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must contain only finite values")
    return arr


def aitken(
    x: Sequence[float], cfg: TransformConfig = TransformConfig()
) -> list[TransformedElement]:
    """Aitken delta-squared: y_n = x_n - (x_{n+1}-x_n)^2 / (x_{n+2}-2x_{n+1}+x_n).

    Element n consumes x_n, x_{n+1}, x_{n+2}.  Stalled elements carry
    the previous valid value (or the base element when none exists yet,
    as for a constant input sequence).
    """
    arr = _as_clean_array(x, "input sequence")
    if arr.ndim != 1 or len(arr) < 3:
        raise ValueError("aitken needs a scalar sequence of length >= 3")
    out: list[TransformedElement] = []
    last_valid: float | None = None
    for n in range(len(arr) - 2):
        den = arr[n + 2] - 2.0 * arr[n + 1] + arr[n]
        if abs(den) < cfg.stall_tolerance * max(1.0, abs(arr[n])):
            retained = last_valid if last_valid is not None else float(arr[n])
            out.append(TransformedElement(retained, True))
        else:
            num = arr[n + 1] - arr[n]
            y = float(arr[n] - num * num / den)
            last_valid = y
            out.append(TransformedElement(y, False))
    return out


def _scalar_columns(
    arr: np.ndarray, tol: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Columns of the scalar epsilon-table as (values, valid) pairs.

    Stalled or dependency-poisoned cells hold a placeholder 0.0 and a
    False validity flag; validity propagates to every dependent cell.
    """
    m = len(arr)
    cols = [(arr.astype(float), np.ones(m, dtype=bool))]
    below_vals, below_ok = np.zeros(m + 1), np.ones(m + 1, dtype=bool)
    while len(cols[-1][0]) >= 2:
        vals, ok = cols[-1]
        d = vals[1:] - vals[:-1]
        deps = ok[1:] & ok[:-1] & below_ok[1 : len(vals)]
        live = deps & (np.abs(d) >= tol * np.maximum(1.0, np.abs(vals[:-1])))
        safe = np.where(live, d, 1.0)
        new_vals = np.where(live, below_vals[1 : len(vals)] + 1.0 / safe, 0.0)
        below_vals, below_ok = vals, ok
        cols.append((new_vals, live))
    return cols


def _vector_columns(
    arr: np.ndarray, tol: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Vector epsilon-table columns; cells are rows, stalled as a whole."""
    m, p = arr.shape
    cols = [(arr.astype(float), np.ones(m, dtype=bool))]
    below_vals, below_ok = np.zeros((m + 1, p)), np.ones(m + 1, dtype=bool)
    tol2 = tol * tol
    while len(cols[-1][0]) >= 2:
        vals, ok = cols[-1]
        d = vals[1:] - vals[:-1]
        dd = np.einsum("ij,ij->i", d, d)
        base2 = np.einsum("ij,ij->i", vals[:-1], vals[:-1])
        deps = ok[1:] & ok[:-1] & below_ok[1 : len(vals)]
        live = deps & (dd >= tol2 * np.maximum(1.0, base2))
        safe = np.where(live, dd, 1.0)
        inv = d / safe[:, None]
        new_vals = np.where(
            live[:, None], below_vals[1 : len(vals)] + inv, 0.0
        )
        below_vals, below_ok = vals, ok
        cols.append((new_vals, live))
    return cols


def _diagonal_from_columns(
    cols: list[tuple[np.ndarray, np.ndarray]]
) -> list[TransformedElement]:
    """Even-diagonal entries d_k = cell (2k, 0) with stall retention."""
    out: list[TransformedElement] = []
    retained = None
    for k in range(0, len(cols), 2):
        vals, ok = cols[k]
        if len(vals) == 0:
            break
        if bool(ok[0]):
            retained = vals[0]
            out.append(TransformedElement(_copy_cell(retained), False))
        else:
            out.append(TransformedElement(_copy_cell(retained), True))
    return out


def _copy_cell(v):
    if isinstance(v, np.ndarray):
        return v.copy()
    return float(v)


def epsilon_diagonal(
    x: Sequence[float], cfg: TransformConfig = TransformConfig()
) -> list[TransformedElement]:
    """Even diagonal d_k = eps^{2k}_0 of the scalar epsilon-table.

    d_0 is the base element x_0; a stalled entry repeats the last valid
    entry, so the output sequence is always fully populated.
    """
    arr = _as_clean_array(x, "input sequence")
    if arr.ndim != 1 or len(arr) < 1:
        raise ValueError("epsilon_diagonal needs a scalar sequence of length >= 1")
    return _diagonal_from_columns(_scalar_columns(arr, cfg.stall_tolerance))


def vector_epsilon_diagonal(
    x: Sequence[Sequence[float]], cfg: TransformConfig = TransformConfig()
) -> list[TransformedElement]:
    """Even diagonal of the vector epsilon-algorithm.

    The recursion matches the scalar table with vector addition and the
    Samelson inverse; each cell stalls as a whole when its denominator
    norm falls under the stall tolerance.  Dimension-1 input routes
    through the scalar code so the two agree bit-for-bit.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(
            "vector_epsilon_diagonal needs a nonempty sequence of "
            "equal-dimension vectors"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("input sequence must contain only finite values")
    if arr.shape[1] == 1:
        scalar = _diagonal_from_columns(
            _scalar_columns(arr[:, 0], cfg.stall_tolerance)
        )
        return [
            TransformedElement(np.array([e.value]), e.stalled) for e in scalar
        ]
    return _diagonal_from_columns(_vector_columns(arr, cfg.stall_tolerance))


# The deepest column of the epsilon-table that ``EstimateStream`` keeps:
# an antidiagonal holds at most MAX_COLUMN + 1 cells, so that a row costs
# O(MAX_COLUMN * d) however long the sequence grows.
MAX_COLUMN = 8
# A denominator under the smallest normal float stalls whatever the scale
# of its element: its inverse would overflow.
_TINY = sys.float_info.min


class EstimateStream:
    """The newest limit estimate of a transformation over a growing
    sequence of rows, updated in O(d) per row of d coordinates.

    Aitken keeps the last three rows and the last valid element of each
    coordinate: after rows r_0 .. r_{m-1}, ``estimate()`` equals, bit for
    bit, ``aitken(...)[-1]`` per coordinate.

    The epsilon methods keep the newest ascending antidiagonal
    eps_k^(n-k), k = 0..min(n, MAX_COLUMN), of the table; Wynn's rhombus
    rule builds each from the one before.  Their estimate is the newest
    valid cell of the deepest live even column, eps_2j^(n-2j) for the
    largest even 2j <= MAX_COLUMN whose cell is valid: per coordinate for
    the scalar method, as a whole row for the vector method, where rows
    of dimension 1 take the scalar rule.  Unlike the tip eps_2j^(0) that
    ``epsilon_diagonal`` reports, it leaves the transient of the first
    rows behind.  A stall invalidates every cell that depends on it, so
    the valid cells of an antidiagonal form a prefix, and column 0, the
    row itself, is always valid.  Cells of the scalar method are arrays
    over the coordinates, NaN where a coordinate's cell is invalid.

    Every method has an estimate from the third row on.
    """

    def __init__(self, method: str, cfg: TransformConfig = TransformConfig()):
        if method not in ("aitken", "epsilon", "vector-epsilon"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.tol = cfg.stall_tolerance
        # vector-epsilon only: every cell couples all coordinates, so
        # ``keep`` replays the rows
        self._rows: list[np.ndarray] = []
        self._clear()

    def _clear(self) -> None:
        self.count = 0
        self._width: int | None = None
        self._value: np.ndarray | None = None  # the newest estimate
        self._last3: list[np.ndarray] = []  # aitken
        # aitken: the last valid element of each coordinate, and where one exists
        self._valid = self._has = None
        self._cur = None  # epsilon: the newest antidiagonal

    def push(self, row: Sequence[float]) -> None:
        """Append one row of finite values, one per coordinate."""
        with np.errstate(all="ignore"):
            self.push_unguarded(row)

    def push_unguarded(self, row: Sequence[float]) -> None:
        """``push`` under the caller's ``np.errstate``: it enters none, so
        overflow, invalid operations and division by zero must pass
        silently there, as they do for a whole ``analyze`` run."""
        row = self._checked(row)
        self.count += 1
        if self.method == "aitken":
            self._last3 = [*self._last3[-2:], row]
            if self.count >= 3:
                self._aitken()
            return
        if self.method == "vector-epsilon":
            self._rows.append(row)
            if row.size != 1:
                cur = self._cur = _vector_antidiagonal(self._cur, row, self.tol)
                if self.count >= 3:
                    self._value = cur[(len(cur) - 1) & -2]
                return
        self._cur, valid = _scalar_antidiagonal(self._cur, row, self.tol)
        if self.count >= 3:
            self._value = self._cur[(valid - 1) & -2, np.arange(row.size)]

    def keep(self, positions: Sequence[int]) -> None:
        """Restrict the stream to the coordinates at ``positions``, as if
        only those had been pushed all along."""
        idx = np.asarray(positions, dtype=int)
        if self.method == "vector-epsilon":
            rows = [r[idx] for r in self._rows]
            self._rows = []
            self._clear()
            with np.errstate(all="ignore"):
                for r in rows:
                    self.push_unguarded(r)
            return
        self._width = len(idx)
        self._last3 = [r[idx] for r in self._last3]
        self._value, self._valid, self._has, self._cur = (
            None if a is None else a[..., idx]
            for a in (self._value, self._valid, self._has, self._cur)
        )

    def estimate(self) -> np.ndarray | None:
        """The newest estimate, or None before the third row."""
        return None if self._value is None else self._value.copy()

    def _checked(self, row: Sequence[float]) -> np.ndarray:
        arr = np.array(row, dtype=float)
        if arr.ndim != 1 or not np.isfinite(arr).all():
            raise ValueError("a row must be a 1-D sequence of finite values")
        if self._width is None:
            self._width = arr.size
        elif arr.size != self._width:
            raise ValueError(f"row of {arr.size} values, expected {self._width}")
        return arr

    def _aitken(self) -> None:
        x0, x1, x2 = self._last3
        den = x2 - 2.0 * x1 + x0
        stalled = np.abs(den) < self.tol * np.maximum(1.0, np.abs(x0))
        num = x1 - x0
        y = x0 - num * num / np.where(stalled, 1.0, den)
        if self._has is None:
            self._valid, self._has = x0, np.zeros(x0.shape, dtype=bool)
        self._value = np.where(stalled, np.where(self._has, self._valid, x0), y)
        self._valid = np.where(stalled, self._valid, y)
        self._has = self._has | ~stalled


def _scalar_antidiagonal(
    prev: np.ndarray | None, row: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Antidiagonal n of the scalar epsilon-tables of all coordinates,
    shape (cells, coordinates), from antidiagonal n-1 ``prev`` (None for
    n = 0) and row x_n, up to column MAX_COLUMN, and the number of valid
    cells of each coordinate.

    Cell k+1 is eps_{k+1}^(n-k-1) = eps_{k-1}^(n-k) + 1/d with
    d = eps_k^(n-k) - eps_k^(n-k-1), i.e. new[k] - prev[k], on top of
    prev[k-1] (zero for k = 0).  d stalls when
    |d| < max(tol * |prev[k]|, smallest normal float), a test that does
    not depend on the scale of the sequence.  A NaN cell is invalid; it
    makes d NaN, which no threshold passes.

    Every cell is first computed without masking, then the stall rule is
    applied to the whole antidiagonal at once: cell k+1 of a coordinate
    is valid when the d of levels 0..k all pass the threshold.  A valid
    cell depends only on valid cells, so it holds what the masked
    recursion gives it; the others are set to NaN, and the antidiagonal
    ends after the last level that has a valid cell.
    """
    if prev is None:
        return row[None, :], np.ones(row.size, dtype=int)
    top = prev[:MAX_COLUMN]
    vals = np.empty((len(top) + 1, row.size))
    vals[0] = row
    d = np.empty(top.shape)
    below = np.zeros(row.size)
    for src, p, dk, cell in zip(vals, top, d, vals[1:]):
        np.subtract(src, p, out=dk)
        np.reciprocal(dk, out=cell)
        cell += below
        below = p
    live = np.abs(d) >= np.maximum(tol * np.abs(top), _TINY)
    np.logical_and.accumulate(live, axis=0, out=live)
    np.copyto(vals[1:], np.nan, where=~live)
    valid = len(vals) - np.count_nonzero(np.isnan(vals), axis=0)
    return vals[: valid.max()], valid


def _vector_antidiagonal(prev: np.ndarray | None, row: np.ndarray, tol: float) -> np.ndarray:
    """``_scalar_antidiagonal`` with row cells: the Samelson inverse
    d / (d . d), and whole-cell stalls when
    d . d < max(tol**2 * (b . b), smallest normal float).  Every stored
    cell is valid."""
    if prev is None:
        return row[None, :]
    prev = prev[:MAX_COLUMN]
    vals = np.empty((len(prev) + 1, row.size))
    vals[0] = row
    lim = np.maximum((tol * tol) * np.einsum("ij,ij->i", prev, prev), _TINY)
    below = np.zeros(row.size)
    n = 1
    for k in range(len(prev)):
        cell = vals[k + 1]
        np.subtract(vals[k], prev[k], out=cell)
        dd = np.einsum("i,i->", cell, cell)
        if not dd >= lim[k]:
            break
        cell /= dd
        cell += below
        below = prev[k]
        n = k + 2
    return vals[:n]


def seq_norm(v: Sequence[float], cfg: TransformConfig = TransformConfig()) -> float:
    """The configured vector norm (infinity or euclidean)."""
    arr = np.asarray(v, dtype=float)
    if cfg.norm == "euclidean":
        return float(math.sqrt(np.dot(arr, arr)))
    return float(np.abs(arr).max()) if arr.size else 0.0


def converged(
    y_i: Sequence[float],
    y_prev: Sequence[float],
    delta: float,
    cfg: TransformConfig = TransformConfig(),
) -> bool:
    """True when the configured norm of (y_i - y_prev) / max(1, |y_i|),
    taken coordinate by coordinate, is <= delta: agreement relative to
    the size of each coordinate, and absolute below 1."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    a = np.asarray(y_i, dtype=float)
    b = np.asarray(y_prev, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return seq_norm((a - b) / np.maximum(1.0, np.abs(a)), cfg) <= delta
