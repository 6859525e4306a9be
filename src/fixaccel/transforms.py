"""Sequence transformations with stall detection.

Implements Aitken's delta-squared transformation and the even diagonal
of the scalar epsilon-algorithm and of the vector epsilon-algorithm
(the latter with the Samelson inverse v / (v . v)).  All transformations
watch for near-zero denominators ("stalls"): a stalled element keeps
the last valid value so downstream convergence detection still has
something to compare.

The functions transform a whole sequence at once; the epsilon ones
report the tip of each even column.  ``EstimateStream`` is the
engine's estimator: it takes rows in blocks, extends the table over a
whole block column by column, and returns the estimate after each row:
for the epsilon methods the newest valid cell of the deepest even
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

    Rows arrive in blocks of one or more (``push_rows_unguarded``), and
    the stream returns the estimate after each row of a block.  Each
    method extends its table over the whole block at once, so the NumPy
    calls are paid per block, not per row; a block gives exactly the
    estimates that pushing its rows one at a time gives.

    Aitken keeps the last two rows and the last valid element of each
    coordinate: after rows r_0 .. r_{m-1}, ``estimate()`` equals, bit for
    bit, ``aitken(...)[-1]`` per coordinate.  A block computes the
    elements of all its rows at once and carries the last valid one
    forward into the stalled ones.

    The epsilon methods keep the newest ascending antidiagonal
    eps_k^(n-k), k = 0..min(n, MAX_COLUMN), of the table.  A block of rows
    extends the table column by column with Wynn's rhombus rule: column
    k+1 on all the block's antidiagonals at once, from column k on them
    and on the antidiagonal before.  The estimate is the newest valid
    cell of the deepest live even column, eps_2j^(n-2j) for the largest
    even 2j <= MAX_COLUMN whose cell is valid: per coordinate for the
    scalar method, as a whole row for the vector method, where rows of
    dimension 1 take the scalar rule.  Unlike the tip eps_2j^(0) that
    ``epsilon_diagonal`` reports, it leaves the transient of the first
    rows behind.  A stall invalidates every cell that depends on it, so
    the valid cells of an antidiagonal form a prefix, and column 0, the
    row itself, is always valid.  Invalid cells hold NaN.

    Every method has an estimate from the third row on.
    """

    def __init__(self, method: str, cfg: TransformConfig = TransformConfig()):
        if method not in ("aitken", "epsilon", "vector-epsilon"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.tol = cfg.stall_tolerance
        # vector-epsilon only: every cell couples all coordinates, so
        # ``keep`` replays the blocks of rows
        self._rows: list[np.ndarray] = []
        self._clear()

    def _clear(self) -> None:
        self.count = 0
        self._width: int | None = None
        self._value: np.ndarray | None = None  # the newest estimate
        self._tail: np.ndarray | None = None  # aitken: the last two rows
        # aitken: the last valid element of each coordinate, and where one exists
        self._valid = self._has = None
        self._cur = None  # epsilon: the newest antidiagonal

    def push(self, row: Sequence[float]) -> None:
        """Append one row of finite values, one per coordinate."""
        with np.errstate(all="ignore"):
            self.push_rows_unguarded([row])

    def push_rows_unguarded(self, rows: Sequence[Sequence[float]]) -> list[np.ndarray | None]:
        """Append a block of one or more rows and return the estimate
        after each of them, None for the first two rows of the stream.

        It enters no ``np.errstate``: overflow, invalid operations and
        division by zero must pass silently under the caller's, as they
        do for a whole ``analyze`` run.  The estimates are fresh arrays
        that the stream does not change later.
        """
        rows = self._checked(rows)
        m = len(rows)
        missing = min(m, max(0, 2 - self.count))  # rows without an estimate
        self.count += m
        if self.method == "aitken":
            est = self._aitken(rows)
        else:
            if self.method == "vector-epsilon":
                self._rows.append(rows)
            # rows of dimension 1 take the scalar rule
            vector = self.method == "vector-epsilon" and rows.shape[1] != 1
            self._cur, est = _epsilon_block(self._cur, rows, self.tol, vector)
        out: list[np.ndarray | None] = [None] * missing
        out.extend(est[len(est) - (m - missing):])
        if out[-1] is not None:
            self._value = out[-1]
        return out

    def keep(self, positions: Sequence[int]) -> None:
        """Restrict the stream to the coordinates at ``positions``, as if
        only those had been pushed all along."""
        idx = np.asarray(positions, dtype=int)
        if self.method == "vector-epsilon":
            rows = np.concatenate(self._rows)[:, idx]
            self._rows = []
            self._clear()
            with np.errstate(all="ignore"):
                self.push_rows_unguarded(rows)
            return
        self._width = len(idx)
        self._value, self._tail, self._valid, self._has, self._cur = (
            None if a is None else a[..., idx]
            for a in (self._value, self._tail, self._valid, self._has, self._cur)
        )

    def estimate(self) -> np.ndarray | None:
        """The newest estimate, or None before the third row."""
        return None if self._value is None else self._value.copy()

    def _checked(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or not len(arr) or not np.isfinite(arr).all():
            raise ValueError("rows must be 1-D sequences of finite values, at least one")
        if self._width is None:
            self._width = arr.shape[1]
        elif arr.shape[1] != self._width:
            raise ValueError(f"row of {arr.shape[1]} values, expected {self._width}")
        return arr

    def _aitken(self, rows: np.ndarray) -> np.ndarray:
        """The elements of every row of the block that completes a
        triple, each stalled one replaced by the last valid element
        before it, or by its own x_n where none exists yet."""
        seq = rows if self._tail is None else np.concatenate((self._tail, rows))
        self._tail = seq[-2:]
        x0, x1, x2 = seq[:-2], seq[1:-1], seq[2:]
        den = x2 - 2.0 * x1 + x0
        stalled = np.abs(den) < self.tol * np.maximum(1.0, np.abs(x0))
        num = x1 - x0
        y = x0 - num * num / np.where(stalled, 1.0, den)
        if self._has is None:
            self._valid, self._has = np.zeros(rows.shape[1]), np.zeros(rows.shape[1], dtype=bool)
        # row 0 stands for the elements before the block; the index of
        # the last valid element at or before each row, -1 while none
        found = np.vstack((self._has, ~stalled))
        last = np.where(found, np.arange(len(found))[:, None], -1)
        np.maximum.accumulate(last, axis=0, out=last)
        filled = np.take_along_axis(np.vstack((self._valid, y)), np.maximum(last, 0), axis=0)
        self._valid, self._has = filled[-1], last[-1] >= 0
        return np.where(last[1:] >= 0, filled[1:], x0)


def _epsilon_block(
    prev: np.ndarray | None, rows: np.ndarray, tol: float, vector: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Extend the epsilon-table by a block of rows x_n .. x_{n+m-1},
    shape (m, coordinates): one scalar table per coordinate, or with
    ``vector`` one table whose cells are rows.  ``prev`` is antidiagonal
    n-1, shape (cells, coordinates), None for n = 0.  Returns antidiagonal
    n+m-1, cut after its last column with a valid cell, and the estimate
    after each row: the cell of the deepest valid even column of its
    antidiagonal, per coordinate for the scalar tables.

    ``table[k, t]`` is column k's cell eps_k^(n-1+t-k) on antidiagonal
    n-1+t (t = 0 is ``prev``), NaN where it is invalid or absent.  The
    rhombus rule gives column k+1 on all the block's antidiagonals at
    once: eps_{k+1}^(n+t-k-1) = table[k-1, t] + inv(d) (zero for k = 0)
    with d = table[k, t+1] - table[k, t].  For the scalar tables inv(d)
    is 1/d, and d stalls when |d| < max(tol * |table[k, t]|, smallest
    normal float), a test that does not depend on the scale of the
    sequence.  For the vector table it is the Samelson inverse
    d / (d . d), and the whole cell stalls when
    d . d < max(tol**2 * (b . b), smallest normal float).  A NaN operand
    makes d NaN, which no threshold passes, so every cell that depends on
    a stalled one is invalid too.  A valid cell takes the same float
    operations as on a block of one row; a valid vector cell may hold
    NaN entries where its differences overflowed, so validity is the
    stall test's, not NaN.
    """
    m, w = rows.shape
    table = np.full((MAX_COLUMN + 1, m + 1, w), np.nan)
    if prev is not None:
        table[: len(prev), 0] = prev
    table[0, 1:] = rows
    est = rows.copy()
    below = np.zeros((m, w))
    depth = 1  # columns with a valid cell on the newest antidiagonal
    for k in range(MAX_COLUMN):
        col, cell = table[k], table[k + 1, 1:]
        d = col[1:] - col[:-1]
        if vector:
            dd = np.einsum("ij,ij->i", d, d)
            base = np.einsum("ij,ij->i", col[:-1], col[:-1])
            live = (dd >= np.maximum((tol * tol) * base, _TINY))[:, None]
            np.divide(d, dd[:, None], out=cell)
        else:
            live = np.abs(d) >= np.maximum(tol * np.abs(col[:-1]), _TINY)
            np.reciprocal(d, out=cell)
        cell += below
        np.copyto(cell, np.nan, where=~live)
        if k % 2:
            np.copyto(est, cell, where=live)
        if live[-1].any():
            depth = k + 2
        elif not live.any():
            break  # every deeper cell of the block is invalid
        below = col[:-1]
    return table[:depth, -1].copy(), est


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
