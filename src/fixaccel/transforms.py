"""Sequence transformations with stall detection.

Implements Aitken's delta-squared transformation and Wynn's scalar and
vector epsilon-algorithm (the latter with the Samelson inverse
v / (v . v)).  All transformations watch for near-zero denominators
("stalls"): a stalled element keeps the last valid value so downstream
convergence detection still has something to compare.

One kernel, ``_epsilon_table``, applies the rhombus rule, with one stall
test: a difference d of two cells stalls when |d| < max(tol * |b|,
floor), b being the earlier cell (d . d < max(tol**2 * (b . b), floor)
for the vector table).  It has two readers.  ``epsilon_diagonal`` and
``vector_epsilon_diagonal`` transform a whole sequence at once and read
the tip of each even column; their floor is tol (tol**2 for vectors),
which is the rule |d| < tol * max(1, |b|).  ``EstimateStream`` is the
engine's estimator: it takes rows in blocks, extends the table over a
whole block column by column, and reads the newest valid cell of the
deepest even column; its floor is the smallest normal float, so that a
sequence of any scale forms its columns.
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

    ``stall_tolerance`` is relative.  Aitken's denominator d stalls when
    |d| < stall_tolerance * max(1, |x_n|).  The difference d = b' - b of
    two epsilon-table cells stalls when |d| < max(stall_tolerance * |b|,
    floor).  The floor is stall_tolerance in the whole-sequence functions
    (its square for the vector method, which compares d . d), and the
    smallest normal float in ``EstimateStream``.
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
    return [
        TransformedElement(float(tip[0]), stalled)
        for tip, stalled in _tips(arr[:, None], cfg.stall_tolerance, False)
    ]


def vector_epsilon_diagonal(
    x: Sequence[Sequence[float]], cfg: TransformConfig = TransformConfig()
) -> list[TransformedElement]:
    """Even diagonal of the vector epsilon-algorithm.

    The recursion matches the scalar table with vector addition and the
    Samelson inverse; each cell stalls as a whole when its denominator
    norm falls under the stall tolerance.  Dimension-1 input takes the
    scalar rule, so the two agree bit-for-bit.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(
            "vector_epsilon_diagonal needs a nonempty sequence of "
            "equal-dimension vectors"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("input sequence must contain only finite values")
    return [
        TransformedElement(tip.copy(), stalled)
        for tip, stalled in _tips(arr, cfg.stall_tolerance, arr.shape[1] != 1)
    ]


def _tips(rows: np.ndarray, tol: float, vector: bool) -> list[tuple[np.ndarray, bool]]:
    """The tip eps_2k^(0) of each even column of the whole table of
    ``rows`` as (cell, stalled), a stalled tip replaced by the last valid
    one.  Validity is the live mask's: a valid vector cell may hold NaN."""
    with np.errstate(all="ignore"):  # the kernel takes 1/d of every d
        table, live, _, _ = _epsilon_table(
            None, rows, tol, tol * tol if vector else tol, len(rows) - 1, vector
        )
    out, tip = [], None
    for k in range(0, len(rows), 2):
        valid = live[k, k + 1, 0]
        if valid:
            tip = table[k, k + 1]
        out.append((tip, not valid))
    return out


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
    eps_k^(n-k), k = 0..min(n, MAX_COLUMN), of the table, and
    ``_epsilon_table`` extends it over each block.  The estimate is the
    newest valid cell of the deepest live even column, eps_2j^(n-2j) for
    the largest even 2j <= MAX_COLUMN whose cell is valid: per coordinate
    for the scalar method, as a whole row for the vector method, where
    rows of dimension 1 take the scalar rule.  Unlike the tip eps_2j^(0)
    that ``epsilon_diagonal`` reports, it leaves the transient of the
    first rows behind.

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
            table, _, est, depth = _epsilon_table(
                self._cur, rows, self.tol, _TINY, MAX_COLUMN, vector
            )
            self._cur = table[:depth, -1].copy()
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


def _epsilon_table(
    prev: np.ndarray | None,
    rows: np.ndarray,
    tol: float,
    floor: float,
    columns: int,
    vector: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Extend the epsilon-table by columns 1..``columns`` over a block of
    rows x_n .. x_{n+m-1}, shape (m, coordinates): one scalar table per
    coordinate, or with ``vector`` one table whose cells are rows.
    ``prev`` is antidiagonal n-1, shape (cells, coordinates), None for
    n = 0.  Returns ``table``, ``live``, the estimate after each row (the
    cell of the deepest valid even column of its antidiagonal, per
    coordinate for the scalar tables) and the depth of antidiagonal
    n+m-1 (its columns up to the last with a valid cell).

    ``table[k, t]`` is column k's cell eps_k^(n-1+t-k) on antidiagonal
    n-1+t (t = 0 is ``prev``), NaN where it is invalid or absent, and
    ``live[k, t]`` says whether it is valid (one flag per cell of the
    vector table; never for t = 0).  The rhombus rule gives column k+1 on
    all the block's antidiagonals at once: eps_{k+1}^(n+t-k-1) =
    table[k-1, t] + inv(d) (zero for k = 0) with d = table[k, t+1] -
    table[k, t] and b = table[k, t].  For the scalar tables inv(d) is
    1/d, and d stalls when |d| < max(tol * |b|, floor).  For the vector
    table it is the Samelson inverse d / (d . d), and the whole cell
    stalls when d . d < max(tol**2 * (b . b), floor).  A NaN operand
    makes d NaN, which no threshold passes, so every cell that depends on
    a stalled one is invalid too.  A valid cell takes the same float
    operations on any block; a valid vector cell may hold NaN entries
    where its differences overflowed, so validity is ``live``, not NaN.
    """
    m, w = rows.shape
    table = np.full((columns + 1, m + 1, w), np.nan)
    live = np.zeros((columns + 1, m + 1, 1 if vector else w), dtype=bool)
    if prev is not None:
        table[: len(prev), 0] = prev
    table[0, 1:] = rows
    live[0, 1:] = True
    est = rows.copy()
    below = np.zeros((m, w))
    depth = 1
    for k in range(columns):
        col, cell, ok = table[k], table[k + 1, 1:], live[k + 1, 1:]
        d = col[1:] - col[:-1]
        if vector:
            dd = np.einsum("ij,ij->i", d, d)
            base = np.einsum("ij,ij->i", col[:-1], col[:-1])
            np.greater_equal(dd, np.maximum((tol * tol) * base, floor), out=ok[:, 0])
            np.divide(d, dd[:, None], out=cell)
        else:
            np.greater_equal(np.abs(d), np.maximum(tol * np.abs(col[:-1]), floor), out=ok)
            np.reciprocal(d, out=cell)
        cell += below
        np.copyto(cell, np.nan, where=~ok)
        if k % 2:
            np.copyto(est, cell, where=ok)
        if ok[-1].any():
            depth = k + 2
        elif not ok.any():
            break  # every deeper cell of the block is invalid
        below = col[:-1]
    return table, live, est, depth


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
