"""Sequence transformations with stall detection.

Implements Aitken's delta-squared transformation and the even diagonal
of the scalar epsilon-algorithm and of the vector epsilon-algorithm
(the latter with the Samelson inverse v / (v . v)).  All transformations
watch for near-zero denominators ("stalls"): a stalled element keeps
the last valid value so downstream convergence detection still has
something to compare.

The functions transform a whole sequence at once, column by column;
``EstimateStream`` keeps the newest element of the same transformation
up to date as rows arrive, one antidiagonal of the table per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class TransformConfig:
    """Numerical guards shared by all transformations.

    ``stall_tolerance`` is relative: a denominator d built from an
    element b stalls when |d| < stall_tolerance * max(1, |b|).
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


class EstimateStream:
    """The newest element of a transformation over a growing sequence of
    rows, updated in O(m*d) per row instead of rebuilding the table.

    After rows r_0 .. r_{m-1} have been pushed, ``estimate()`` equals,
    bit for bit, the last element of the full-table function on that
    prefix: per coordinate ``aitken(...)[-1]`` or
    ``epsilon_diagonal(...)[-1]`` for ``"aitken"`` and ``"epsilon"``,
    ``vector_epsilon_diagonal(...)[-1]`` for ``"vector-epsilon"``.  Each
    cell does the float operations of the full table.

    Aitken keeps the last three rows and the last valid element of each
    coordinate.  The epsilon methods keep the previous and the current
    ascending antidiagonal eps_k^(n-k), k = 0..n, of the table and the
    last valid even tip eps_2j^(0) (the retained diagonal entry); Wynn's
    rhombus rule builds each antidiagonal from the one before.  A stall
    invalidates every cell that depends on it, so the valid cells of an
    antidiagonal form a prefix, and only the longest prefix that holds a
    valid cell is stored.  Cells of the scalar method are arrays over the
    coordinates, NaN where a coordinate's cell is invalid; cells of the
    vector method are whole rows, and rows of dimension 1 take the
    scalar rule, as in ``vector_epsilon_diagonal``.
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
        self._value: np.ndarray | None = None  # the newest element
        self._last3: list[np.ndarray] = []  # aitken
        self._prev = self._cur = None  # epsilon: antidiagonals n-1 and n
        # the last valid element (aitken) or even tip (epsilon) before
        # and after the newest row, and where Aitken has one
        self._kept_before = self._kept = None
        self._has_before = self._has = None

    def push(self, row: Sequence[float]) -> None:
        """Append one row of finite values, one per coordinate."""
        row = self._checked(row)
        self.count += 1
        self._kept_before, self._has_before = self._kept, self._has
        if self.method == "aitken":
            self._last3 = [*self._last3[-2:], row]
        else:
            self._prev = self._cur
            if self.method == "vector-epsilon":
                self._rows.append(row)
        self._advance(row)

    def replace_last(self, row: Sequence[float]) -> None:
        """Replace the newest row, recomputing only what depends on it."""
        if not self.count:
            raise ValueError("no row to replace")
        row = self._checked(row)
        if self.method == "aitken":
            self._last3[-1] = row
        elif self.method == "vector-epsilon":
            self._rows[-1] = row
        self._advance(row)

    def keep(self, positions: Sequence[int]) -> None:
        """Restrict the stream to the coordinates at ``positions``, as if
        only those had been pushed all along."""
        idx = np.asarray(positions, dtype=int)
        if self.method == "vector-epsilon":
            rows = [r[idx] for r in self._rows]
            self._rows = []
            self._clear()
            for r in rows:
                self.push(r)
            return
        self._width = len(idx)
        self._last3 = [r[idx] for r in self._last3]
        (self._value, self._prev, self._cur, self._kept, self._kept_before,
         self._has, self._has_before) = (
            None if a is None else a[..., idx]
            for a in (self._value, self._prev, self._cur, self._kept,
                      self._kept_before, self._has, self._has_before)
        )

    def estimate(self) -> np.ndarray | None:
        """The newest element, or None while Aitken has < 3 rows."""
        return None if self._value is None else self._value.copy()

    def _checked(self, row: Sequence[float]) -> np.ndarray:
        arr = np.array(row, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValueError("a row must be a 1-D sequence of finite values")
        if self._width is None:
            self._width = arr.size
        elif arr.size != self._width:
            raise ValueError(f"row of {arr.size} values, expected {self._width}")
        return arr

    def _advance(self, row: np.ndarray) -> None:
        """Compute the newest element from the state before the newest row."""
        if self.method == "aitken":
            if self.count >= 3:
                self._aitken()
            return
        tip = self.count - 1
        self._kept = self._kept_before
        if self.method == "vector-epsilon" and row.size != 1:
            self._cur = _vector_antidiagonal(self._prev, row, self.tol)
            if tip % 2 == 0 and len(self._cur) == tip + 1:
                self._kept = self._cur[tip]
        else:
            self._cur = _scalar_antidiagonal(self._prev, row, self.tol)
            if tip % 2 == 0 and len(self._cur) == tip + 1:
                cell = self._cur[tip]
                if self._kept is not None:
                    cell = np.where(np.isnan(cell), self._kept, cell)
                self._kept = cell
        self._value = self._kept

    def _aitken(self) -> None:
        x0, x1, x2 = self._last3
        den = x2 - 2.0 * x1 + x0
        stalled = np.abs(den) < self.tol * np.maximum(1.0, np.abs(x0))
        num = x1 - x0
        y = x0 - num * num / np.where(stalled, 1.0, den)
        if self._has_before is None:
            kept, has = x0, np.zeros(x0.shape, dtype=bool)
        else:
            kept, has = self._kept_before, self._has_before
        self._value = np.where(stalled, np.where(has, kept, x0), y)
        self._kept = np.where(stalled, kept, y)
        self._has = has | ~stalled


def _scalar_antidiagonal(prev: np.ndarray | None, row: np.ndarray, tol: float) -> np.ndarray:
    """Antidiagonal n of the scalar epsilon-tables of all coordinates,
    shape (cells, coordinates), from antidiagonal n-1 ``prev`` (None for
    n = 0) and row x_n.

    Cell k+1 is eps_{k+1}^(n-k-1) = eps_{k-1}^(n-k) + 1/d with
    d = eps_k^(n-k) - eps_k^(n-k-1), i.e. new[k] - prev[k], on top of
    prev[k-1] (zero for k = 0): the operations of ``_scalar_columns``.
    A NaN cell is invalid; it makes d NaN, which no threshold passes.
    """
    if prev is None:
        return row[None, :]
    vals = np.full((len(prev) + 1, row.size), np.nan)
    vals[0] = row
    thr = tol * np.maximum(1.0, np.abs(prev))
    below = np.zeros(row.size)
    n = 1
    for k in range(len(prev)):
        d = vals[k] - prev[k]
        live = np.abs(d) >= thr[k]
        if not np.count_nonzero(live):
            break
        cell = vals[k + 1]
        np.divide(1.0, d, out=cell, where=live)
        cell += below
        below = prev[k]
        n = k + 2
    return vals[:n]


def _vector_antidiagonal(prev: np.ndarray | None, row: np.ndarray, tol: float) -> np.ndarray:
    """``_scalar_antidiagonal`` with row cells: the Samelson inverse
    d / (d . d) and whole-cell stalls, the operations of
    ``_vector_columns``.  Every stored cell is valid."""
    if prev is None:
        return row[None, :]
    vals = np.empty((len(prev) + 1, row.size))
    vals[0] = row
    lim = (tol * tol) * np.maximum(1.0, np.einsum("ij,ij->i", prev, prev))
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
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def converged(
    y_i: Sequence[float],
    y_prev: Sequence[float],
    delta: float,
    cfg: TransformConfig = TransformConfig(),
) -> bool:
    """True when the configured norm of y_i - y_prev is <= delta."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    a = np.asarray(y_i, dtype=float)
    b = np.asarray(y_prev, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return seq_norm(a - b, cfg) <= delta
