"""Sequence transformations with stall detection.

Implements Aitken's delta-squared transformation and Wynn's scalar and
vector epsilon-algorithm (the latter with the Samelson inverse
v / (v . v)).  All transformations watch for near-zero denominators
("stalls"): a stalled element keeps the last valid value so downstream
convergence detection still has something to compare.

One kernel, ``_epsilon_table``, applies the rhombus rule, with one stall
test: a difference d of two cells stalls when |d| < max(tol * |b|,
floor), b being the earlier cell; for the vector table |.| is the
Euclidean norm, taken so that it neither overflows nor underflows.
Aitken's element y_n is the table's cell eps_2^(n), so Aitken is the
kernel capped at column 2.  Every reader of the kernel is in this
module.  ``aitken`` reads column 2 of the whole table of a sequence,
and ``epsilon_diagonal`` and ``vector_epsilon_diagonal`` the tip of each
even column; their floor is tol, which is the rule
|d| < tol * max(1, |b|) (but at least the smallest normal float, for
vectors).  ``vector_epsilon_tip``, the engine's finish, reads the
newest valid cell of the deepest even column of a few rows by that
rule at tol = STALL_TOLERANCE.  ``EstimateStream`` is the engine's
estimator: it takes bound rows in blocks, decides which of their
coordinates, the finite ones, enter the table, extends it over a whole
block column by column, and reads the newest valid cell of the deepest
even column; its floor is the smallest normal float, so that a sequence
of any scale forms its columns.  It also decides whether each estimate
agrees with the one before it, so the engine reads both from one call.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence, get_args

import numpy as np

# The deepest column of the epsilon-table that ``EstimateStream`` keeps
# for the epsilon methods: an antidiagonal holds at most MAX_COLUMN + 1
# cells, so that a row costs O(MAX_COLUMN * d) however long the sequence
# grows.
MAX_COLUMN = 8
# A denominator under the smallest normal float stalls whatever the scale
# of its element: its inverse would overflow.
_TINY = sys.float_info.min
# The relative stall tolerance of the engine's estimator and finish, and
# TransformConfig's default.
STALL_TOLERANCE = 1e-12

Method = Literal["aitken", "epsilon", "vector-epsilon"]
Norm = Literal["infinity", "euclidean"]


@dataclass(frozen=True)
class TransformConfig:
    """Numerical guards shared by all transformations.

    ``stall_tolerance`` is relative.  The difference d = b' - b of two
    epsilon-table cells, Aitken's included, stalls when |d| <
    max(stall_tolerance * |b|, floor), with Euclidean norms for the
    vector method.  The floor is stall_tolerance in the whole-sequence
    functions (but at least the smallest normal float for the vector
    method), and the smallest normal float in ``EstimateStream``.

    The engine's estimator and finish have fixed values:
    ``EstimateStream`` stalls at the default ``stall_tolerance`` and
    decides agreement by ``agreements``, ``converged`` in the default
    ``norm`` on a block of rows at once; ``vector_epsilon_tip``, the
    finish, takes stall_tolerance = floor = STALL_TOLERANCE, with the
    vector rule at every width, one coordinate included.  The one-shot
    functions, and so ``fixaccel accelerate``, take any.
    """

    stall_tolerance: float = STALL_TOLERANCE
    norm: Norm = "infinity"

    def __post_init__(self) -> None:
        if not self.stall_tolerance > 0:
            raise ValueError("stall_tolerance must be positive")
        if self.norm not in get_args(Norm):
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

    Element n consumes x_n, x_{n+1}, x_{n+2}.  It is the epsilon-table's
    cell eps_2^(n) = x_{n+1} + 1 / (1/(x_{n+2}-x_{n+1}) - 1/(x_{n+1}-x_n)),
    computed in that form, and stalls when one of its differences does.
    Stalled elements carry the previous valid value (or their own x_n
    when none exists yet, as for a constant input sequence).
    """
    arr = _as_clean_array(x, "input sequence")
    if arr.ndim != 1 or len(arr) < 3:
        raise ValueError("aitken needs a scalar sequence of length >= 3")
    cells = [(2, n) for n in range(len(arr) - 2)]
    return [
        TransformedElement(float(y[0]), stalled)
        for y, stalled in _carried(arr[:, None], cfg.stall_tolerance, False, cells)
    ]


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
        for tip, stalled in _carried(arr[:, None], cfg.stall_tolerance, False, _tips(len(arr)))
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
    arr = _as_clean_array(x, "input sequence")
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(
            "vector_epsilon_diagonal needs a nonempty sequence of "
            "equal-dimension vectors"
        )
    return [
        TransformedElement(tip.copy(), stalled)
        for tip, stalled in _carried(arr, cfg.stall_tolerance, arr.shape[1] != 1, _tips(len(arr)))
    ]


def vector_epsilon_tip(rows: np.ndarray) -> np.ndarray | None:
    """The last of ``rows``, shape (m, coordinates), with each coordinate
    that is finite in every row, of which there must be one, replaced by
    the vector-epsilon estimate after that row; None where that estimate
    is not finite.

    The estimate is the newest cell of the deepest even column valid on
    the table's last antidiagonal, eps_4^(0) of five rows where nothing
    stalls, or the row itself where none is.  Its stall tolerance and
    floor are STALL_TOLERANCE, the one-shot diagonals' rule at their
    default, and it keeps the vector rule even for one coordinate, where
    ``vector_epsilon_diagonal`` takes the scalar rule.  It enters no
    ``np.errstate``, as ``EstimateStream`` does not.
    """
    finite = np.isfinite(rows).all(axis=0)
    tol = STALL_TOLERANCE
    tip = _epsilon_table(None, rows[:, finite], tol, tol, len(rows) - 1, True)[2][-1]
    if not np.isfinite(tip).all():
        return None
    last = rows[-1].copy()
    last[finite] = tip
    return last


def _tips(m: int) -> list[tuple[int, int]]:
    """The tips eps_2k^(0) of the even columns of a table of m rows."""
    return [(k, 0) for k in range(0, m, 2)]


def _carried(
    rows: np.ndarray, tol: float, vector: bool, cells: list[tuple[int, int]]
) -> list[tuple[np.ndarray, bool]]:
    """The cells eps_k^(n) at ``cells``, (k, n) pairs with the deepest
    column last, of the whole table of ``rows`` as (cell, stalled), a
    stalled cell replaced by the last valid one before it in ``cells``,
    or by x_n while none exists.  Validity is the live mask's: a valid
    vector cell may hold NaN."""
    floor = max(tol, _TINY) if vector else tol
    with np.errstate(all="ignore"):  # the kernel takes 1/d of every d
        table, live, _, _ = _epsilon_table(None, rows, tol, floor, cells[-1][0], vector)
    out, last = [], None
    for k, n in cells:
        valid = live[k, n + k + 1, 0]  # eps_k^(n) is on antidiagonal n + k
        if valid:
            last = table[k, n + k + 1]
        out.append((rows[n] if last is None else last, not valid))
    return out


class EstimateStream:
    """The newest limit estimate of a transformation over a growing
    sequence of bound rows, updated in O(d) per row of d finite
    coordinates, and whether it agrees with the estimate before it.

    Rows arrive only in blocks of one or more (``push_rows_unguarded``),
    and the stream returns the estimate after each row of a block with
    its agreement flag.  The table holds the finite coordinates of the rows;
    a bound may be infinite, but not NaN.  When some coordinates turn
    infinite, the stream replays the rows since it last started on the
    others, since a vector cell couples all coordinates.  When one turns
    finite, which has no finite history, the stream starts over from
    that row.  A row with no finite coordinate has no estimate.

    An estimate agrees when it is within ``delta`` > 0 of the estimate
    before it on the same coordinates, as ``converged`` says in the
    default norm; ``agreements`` tests each run of rows with the same
    finite coordinates at once.  The first estimate after a start or a
    replay has none before it, and does not agree.

    The stream keeps the newest ascending antidiagonal eps_k^(n-k),
    k = 0..min(n, cap), of the epsilon-table, and ``_epsilon_table``
    extends it over each block at once, so the NumPy calls are paid per
    block, not per row; a block gives exactly the estimates and flags
    that its rows give pushed as blocks of one.  The cap is column 2 for
    Aitken, whose element y_{n-2} is the cell eps_2^(n-2), and
    MAX_COLUMN for the epsilon methods.

    The estimate is the newest valid cell of the deepest live even
    column, eps_2j^(n-2j) for the largest even 2j up to the cap whose
    cell is valid, or the row itself where none is: per coordinate for
    Aitken and the scalar method, as a whole row for the vector method,
    where rows of dimension 1 take the scalar rule.  Unlike the tip
    eps_2j^(0) that ``epsilon_diagonal`` reports, it leaves the transient
    of the first rows behind.

    Every method has an estimate once the table holds three rows.  The
    stall tolerance is STALL_TOLERANCE.
    """

    def __init__(self, method: str, delta: float):
        if method not in get_args(Method):
            raise ValueError(f"unknown method {method!r}")
        if not delta > 0:
            raise ValueError("delta must be positive")
        self.method = method
        self.delta = delta
        self._columns = 2 if method == "aitken" else MAX_COLUMN
        self._finite: np.ndarray | None = None  # the table's coordinates, as a mask
        self.count = 0  # the rows in the table
        self._value: np.ndarray | None = None  # the newest estimate

    def _restart(self, finite: np.ndarray) -> None:
        """Empty the table, which then holds the coordinates ``finite``."""
        self.count = 0
        self._value = None
        self._cur = None  # the newest antidiagonal
        self._rows: list[np.ndarray] = []  # the blocks in the table, whole, for a replay
        self._finite = finite
        self._positions: list[int] = np.flatnonzero(finite).tolist()

    def push_rows_unguarded(
        self, rows: Sequence[Sequence[float]]
    ) -> list[tuple[tuple[float | None, ...] | None, bool]]:
        """Append a block of one or more rows; return, after each, the
        estimate laid out over the row, None at each coordinate it does
        not cover (None as a whole while the table holds fewer than
        three rows, and for a row with no finite coordinate), and
        whether it agrees with the estimate before it.

        It enters no ``np.errstate``: overflow, invalid operations and
        division by zero must pass silently under the caller's, as they
        do for a whole ``analyze`` run.
        """
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or not len(arr):
            raise ValueError("rows must be 1-D sequences of numbers, at least one")
        if self._finite is not None and arr.shape[1] != len(self._finite):
            raise ValueError(f"row of {arr.shape[1]} values, expected {len(self._finite)}")
        finite = np.isfinite(arr)
        cuts = []  # where a run of rows with the same finite coordinates starts
        if not finite.all():
            if np.isnan(arr).any():
                raise ValueError("rows must not contain NaN")
            cuts = (np.flatnonzero((finite[1:] != finite[:-1]).any(axis=1)) + 1).tolist()
        out: list[tuple[tuple[float | None, ...] | None, bool]] = []
        for a, b in zip([0, *cuts], [*cuts, len(arr)]):
            out += self._push_run(arr[a:b], finite[a])
        return out

    def _push_run(self, rows: np.ndarray, finite: np.ndarray) -> list:
        """``push_rows_unguarded`` on rows whose finite coordinates are
        those of the mask ``finite``."""
        prior = None  # the estimate the first of the run is tested against
        if self._finite is None or (finite & ~self._finite).any():
            self._restart(finite)  # a coordinate turned finite
        elif (finite != self._finite).any():  # some turned infinite
            history = self._rows
            self._restart(finite)
            if self._positions:
                self._extend(np.concatenate(history))
        else:
            prior = self._value
        if not self._positions:
            return [(None, False)] * len(rows)
        ys = self._extend(rows)
        chain = ys if prior is None else np.concatenate((prior[None], ys))
        agree = agreements(chain[1:], chain[:-1], self.delta).tolist()
        values = ys.tolist()
        if len(self._positions) < len(finite):  # laid out over the row
            values = [map(dict(zip(self._positions, v)).get, range(len(finite))) for v in values]
        laid = [None] * (len(rows) - len(ys)) + [tuple(v) for v in values]
        return list(zip(laid, [False] * (len(rows) - len(agree)) + agree))

    def _extend(self, rows: np.ndarray) -> np.ndarray:
        """Extend the table by ``rows``, whole rows finite on its
        coordinates, and return the estimates after those of them that
        have one, the last rows, as the rows of an array."""
        self._rows.append(rows)
        if len(self._positions) < len(self._finite):
            rows = rows[:, self._finite]
        m = len(rows)
        missing = min(m, max(0, 2 - self.count))  # rows without an estimate
        self.count += m
        # rows of dimension 1 take the scalar rule
        vector = self.method == "vector-epsilon" and rows.shape[1] != 1
        table, _, est, depth = _epsilon_table(
            self._cur, rows, STALL_TOLERANCE, _TINY, self._columns, vector
        )
        self._cur = table[:depth, -1].copy()
        est = est[missing:]
        if len(est):
            self._value = est[-1]
        return est


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
    cell of the deepest valid even column of its antidiagonal, or the row
    itself where none is, per coordinate for the scalar tables) and the
    depth of antidiagonal n+m-1 (its columns up to the last with a valid
    cell).

    ``table[k, t]`` is column k's cell eps_k^(n-1+t-k) on antidiagonal
    n-1+t (t = 0 is ``prev``), NaN where it is invalid or absent, and
    ``live[k, t]`` says whether it is valid (one flag per cell of the
    vector table; never for t = 0).  The rhombus rule gives column k+1 on
    all the block's antidiagonals at once: eps_{k+1}^(n+t-k-1) =
    table[k-1, t] + inv(d) (zero for k = 0) with d = table[k, t+1] -
    table[k, t] and b = table[k, t].  For the scalar tables inv(d) is
    1/d, and d stalls when |d| < max(tol * |b|, floor).  For the vector
    table it is the Samelson inverse d / (d . d), and the whole cell
    stalls when ||d|| < max(tol * ||b||, floor), with the norms and the
    inverse of ``_norms_and_inverses``, which no overflow or underflow of
    a dot product changes.  A NaN operand makes d NaN, which no
    threshold passes, so every cell that depends on a stalled one is
    invalid too.  A valid cell takes the same float operations on any
    block; a valid vector cell may hold NaN entries where its differences
    overflowed, so validity is ``live``, not NaN.
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
            # the norms of the rows of d, then of b, and the inverses of d
            norm = _norms_and_inverses(np.concatenate((d, col[:-1])), cell)
            np.greater_equal(norm[:m], np.maximum(tol * norm[m:], floor), out=ok)
            np.copyto(cell, np.nan, where=~ok)
        else:
            np.greater_equal(np.abs(d), np.maximum(tol * np.abs(col[:-1]), floor), out=ok)
            # a stalled cell keeps the NaN the table was filled with
            np.reciprocal(d, out=cell, where=ok)
        cell += below
        if k % 2:
            np.copyto(est, cell, where=ok)
        # count_nonzero, not any: it is the cheaper call on a small mask
        if np.count_nonzero(ok[-1]):
            depth = k + 2
        elif not np.count_nonzero(ok):
            break  # every deeper cell of the block is invalid
        below = col[:-1]
    return table, live, est, depth


def _norms_and_inverses(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``v``, as a column; the Samelson
    inverses v / (v . v) of its first len(out) rows go to ``out``.

    A row whose v . v is a normal float (or NaN) takes it as it is.  A
    row whose v . v underflowed or overflowed is first scaled, exactly,
    by the power of two that puts its largest entry in [0.5, 1) in
    magnitude, and its norm and inverse are scaled back.  Each row's
    result depends on that row only.
    """
    m = len(out)
    vv = np.einsum("ij,ij->i", v, v)[:, None]
    # fmin and fmax pass over a NaN row, as the mask below does; the two
    # reductions cost less than building the mask on every call
    if not (np.fmin.reduce(vv, None) < _TINY or np.fmax.reduce(vv, None) == math.inf):
        np.divide(v[:m], vv[:m], out=out)
        return np.sqrt(vv)
    wild = (vv < _TINY) | (vv == math.inf)
    # e = 0, which changes nothing, for the other rows, and for one of
    # zeros or holding an infinity or NaN
    e = np.where(wild, np.frexp(np.abs(v).max(axis=1, keepdims=True))[1], 0)
    s = np.ldexp(v, -e)
    ss = np.einsum("ij,ij->i", s, s)[:, None]
    np.ldexp(s[:m] / ss[:m], -e[:m], out=out)
    return np.ldexp(np.sqrt(ss), e)


def seq_norm(v: Sequence[float], cfg: TransformConfig = TransformConfig()) -> float:
    """The configured vector norm (infinity or euclidean).

    The Euclidean norm is the one the vector stall test takes, from
    ``_norms_and_inverses``, which neither overflows nor underflows.
    """
    arr = np.asarray(v, dtype=float)
    if not arr.size:
        return 0.0
    if cfg.norm == "infinity":
        return float(np.abs(arr).max())
    row = arr.reshape(1, -1)
    with np.errstate(over="ignore", under="ignore"):
        return float(_norms_and_inverses(row, row[:0])[0, 0])


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
    return seq_norm(_relative_change(a, b), cfg) <= delta


def _relative_change(y: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """(y - prior) / max(1, |y|), entry by entry: the change that
    ``converged`` and ``agreements`` measure."""
    return (y - prior) / np.maximum(1.0, np.abs(y))


def agreements(ys: np.ndarray, priors: np.ndarray, delta: float) -> np.ndarray:
    """``converged`` in the infinity norm on each row of ``ys`` against
    the same row of ``priors``, both of shape (rows, coordinates) with
    at least one coordinate: one flag per row.  A maximum is exact, so
    each flag is ``converged``'s bit for bit; a NaN entry fails."""
    return np.maximum.reduce(np.abs(_relative_change(ys, priors)), 1) <= delta
