"""Sequence transformations with stall detection.

Implements Aitken's delta-squared transformation and the even diagonal
of the scalar epsilon-algorithm and of the vector epsilon-algorithm
(the latter with the Samelson inverse v / (v . v)).  All transformations
watch for near-zero denominators ("stalls"): a stalled element keeps
the last valid value so downstream convergence detection still has
something to compare.
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
