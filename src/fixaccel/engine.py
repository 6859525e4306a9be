"""Fixpoint computation strategies over affine loop programs.

Three modes share one iteration loop:

* ``kleene`` — plain joins until the iterates stabilize;
* ``widen`` — joins replaced by (threshold) widening after an optional
  delay, guaranteeing termination;
* ``accel`` — plain joins plus a sequence transformation watching the
  iterate bounds; when two consecutive accelerated estimates agree to
  ``delta``, the estimate is joined into the current iterate (an
  "injection"), short-circuiting the remaining convergence tail.

Stabilization is detected either bit-exactly or, by default, when the
largest bound movement in one iteration falls under ``stop_tol``; a
tolerance-detected result is then "sealed" — inflated outward a hair
until the transfer function maps it into itself — so every reported
convergent invariant is a machine-checked post-fixpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import le
from typing import Literal

import numpy as np

from .extraction import bound_row, state_from_row
# not called here; bound because the benchmark tracer wraps these names
from .extraction import combine_detailed  # noqa: F401
from .intervals import INF, AbstractState, ThresholdSet
from .programs import Program
from .transforms import EstimateStream, TransformConfig, converged
# not called here; bound because the benchmark tracer wraps these names
from .transforms import aitken, epsilon_diagonal, vector_epsilon_diagonal  # noqa: F401

Mode = Literal["kleene", "widen", "accel"]
Method = Literal["aitken", "epsilon", "vector-epsilon"]


@dataclass(frozen=True)
class EngineConfig:
    """Everything a fixpoint run needs besides the program itself."""

    mode: Mode = "accel"
    method: Method = "vector-epsilon"
    delta: float = 1e-3
    widen_delay: int = 0
    thresholds: ThresholdSet | None = None
    inject_policy: Literal["once", "repeat"] = "once"
    fallback_after: int = 20
    max_iter: int = 10000
    stop_tol: float = 3e-7
    transform: TransformConfig = field(default_factory=TransformConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("kleene", "widen", "accel"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.method not in ("aitken", "epsilon", "vector-epsilon"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.inject_policy not in ("once", "repeat"):
            raise ValueError(f"unknown inject policy {self.inject_policy!r}")
        if self.mode == "accel" and not self.delta > 0:
            raise ValueError("delta must be positive in accel mode")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.widen_delay < 0:
            raise ValueError("widen_delay must be non-negative")
        if self.fallback_after < 1:
            raise ValueError("fallback_after must be at least 1")
        if not self.stop_tol >= 0:
            raise ValueError("stop_tol must be non-negative")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration: the resulting bounds, the fresh accelerated
    estimate if one was computed (full coordinate layout, None where no
    estimate exists), and what kind of step happened.

    ``row`` holds the bounds as (lo, hi) pairs in the order of
    ``variables``; ``state`` is the same as an AbstractState, built on
    first access.
    """

    index: int
    row: tuple[float, ...]
    accel: tuple[float | None, ...] | None
    event: str  # plain-step | widen-step | injection | fallback-widen | converged
    variables: tuple[str, ...]

    @cached_property
    def state(self) -> AbstractState:
        return state_from_row(self.variables, self.row)


@dataclass
class IterationTrace:
    """The full history of one engine run."""

    variables: tuple[str, ...]
    initial: AbstractState
    records: list[TraceRecord] = field(default_factory=list)
    reason: str = "running"  # converged | converged-tolerance | max-iter

    @property
    def iterations(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class FixpointReport:
    """Outcome of a run: the invariant and how we got there."""

    invariant: AbstractState
    iterations: int
    injections: int
    sound: bool
    converged: bool
    reason: str


# The loop carries the state as a bound row: a list of floats laid out
# like ``extraction.bound_row``, (lo_1, hi_1, ..., lo_v, hi_v), with a
# Bottom component as (inf, -inf).  The row operations below compute
# exactly what their interval counterparts in ``intervals`` and
# ``programs`` compute, and carry the same names, under which the
# benchmark's tracer (perfbench/tracer.py) times them.


def transfer(p: Program, x: list[float]) -> list[float]:
    """``programs.transfer`` on a bound row, through the lowered body."""
    return p.lowered.image(x)


def state_join(x: list[float], y: list[float]) -> list[float]:
    """Bound-wise join: min of the lower, max of the upper bounds.

    The (inf, -inf) encoding makes Bottom the identity of both, so this
    equals ``intervals.join`` on every component.  Like ``min`` and
    ``max``, a tie keeps the bound of ``x`` (which matters for 0.0 and
    -0.0).
    """
    out = [*x]
    out[::2] = [b if b < a else a for a, b in zip(x[::2], y[::2])]
    out[1::2] = [b if b > a else a for a, b in zip(x[1::2], y[1::2])]
    return out


def state_leq(x: list[float], y: list[float]) -> bool:
    """Inclusion of ``x`` in ``y``, bound by bound; with Bottom encoded
    as (inf, -inf) this equals ``intervals.leq`` on every component."""
    return all(map(le, y[::2], x[::2])) and all(map(le, x[1::2], y[1::2]))


def _widen_rows(x: list[float], y: list[float], down, up) -> list[float]:
    """Keep each stable bound of ``x``; send an unstable lower bound of
    ``y`` to ``down(lo)`` and an unstable upper bound to ``up(hi)``.
    Bottom on either side yields the other operand's component."""
    out = [*y]
    for j in range(0, len(x), 2):
        alo, ahi, blo, bhi = x[j], x[j + 1], y[j], y[j + 1]
        if alo > ahi:
            continue
        if blo > bhi:
            out[j], out[j + 1] = alo, ahi
            continue
        out[j] = alo if alo <= blo else down(blo)
        out[j + 1] = ahi if ahi >= bhi else up(bhi)
    return out


def state_widen_std(x: list[float], y: list[float]) -> list[float]:
    """``intervals.widen_std`` on every component of two bound rows."""
    return _widen_rows(x, y, lambda lo: -INF, lambda hi: INF)


def state_widen_thresholds(x: list[float], y: list[float], t: ThresholdSet) -> list[float]:
    """``intervals.widen_thresholds`` on every component of two bound
    rows: unstable bounds snap to the nearest threshold beyond them."""
    return _widen_rows(x, y, t.snap_down, t.snap_up)


def verify_postfixpoint(p: Program, x: AbstractState) -> bool:
    """True iff one more abstract loop execution stays inside ``x``."""
    row = p.row_of(x)
    return state_leq(transfer(p, row), row)


def _moved_at_most(a: list[float], b: list[float], tol: float) -> bool:
    """True iff no bound moved by more than ``tol`` between two rows; an
    infinite bound that changed counts as an infinite move.  Stops at the
    first bound that moved further."""
    return all(u == v or abs(u - v) <= tol for u, v in zip(a, b))


def _seal(p: Program, x: list[float], max_rounds: int = 60) -> list[float]:
    """Inflate a nearly-stable row outward until it verifies as a
    post-fixpoint.

    Each round joins in the transfer image and then pads *every* finite
    bound outward by the same amount — the largest current escape,
    floored and scaled up geometrically.  Inflating all bounds together
    matters: the components are coupled, so growing only the escaping
    ones can push a neighbour's image back out and oscillate.  For a
    convergent affine system the uniform pad closes the loop in a few
    rounds with slack on the order of the stop tolerance.
    """
    for r in range(max_rounds):
        fx = transfer(p, x)
        escape = 0.0
        for j in range(0, len(x), 2):
            escape = max(escape, x[j] - fx[j], fx[j + 1] - x[j + 1])
        if escape <= 0.0:
            return x
        if math.isinf(escape):
            return state_join(x, fx)
        pad = 4.0**r * max(escape, 1e-12)
        x = state_join(x, fx)
        x[::2] = [v if math.isinf(v) else v - pad for v in x[::2]]
        x[1::2] = [v if math.isinf(v) else v + pad for v in x[1::2]]
    return x


class _Accelerator:
    """Watches the iterate rows and produces injection candidates.

    Feeds the finite coordinates of each row to an ``EstimateStream``
    and reports a fresh estimate whenever new accelerated evidence
    exists (a new transformed element for Aitken, a deeper even-diagonal
    entry for the epsilon methods).  Estimates are compared only while
    the finite-coordinate set is unchanged.
    """

    def __init__(self, cfg: EngineConfig, n_coords: int):
        self.cfg = cfg
        self.stream: EstimateStream | None = None
        self.active: tuple[int, ...] = ()
        self.depth = 0
        self.y_prev: np.ndarray | None = None
        self.fresh: np.ndarray | None = None
        self.last_estimate: np.ndarray | None = None
        self.last_active: tuple[int, ...] = ()
        self.n_coords = n_coords

    def push(self, x: list[float]) -> None:
        row = self._follow(x)
        if row is not None:
            self.stream.push(row)

    def replace_last(self, x: list[float]) -> None:
        row = self._follow(x)
        if row is not None:
            self.stream.replace_last(row)

    def _follow(self, x: list[float]) -> np.ndarray | None:
        """The finite coordinates of ``x``, after fitting the stream to
        them; None when there are none."""
        row = np.array(x)
        idx = np.flatnonzero(np.isfinite(row))
        active = tuple(idx.tolist())
        if not active:
            self.stream, self.active = None, ()
            return None
        if active != self.active:
            # coordinate set changed: restart the comparison chain
            if self.stream is not None and set(active) <= set(self.active):
                self.stream.keep([self.active.index(j) for j in active])
            else:
                # new coordinates (a Bottom variable that became finite)
                # have no finite history: the stream starts from this row
                self.stream = EstimateStream(self.cfg.method, self.cfg.transform)
            self.active = active
            self.depth = 0
            self.y_prev = None
        return row[idx]

    def _estimate(self) -> np.ndarray | None:
        """Fresh accelerated estimate over active coords, or None."""
        if self.stream is None:
            return None  # nothing to accelerate
        if self.cfg.method == "aitken":
            return self.stream.estimate()
        depth = (self.stream.count - 1) // 2
        if depth <= self.depth or depth < 1:
            return None
        self.depth = depth
        return self.stream.estimate()

    def candidate(self) -> np.ndarray | None:
        """Return an estimate ready for injection (two consecutive
        estimates within delta), else None.  ``self.fresh`` holds the
        estimate newly computed by this call, if any."""
        y = self._estimate()
        self.fresh = y
        if y is None:
            return None
        self.last_estimate = y
        self.last_active = self.active
        prev, self.y_prev = self.y_prev, y
        if prev is not None and converged(y, prev, self.cfg.delta, self.cfg.transform):
            return y
        return None

    def full_estimate_row(self, y: np.ndarray) -> tuple[float | None, ...]:
        """Embed an active-coordinate estimate into the full layout."""
        full: list[float | None] = [None] * self.n_coords
        for pos, coord in enumerate(self.active):
            full[coord] = float(y[pos])
        return tuple(full)


def _fallback_thresholds(acc: _Accelerator) -> ThresholdSet:
    """Thresholds for the emergency widening: the last accelerated
    estimate with each bound relaxed outward by a relative margin."""
    if acc.last_estimate is None:
        return ThresholdSet(())
    values: set[float] = set()
    for pos, coord in enumerate(acc.last_active):
        v = float(acc.last_estimate[pos])
        margin = max(1e-6, 1e-6 * abs(v))
        values.add(v - margin if coord % 2 == 0 else v + margin)
    return ThresholdSet(tuple(sorted(values)))


def _inject(x: list[float], y: np.ndarray) -> list[float]:
    """Join the estimate ``y`` into the row ``x``.

    ``y`` fills the finite coordinates of ``x`` in order; the others take
    -inf (lower bounds) and inf (upper bounds).  A variable whose filled
    pair is inverted keeps its bounds, a Bottom component takes the
    filled pair, and every other bound is joined, a tie keeping the
    bound of ``x``.  Raises ValueError on a non-finite estimate or one
    that does not cover the finite coordinates of ``x``.
    """
    est = y.tolist()
    if not all(map(math.isfinite, est)):
        raise ValueError("combined vector must contain only finite values")
    finite = list(map(math.isfinite, x))
    if len(est) != sum(finite):
        raise ValueError(
            f"vector has {len(est)} coordinates, the row has {sum(finite)} finite ones"
        )
    it = iter(est)
    filled = [next(it) if ok else (INF if j % 2 else -INF) for j, ok in enumerate(finite)]
    out = [*x]
    for j in range(0, len(x), 2):
        lo, hi = filled[j], filled[j + 1]
        if lo > hi:
            continue
        if x[j] > x[j + 1]:
            out[j], out[j + 1] = lo, hi
            continue
        if lo < x[j]:
            out[j] = lo
        if hi > x[j + 1]:
            out[j + 1] = hi
    return out


def analyze(p: Program, cfg: EngineConfig) -> tuple[FixpointReport, IterationTrace]:
    """Iterate from the declared initial state in the mode ``cfg`` selects.

    In accel mode, estimates that would not change the state are not
    counted as injections and do not consume the once-policy budget.
    If no injection lands for ``fallback_after`` iterations, the run
    switches to threshold widening seeded from the last estimate (then
    standard widening via the implicit infinities), guaranteeing
    termination.
    """
    names = p.state_names
    initial = p.initial_state()
    trace = IterationTrace(variables=names, initial=initial)
    x = bound_row(initial).tolist()
    acc = _Accelerator(cfg, len(x)) if cfg.mode == "accel" else None
    if acc is not None:
        acc.push(x)

    injections = 0
    last_injection_iter = 0
    accel_done = False  # once-policy budget spent
    fallback: ThresholdSet | None = None
    sealed = False
    reason = "max-iter"
    converged_flag = False

    for i in range(1, cfg.max_iter + 1):
        prev = x
        joined = state_join(x, transfer(p, x))
        if cfg.mode == "widen" and i > cfg.widen_delay:
            if cfg.thresholds is not None:
                x = state_widen_thresholds(prev, joined, cfg.thresholds)
            else:
                x = state_widen_std(prev, joined)
            event = "widen-step" if x != joined else "plain-step"
        elif cfg.mode == "accel" and fallback is not None:
            x = state_widen_thresholds(prev, joined, fallback)
            event = "fallback-widen"
        else:
            x = joined
            event = "plain-step"

        accel_row: tuple[float | None, ...] | None = None
        injected_now = False
        if acc is not None and fallback is None and not accel_done:
            acc.push(x)
            y = acc.candidate()
            if acc.fresh is not None:
                accel_row = acc.full_estimate_row(acc.fresh)
            if y is not None:
                candidate = _inject(x, y)
                if candidate != x:
                    x = candidate
                    injections += 1
                    last_injection_iter = i
                    injected_now = True
                    event = "injection"
                    if cfg.inject_policy == "once":
                        accel_done = True
                    else:
                        acc.replace_last(x)

        if x == prev:
            reason = "converged"
            converged_flag = True
        elif (
            not injected_now
            and cfg.stop_tol > 0.0
            and _moved_at_most(prev, x, cfg.stop_tol)
        ):
            reason = "converged-tolerance"
            converged_flag = True

        if converged_flag:
            event = "converged"
        trace.records.append(TraceRecord(i, tuple(x), accel_row, event, names))
        if converged_flag:
            break

        if (
            acc is not None
            and fallback is None
            and i - last_injection_iter >= cfg.fallback_after
        ):
            fallback = _fallback_thresholds(acc)
            accel_done = True

    trace.reason = reason
    if reason == "converged-tolerance":
        x = _seal(p, x)
        sealed = True
    invariant = state_from_row(names, x)
    sound = verify_postfixpoint(p, invariant)
    report = FixpointReport(
        invariant=invariant,
        iterations=trace.iterations,
        injections=injections,
        sound=sound,
        converged=converged_flag,
        reason=reason + ("+sealed" if sealed else ""),
    )
    return report, trace
