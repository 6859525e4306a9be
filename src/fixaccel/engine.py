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
from typing import Literal

import numpy as np

from .extraction import ExtractionSchema, bound_row, combine_detailed, extract
from .intervals import (
    AbstractState,
    Interval,
    ThresholdSet,
    join,
    state_join,
    state_leq,
    state_widen_std,
    state_widen_thresholds,
)
from .programs import Program, transfer
from .transforms import (
    TransformConfig,
    aitken,
    converged,
    epsilon_diagonal,
    vector_epsilon_diagonal,
)

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
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be non-negative")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration: the resulting state, the fresh accelerated
    estimate if one was computed (full coordinate layout, None where no
    estimate exists), and what kind of step happened."""

    index: int
    state: AbstractState
    accel: tuple[float | None, ...] | None
    event: str  # plain-step | widen-step | injection | fallback-widen | converged


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


def verify_postfixpoint(p: Program, x: AbstractState) -> bool:
    """True iff one more abstract loop execution stays inside ``x``."""
    return state_leq(transfer(p, x), x)


def _max_change(a: AbstractState, b: AbstractState) -> float:
    """Largest absolute bound movement between two states (inf-aware)."""
    worst = 0.0
    for iv_a, iv_b in zip(a.intervals, b.intervals):
        for u, v in ((iv_a.lo, iv_b.lo), (iv_a.hi, iv_b.hi)):
            if u == v:
                continue
            if math.isinf(u) or math.isinf(v):
                return math.inf
            worst = max(worst, abs(u - v))
    return worst


def _seal(p: Program, x: AbstractState, max_rounds: int = 60) -> AbstractState:
    """Inflate a nearly-stable state outward until it verifies as a
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
        for iv, fv in zip(x.intervals, fx.intervals):
            escape = max(escape, iv.lo - fv.lo, fv.hi - iv.hi)
        if escape <= 0.0:
            return x
        if math.isinf(escape):
            return state_join(x, fx)
        pad = 4.0**r * max(escape, 1e-12)
        joined = state_join(x, fx)
        padded: list[tuple[str, Interval]] = []
        for name, iv in joined:
            lo = iv.lo if math.isinf(iv.lo) else iv.lo - pad
            hi = iv.hi if math.isinf(iv.hi) else iv.hi + pad
            padded.append((name, Interval(lo, hi)))
        x = AbstractState(padded)
    return x


class _Accelerator:
    """Watches the iterate rows and produces injection candidates.

    Keeps the full prefix of bound rows; on request recomputes the
    transformation over the finite coordinates of the latest row and
    reports a fresh estimate whenever new accelerated evidence exists
    (a new transformed element for Aitken, a deeper even-diagonal entry
    for the epsilon methods).  Estimates are compared only while the
    finite-coordinate set is unchanged.
    """

    def __init__(self, cfg: EngineConfig, n_coords: int):
        self.cfg = cfg
        self.rows: list[np.ndarray] = []
        self.active: tuple[int, ...] = ()
        self.depth = 0
        self.y_prev: np.ndarray | None = None
        self.fresh: np.ndarray | None = None
        self.last_estimate: np.ndarray | None = None
        self.last_active: tuple[int, ...] = ()
        self.n_coords = n_coords

    def push(self, x: AbstractState) -> None:
        self.rows.append(bound_row(x))

    def replace_last(self, x: AbstractState) -> None:
        self.rows[-1] = bound_row(x)

    def _estimate(self) -> np.ndarray | None:
        """Fresh accelerated estimate over active coords, or None."""
        current = self.rows[-1]
        active = tuple(int(j) for j in np.flatnonzero(np.isfinite(current)))
        if not active:
            return None  # nothing to accelerate
        if active != self.active:
            # coordinate set changed: restart the comparison chain
            self.active = active
            self.depth = 0
            self.y_prev = None
        m = len(self.rows)
        idx = list(active)
        matrix = np.array([row[idx] for row in self.rows])
        tf = self.cfg.transform
        if self.cfg.method == "aitken":
            if m < 3:
                return None
            y = np.array([aitken(matrix[:, c], tf)[-1].value
                          for c in range(matrix.shape[1])])
            return y
        depth = (m - 1) // 2
        if depth <= self.depth or depth < 1:
            return None
        self.depth = depth
        if self.cfg.method == "vector-epsilon":
            diag = vector_epsilon_diagonal(matrix, tf)
            return np.asarray(diag[depth].value, dtype=float)
        # componentwise scalar epsilon diagonal
        return np.array([epsilon_diagonal(matrix[:, c], tf)[depth].value
                         for c in range(matrix.shape[1])])

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


def _inject(
    x: AbstractState, y: np.ndarray, schema: ExtractionSchema
) -> AbstractState:
    """Join the combined estimate into ``x``, skipping variables whose
    accelerated pair arrived inverted.  ``y`` covers the coordinates
    that are finite in ``x``."""
    combined, swapped = combine_detailed(y, extract(x, schema).excluded, schema)
    merged: list[tuple[str, Interval]] = []
    for (name, iv), cv in zip(x, combined.intervals):
        merged.append((name, iv if name in swapped else join(iv, cv)))
    return AbstractState(merged)


def analyze(p: Program, cfg: EngineConfig) -> tuple[FixpointReport, IterationTrace]:
    """Iterate from the declared initial state in the mode ``cfg`` selects.

    In accel mode, estimates that would not change the state are not
    counted as injections and do not consume the once-policy budget.
    If no injection lands for ``fallback_after`` iterations, the run
    switches to threshold widening seeded from the last estimate (then
    standard widening via the implicit infinities), guaranteeing
    termination.
    """
    x = p.initial_state()
    trace = IterationTrace(variables=p.state_names, initial=x)
    schema = ExtractionSchema.for_variables(p.state_names)
    acc = _Accelerator(cfg, 2 * len(p.state_names)) if cfg.mode == "accel" else None
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
                candidate = _inject(x, y, schema)
                if candidate != x:
                    x = candidate
                    acc.replace_last(x)
                    injections += 1
                    last_injection_iter = i
                    injected_now = True
                    event = "injection"
                    if cfg.inject_policy == "once":
                        accel_done = True

        exact = x == prev
        change = 0.0 if exact else _max_change(prev, x)
        if exact:
            reason = "converged"
            converged_flag = True
        elif (
            not injected_now
            and cfg.stop_tol > 0.0
            and change <= cfg.stop_tol
        ):
            reason = "converged-tolerance"
            converged_flag = True

        if converged_flag:
            event = "converged"
        trace.records.append(TraceRecord(i, x, accel_row, event))
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
    invariant = x
    if reason == "converged-tolerance":
        invariant = _seal(p, invariant)
        sealed = True
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
