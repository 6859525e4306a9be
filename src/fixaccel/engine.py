"""Fixpoint computation strategies over affine loop programs.

Three modes share one iteration loop:

* ``kleene`` — plain joins until the iterates stabilize;
* ``widen`` — joins replaced by (threshold) widening after an optional
  delay, guaranteeing termination;
* ``accel`` — plain joins plus a sequence transformation watching the
  iterate bounds; when two consecutive estimates agree to a relative
  ``delta``, the current iterate joined with the estimate and padded
  outward is tried as a post-fixpoint (``_verify``).  The first
  candidate that verifies is the result (an "injection"), which cuts
  off the remaining convergence tail.  The plain rows are computed up
  to ``LOOKAHEAD`` at a time and fed to the transformation as one block
  (``_Accelerator``); the loop takes them one iteration at a time, so
  the block size changes no result.

Stabilization is detected either bit-exactly or, in kleene and widen
mode and after an accel run's fallback, when the largest bound movement
in one iteration falls under ``stop_tol``; a tolerance-detected result
is then "sealed" — inflated outward a hair until the transfer function
maps it into itself — so every reported convergent invariant is a
machine-checked post-fixpoint.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import eq, le, sub
from typing import Literal, get_args

import numpy as np

from .extraction import bound_row, state_from_row
# not called here; bound because the benchmark tracer wraps these names
from .extraction import combine_detailed  # noqa: F401
from .intervals import INF, AbstractState, ThresholdSet
from .programs import Program
from .transforms import EstimateStream, converged
# not called here; bound because the benchmark tracer wraps these names
from .transforms import aitken, epsilon_diagonal, vector_epsilon_diagonal  # noqa: F401

Mode = Literal["kleene", "widen", "accel"]
Method = Literal["aitken", "epsilon", "vector-epsilon"]
InjectPolicy = Literal["once", "repeat"]


@dataclass(frozen=True)
class EngineConfig:
    """Everything a fixpoint run needs besides the program itself: the
    one statement of each setting's name, default and choices (the
    ``Literal`` types), from which the CLI's ``analyze`` options and the
    ``config`` block of its JSON report are read."""

    mode: Mode = "accel"
    method: Method = "vector-epsilon"
    delta: float = 1e-6
    widen_delay: int = 0
    thresholds: ThresholdSet | None = None
    inject_policy: InjectPolicy = "once"
    fallback_after: int = 20
    max_iter: int = 10000
    stop_tol: float = 3e-7

    def __post_init__(self) -> None:
        for name, choices in (("mode", Mode), ("method", Method), ("inject_policy", InjectPolicy)):
            value = getattr(self, name)
            if value not in get_args(choices):
                raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")
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


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """One iteration: the resulting bounds, the fresh accelerated
    estimate if one was computed (full coordinate layout, None where no
    estimate exists), and what kind of step happened.

    ``bounds`` holds the row the loop carried, as it was given: a tuple
    of floats, or a read-only float64 array from a run that keeps its
    rows in arrays.  ``row`` holds the bounds as a tuple of floats, (lo,
    hi) pairs in the order of ``variables`` (the tuple itself, or one
    built from the array on first access), and ``state`` the same as an
    AbstractState, built on first access.  Records compare by identity,
    as an array has no truth value.
    """

    index: int
    bounds: tuple[float, ...] | np.ndarray
    accel: tuple[float | None, ...] | None
    event: str  # plain-step | widen-step | injection | fallback-widen | converged
    variables: tuple[str, ...]

    @property
    def row(self) -> tuple[float, ...]:
        # a plain property: a cached one costs the CLI's trace writer
        # about 0.6 us per record of a list run, whose row is its tuple
        b = self.bounds
        return b if type(b) is tuple else self._array_row

    @cached_property
    def _array_row(self) -> tuple[float, ...]:
        return tuple(self.bounds.tolist())

    @cached_property
    def state(self) -> AbstractState:
        return state_from_row(self.variables, self.row)


@dataclass
class IterationTrace:
    """The full history of one engine run."""

    variables: tuple[str, ...]
    initial: AbstractState
    records: list[TraceRecord] = field(default_factory=list)
    reason: str = "running"  # converged | converged-tolerance | verified-injection | max-iter

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


# The loop carries the state as a bound row laid out like
# ``extraction.bound_row``, (lo_1, hi_1, ..., lo_v, hi_v), with a Bottom
# component as (inf, -inf): a float64 array in a kleene or widen run on a
# body with a level schedule, whose rows are wide, and a list of floats
# otherwise, where NumPy's per-call cost would exceed the work (see
# ``analyze``).  The row operations below compute exactly what their
# interval counterparts in ``intervals`` and ``programs`` compute, on
# either type, and carry the same names, under which the benchmark's
# tracer (perfbench/tracer.py) times them.

Row = list[float] | np.ndarray


def transfer(p: Program, x: Row) -> Row:
    """``programs.transfer`` on a bound row, through the lowered body."""
    return p.lowered.image(x)


def state_join(x: Row, y: Row) -> Row:
    """Bound-wise join: min of the lower, max of the upper bounds, as a
    row of the type of ``x`` (both rows are of one type).

    The (inf, -inf) encoding makes Bottom the identity of both, so this
    equals ``intervals.join`` on every component.  Like ``min`` and
    ``max``, a tie keeps the bound of ``x`` (which matters for 0.0 and
    -0.0).
    """
    if type(x) is not list:
        grow = np.less(y, x)  # the lower bounds; then the upper ones
        np.greater(y[1::2], x[1::2], out=grow[1::2])
        return np.where(grow, y, x)
    out = [*x]
    out[::2] = [b if b < a else a for a, b in zip(x[::2], y[::2])]
    out[1::2] = [b if b > a else a for a, b in zip(x[1::2], y[1::2])]
    return out


def state_leq(x: Row, y: Row) -> bool:
    """Inclusion of ``x`` in ``y``, bound by bound; with Bottom encoded
    as (inf, -inf) this equals ``intervals.leq`` on every component."""
    return all(map(le, y[::2], x[::2])) and all(map(le, x[1::2], y[1::2]))


def _widen_rows(x: Row, y: Row, down, up) -> Row:
    """Keep each stable bound of ``x``; send an unstable lower bound of
    ``y`` to ``down(lo)`` and an unstable upper bound to ``up(hi)``.
    Bottom on either side yields the other operand's component.  Array
    rows are widened as lists."""
    if type(x) is not list:
        return np.array(_widen_rows(x.tolist(), y.tolist(), down, up))
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


def state_widen_std(x: Row, y: Row) -> Row:
    """``intervals.widen_std`` on every component of two bound rows."""
    return _widen_rows(x, y, lambda lo: -INF, lambda hi: INF)


def state_widen_thresholds(x: Row, y: Row, t: ThresholdSet) -> Row:
    """``intervals.widen_thresholds`` on every component of two bound
    rows: unstable bounds snap to the nearest threshold beyond them."""
    return _widen_rows(x, y, t.snap_down, t.snap_up)


def verify_postfixpoint(p: Program, x: AbstractState) -> bool:
    """True iff one more abstract loop execution stays inside ``x``."""
    row = p.row_of(x)
    with np.errstate(all="ignore"):
        return state_leq(transfer(p, row), row)


def _moved_at_most(a: list[float], b: list[float], tol: float) -> bool:
    """True iff no bound moved by more than ``tol`` between two rows; an
    infinite bound that changed counts as an infinite move.  Stops at the
    first bound that moved further."""
    return all(u == v or abs(u - v) <= tol for u, v in zip(a, b))


def _arrays_moved_at_most(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """``_moved_at_most`` on two array rows (inf - inf is NaN, and no
    NaN is at most ``tol``); the caller holds the NumPy error state."""
    return bool(((a == b) | (abs(a - b) <= tol)).all())


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``a == b`` of the two rows as lists (the loop's rows hold no NaN)."""
    return bool((a == b).all())


def _read_only(x: np.ndarray) -> np.ndarray:
    """``x``, which a trace record then shares, made read-only."""
    x.flags.writeable = False
    return x


# A tolerance-detected result is sealed in at most SEAL_ROUNDS rounds.
# Verified injection (Rump, "Verification methods", Acta Numerica 2010):
# a candidate is scaled outward by 1 + VERIFY_PAD and mapped through
# x ⊔ F, inflated again after each image, up to VERIFY_ROUNDS images.
SEAL_ROUNDS = 60
VERIFY_PAD = 1e-9
VERIFY_ROUNDS = 12


def _seal(p: Program, x: list[float]) -> list[float]:
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
    for r in range(SEAL_ROUNDS):
        fx = transfer(p, x)
        # one max, so that 0.0 comes first and a NaN is never selected
        escape = max(0.0, *map(sub, x[::2], fx[::2]), *map(sub, fx[1::2], x[1::2]))
        if escape <= 0.0:
            return x
        if math.isinf(escape):
            return state_join(x, fx)
        pad = 4.0**r * max(escape, 1e-12)
        x = state_join(x, fx)
        x[::2] = [v if math.isinf(v) else v - pad for v in x[::2]]
        x[1::2] = [v if math.isinf(v) else v + pad for v in x[1::2]]
    return x


def _inflate(x: list[float]) -> list[float]:
    """Move every bound of a row outward by VERIFY_PAD times its
    magnitude.  A zero or infinite bound stays where it is, and so does
    Bottom's (inf, -inf)."""
    up, down = 1.0 + VERIFY_PAD, 1.0 - VERIFY_PAD
    out = [*x]
    out[::2] = [v * down if v > 0.0 else v * up for v in x[::2]]
    out[1::2] = [v * up if v > 0.0 else v * down for v in x[1::2]]
    return out


def _verify(p: Program, base: list[float], c: list[float]) -> list[float] | None:
    """A row above ``c`` that ``base ⊔ F`` maps into itself, or None.

    Starts from ``c`` inflated; while the image base ⊔ F(c) is not
    inside c, the inflated image is the next c.  The pad is relative
    and fixed, so for a contracting body the slack settles at about
    (I - |A|)^-1 applied to the pads, and c closes in a few rounds.  A
    row that passes contains ``base`` and F of itself.

    The engine passes its current state x_i as ``base``.  On a Kleene
    iterate, x_i = x0 ⊔ F(x_{i-1}), so base ⊔ F(c) equals x0 ⊔ F(c) for
    every c above x_i (F is monotone): the check is Rump's.  After an
    unverified join under the ``repeat`` policy, it keeps the result
    above the joined state, so that every injection grows the state.
    """
    c = _inflate(c)
    for _ in range(VERIFY_ROUNDS):
        image = state_join(base, transfer(p, c))
        if state_leq(image, c):
            return c
        c = _inflate(image)
    return None


# How many Kleene rows an accel run computes ahead of the iteration it is
# at, to push them to the estimator as one block.  A larger block spreads
# the estimator's NumPy calls over more rows but computes more rows past
# the one that verifies; of 8, 12 and 16, 12 ran the accel-tail benchmark
# fastest.
LOOKAHEAD = 12


def _finite(x: list[float]) -> list[int]:
    """The positions of the finite bounds of a row."""
    # v - v is 0.0 for a finite v and NaN for an infinite one
    return [j for j, v in enumerate(x) if v - v == 0.0]


class _Accelerator:
    """Computes the plain Kleene rows of an accel run ahead, feeds them
    to the estimator in blocks, and hands them out one iteration at a
    time with their estimates.

    Until an injection changes the state or the fallback starts, the
    run's rows are x_{i+1} = x_i ⊔ F(x_i), so ``take`` computes up to n of
    them at once, through the same ``transfer`` and ``state_join`` as the
    loop, pushes them to the ``EstimateStream`` as one block, and queues
    each with its estimate and its finite coordinates.  A row equal to
    the one before it, an exact fixpoint, ends the block and is not
    pushed.  ``start`` drops the queue and begins a new stream.

    The stream sees only the finite coordinates of each row; when the
    set changes, it keeps the surviving coordinates or starts over.
    ``active``, ``last`` and ``prev`` describe the newest row taken, not
    the newest row pushed: ``active`` lists its finite coordinates,
    ``last`` is its estimate, one value per entry of ``active``, and
    ``prev`` is the estimate ``ready`` saw last.  Estimates are compared
    only while the finite-coordinate set is unchanged.  Nothing here
    enters an error state: it runs inside the one ``analyze`` holds.
    """

    def __init__(self, p: Program, cfg: EngineConfig, x: list[float]):
        self.p = p
        self.cfg = cfg
        self.queue: deque[tuple[list[float], np.ndarray | None, list[int] | None]] = deque()
        self.start(x)

    def start(self, x: list[float]) -> None:
        """Forget every row: ``x`` starts a new stream, pushed as the
        first row of the next block."""
        self.stream: EstimateStream | None = None
        self.pushed: list[int] = []  # the finite coordinates of the newest row pushed
        self.queue.clear()
        self.tip = x  # the newest row computed
        self.taken = [x]  # rows taken but not pushed yet
        self.active, self.prev, self.last = _finite(x), None, None

    def take(self, n: int) -> tuple[list[float], np.ndarray | None]:
        """The next Kleene row and its estimate (None while the stream
        has none, and for an exact fixpoint).  When no row is queued,
        the next n are computed first."""
        if not self.queue:
            self._ahead(n)
        x, y, active = self.queue.popleft()
        if active is not None:
            if active != self.active:
                # coordinate set changed: restart the comparison chain
                self.active, self.prev = active, None
            self.last = y
        return x, y

    def _ahead(self, n: int) -> None:
        """Compute up to n Kleene rows after ``tip``, push them, after
        the rows taken but not pushed yet, and queue them."""
        x, rows = self.tip, []
        while len(rows) < n:
            nxt = state_join(x, transfer(self.p, x))
            if nxt == x:
                break
            rows.append(nxt)
            x = nxt
        self.tip = x
        self.queue.extend(self._push(self.taken + rows)[len(self.taken):])
        self.taken = []
        if len(rows) < n:
            # an exact fixpoint needs no estimate: the run stops there
            self.queue.append((nxt, None, None))

    def _push(self, rows: list[list[float]]) -> list:
        """Feed the finite coordinates of ``rows`` to the stream, one
        block per run of rows with the same finite coordinates, and
        return (row, estimate, finite coordinates) for each."""
        out: list = []
        first = 0
        for k, x in enumerate(rows):
            active = _finite(x)
            if active != self.pushed:
                out += self._estimates(rows[first:k])
                self._switch(active)
                first = k
        return out + self._estimates(rows[first:])

    def _switch(self, active: list[int]) -> None:
        if not active:
            self.stream = None  # nothing to accelerate
        elif self.stream is not None and set(active) <= set(self.pushed):
            self.stream.keep([self.pushed.index(j) for j in active])
        else:
            # new coordinates (a Bottom variable that became finite)
            # have no finite history: the stream starts from this row
            self.stream = EstimateStream(self.cfg.method)
        self.pushed = active

    def _estimates(self, rows: list[list[float]]) -> list:
        active = self.pushed
        if self.stream is None or not rows:
            return [(x, None, active) for x in rows]
        block = rows if len(active) == len(rows[0]) else [[x[j] for j in active] for x in rows]
        return list(zip(rows, self.stream.push_rows_unguarded(block), repeat(active)))

    def ready(self, y: np.ndarray) -> bool:
        """True when every coordinate of the fresh estimate ``y`` is
        within delta * max(1, |y|) of the one passed here before it."""
        prev, self.prev = self.prev, y
        if prev is None:
            return False
        return converged(y, prev, self.cfg.delta)


def _fallback_thresholds(acc: _Accelerator) -> ThresholdSet:
    """Thresholds for the emergency widening: the last accelerated
    estimate with each bound relaxed outward by a relative margin.  A
    bound whose threshold is not finite adds none: the implicit
    infinities of ``ThresholdSet`` already stand for it."""
    values: set[float] = set()
    if acc.last is not None:
        for coord, v in zip(acc.active, acc.last.tolist()):
            margin = max(1e-6, 1e-6 * abs(v))
            t = v - margin if coord % 2 == 0 else v + margin
            if math.isfinite(t):
                values.add(t)
    return ThresholdSet(tuple(sorted(values)))


def _inject(x: list[float], active: list[int], y: np.ndarray) -> list[float]:
    """Join the estimate ``y`` of the coordinates ``active`` into the
    row ``x``.

    Every other coordinate keeps its value, so a Bottom component stays
    Bottom.  A variable whose estimated pair is inverted keeps its
    bounds, and every other bound is joined (``state_join``, a tie
    keeping the bound of ``x``).  Raises ValueError on a non-finite
    estimate or one whose length differs from that of ``active``.
    """
    est = y.tolist()
    if not all(map(math.isfinite, est)):
        raise ValueError("combined vector must contain only finite values")
    if len(est) != len(active):
        raise ValueError(f"vector has {len(est)} coordinates for {len(active)} active ones")
    filled = [*x]
    for j, v in zip(active, est):
        filled[j] = v
    for j in range(0, len(x), 2):
        if filled[j] > filled[j + 1]:
            filled[j], filled[j + 1] = x[j], x[j + 1]
    return state_join(x, filled)


def analyze(p: Program, cfg: EngineConfig) -> tuple[FixpointReport, IterationTrace]:
    """Iterate from the declared initial state in the mode ``cfg`` selects.

    In accel mode, whenever a fresh estimate agrees with the one before
    it, the state joined with the estimate is tried as a verified
    post-fixpoint (``_verify``).  One that verifies is the result: the
    run records it as an injection and stops.  A rejected candidate is
    dropped under the ``once`` policy; under ``repeat`` it is joined in
    unverified, as long as it changes the state, and the estimator
    restarts from the joined state.  The tolerance stop waits for the
    fallback.  After 2 * ``fallback_after`` rejected candidates, or
    2 * ``fallback_after`` iterations since the last agreement (since
    the start while there is none), the run switches to threshold
    widening seeded from the last estimate (then standard widening via
    the implicit infinities), guaranteeing termination.
    """
    names = p.state_names
    initial = p.initial_state()
    trace = IterationTrace(variables=names, initial=initial)
    # lowered here, before the loop, not inside a transfer.  A run without
    # the estimator on a scheduled body keeps its rows in float64 arrays
    # up to the seal; on rows of a few dozen bounds, which the other runs
    # have, NumPy's per-call cost exceeds the list operations'
    arrays = cfg.mode != "accel" and p.lowered.schedule is not None
    if arrays:
        x = bound_row(initial)
        same, moved, record = _arrays_equal, _arrays_moved_at_most, _read_only
    else:
        x = bound_row(initial).tolist()
        same, moved, record = eq, _moved_at_most, tuple
    acc = _Accelerator(p, cfg, x) if cfg.mode == "accel" else None
    injections = 0
    rejected = 0  # candidates that did not verify
    agreed = 0  # the iteration of the newest agreement
    fallback: ThresholdSet | None = None
    reason = "max-iter"  # until the run stops
    budget = 2 * cfg.fallback_after

    # one error state for the loop, the verification and the seal: a
    # bound may overflow to inf, and the estimators divide by zero and
    # make NaN where a denominator vanishes, all of which they handle
    with np.errstate(all="ignore"):
        for i in range(1, cfg.max_iter + 1):
            prev = x
            accel_row: tuple[float | None, ...] | None = None
            if acc is not None and fallback is None:
                # rows computed ahead stop at max_iter and at the
                # iteration where the fallback would fire: that of the
                # clock, or of the last rejection the budget allows
                x, y = acc.take(1 + min(
                    LOOKAHEAD - 1, cfg.max_iter - i, agreed + budget - i, budget - 1 - rejected
                ))
                event = "plain-step"
                if y is not None and len(acc.active) == len(x):
                    accel_row = tuple(y.tolist())
                elif y is not None:
                    est: list[float | None] = [None] * len(x)
                    for j, v in zip(acc.active, y.tolist()):
                        est[j] = v
                    accel_row = tuple(est)
                if y is not None and acc.ready(y):
                    agreed = i
                    candidate = _inject(x, acc.active, y)
                    verified = _verify(p, x, candidate)
                    if verified is not None:
                        x = verified
                        injections += 1
                        reason = "verified-injection"
                        trace.records.append(TraceRecord(i, record(x), accel_row, "injection", names))
                        break
                    rejected += 1
                    if cfg.inject_policy == "repeat" and candidate != x:
                        x = candidate
                        injections += 1
                        event = "injection"
                        acc.start(x)
            else:
                joined = state_join(x, transfer(p, x))
                if cfg.mode == "widen" and i > cfg.widen_delay:
                    if cfg.thresholds is not None:
                        x = state_widen_thresholds(prev, joined, cfg.thresholds)
                    else:
                        x = state_widen_std(prev, joined)
                    event = "plain-step" if same(x, joined) else "widen-step"
                elif fallback is not None:
                    x = state_widen_thresholds(prev, joined, fallback)
                    event = "fallback-widen"
                else:
                    x = joined
                    event = "plain-step"

            if same(x, prev):
                reason = "converged"
            elif (
                # until the fallback, an accel run ends at a verified injection
                (acc is None or fallback is not None)
                and cfg.stop_tol > 0.0
                and moved(prev, x, cfg.stop_tol)
            ):
                reason = "converged-tolerance"
            if reason != "max-iter":
                trace.records.append(TraceRecord(i, record(x), accel_row, "converged", names))
                break
            trace.records.append(TraceRecord(i, record(x), accel_row, event, names))

            if acc is not None and fallback is None and (
                rejected >= budget or i - agreed >= budget
            ):
                fallback = _fallback_thresholds(acc)

        trace.reason = reason
        if arrays:
            x = x.tolist()
        if reason == "converged-tolerance":
            x = _seal(p, x)
        invariant = state_from_row(names, x)
        sound = verify_postfixpoint(p, invariant)
    report = FixpointReport(
        invariant=invariant,
        iterations=trace.iterations,
        injections=injections,
        sound=sound,
        converged=reason != "max-iter",
        reason=reason + ("+sealed" if reason == "converged-tolerance" else ""),
    )
    return report, trace
