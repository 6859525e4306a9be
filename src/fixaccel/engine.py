"""Fixpoint computation strategies over affine loop programs.

* ``kleene`` — plain joins until the iterates stabilize;
* ``widen`` — joins replaced by (threshold) widening after an optional
  delay, guaranteeing termination;
* ``accel`` — plain joins plus a sequence transformation watching the
  iterate bounds; when two consecutive estimates agree to a relative
  ``delta``, the current iterate joined with the estimate and padded
  outward is tried as a post-fixpoint (``_verify``).  The first
  candidate that verifies is the result (an "injection"), which cuts
  off the remaining convergence tail.  The plain rows are computed up
  to ``FIRST_BLOCK`` at first and ``LOOKAHEAD`` after that at a time,
  pushed to the transformation (``EstimateStream``), which returns
  each row's estimate and agreement flag for the block at once, then
  taken one iteration at a time (``_accelerate``), so the block sizes
  change no result.  When the estimates fail, the run falls back to
  threshold widening.

An accel run has two phases: the accel phase (``_accelerate``) and,
after a fallback, the plain loop (``_iterate``), which kleene and widen
runs use from the start.  Stabilization is detected either bit-exactly
or, in the plain loop only, when the largest bound movement in one
iteration falls under ``stop_tol``; a tolerance stop is then finished
(``_finish``) by the vector-epsilon tip of its last rows, verified as a
post-fixpoint, or left as it stopped where the tip does not verify.
``sound`` is the check ``verify_postfixpoint`` on every result.

Every row and check runs the body's ``image``, bit-identical to
interval evaluation, with one exception: on a body that keeps a
composed linear map (a long chain of levels, such as a dense
Gauss-Seidel sweep), the plain loop's ascending rows take their images
from that map, a few ulps off.  An iteration that stops is computed
again from ``image``, and the finish, the verification and the check run
``image`` only, so a sound invariant is a post-fixpoint of ``image``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import eq
from typing import Literal, get_args

import numpy as np

from .extraction import bound_row, state_from_row
from .intervals import INF, NO_THRESHOLDS, AbstractState, ThresholdSet
from .programs import Program
from .transforms import STALL_TOLERANCE, EstimateStream, Method, _epsilon_table
# not called here; bound because the benchmark tracer wraps these names
from .extraction import combine_detailed  # noqa: F401
from .transforms import aitken, converged, epsilon_diagonal, vector_epsilon_diagonal  # noqa: F401

Mode = Literal["kleene", "widen", "accel"]
# "repeat", a retired policy that joined a rejected estimate into the
# state, is accepted as an alias of "once" for one release
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
        if self.inject_policy == "repeat":
            object.__setattr__(self, "inject_policy", "once")
        if self.mode == "accel" and not self.delta > 0:
            raise ValueError("delta must be positive in accel mode")
        for name, least in (("max_iter", 1), ("widen_delay", 0), ("fallback_after", 1)):
            value = getattr(self, name)
            # __index__ is what operator.index takes: an int or a NumPy
            # integer; a bool has it too, but is no count
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__") or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
        if not self.stop_tol >= 0:
            raise ValueError("stop_tol must be non-negative")
        if self.thresholds is not None and not isinstance(self.thresholds, ThresholdSet):
            raise ValueError(f"thresholds must be None or a ThresholdSet, not {self.thresholds!r}")


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """One iteration: the resulting bounds, the fresh accelerated
    estimate if one was computed (full coordinate layout, None where no
    estimate exists), and what kind of step happened.

    ``bounds`` holds the row the loop carried: a tuple of floats, or a
    read-only float64 array from a run on arrays.  ``row`` holds it as a
    tuple, (lo, hi) pairs in the order of ``variables``, and ``state``
    as an AbstractState, each built on first access.  Records compare by
    identity, as an array has no truth value.
    """

    index: int
    bounds: tuple[float, ...] | np.ndarray
    accel: tuple[float | None, ...] | None
    # plain-step | widen-step | injection (the verified final row) |
    # fallback-widen | converged
    event: str
    variables: tuple[str, ...]

    @cached_property
    def row(self) -> tuple[float, ...]:
        return self.bounds if type(self.bounds) is tuple else tuple(self.bounds.tolist())

    @cached_property
    def state(self) -> AbstractState:
        return state_from_row(self.variables, self.row)


@dataclass(eq=False)
class IterationTrace:
    """One engine run's history in three columns, one entry per
    iteration, iteration i at position i - 1: ``rows`` holds each
    record's ``bounds``, ``estimates`` its ``accel``, ``events`` its
    ``event``.  ``records`` builds the records on each access, as a
    tuple (so a stray append raises); traces compare by identity."""

    variables: tuple[str, ...]
    initial: AbstractState
    rows: list[tuple[float, ...] | np.ndarray] = field(default_factory=list)
    estimates: list[tuple[float | None, ...] | None] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    # converged | converged-tolerance (before the finish) | verified-injection | max-iter
    reason: str = "running"

    def append(self, row, estimate, event: str) -> None:
        self.rows.append(row)
        self.estimates.append(estimate)
        self.events.append(event)

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        cols = zip(self.rows, self.estimates, self.events)
        return tuple(TraceRecord(i, *c, self.variables) for i, c in enumerate(cols, 1))


@dataclass(frozen=True)
class FixpointReport:
    """Outcome of a run: the invariant and how we got there.  ``reason``
    is the trace's, with ``+finished`` after a tolerance stop whose
    finish verified; ``sound`` is ``verify_postfixpoint``'s verdict."""

    invariant: AbstractState
    iterations: int
    injections: int
    sound: bool
    converged: bool
    reason: str


# The loop carries the state as a bound row laid out like
# ``extraction.bound_row``'s list, [lo_1, hi_1, ..., lo_v, hi_v], with a
# Bottom component as (inf, -inf): that list itself, except in the plain
# loop on a body with a level schedule, whose rows are wide and carried
# as float64 arrays, where NumPy's per-call cost is paid back (see
# ``_iterate``).  The row operations below compute exactly what their
# interval counterparts in ``intervals`` and ``programs`` compute, on
# either type, and carry the same names, under which the benchmark's
# tracer (perfbench/tracer.py) times them.  On lists they are plain
# loops over the (lo, hi) pairs, which measured faster than slices and
# comprehensions at every width (CHANGES.md, "List rows as plain loops").

Row = list[float] | np.ndarray


def transfer(p: Program, x: Row) -> Row:
    """``programs.transfer`` on a bound row, through the lowered body: a
    list row through ``image``, and an array row, which only the plain
    loop carries and then without Bottom, through ``linear_image``, the
    body's composed map where it keeps one."""
    return p.lowered.image(x) if type(x) is list else p.lowered.linear_image(x)


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
    out = []
    xs, ys = iter(x), iter(y)
    for lo, hi, ylo, yhi in zip(xs, xs, ys, ys):
        out.append(ylo if ylo < lo else lo)
        out.append(yhi if yhi > hi else hi)
    return out


def state_leq(x: Row, y: Row) -> bool:
    """Inclusion of ``x`` in ``y``, bound by bound; with Bottom encoded
    as (inf, -inf) this equals ``intervals.leq`` on every component."""
    xs, ys = iter(x), iter(y)
    for lo, hi, ylo, yhi in zip(xs, xs, ys, ys):
        if not (ylo <= lo and hi <= yhi):
            return False
    return True


def _widen_rows(x: Row, y: Row, t: ThresholdSet) -> Row:
    """Keep each stable bound of ``x``; snap an unstable lower bound of
    ``y`` down and an unstable upper bound up to ``t``.  Bottom on either
    side yields the other operand's component.  Array rows are widened
    as lists."""
    if type(x) is not list:
        return np.array(_widen_rows(x.tolist(), y.tolist(), t))
    down, up = t.snap_down, t.snap_up
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


# The tracer wraps both names below, so neither calls the other.
def state_widen_std(x: Row, y: Row) -> Row:
    """``intervals.widen_std`` on every component of two bound rows."""
    return _widen_rows(x, y, NO_THRESHOLDS)


def state_widen_thresholds(x: Row, y: Row, t: ThresholdSet) -> Row:
    """``intervals.widen_thresholds`` on every component of two bound
    rows: unstable bounds snap to the nearest threshold beyond them."""
    return _widen_rows(x, y, t)


def verify_postfixpoint(p: Program, x: AbstractState) -> bool:
    """True iff one more abstract loop execution stays inside ``x``."""
    row = p.row_of(x)
    with np.errstate(all="ignore"):
        return state_leq(transfer(p, row), row)


def _stop_lists(prev: list[float], x: list[float], tol: float) -> str | None:
    """The reason the plain loop stops at row ``x`` after ``prev``, or
    None: "converged" when no bound moved, "converged-tolerance" when
    none moved by more than ``tol`` > 0.  An infinite bound that changed
    counts as an infinite move; the test stops at the first bound that
    moved further."""
    if x == prev:
        return "converged"
    if not tol > 0.0:
        return None
    for u, v in zip(prev, x):
        if u != v and not abs(u - v) <= tol:
            return None
    return "converged-tolerance"


def _stop_arrays(prev: np.ndarray, x: np.ndarray, tol: float,
                 out: np.ndarray | None = None) -> str | None:
    """``_stop_lists`` on array rows, with one reduction; the moves are
    computed into ``out``, a float64 array of the rows' length, where
    given.

    A bound moved by ``|x - prev|``: an infinite move is +inf, and so is
    a finite one that overflows, while a bound that stayed infinite is
    inf - inf, NaN, which ``fmax`` passes over (``-inf`` stands for no
    move at all).  So the row moved iff the largest move is > 0, and by
    more than ``tol`` iff it is > ``tol``.  The caller holds the NumPy
    error state."""
    d = np.subtract(x, prev, out)
    moved = np.fmax.reduce(np.absolute(d, d), 0, None, None, False, -INF)
    if not moved > 0.0:
        return "converged"
    if not moved > tol:
        return "converged-tolerance"
    return None


def _read_only(x: np.ndarray) -> np.ndarray:
    """``x``, which the trace then shares, made read-only."""
    x.flags.writeable = False
    return x


# Verified injection (Rump, "Verification methods", Acta Numerica 2010):
# a candidate is scaled outward by 1 + VERIFY_PAD and mapped through
# x ⊔ F, inflated again after each image, up to VERIFY_ROUNDS images.
VERIFY_PAD = 1e-9
VERIFY_ROUNDS = 12
# A tolerance stop is finished from the vector-epsilon tip of this many
# rows, eps_4^(0); on random contracting loops longer windows verified
# fewer stops, their deeper columns stalling on the rows' tiny moves.
FINISH_ROWS = 5


def _inflate(x: list[float]) -> list[float]:
    """Move every bound of a row outward by VERIFY_PAD times its
    magnitude.  A zero or infinite bound stays where it is, and so does
    Bottom's (inf, -inf)."""
    up, down = 1.0 + VERIFY_PAD, 1.0 - VERIFY_PAD
    out = []
    xs = iter(x)
    for lo, hi in zip(xs, xs):
        out.append(lo * down if lo > 0.0 else lo * up)
        out.append(hi * up if hi > 0.0 else hi * down)
    return out


def _verify(p: Program, base: list[float], c: list[float]) -> list[float] | None:
    """A row above ``c`` that ``base ⊔ F`` maps into itself, or None.

    Starts from ``c`` inflated; while the image base ⊔ F(c) is not
    inside c, the inflated image is the next c.  The pad is relative
    and fixed, so for a contracting body the slack settles at about
    (I - |A|)^-1 applied to the pads, and c closes in a few rounds.  A
    row that passes contains ``base`` and F of itself.

    An injection passes its current state x_i as ``base``.  On a Kleene
    iterate, x_i = x0 ⊔ F(x_{i-1}), so base ⊔ F(c) equals x0 ⊔ F(c) for
    every c above x_i (F is monotone): the check is Rump's.  The finish
    passes the initial row x0 itself.
    """
    c = _inflate(c)
    for _ in range(VERIFY_ROUNDS):
        image = state_join(base, transfer(p, c))
        if state_leq(image, c):
            return c
        c = _inflate(image)
    return None


def _finish(p: Program, x0: list[float], rows: list) -> list[float] | None:
    """The vector-epsilon tip of the last FINISH_ROWS of the trace's
    ``rows`` (``x0``, the initial row, in front while fewer), verified
    by ``_verify`` from ``x0``; None if it is not finite or does not
    verify.  The tip is eps_4^(0) of five rows, or where that stalls the
    newest valid cell of a shallower even column, over the coordinates
    finite in every row; the others keep the last row's values."""
    rows = np.array([x0, *rows[-FINISH_ROWS:]][-FINISH_ROWS:])
    finite = np.isfinite(rows).all(axis=0)
    tol = STALL_TOLERANCE
    tip = _epsilon_table(None, rows[:, finite], tol, tol, len(rows) - 1, True)[2][-1]
    if not np.isfinite(tip).all():
        return None
    rows[-1, finite] = tip
    return _verify(p, x0, rows[-1].tolist())


# How many Kleene rows an accel run computes ahead of the iteration it is
# at, to push them to the estimator as one block.  A larger block spreads
# the estimator's NumPy calls over more rows but computes more rows past
# the one that verifies; of 8, 12 and 16, 12 ran the accel-tail benchmark
# fastest.  The first block is twice as long, because an estimator call
# costs about the same on 12 rows as on 24 (the cost is per column) and
# the accel-tail benchmark's 288 analyses verify at iteration 14 to 37,
# 198 of them by row 24: a first block of 24 makes 1.32 estimator calls a
# run where one of 12 made 2.32, and computes no more rows there, since
# the blocks still end at rows 24, 36 and 48.  A run that verifies within
# 12 rows computes up to 12 rows more.
LOOKAHEAD = 12
FIRST_BLOCK = 2 * LOOKAHEAD


def _fallback_thresholds(estimate: tuple[float | None, ...] | None) -> ThresholdSet:
    """Thresholds for the emergency widening: the newest iteration's
    laid-out ``estimate``, if any, with each bound relaxed outward by a
    relative margin.  A bound whose threshold is not finite adds none: the
    implicit infinities of ``ThresholdSet`` already stand for it."""
    values: set[float] = set()
    for coord, v in enumerate(estimate or ()):
        if v is not None:
            margin = max(1e-6, 1e-6 * abs(v))
            t = v - margin if coord % 2 == 0 else v + margin
            if math.isfinite(t):
                values.add(t)
    return ThresholdSet(tuple(sorted(values)))


def _inject(x: list[float], est: tuple[float | None, ...]) -> list[float]:
    """Join the estimate ``est``, laid out over the row (None where it
    covers nothing), into the row ``x``.

    A coordinate without an estimate keeps its value, so a Bottom
    component stays Bottom.  A variable whose estimated pair is inverted
    keeps its bounds, and every other bound is joined (``state_join``, a
    tie keeping the bound of ``x``).  Raises ValueError on a non-finite
    estimate.
    """
    if not all(v is None or math.isfinite(v) for v in est):
        raise ValueError("combined vector must contain only finite values")
    filled = [a if v is None else v for a, v in zip(x, est)]
    for j in range(0, len(x), 2):
        if filled[j] > filled[j + 1]:
            filled[j], filled[j + 1] = x[j], x[j + 1]
    return state_join(x, filled)


def _step(cfg: EngineConfig, i: int, prev: Row, fx: Row, fallback: ThresholdSet | None,
          same) -> tuple[Row, str]:
    """Iteration ``i`` of the plain loop from ``prev``, whose image is
    ``fx``: the row and its event."""
    joined = state_join(prev, fx)
    if fallback is not None:
        return state_widen_thresholds(prev, joined, fallback), "fallback-widen"
    if cfg.mode == "widen" and i > cfg.widen_delay:
        if cfg.thresholds is not None:
            x = state_widen_thresholds(prev, joined, cfg.thresholds)
        else:
            x = state_widen_std(prev, joined)
        return x, "plain-step" if same(x, joined) else "widen-step"
    return joined, "plain-step"


def _iterate(p: Program, cfg: EngineConfig, x: list[float], trace: IterationTrace,
             fallback: ThresholdSet | None) -> tuple[list[float], str]:
    """The plain loop from the iteration after the last in ``trace``:
    joins, widened after the delay in widen mode or by the ``fallback``
    thresholds of an accel run, until the row is stable, bit-exactly or
    (unless ``stop_tol`` is 0) to ``stop_tol``, or ``max_iter``.  Returns
    the final row, as a list, and the reason.  On a scheduled body the
    rows are float64 arrays (see the row comment above), and the stop
    test computes the bounds' moves into one buffer for the whole run.

    A row is tested for Bottom only until one holds none: each row after
    it is joined with it, a join keeps every pair that holds ``lo <= hi``
    so, and widening only moves bounds outward.  A row that holds Bottom
    (only a ``Program`` built through the API has one) goes to
    ``transfer`` as a list, which ``image`` routes to ``affine_eval``;
    every later row goes as it is, so ``linear_image`` makes no Bottom
    test of its own.

    Where the body keeps a composed map, ``transfer`` takes the rows'
    images from it, a few ulps off ``image``'s.  So an iteration that
    stops is computed again from ``image`` and stops only if that row
    stops too; the loop goes on from that row if it does not.  A stop,
    and so the finish and every check after it, rests on ``image`` alone.
    """
    lowered = p.lowered
    # bottom: whether the array row may hold Bottom, until one holds none
    if lowered.schedule is not None:
        x = np.array(x)
        # np.array_equal is == of the rows as lists: they hold no NaN
        same, stop, record = np.array_equal, partial(_stop_arrays, out=np.empty_like(x)), _read_only
        bottom = True
    else:
        same, stop, record, bottom = eq, _stop_lists, tuple, False
    reason = "max-iter"
    for i in range(trace.iterations + 1, cfg.max_iter + 1):
        prev = x
        if bottom:
            bottom = bool(np.count_nonzero(prev[::2] > prev[1::2]))
        fx = np.array(transfer(p, prev.tolist())) if bottom else transfer(p, prev)
        x, event = _step(cfg, i, prev, fx, fallback, same)
        stopped = stop(prev, x, cfg.stop_tol)
        if stopped is not None and lowered.composed is not None:
            x, event = _step(cfg, i, prev, lowered.image(prev), fallback, same)
            stopped = stop(prev, x, cfg.stop_tol)
        if stopped is not None:
            reason, event = stopped, "converged"
        trace.append(record(x), None, event)
        if reason != "max-iter":
            break
    return (x if type(x) is list else x.tolist()), reason


def _accelerate(p: Program, cfg: EngineConfig, x: list[float],
                trace: IterationTrace) -> tuple[list[float], str]:
    """The accel phase: Kleene rows from the initial row ``x``, watched
    by the estimator.  Returns the final row and the reason the run
    stopped.

    The rows are x_{i+1} = x_i ⊔ F(x_i), so each block computes up to n
    of them ahead, n being ``FIRST_BLOCK`` for the first block and
    ``LOOKAHEAD`` for the others, through the same ``transfer`` and
    ``state_join`` as the plain loop, pushes them to the
    ``EstimateStream`` as one block (the first after the initial row,
    which waits in ``pending`` for it), and then walks them one
    iteration at a time, each with the estimate the stream laid out
    over it and whether that estimate agrees, to ``delta``, with the one
    before it on the same coordinates.  A block that stops short of n
    rows has reached an exact fixpoint, recorded as the iteration after
    its last row.  Nothing here enters an error state: it runs inside
    the one ``analyze`` holds.

    Whenever a fresh estimate agrees with the one before it, the state
    joined with the estimate is tried as a verified post-fixpoint
    (``_verify``).  One that verifies is the result: the run records it
    as an injection and stops.  A rejected candidate is dropped.  The
    phase also stops at ``max_iter``.  After 2 * ``fallback_after``
    rejected candidates, or 2 * ``fallback_after`` iterations since the
    last agreement (since the start while there is none), it hands the
    run to the plain loop with threshold widening seeded from the last
    estimate (then standard widening via the implicit infinities),
    guaranteeing termination.
    """
    budget = 2 * cfg.fallback_after
    stream, pending = EstimateStream(cfg.method, cfg.delta), [x]
    i = rejected = 0
    agreed = 0  # the iteration of the newest agreement
    while i < cfg.max_iter:
        # a block stops at max_iter and at the iteration where the
        # fallback would fire: that of the clock, or of the last
        # rejection the budget allows
        n = min(FIRST_BLOCK if pending else LOOKAHEAD, cfg.max_iter - i,
                agreed + budget - i, budget - rejected)
        rows, row = [], x
        while len(rows) < n:
            nxt = state_join(row, transfer(p, row))
            if nxt == row:
                break
            rows.append(row := nxt)
        estimates = stream.push_rows_unguarded(pending + rows)[len(pending):] if rows else []
        pending = []
        for x, (est, agrees) in zip(rows, estimates):
            i += 1
            if agrees:
                agreed = i
                verified = _verify(p, x, _inject(x, est))
                if verified is not None:
                    trace.append(tuple(verified), est, "injection")
                    return verified, "verified-injection"
                rejected += 1
            trace.append(tuple(x), est, "plain-step")
            if rejected >= budget or i - agreed >= budget:
                return _iterate(p, cfg, x, trace, _fallback_thresholds(est))
        if len(rows) < n:
            trace.append(tuple(x), None, "converged")
            return x, "converged"
    return x, "max-iter"


def analyze(p: Program, cfg: EngineConfig) -> tuple[FixpointReport, IterationTrace]:
    """Iterate from the declared initial state: the accel phase in accel
    mode, the plain loop otherwise.  A tolerance stop is then finished,
    unless the finish fails, and the result checked as a post-fixpoint."""
    names = p.state_names
    initial = p.initial_state()
    trace = IterationTrace(variables=names, initial=initial)
    x0 = bound_row(initial)
    p.lowered  # lowered here, so that no traced transfer's time holds the lowering
    # one error state for the loops, the finish and the check: a bound may
    # overflow to inf, and the estimators divide by zero and make NaN
    # where a denominator vanishes, all of which they handle
    with np.errstate(all="ignore"):
        if cfg.mode == "accel":
            x, reason = _accelerate(p, cfg, x0, trace)
        else:
            x, reason = _iterate(p, cfg, x0, trace, None)
        trace.reason = reason
        if reason == "converged-tolerance":
            finished = _finish(p, x0, trace.rows)
            if finished is not None:
                x, reason = finished, reason + "+finished"
        invariant = state_from_row(names, x)
        sound = verify_postfixpoint(p, invariant)
    report = FixpointReport(
        invariant=invariant,
        iterations=trace.iterations,
        injections=trace.events.count("injection"),
        sound=sound,
        converged=reason != "max-iter",
        reason=reason,
    )
    return report, trace
