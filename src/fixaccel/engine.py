"""Fixpoint computation strategies over affine loop programs.

* ``kleene`` — plain joins until the iterates stabilize;
* ``widen`` — joins replaced by (threshold) widening after an optional
  delay, guaranteeing termination;
* ``accel`` — plain joins plus a sequence transformation watching the
  iterate bounds; when two consecutive estimates agree to a relative
  ``delta``, the current iterate joined with the estimate and padded
  outward is tried as a post-fixpoint (``_verify``).  The first
  candidate that verifies is the result (an "injection"), which cuts
  off the remaining convergence tail.  When the estimates fail, the run
  falls back to threshold widening.

Every mode runs one loop, ``_iterate``: while the transformation
(``EstimateStream``) watches, it computes the rows in blocks, pushes
each block to the stream, which returns each row's estimate and
agreement flag at once, and then walks it one iteration at a time, so
the block sizes change no result.  Stabilization is detected either
bit-exactly or, once nothing watches, when the largest bound movement
in one iteration falls under ``stop_tol``; a tolerance stop is then
finished (``_finish``) by the vector-epsilon tip of its last rows,
verified as a post-fixpoint, or left as it stopped where the tip does
not verify.  ``sound`` is the check ``verify_postfixpoint`` on every
result.

Every row and check runs the body's ``image``, bit-identical to
interval evaluation, with one exception: on a body that keeps a
composed linear map (a long chain of levels, such as a dense
Gauss-Seidel sweep), the loop's ascending array rows (which rows are
arrays, ``LoweredBody.loop_row`` says) take their images from that map,
a few ulps off.  An iteration that stops is computed again from
``image``, and the verification, the finish and the check run ``image``
only, so a sound invariant is a post-fixpoint of ``image``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq
from typing import Literal, get_args

import numpy as np

from .extraction import bound_row, state_from_row
from .intervals import INF, NO_THRESHOLDS, AbstractState, ThresholdSet
from .programs import Program
from .transforms import EstimateStream, Method, vector_epsilon_tip
# not called here; bound because the benchmark tracer wraps these names
from .extraction import combine_detailed  # noqa: F401
from .transforms import aitken, converged, epsilon_diagonal, vector_epsilon_diagonal  # noqa: F401

Mode = Literal["kleene", "widen", "accel"]
# "repeat", a retired policy that joined a rejected estimate into the
# state, stays an alias of "once": the acceptance tests and the
# benchmark both pass it
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
    read-only float64 array where ``LoweredBody.loop_row`` made the first
    row an array.  ``row`` holds it as a tuple, (lo, hi) pairs
    in the order of ``variables``, and ``state`` as an AbstractState,
    each built on first access.
    Records compare by identity, as an array has no truth value.
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
# Bottom component as (inf, -inf): that list, or the float64 array that
# ``LoweredBody.loop_row`` makes of it; ``_inject`` and ``_verify`` take
# lists always.
# The row operations below compute exactly what their interval
# counterparts in ``intervals`` and ``programs`` compute, on either type,
# and carry the same names, under which the benchmark's tracer
# (perfbench/tracer.py) times them.  On lists they are plain loops over
# the (lo, hi) pairs, which measured faster than slices and
# comprehensions at every width (CHANGES.md, "List rows as plain loops").

Row = list[float] | np.ndarray


def transfer(p: Program, x: Row) -> Row:
    """``programs.transfer`` on a bound row, through the lowered body, the
    one place that picks its image by the row's type: a list row takes the
    exact ``image``, and an array row, the loop's, which holds no Bottom
    (see ``LoweredBody.loop_row``), ``linear_image``."""
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


# The tracer wraps both names below, so neither calls the other.  The
# loop calls only the second; the first is bound for the tracer and the API.
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


def _stop_lists(prev: list[float], x: list[float], tol: float, out: None = None) -> str | None:
    """The reason the loop stops at row ``x`` after ``prev``, or None:
    "converged" when no bound moved, "converged-tolerance" when none
    moved by more than ``tol`` > 0.  An infinite bound that changed
    counts as an infinite move; the test stops at the first bound that
    moved further.  ``out`` is ``_stop_arrays``'s, unused on lists."""
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
    more than ``tol`` iff it is > ``tol``.  Without a tolerance, the row
    moved iff a bound is ``!=``, which one comparison tells.  The caller
    holds the NumPy error state."""
    if not tol > 0.0:
        return None if np.count_nonzero(np.not_equal(x, prev)) else "converged"
    d = np.subtract(x, prev, out)
    moved = np.fmax.reduce(np.absolute(d, d), 0, None, None, False, -INF)
    if not moved > 0.0:
        return "converged"
    if not moved > tol:
        return "converged-tolerance"
    return None


def _read_only(x: np.ndarray) -> np.ndarray:
    """``x``, which the trace then shares, made read-only."""
    x.setflags(write=False)
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
    """The engine's finish of a tolerance stop: the
    ``vector_epsilon_tip`` of the last FINISH_ROWS of the trace's
    ``rows`` (``x0``, the initial row, in front while there are fewer),
    verified by ``_verify`` from ``x0``; None if the tip is not finite or
    does not verify.  The window and the verification are the engine's
    policy; ``transforms`` reads the table."""
    tip = vector_epsilon_tip(np.array([x0, *rows[-FINISH_ROWS:]][-FINISH_ROWS:]))
    return None if tip is None else _verify(p, x0, tip.tolist())


# How many Kleene rows the loop computes ahead of the iteration it is at
# while the estimator watches, to push them to it as one block.  A larger
# block spreads the estimator's NumPy calls over more rows but computes
# more rows past the one that verifies; of 8, 12 and 16, 12 ran the
# accel-tail benchmark fastest.  The first block is twice as long,
# because an estimator call costs about the same on 12 rows as on 24
# (the cost is per column) and the accel-tail benchmark's 288 analyses
# verify at iteration 14 to 37, 198 of them by row 24: a first block of
# 24 makes 1.32 estimator calls a run where one of 12 made 2.32, and
# computes no more rows there, since the blocks still end at rows 24, 36
# and 48.  A run that verifies within 12 rows computes up to 12 rows
# more.
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


def _widen(prev: Row, joined: Row, widening: tuple | None, same) -> tuple[Row, str]:
    """``joined``, the join of ``prev`` with its image, widened from
    ``prev`` by the block's ``widening``, (thresholds, event), and the
    event: the block's, or, if None, ``widen-step`` where a bound moved."""
    if widening is None:
        return joined, "plain-step"
    t, event = widening
    x = state_widen_thresholds(prev, joined, t)
    return x, event or ("plain-step" if same(x, joined) else "widen-step")


def _iterate(p: Program, cfg: EngineConfig, x: list[float],
             trace: IterationTrace) -> tuple[list[float], str]:
    """The loop of every mode, from the initial row ``x``: joins, widened
    after the delay in widen mode or by the fallback thresholds of an
    accel run, until the row is stable, bit-exactly or (unless the
    tolerance is 0) to ``stop_tol``, an injection verifies, or
    ``max_iter``.  Returns the final row, as a list, and the reason.

    Every row has the type of the first, an array or a list, which
    ``LoweredBody.loop_row`` gives; that type picks the row operations
    once a run.

    The rows are computed in blocks, each widened throughout or not at
    all, and go into the trace as they are computed.  In accel mode the
    ``EstimateStream`` watches: each block, of ``FIRST_BLOCK`` rows and
    then ``LOOKAHEAD``, is pushed to it (the first after the initial row,
    ``pending``) and walked in the trace, setting each row's estimate.
    A row whose estimate agrees, to ``delta``, with the one before is
    joined with it and tried by ``_verify``, on lists; the first that
    verifies replaces the rows from its iteration on, as an injection,
    and is the result.  After 2 * ``fallback_after`` rejections, or as
    many iterations since the newest agreement (or the start), the
    stream stops and the rest of the run widens by thresholds from the
    newest estimate.  A block ends at ``max_iter`` and where the fallback
    would fire, so the block sizes change no result.  While the stream
    watches, the stop's tolerance is 0.0.  When nothing watches, the rest
    of the run is one block, cut in widen mode at ``widen_delay``.

    Where the body keeps a composed map, an array row that stops is
    computed again through ``image`` (see the module docstring), and the
    loop goes on from that row if it does not stop too.  It runs inside
    the error state ``analyze`` holds.
    """
    x = p.lowered.loop_row(x)
    if type(x) is not list:
        # np.array_equal is == of the rows as lists: they hold no NaN
        new, same, stop, record = np.array, np.array_equal, _stop_arrays, _read_only
        moves, composed = np.empty_like(x), p.lowered.composed is not None
    else:
        new, same, stop, record, moves, composed = list, eq, _stop_lists, tuple, None, False
    stream = EstimateStream(cfg.method, cfg.delta) if cfg.mode == "accel" else None
    budget, pending, widening, stopped = 2 * cfg.fallback_after, [x], None, None
    i = rejected = agreed = 0  # agreed: the iteration of the newest agreement
    while stopped is None and i < cfg.max_iter:
        end, tol = cfg.max_iter, cfg.stop_tol
        if stream is not None:
            # cut where the fallback would fire: the clock, or the last rejection
            end = min(i + (FIRST_BLOCK if pending else LOOKAHEAD), agreed + budget, i + budget - rejected)
            tol = 0.0
        elif cfg.mode == "widen" and i < cfg.widen_delay:
            end = cfg.widen_delay
        elif cfg.mode == "widen":
            widening = (cfg.thresholds or NO_THRESHOLDS, None)
        for _ in range(min(end, cfg.max_iter) - i):
            prev = x
            x, event = state_join(prev, transfer(p, prev)), "plain-step"
            if widening is not None:
                x, event = _widen(prev, x, widening, same)
            stopped = stop(prev, x, tol, moves)
            if stopped is not None and composed:
                x, event = _widen(prev, state_join(prev, np.array(transfer(p, prev.tolist()))), widening, same)
                stopped = stop(prev, x, tol, moves)
            if stopped is not None:
                break
            trace.append(record(x), None, event)
        start, i = i, trace.iterations
        if stream is None or i == start:
            continue
        pushed, pending = stream.push_rows_unguarded(pending + trace.rows[start:])[len(pending):], []
        for j, (est, agrees) in enumerate(pushed, start):
            trace.estimates[j] = est
            if agrees:
                agreed = j + 1
                as_list = list(trace.rows[j]) if new is list else trace.rows[j].tolist()
                verified = _verify(p, as_list, _inject(as_list, est))
                if verified is not None:
                    del trace.rows[j:], trace.estimates[j:], trace.events[j:]
                    trace.append(record(new(verified)), est, "injection")
                    return verified, "verified-injection"
                rejected += 1
        # cut as it is, only a block's last row can fire the fallback
        if rejected >= budget or i - agreed >= budget:
            widening, stream = (_fallback_thresholds(trace.estimates[-1]), "fallback-widen"), None
    if stopped is not None:
        trace.append(record(x), None, "converged")
    return (x if type(x) is list else x.tolist()), stopped or "max-iter"


def analyze(p: Program, cfg: EngineConfig) -> tuple[FixpointReport, IterationTrace]:
    """Iterate from the declared initial state (``_iterate``, in every
    mode).  A tolerance stop is then finished, unless the finish fails,
    and the result checked as a post-fixpoint."""
    # lowered first: a Program that breaks a rule of ``_assign`` is
    # refused by it, and no traced transfer's time holds the lowering
    p.lowered
    names = p.state_names
    initial = p.initial_state()
    trace = IterationTrace(variables=names, initial=initial)
    x0 = bound_row(initial)
    # one error state for the loops, the finish and the check: a bound may
    # overflow to inf, and the estimators divide by zero and make NaN
    # where a denominator vanishes, all of which they handle
    with np.errstate(all="ignore"):
        x, reason = _iterate(p, cfg, x0, trace)
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
