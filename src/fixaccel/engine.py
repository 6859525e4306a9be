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
  to ``LOOKAHEAD`` at a time and pushed to the transformation as one
  block, then taken one iteration at a time (``_accelerate``), so the
  block size changes no result.  When the estimates fail, the run falls
  back to threshold widening.

An accel run has two phases: the accel phase (``_accelerate``) and,
after a fallback, the plain loop (``_iterate``), which kleene and widen
runs use from the start.  Stabilization is detected either bit-exactly
or, in the plain loop only, when the largest bound movement in one
iteration falls under ``stop_tol``; a tolerance-detected result is then
"sealed" — inflated outward a hair until the transfer function maps it
into itself — so every reported convergent invariant is a
machine-checked post-fixpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq, sub
from typing import Literal, get_args

import numpy as np

from .extraction import bound_row, state_from_row
# not called here; bound because the benchmark tracer wraps these names
from .extraction import combine_detailed  # noqa: F401
from .intervals import INF, NO_THRESHOLDS, AbstractState, ThresholdSet
from .programs import Program
from .transforms import EstimateStream, Method, converged
# not called here; bound because the benchmark tracer wraps these names
from .transforms import aitken, epsilon_diagonal, vector_epsilon_diagonal  # noqa: F401

Mode = Literal["kleene", "widen", "accel"]
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
        for name, least in (("max_iter", 1), ("widen_delay", 0), ("fallback_after", 1)):
            value = getattr(self, name)
            # __index__ is what operator.index takes: an int or a NumPy
            # integer; a bool has it too, but is no count
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__") or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
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
# component as (inf, -inf): a float64 array in the plain loop on a body
# with a level schedule, whose rows are wide, and a list of floats
# otherwise, where NumPy's per-call cost would exceed the work (see
# ``_iterate``).  The row operations below compute exactly what their
# interval counterparts in ``intervals`` and ``programs`` compute, on
# either type, and carry the same names, under which the benchmark's
# tracer (perfbench/tracer.py) times them.  On lists they are plain
# loops over the (lo, hi) pairs, which measured faster than slices and
# comprehensions at every width (ROADMAP item 7).

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


def _stop_arrays(prev: np.ndarray, x: np.ndarray, tol: float) -> str | None:
    """``_stop_lists`` on array rows, with one reduction.

    A bound moved by ``|x - prev|``: an infinite move is +inf, and so is
    a finite one that overflows, while a bound that stayed infinite is
    inf - inf, NaN, which ``fmax`` passes over (``-inf`` stands for no
    move at all).  So the row moved iff the largest move is > 0, and by
    more than ``tol`` iff it is > ``tol``.  The caller holds the NumPy
    error state."""
    moved = np.fmax.reduce(abs(x - prev), 0, None, None, False, -INF)
    if not moved > 0.0:
        return "converged"
    if not moved > tol:
        return "converged-tolerance"
    return None


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


def _fallback_thresholds(record: TraceRecord) -> ThresholdSet:
    """Thresholds for the emergency widening: the estimate of the newest
    record with each bound relaxed outward by a relative margin.  The
    record of an unverified join holds the estimate that was joined.  A
    bound whose threshold is not finite adds none: the implicit
    infinities of ``ThresholdSet`` already stand for it."""
    values: set[float] = set()
    if record.accel is not None:
        for coord, v in enumerate(record.accel):
            if v is None:
                continue
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


def _iterate(
    p: Program, cfg: EngineConfig, x: list[float], start: int, trace: IterationTrace,
    fallback: ThresholdSet | None,
) -> tuple[list[float], str]:
    """The plain loop from iteration ``start``: joins, widened after the
    delay in widen mode or by the ``fallback`` thresholds of an accel
    run, until the row is stable, bit-exactly or (unless ``stop_tol`` is
    0) to ``stop_tol``, or ``max_iter``.  Returns the final row, as a
    list, and the reason.  On a scheduled body the rows are float64
    arrays (see the row comment above)."""
    if p.lowered.schedule is not None:
        x = np.array(x)
        # np.array_equal is == of the rows as lists: they hold no NaN
        same, stop, record = np.array_equal, _stop_arrays, _read_only
    else:
        same, stop, record = eq, _stop_lists, tuple
    names = trace.variables
    reason = "max-iter"
    for i in range(start, cfg.max_iter + 1):
        prev = x
        joined = state_join(x, transfer(p, x))
        if fallback is not None:
            x = state_widen_thresholds(prev, joined, fallback)
            event = "fallback-widen"
        elif cfg.mode == "widen" and i > cfg.widen_delay:
            if cfg.thresholds is not None:
                x = state_widen_thresholds(prev, joined, cfg.thresholds)
            else:
                x = state_widen_std(prev, joined)
            event = "plain-step" if same(x, joined) else "widen-step"
        else:
            x = joined
            event = "plain-step"
        stopped = stop(prev, x, cfg.stop_tol)
        if stopped is not None:
            reason, event = stopped, "converged"
        trace.records.append(TraceRecord(i, record(x), None, event, names))
        if reason != "max-iter":
            break
    return (x if type(x) is list else x.tolist()), reason


def _accelerate(
    p: Program, cfg: EngineConfig, x: list[float], trace: IterationTrace
) -> tuple[list[float], str]:
    """The accel phase: Kleene rows from the initial row ``x``, watched
    by the estimator.  Returns the final row and the reason the run
    stopped.

    Until an injection changes the state or the fallback starts, the
    rows are x_{i+1} = x_i ⊔ F(x_i), so each block computes up to n of
    them ahead, through the same ``transfer`` and ``state_join`` as the
    plain loop, pushes them to the ``EstimateStream`` as one block (after
    the start row of a new stream, which waits in ``pending`` for it),
    and then walks them one iteration at a time.  The stream decides
    which finite coordinates each estimate covers, and estimates are
    compared only while those positions stay the same: ``active`` holds
    them and ``last`` the estimate seen last under them.  A block that
    stops short of n rows has reached an exact fixpoint, recorded as the
    iteration after its last row.  Nothing here enters an error state:
    it runs inside the one ``analyze`` holds.

    Whenever a fresh estimate agrees with the one before it, the state
    joined with the estimate is tried as a verified post-fixpoint
    (``_verify``).  One that verifies is the result: the run records it
    as an injection and stops.  A rejected candidate is dropped under
    the ``once`` policy; under ``repeat`` it is joined in unverified, as
    long as it changes the state, and a new stream and comparison chain
    start from the joined state, leaving the rest of the block, which
    follows the state before the join.  The phase also stops at
    ``max_iter``.  After 2 * ``fallback_after`` rejected candidates, or
    2 * ``fallback_after`` iterations since the last agreement (since
    the start while there is none), it hands the run to the plain loop
    with threshold widening seeded from the last estimate (then standard
    widening via the implicit infinities), guaranteeing termination.
    """
    names = trace.variables
    budget = 2 * cfg.fallback_after
    stream, pending = EstimateStream(cfg.method), [x]
    active = last = None
    i = rejected = 0
    agreed = 0  # the iteration of the newest agreement
    while i < cfg.max_iter:
        # a block stops at max_iter and at the iteration where the
        # fallback would fire: that of the clock, or of the last
        # rejection the budget allows
        n = min(LOOKAHEAD, cfg.max_iter - i, agreed + budget - i, budget - rejected)
        rows, row = [], x
        while len(rows) < n:
            nxt = state_join(row, transfer(p, row))
            if nxt == row:
                break
            rows.append(row := nxt)
        estimates = stream.push_rows_unguarded(pending + rows)[len(pending):] if rows else []
        pending = []
        for x, (y, positions) in zip(rows, estimates):
            i += 1
            if positions != active:
                # coordinate set changed: restart the comparison chain
                active, last = positions, None
            event, est = "plain-step", None
            if y is not None:
                est = y.tolist()
                if len(est) < len(x):  # laid out over the row
                    laid = [None] * len(x)
                    for j, v in zip(positions, est):
                        laid[j] = v
                    est = laid
                est = tuple(est)
                prior, last = last, y
                if prior is not None and converged(y, prior, cfg.delta):
                    agreed = i
                    candidate = _inject(x, est)
                    verified = _verify(p, x, candidate)
                    if verified is not None:
                        trace.records.append(TraceRecord(i, tuple(verified), est, "injection", names))
                        return verified, "verified-injection"
                    rejected += 1
                    if cfg.inject_policy == "repeat" and candidate != x:
                        x, event = candidate, "injection"
                        stream, pending = EstimateStream(cfg.method), [x]
                        active = last = None
            trace.records.append(TraceRecord(i, tuple(x), est, event, names))
            if rejected >= budget or i - agreed >= budget:
                return _iterate(p, cfg, x, i + 1, trace, _fallback_thresholds(trace.records[-1]))
            if event == "injection":
                break  # the rest of the block follows the state before the join
        else:
            if len(rows) < n:
                trace.records.append(TraceRecord(i + 1, tuple(x), None, "converged", names))
                return x, "converged"
    return x, "max-iter"


def analyze(p: Program, cfg: EngineConfig) -> tuple[FixpointReport, IterationTrace]:
    """Iterate from the declared initial state: the accel phase in accel
    mode, the plain loop otherwise.  A tolerance stop is then sealed,
    and the result checked as a post-fixpoint."""
    names = p.state_names
    initial = p.initial_state()
    trace = IterationTrace(variables=names, initial=initial)
    x = bound_row(initial).tolist()
    p.lowered  # lowered here, so that no traced transfer's time holds the lowering
    # one error state for the loops, the verification and the seal: a
    # bound may overflow to inf, and the estimators divide by zero and
    # make NaN where a denominator vanishes, all of which they handle
    with np.errstate(all="ignore"):
        if cfg.mode == "accel":
            x, reason = _accelerate(p, cfg, x, trace)
        else:
            x, reason = _iterate(p, cfg, x, 1, trace, None)
        trace.reason = reason
        if reason == "converged-tolerance":
            x = _seal(p, x)
        invariant = state_from_row(names, x)
        sound = verify_postfixpoint(p, invariant)
    report = FixpointReport(
        invariant=invariant,
        iterations=trace.iterations,
        injections=sum(r.event == "injection" for r in trace.records),
        sound=sound,
        converged=reason != "max-iter",
        reason=reason + ("+sealed" if reason == "converged-tolerance" else ""),
    )
    return report, trace
