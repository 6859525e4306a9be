"""The lowered loop body and the engine's row operations, checked
against the interval operations they replace."""
import functools
import hashlib
import math
import operator
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from families import gaussian_program, rand_interval, random_program, relowered, row_program, stop_reason_before

from fixaccel import (
    AbstractState,
    Assignment,
    Interval,
    Program,
    ThresholdSet,
    affine_eval,
    join,
    leq,
    load_bundled,
    parse,
    transfer,
)
from fixaccel import engine, intervals, programs
from fixaccel.extraction import (
    ExtractionSchema,
    bound_row,
    combine_detailed,
    extract,
    state_from_row,
)
from fixaccel.intervals import BOTTOM

COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def programs_and_states(draw):
    """A random body over states, inputs and temporaries, and a state
    whose intervals may be infinite or Bottom (so may the inputs)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = draw(st.integers(1, 4))
    n_inputs = draw(st.integers(0, 3))
    states = [f"x{i}" for i in range(n_states)]
    inputs = [f"u{i}" for i in range(n_inputs)]
    scope = states + inputs
    targets = list(states)
    body = []
    for _ in range(draw(st.integers(1, 8))):
        target = draw(st.sampled_from(targets + [f"t{len(body)}"]))
        reads = draw(st.lists(st.sampled_from(scope), max_size=5))
        terms = tuple((draw(COEFFS), var) for var in reads)
        const = draw(st.floats(-10.0, 10.0, allow_nan=False))
        body.append(Assignment(target, const, terms))
        if target not in scope:
            scope.append(target)
            targets.append(target)
    p = Program(
        tuple((name, rand_interval(rng)) for name in states),
        tuple((name, rand_interval(rng)) for name in inputs),
        tuple(body),
    )
    x = AbstractState((name, rand_interval(rng)) for name in states)
    return p, x


def fold_affine_eval(p, x):
    """The interval semantics of one pass: ``affine_eval`` on each
    assignment in body order over an environment of intervals."""
    env = dict(x)
    env.update(p.input_vars)
    for a in p.body:
        env[a.target] = affine_eval(a.const, [(c, env[var]) for c, var in a.terms])
    return AbstractState((name, env[name]) for name in p.state_names)


def bits(state):
    """Bounds as hex strings, so that 0.0 and -0.0 differ."""
    return [(iv.lo.hex(), iv.hi.hex()) for iv in state.intervals]


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except ValueError:
        return "ValueError"


@settings(max_examples=300, deadline=None)
@given(programs_and_states())
def test_transfer_equals_fold_of_affine_eval(case):
    p, x = case
    assert outcome(transfer, p, x) == outcome(fold_affine_eval, p, x)


def test_bottom_read_with_zero_coefficient_makes_target_bottom():
    p = Program(
        (("x", Interval(0, 1)), ("y", Interval(0, 1))),
        (),
        (Assignment("x", 1.0, ((0.0, "y"),)), Assignment("y", 2.0, ())),
    )
    x = AbstractState([("x", Interval(0, 1)), ("y", Interval(math.inf, -math.inf))])
    out = transfer(p, x)
    assert out["x"].is_bottom
    assert out["y"] == Interval(2.0, 2.0)


def test_coefficients_of_other_numeric_types_lower_as_floats():
    # np.float64 arithmetic would warn on overflow where float stays silent
    p = Program(
        (("x", Interval(0, 1)),),
        (),
        (Assignment("x", 0.0, ((2, "x"), (np.float64(0.5), "x"), (0.25, "x"))),),
    )
    ((lo_slot, const, terms),) = p.lowered.steps
    assert (lo_slot, const) == (0, 0.0)
    assert [(type(c), c) for c, _, _ in terms] == [(float, 2.0), (float, 0.5), (float, 0.25)]
    with pytest.raises(ValueError, match="coefficient must be finite, got inf"):
        Program(p.state_vars, (), (Assignment("x", 0.0, ((np.float64("inf"), "x"),)),)).lowered


SIGNED_ZEROS = [Interval(-0.0, 0.0), Interval(0.0, -0.0), Interval(-0.0, 1.0)]


def rows_and_states(seed, n):
    """Two random states (the second often a superset of the first, as
    in the engine, with some bounds equal) and a threshold set."""
    rng = np.random.default_rng(seed)

    def pick():
        if rng.random() < 0.1:
            return SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
        return rand_interval(rng)

    names = tuple(f"v{i}" for i in range(n))
    a = [pick() for _ in names]
    b = [[pick(), join(u, pick()), u][rng.integers(3)] for u in a]
    ladder = np.unique(rng.normal(scale=10, size=rng.integers(0, 6)))
    t = ThresholdSet(tuple(float(v) for v in ladder))
    return names, AbstractState(zip(names, a)), AbstractState(zip(names, b)), t


def row_types(a, b):
    """Two states as bound rows: lists of floats, then read-only float64
    arrays, as the engine's loop carries them."""
    yield bound_row(a), bound_row(b)
    ra, rb = np.array(bound_row(a)), np.array(bound_row(b))
    ra.flags.writeable = rb.flags.writeable = False
    yield ra, rb


def row_bits(names, row, kind):
    """``bits`` of a row the engine returned, which must be of type ``kind``."""
    assert type(row) is kind
    return bits(state_from_row(names, [float(v) for v in row]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_row_operations_equal_interval_operations(seed, n):
    names, a, b, t = rows_and_states(seed, n)
    for ra, rb in row_types(a, b):
        cases = [
            (engine.state_join(ra, rb), intervals.state_join(a, b)),
            (engine.state_widen_std(ra, rb), intervals.state_widen_std(a, b)),
            (engine.state_widen_thresholds(ra, rb, t), intervals.state_widen_thresholds(a, b, t)),
        ]
        for row, expected in cases:
            assert row_bits(names, row, type(ra)) == bits(expected)
        assert engine.state_leq(ra, rb) == all(
            leq(u, v) for u, v in zip(a.intervals, b.intervals)
        )


def test_nan_in_any_assignment_raises_like_affine_eval():
    # 1e308 * 1e308 overflows to inf; the negative term then adds -inf
    p = Program(
        (("x", Interval(0, 1)),),
        (("u", Interval(1e308, 1e308)),),
        (Assignment("t", 0.0, ((1e308, "u"), (-1e308, "u"))), Assignment("x", 0.5, ())),
    )
    assert outcome(fold_affine_eval, p, p.initial_state()) == "ValueError"
    assert outcome(transfer, p, p.initial_state()) == "ValueError"


def test_row_join_keeps_signed_zeros_like_join():
    names = ("a", "b")
    x = AbstractState(zip(names, [Interval(-0.0, 0.0), Interval(0.0, -0.0)]))
    y = AbstractState(zip(names, [Interval(0.0, -0.0), Interval(-0.0, 0.0)]))
    for rx, ry in row_types(x, y):
        row = engine.state_join(rx, ry)
        assert row_bits(names, row, type(rx)) == bits(intervals.state_join(x, y))


# intervals that tie as signed zeros, reach an infinity, or hold no real
# number: Bottom, and [inf, inf] and [-inf, -inf], which the lattice does
# not take for Bottom and the row keeps as they are
EDGE_INTERVALS = [
    Interval(-0.0, 0.0), Interval(0.0, -0.0), Interval(-0.0, -0.0), Interval(0.0, 0.0),
    Interval(-math.inf, 0.0), Interval(-0.0, math.inf), Interval(-math.inf, math.inf),
    BOTTOM, Interval(math.inf, math.inf), Interval(-math.inf, -math.inf),
]


@st.composite
def wide_row_states(draw):
    """Two states of 1-300 variables: the second often contains the
    first, but for at most one component, and shares or mirrors many of
    its bounds (a signed zero for a zero), so that joins tie and
    inclusion holds or fails at any one component."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    contains = draw(st.booleans())

    def pick():
        if rng.random() < 0.3:
            return EDGE_INTERVALS[rng.integers(len(EDGE_INTERVALS))]
        return rand_interval(rng)

    def mirror(u):
        if u.is_bottom:
            return u
        return Interval(-u.lo if u.lo == 0.0 else u.lo, -u.hi if u.hi == 0.0 else u.hi)

    names = tuple(f"v{i}" for i in range(n))
    a = [pick() for _ in names]
    b = [[u, mirror(u), join(u, pick()), pick()][rng.integers(3 if contains else 4)] for u in a]
    if contains and draw(st.booleans()):  # one component that may not contain
        b[rng.integers(n)] = pick()
    return names, AbstractState(zip(names, a)), AbstractState(zip(names, b))


@settings(max_examples=150, deadline=None)
@given(wide_row_states())
def test_list_join_and_inclusion_equal_the_interval_operations(case):
    names, a, b = case
    x, y = bound_row(a), bound_row(b)
    event(f"inclusion: {engine.state_leq(x, y)}")
    for u, v, rows in ((a, b, (x, y)), (b, a, (y, x))):
        assert row_bits(names, engine.state_join(*rows), list) == bits(intervals.state_join(u, v))
        assert engine.state_leq(*rows) == all(leq(s, t) for s, t in zip(u.intervals, v.intervals))
    assert engine.state_leq(x, engine.state_join(x, y))
    assert x == bound_row(a) and y == bound_row(b)  # neither row is written


@settings(max_examples=150, deadline=None)
@given(wide_row_states())
def test_list_inflate_moves_each_bound_outward_by_its_magnitude(case):
    names, a, _ = case
    up, down = 1.0 + engine.VERIFY_PAD, 1.0 - engine.VERIFY_PAD
    expected = AbstractState(
        (name, Interval(iv.lo * (down if iv.lo > 0.0 else up), iv.hi * (up if iv.hi > 0.0 else down)))
        for name, iv in a
    )
    assert row_bits(names, engine._inflate(bound_row(a)), list) == bits(expected)


@settings(max_examples=150, deadline=None)
@given(wide_row_states(), st.sampled_from([0.0, 3e-7, 1.0, 1e300]))
def test_list_stop_test_on_wide_rows(case, tol):
    # the rows of a growing run, one whose bounds moved by ulps only, and
    # one whose zero bounds moved by exactly ``tol``
    _, a, b = case
    x = bound_row(a)
    near = [v if math.isinf(v) else v + 2.0**-30 * abs(v) for v in x]
    by_tol = [v + tol if v == 0.0 else v for v in x]
    for prev, row in ((x, engine.state_join(x, bound_row(b))), (x, near), (x, by_tol), (x, list(x))):
        with np.errstate(all="ignore"):  # inf - inf
            assert engine._stop_lists(prev, row, tol) == stop_reason_before(prev, row, tol)


def wide_interval(rng):
    """A declared or state interval: often a signed zero, sometimes
    infinite on one side, never Bottom."""
    if rng.random() < 0.15:
        return SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
    return rand_interval(rng, p_bottom=0.0, p_inf=0.05)


def wide_coeff(rng):
    r = rng.random()
    if r < 0.1:
        return [0.0, -0.0][rng.integers(2)]
    if r < 0.2:
        return [1.0, -1.0][rng.integers(2)]
    return float(rng.normal(scale=3))


def wide_const(rng):
    r = rng.random()
    return 0.0 if r < 0.2 else -0.0 if r < 0.4 else float(rng.normal(scale=10))


WIDE_SHAPES = ["batch", "batch", "shared", "extra", "second"]
SHAPE_LEVELS = {"batch": 1, "shared": 2, "extra": 1, "second": 3}


@st.composite
def wide_jacobi_bodies(draw):
    """A Jacobi-form body whose first run is wide enough to be scheduled,
    and its shape.

    Temporaries read the states and inputs, with from zero to many terms
    each (a fifth have none, so the level pads the short rows), together
    at least ``BATCH_MIN_PRODUCTS`` products; the copies back into the
    states depend on them.  Unless an input is Bottom, every shape is
    scheduled, with ``SHAPE_LEVELS`` levels.  Two in five draws have the
    ``batch`` shape: one temporary per state, each copied into its own
    state, whose copies fold into one level.  ``shared`` has fewer
    temporaries than states, so a temporary is copied twice and its
    copies take a second level; ``extra`` has more, so the level also
    writes temporaries; ``second`` is the ``batch`` shape followed by a
    second wide run of temporaries that reads the copied states, and a
    last step that reads those.  Bounds and constants include signed
    zeros and infinite bounds; the state or an input may hold a Bottom,
    and a temporary may overflow to inf or to NaN (1e308 times an input,
    minus the same).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(WIDE_SHAPES))
    n_states = draw(st.integers(1, 12)) + (shape == "shared")
    n_inputs = draw(st.integers(1, 3))
    bottom = draw(st.sampled_from([None, None, None, "state", "input"]))
    overflow = draw(st.sampled_from([None, None, "inf", "nan"]))
    states = [f"x{i}" for i in range(n_states)]
    inputs = [f"u{i}" for i in range(n_inputs)]
    body = []

    def wide_run(prefix, scope, n_temps):
        rows = [
            [(wide_coeff(rng), scope[rng.integers(len(scope))]) for _ in range(k)]
            for k in rng.integers(0, 30, size=n_temps) * (rng.random(n_temps) < 0.8)
        ]
        # lowering drops zero coefficients, which then are no products
        products = sum(1 + sum(c != 0.0 for c, _ in row) for row in rows)
        short = programs.BATCH_MIN_PRODUCTS - products
        # scope[0] is a state: a second run's first row starts a new run
        rows[0] += [(1.5, scope[0])] * max(1, short)
        for i, row in enumerate(rows):
            body.append(Assignment(f"{prefix}{i}", wide_const(rng), tuple(row)))

    if shape == "shared":
        n_temps = int(rng.integers(1, n_states))
    elif shape == "extra":
        n_temps = n_states + int(rng.integers(1, 13))
    else:
        n_temps = n_states
    wide_run("t", states + inputs, n_temps)
    if overflow is not None:
        k = rng.integers(n_temps)
        big = ((1e308, "u0"),) + (((-1e308, "u0"),) if overflow == "nan" else ())
        body[k] = Assignment(body[k].target, body[k].const, body[k].terms + big)
    # the constant -0.0 keeps a -0.0 temporary's sign in the state
    body += [Assignment(x, -0.0, ((1.0, f"t{i % n_temps}"),)) for i, x in enumerate(states)]
    if shape == "second":
        n_more = int(rng.integers(8, 25))
        wide_run("s", states + inputs, n_more)
        body.append(Assignment(states[0], -0.0, ((0.5, "s0"), (-1.0, f"s{n_more - 1}"))))
    input_vars = [(u, wide_interval(rng)) for u in inputs]
    if overflow is not None:
        input_vars[0] = ("u0", Interval(2.0, 3.0))
    state = [(x, wide_interval(rng)) for x in states]
    if bottom == "state":
        k = rng.integers(n_states)
        state[k] = (states[k], BOTTOM)
    elif bottom == "input":
        k = rng.integers(n_inputs)
        input_vars[k] = (inputs[k], BOTTOM)
    p = Program(tuple((x, Interval(0, 1)) for x in states), tuple(input_vars), tuple(body))
    return shape, p, AbstractState(state)


@settings(max_examples=200, deadline=None)
@given(wide_jacobi_bodies())
def test_batched_runs_equal_fold_of_affine_eval(case):
    shape, p, x = case
    # a Bottom input leaves the body no interpreter: affine_eval takes it
    if any(iv.is_bottom for _, iv in p.input_vars):
        assert p.lowered.schedule is p.lowered.steps is None
    else:
        assert len(p.lowered.schedule[1]) == SHAPE_LEVELS[shape]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(transfer, p, x)
    assert got == outcome(fold_affine_eval, p, x)


def test_batched_row_keeps_negative_zero_when_others_pad():
    # t0 has no term, so every other row pads past it; adding a padding
    # +0.0 to its -0.0 constant would give +0.0
    n = programs.BATCH_MIN_PRODUCTS // 8
    body = [Assignment("t0", -0.0, ()), Assignment("t1", -0.0, ((2.0, "x1"),))]
    body += [Assignment(f"t{i}", 1.0, ((0.5, f"x{i}"),) * 8) for i in range(2, n)]
    body += [Assignment(f"x{i}", -0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    states = [(f"x{i}", Interval(0, 1)) for i in range(n)]
    states[1] = ("x1", Interval(-0.0, -0.0))
    p = Program(tuple(states), (), tuple(body))
    assert len(p.lowered.schedule[1]) == 1
    out = transfer(p, p.initial_state())
    for name in ("x0", "x1"):
        assert out[name].lo.hex() == out[name].hi.hex() == (-0.0).hex()
    assert bits(out) == bits(fold_affine_eval(p, p.initial_state()))


def interval_inject(names, x, y):
    """The engine's injection through the interval operations: combine
    the estimate into a state, skip swapped and Bottom variables, join
    the rest."""
    schema = ExtractionSchema.for_variables(names)
    state = state_from_row(names, x)
    combined, swapped = combine_detailed(y, extract(state, schema).excluded, schema)
    return AbstractState(
        (name, iv if name in swapped or iv.is_bottom else join(iv, cv))
        for (name, iv), cv in zip(state, combined.intervals)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_row_inject_equals_interval_join(seed, n):
    names, a, b, _ = rows_and_states(seed, n)
    x = bound_row(a)
    rng = np.random.default_rng(seed)
    # an estimate near the row: ties, signed-zero ties (-v of a zero
    # bound) and inverted pairs included
    y = []
    for v in x:
        if not math.isfinite(v):
            continue
        r = rng.random()
        y.append(v if r < 0.2 else -v if r < 0.4 else v + float(rng.normal(scale=5)))
    # laid out over the row as the engine lays it out: None where the
    # row is not finite
    values = iter(y)
    est = tuple(next(values) if math.isfinite(v) else None for v in x)
    got = engine._inject(x, est)
    assert bits(state_from_row(names, got)) == bits(interval_inject(names, x, y))


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (math.inf, None)])
def test_row_inject_rejects_bad_estimates(bad):
    with pytest.raises(ValueError):
        engine._inject([0.0, 1.0], bad)


FOLD_SHAPES = ["fold", "fold", "subset", "shared", "coeff", "partial", "state", "rewrite"]


@st.composite
def jacobi_copy_bodies(draw):
    """A Jacobi-form body, temporaries then copies back into the states,
    and the shape of its copies.

    ``fold`` copies every temporary into its state as ``x = c + t`` with
    c in {0.0, -0.0, random}, and ``subset`` copies only some of them:
    both fold into the temporaries' level.  So does ``rewrite``, which
    also writes a state in that level that a copy then overwrites.  One
    copy of each other shape must not fold, and takes a second level:
    ``shared`` has a temporary read by one more step, ``coeff`` a copy
    with a coefficient other than 1.0, ``partial`` a step among the
    copies that is no copy, and ``state`` a copy of a state variable the
    temporaries' level writes last.  The copies come in random order.
    The temporaries' products total from half to twice
    ``BATCH_MIN_PRODUCTS``; coefficients include zeros and negatives,
    bounds include signed zeros, and a huge coefficient may overflow a
    temporary to inf or, with its negation, to NaN.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(FOLD_SHAPES))
    overflow = draw(st.sampled_from([None, None, "inf", "nan"]))
    n = draw(st.integers(2, 24))
    states = [f"x{i}" for i in range(n)]
    inputs = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    scope = states + inputs
    products = int(rng.integers(programs.BATCH_MIN_PRODUCTS // 2, 2 * programs.BATCH_MIN_PRODUCTS))
    counts = rng.multinomial(max(0, products - n), np.ones(n) / n)
    body = [
        Assignment(f"t{i}", wide_const(rng), tuple(
            (wide_coeff(rng), scope[rng.integers(len(scope))]) for _ in range(k)
        ))
        for i, k in enumerate(counts)
    ]
    if overflow is not None:
        k = rng.integers(n)
        big = ((1e308, "u0"),) + (((-1e308, "u0"),) if overflow == "nan" else ())
        body[k] = Assignment(body[k].target, body[k].const, body[k].terms + big)
    sources = rng.permutation(n)
    consts = [[0.0, -0.0, float(rng.normal(scale=10))][rng.integers(3)] for _ in states]
    copies = [Assignment(x, c, ((1.0, f"t{j}"),)) for x, c, j in zip(states, consts, sources)]
    k = int(rng.integers(n))
    if shape == "subset":
        # x_k and a few others keep their bounds; their temporaries go too
        kept = [i for i in range(n) if i != k and rng.random() < 0.9] or [(k + 1) % n]
        body = [body[sources[i]] for i in kept]
        copies = [copies[i] for i in kept]
    elif shape == "shared":
        copies.append(Assignment("extra", 0.0, ((0.5, f"t{sources[k]}"),)))
    elif shape == "coeff":
        c = [0.5, -1.0, 1.0000000000000002, 0.0][rng.integers(4)]
        copies[k] = Assignment(states[k], consts[k], ((c, f"t{sources[k]}"),))
    elif shape == "partial":
        copies[k] = Assignment(states[k], 1.0, ((0.5, f"t{sources[k]}"),) * 2)
    elif shape == "state":
        # the temporaries' run writes x_j itself, which only x_k's copy reads
        j = (k + 1) % n
        body = [Assignment(a.target, a.const, tuple(t for t in a.terms if t[1] != states[j])) for a in body]
        t = body[sources[j]]
        body[sources[j]] = Assignment(states[j], t.const, t.terms)
        copies = [a for a in copies if a.target != states[j]]
        copies = [Assignment(states[k], consts[k], ((1.0, states[j]),)) if a.target == states[k] else a for a in copies]
    elif shape == "rewrite":
        # the temporaries' run also writes x_k, which its copy overwrites
        body.append(Assignment(states[k], 0.25, ((0.5, "u0"),)))
    copies = [copies[i] for i in rng.permutation(len(copies))]  # any order is the same body
    init = [(x, wide_interval(rng)) for x in states]
    input_vars = [(u, wide_interval(rng)) for u in inputs]
    if overflow is not None:
        input_vars[0] = ("u0", Interval(2.0, 3.0))
    p = Program(tuple((x, Interval(0, 1)) for x in states), tuple(input_vars), tuple(body + copies))
    return shape, p, AbstractState(init)


@settings(max_examples=300, deadline=None)
@given(jacobi_copy_bodies())
def test_folded_copies_equal_fold_of_affine_eval(case):
    shape, p, x = case
    # the products of the whole body, zero terms included, decide
    products = sum(1 + len(a.terms) for a in p.body)
    levels = 1 if shape in ("fold", "subset", "rewrite") else 2
    if products >= max(programs.BATCH_MIN_PRODUCTS, programs.LEVEL_MIN_PRODUCTS * levels):
        assert len(p.lowered.schedule[1]) == levels
    else:
        assert p.lowered.schedule is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(transfer, p, x)
    assert got == outcome(fold_affine_eval, p, x)


def test_folded_copy_of_a_nan_temporary_raises():
    n = programs.BATCH_MIN_PRODUCTS // 8
    body = [Assignment(f"t{i}", 0.0, ((0.5, f"x{i}"),) * 8) for i in range(n)]
    body[3] = Assignment("t3", 0.0, ((1e308, "u"), (-1e308, "u")))
    body += [Assignment(f"x{i}", -0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    states = tuple((f"x{i}", Interval(0, 1)) for i in range(n))
    p = Program(states, (("u", Interval(2.0, 3.0)),), tuple(body))
    assert len(p.lowered.schedule[1]) == 1
    assert outcome(fold_affine_eval, p, p.initial_state()) == "ValueError"
    assert outcome(transfer, p, p.initial_state()) == "ValueError"


def test_copy_of_a_zero_term_step_folds_into_its_constant():
    # b = 1.0 + 0.0*a reads a only through a dropped zero term, so its
    # copy x = 1.0 + 1.0*b is no copy of a; x is 2.0, not 0.5*x + 1.0.
    # The zero term still orders b after a: two levels, x folded into b
    n = programs.BATCH_MIN_PRODUCTS
    body = [Assignment(f"a{i}", 0.0, ((0.5, f"x{i}"),)) for i in range(n)]
    body += [Assignment(f"b{i}", 1.0, ((0.0, f"a{i}"),)) for i in range(n)]
    body += [Assignment(f"x{i}", 1.0, ((1.0, f"b{i}"),)) for i in range(n)]
    p = Program(tuple((f"x{i}", Interval(0, 1)) for i in range(n)), (), tuple(body))
    assert len(p.lowered.schedule[1]) == 2
    out = transfer(p, p.initial_state())
    assert out["x0"] == Interval(2.0, 2.0)
    assert bits(out) == bits(fold_affine_eval(p, p.initial_state()))


@st.composite
def scheduled_bodies(draw):
    """A body in any order, a state, whether the state, an input or
    nothing holds Bottom, whether a step overflows to NaN, and whether the
    body is wide enough to be scheduled.

    Each step writes a state, in Gauss-Seidel order, or a temporary, a
    new one or one already written, and reads the latest value of up to
    40 states, inputs and temporaries (6 below the schedule's cut), so a
    temporary can be read after a later write of it, or twice.  Some
    steps also read the step before, which chains them; some copy, at
    times twice, a temporary, a copy (a copy of a copy) or a state,
    into a state or a new temporary, with a constant that may be nonzero.
    A run of Jacobi temporaries and their copies back into states may
    follow.  A scheduled body's first step is padded so that the body
    holds ``BATCH_MIN_PRODUCTS`` products and ``LEVEL_MIN_PRODUCTS`` per
    step, so it is scheduled whatever its levels unless an input is
    Bottom; any other body stays below ``BATCH_MIN_PRODUCTS`` and runs the
    per-step loop.  Bounds and constants include signed zeros and, in
    some draws, infinite bounds; a temporary may overflow to NaN (1e308
    times an input, minus the same) and be read by no step or only by its
    copy.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheduled = draw(st.booleans())
    n_states = draw(st.integers(1, 16))
    bottom = draw(st.sampled_from([None, None, None, "state", "input"]))
    nan = draw(st.sampled_from([None, None, None, "unread", "copied"]))
    p_inf = draw(st.sampled_from([0.0, 0.0, 0.02]))
    most, steps = (40, 30) if scheduled else (6, 20)
    states = [f"x{i}" for i in range(n_states)]
    inputs = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    scope, temps, body = states + inputs, [], []
    for i in range(int(rng.integers(2, steps))):
        if temps and rng.random() < 0.2:
            sources = temps + [name for name in scope if name[0] == "c"] + states
            t = sources[rng.integers(len(sources))]
            for _ in range(1 + (rng.random() < 0.3)):
                target = [states[rng.integers(n_states)], f"c{len(body)}"][rng.random() < 0.3]
                body.append(Assignment(target, wide_const(rng), ((1.0, t),)))
                scope += [target] * (target not in scope)
        else:
            terms = [(wide_coeff(rng), scope[rng.integers(len(scope))]) for _ in range(rng.integers(0, most))]
            if body and rng.random() < 0.3:
                terms.append((wide_coeff(rng), body[-1].target))
            r = rng.random()
            target = states[i % n_states] if r < 0.4 else temps[rng.integers(len(temps))] if temps and r < 0.6 else f"t{i}"
            body.append(Assignment(target, wide_const(rng), tuple(terms)))
            if target not in scope:
                scope.append(target)
                temps.append(target)
    if rng.random() < 0.3:  # Jacobi temporaries, then their copies
        jacobi = states[: int(rng.integers(1, min(n_states, 4) + 1))]
        for k, x in enumerate(jacobi):
            reads = [scope[rng.integers(len(scope))] for _ in range(rng.integers(0, 4))]
            body.append(Assignment(f"j{k}", wide_const(rng), tuple((wide_coeff(rng), v) for v in reads)))
        body += [Assignment(x, wide_const(rng), ((1.0, f"j{k}"),)) for k, x in enumerate(jacobi)]
    if nan is not None:
        at = int(rng.integers(len(body) + 1))
        body.insert(at, Assignment("d", 0.0, ((1e308, "u0"), (-1e308, "u0"))))
        if nan == "copied":
            body.insert(at + 1, Assignment("cd", wide_const(rng), ((1.0, "d"),)))
    products = sum(1 + len(a.terms) for a in body)
    if scheduled:
        short = max(programs.BATCH_MIN_PRODUCTS, programs.LEVEL_MIN_PRODUCTS * len(body)) - products
        body[0] = Assignment(body[0].target, body[0].const, body[0].terms + ((1.5, "x0"),) * max(0, short))
    else:
        assert products < programs.BATCH_MIN_PRODUCTS

    def pick():
        if rng.random() < 0.15:
            return SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
        return rand_interval(rng, p_bottom=0.0, p_inf=p_inf)

    input_vars = [(u, pick()) for u in inputs]
    if nan is not None:
        input_vars[0] = ("u0", Interval(2.0, 3.0))
    state = [(x, pick()) for x in states]
    if bottom == "state":
        k = rng.integers(n_states)
        state[k] = (states[k], BOTTOM)
    elif bottom == "input":
        input_vars[-1] = (inputs[-1], BOTTOM)
    p = Program(tuple((x, Interval(0, 1)) for x in states), tuple(input_vars), tuple(body))
    return p, AbstractState(state), bottom, nan, scheduled


@settings(max_examples=400, deadline=None)
@given(scheduled_bodies())
def test_scheduled_bodies_equal_fold_of_affine_eval(case):
    # and the bodies below the schedule's cut, which the per-step loop runs
    p, x, bottom, nan, scheduled = case
    lowered = p.lowered
    assert (lowered.schedule is not None) == (scheduled and bottom != "input")
    assert (lowered.steps is not None) == (not scheduled and bottom != "input")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(transfer, p, x)
    assert got == outcome(fold_affine_eval, p, x)
    if lowered.schedule is not None:
        widths = {"2 bounds" if stop - start == 2 else "wider"
                  for _, _, start, stop in lowered.schedule[1]}
        event("level widths: " + " and ".join(sorted(widths)))
    elif lowered.steps is not None:
        event("per-step loop, " + ("with" if len(lowered.steps) < len(p.body) else "without") + " folded copies")
    if nan is not None and bottom is None:
        assert got == "ValueError"
    # the loop's image of an array row without Bottom, on the body lowered
    # without its composed map, runs the kernel: the same bits, or the
    # same error
    row = p.row_of(x)
    if lowered.schedule is not None and not has_bottom(row):
        kernel = relowered(p, **EXECUTORS["kernel"]).lowered
        assert image_bits(kernel.linear_image, np.array(row)) == image_bits(lowered.image, row)


# the cuts under which a body of any size runs the per-step loop, or the
# level kernel, which keeps no composed map, so that linear_image runs it too
EXECUTORS = {
    "loop": {"BATCH_MIN_PRODUCTS": 10**9},
    "kernel": {"BATCH_MIN_PRODUCTS": 1, "LEVEL_MIN_PRODUCTS": 0, "COMPOSE_LEVEL_PRODUCTS": 0},
}


EXECUTOR_BODIES = st.one_of(
    programs_and_states(),
    scheduled_bodies().map(lambda case: case[:2]),
    jacobi_copy_bodies().map(lambda case: case[1:]),
)


@settings(max_examples=300, deadline=None)
@given(EXECUTOR_BODIES, st.integers(0, 2**32 - 1))
def test_per_step_loop_and_level_kernel_agree(case, seed):
    # one single-assignment form, two executors: the same bits or the
    # same error on the state's row, and on rows with signed zeros and
    # infinite bounds, as lists, and as arrays where the loop's image
    # runs the kernel
    p, x = case
    loop, kernel = (relowered(p, **EXECUTORS[e]).lowered for e in ("loop", "kernel"))
    if any(iv.is_bottom for _, iv in p.input_vars):
        assert loop.steps is loop.schedule is kernel.steps is kernel.schedule is None
    else:
        assert loop.schedule is None and loop.steps is not None
        assert kernel.schedule is not None and kernel.steps is kernel.composed is None
    rng = np.random.default_rng(seed)
    rows = [p.row_of(x)]
    rows += [bound_row(AbstractState((name, wide_interval(rng)) for name in p.state_names))
             for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in rows:
            expected = image_bits(loop.image, row)
            event("error" if expected == "ValueError" else "image")
            assert image_bits(kernel.image, row) == expected
            if kernel.schedule is not None and not has_bottom(row):
                assert image_bits(kernel.linear_image, np.array(row)) == expected


@pytest.mark.parametrize("executor", ["loop", "kernel"])
def test_folded_copy_adds_its_constant_after_the_sum(executor):
    # t0 sums to -0.0, and its copy's constant 0.0 makes it +0.0, so the
    # folded constant is added even when it is zero; t1 keeps its -0.0
    # through the constant -0.0; 1e16 + 1.0 rounds to 1e16 before the
    # constant -1e16 cancels it, where -1e16 first would leave 1.0
    body = (
        Assignment("t0", -0.0, ()),
        Assignment("t1", -0.0, ((2.0, "z"),)),
        Assignment("t2", 1e16, ((1.0, "e"),)),
        Assignment("x0", 0.0, ((1.0, "t0"),)),
        Assignment("x1", -0.0, ((1.0, "t1"),)),
        Assignment("x2", -1e16, ((1.0, "t2"),)),
    )
    inputs = (("z", Interval(-0.0, -0.0)), ("e", Interval(1.0, 1.0)))
    p = Program(tuple((f"x{i}", Interval(0, 1)) for i in range(3)), inputs, body)
    lowered = relowered(p, **EXECUTORS[executor]).lowered
    if executor == "loop":
        assert len(lowered.steps) == 3
    else:  # one level of three steps
        assert [stop - start for _, _, start, stop in lowered.schedule[1]] == [6]
    out = lowered.image(p.row_of(p.initial_state()))
    assert [v.hex() for v in out] == [0.0.hex()] * 2 + [(-0.0).hex()] * 2 + [0.0.hex()] * 2
    assert out == [v for iv in fold_affine_eval(p, p.initial_state()).intervals for v in (iv.lo, iv.hi)]


def image_bits(image, row):
    """The hex bounds of ``image(row)``, a body's ``image`` or
    ``linear_image``, or "ValueError"."""
    try:
        with np.errstate(all="ignore"):
            out = image(row)
    except ValueError:
        return "ValueError"
    return [float(v).hex() for v in out]


def has_bottom(row):
    return any(lo > hi for lo, hi in zip(row[::2], row[1::2]))


# pairs with lo > hi: each counts as Bottom, canonical or not
BOTTOM_PAIRS = [(math.inf, -math.inf), (2.0, 1.0), (math.inf, 0.0), (0.0, -0.0), (5.0, -math.inf)]


@st.composite
def bottom_rows(draw):
    """A per-step or scheduled body, a row in which at least one state
    pair has lo > hi, and whether an input is Bottom.

    The body reads a Bottom state ``xk`` through a zero coefficient,
    then in a step whose other terms sum +inf and -inf (1e308 times an
    input, minus the same), and then overwrites ``xk`` from that input
    alone, so later reads of ``xk`` see no Bottom.  Random steps around these
    read the states, the inputs and the temporaries.  A scheduled body
    is padded, like ``scheduled_bodies``, to be scheduled whatever its
    levels unless an input is Bottom.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheduled = draw(st.booleans())
    bottom_input = draw(st.sampled_from([False, False, True]))
    n_states = draw(st.integers(2, 8))
    states = [f"x{i}" for i in range(n_states)]
    inputs = ["big"] + [f"u{i}" for i in range(draw(st.integers(0, 2)))]
    k = int(rng.integers(n_states))
    scope, body = states + inputs, []

    def random_steps(prefix, count, targets):
        for i in range(count):
            terms = [(wide_coeff(rng), scope[rng.integers(len(scope))]) for _ in range(rng.integers(0, 6))]
            target = [targets[rng.integers(len(targets))], f"{prefix}{i}"][rng.random() < 0.5]
            body.append(Assignment(target, wide_const(rng), tuple(terms)))
            if target not in scope:
                scope.append(target)

    # xk stays Bottom until it is overwritten
    random_steps("s", int(rng.integers(0, 5)), states[:k] + states[k + 1 :])
    body.append(Assignment("zero", 1.0, ((0.5, "big"), (0.0, states[k]))))
    nan_terms = [(1e308, "big"), (-1e308, "big"), (draw(st.sampled_from([0.0, -0.0, 2.0])), states[k])]
    body.append(Assignment("nan", 1.0, tuple(nan_terms[i] for i in rng.permutation(3))))
    body.append(Assignment(states[k], wide_const(rng), ((0.5, "big"),)))
    scope += ["zero", "nan"]
    random_steps("t", int(rng.integers(0, 5)), states)
    if scheduled:
        products = sum(1 + len(a.terms) for a in body)
        short = max(programs.BATCH_MIN_PRODUCTS, programs.LEVEL_MIN_PRODUCTS * len(body)) - products
        body[0] = Assignment(body[0].target, body[0].const, body[0].terms + ((1.5, states[0]),) * max(0, short))
    input_vars = [("big", Interval(2.0, 3.0))] + [(u, wide_interval(rng)) for u in inputs[1:]]
    if bottom_input and len(inputs) > 1:
        input_vars[-1] = (inputs[-1], BOTTOM)
    else:
        bottom_input = False
    row = bound_row(AbstractState((x, wide_interval(rng)) for x in states))
    for j in {k, *rng.choice(n_states, int(rng.integers(0, n_states)))}:
        row[2 * j : 2 * j + 2] = BOTTOM_PAIRS[rng.integers(len(BOTTOM_PAIRS))]
    p = Program(tuple((x, Interval(0, 1)) for x in states), tuple(input_vars), tuple(body))
    return p, row, scheduled, bottom_input


@settings(max_examples=200, deadline=None)
@given(bottom_rows())
def test_bottom_rows_equal_fold_of_affine_eval(case):
    p, row, scheduled, bottom_input = case
    lowered = p.lowered
    if bottom_input:
        assert lowered.schedule is lowered.steps is None
    else:
        assert (lowered.schedule is not None) == scheduled
        assert (lowered.steps is None) == scheduled
    state = AbstractState(
        (name, BOTTOM if lo > hi else Interval(lo, hi))
        for name, lo, hi in zip(p.state_names, row[::2], row[1::2])
    )
    expected = outcome(fold_affine_eval, p, state)
    if expected != "ValueError":
        expected = [v for pair in expected for v in pair]
    event(f"scheduled: {scheduled}, Bottom input: {bottom_input}, oracle: {expected == 'ValueError'}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert image_bits(lowered.image, row) == expected
        if scheduled:
            assert lowered.steps is None


def test_jacobi_bodies_schedule_to_one_level():
    jacobi = (gaussian_program(2, 16, 0.9), row_program(3, 256, 8), row_program(3, 64, None))
    for text in jacobi:
        lowered = parse(text).lowered
        ((src, coeff, start, stop),) = lowered.schedule[1]
        assert coeff.shape == src.shape and coeff.shape[1] == stop - start == lowered.width
    # below the threshold the per-step loop stays
    small = (load_bundled("filter3"), load_bundled("contraction2"), parse(gaussian_program(2, 8, 0.9)))
    for p in small:
        assert p.lowered.schedule is None


def dataflow_levels(p):
    """The longest chain of assignments that read each other's values."""
    level = dict.fromkeys((*p.state_names, *(name for name, _ in p.input_vars)), 0)
    for a in p.body:
        level[a.target] = 1 + max((level[var] for _, var in a.terms), default=0)
    return max(level.values())


def test_gauss_seidel_sweeps_are_scheduled():
    # one level per step of the dense sweep's chain, far fewer for the sparse one
    for text, most in ((row_program(3, 256, 8, gauss_seidel=True), 32),
                       (row_program(3, 64, None, gauss_seidel=True), 64)):
        p = parse(text)
        levels = p.lowered.schedule[1]
        assert len(levels) == dataflow_levels(p) <= most
        x = p.initial_state()
        assert bits(transfer(p, x)) == bits(fold_affine_eval(p, x))


def test_one_product_chain_takes_the_loop():
    # 512 products, but two per level
    n = programs.BATCH_MIN_PRODUCTS
    body = [Assignment(f"x{i}", 0.0, ((0.5, f"x{i - 1}"),)) for i in range(1, n)]
    body.insert(0, Assignment("x0", 0.0, ((0.5, f"x{n - 1}"),)))
    p = Program(tuple((f"x{i}", Interval(0, 1)) for i in range(n)), (), tuple(body))
    assert p.lowered.schedule is None
    assert bits(transfer(p, p.initial_state())) == bits(fold_affine_eval(p, p.initial_state()))


# Summands that expose any order but the rows' own: 1e16 + 1.0 rounds
# back to 1e16, so a sum of these depends on which pairs add first.
CANCELLING = [1e16, -1e16, 1.0, -1.0, 3.0, 0.5]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(2, 1100),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01, 0.2]))
def test_reduce_adds_rows_in_order(depth, width, seed, p_special):
    # what every level relies on: np.add.reduce along axis 0 of a
    # C-ordered table starts from its initial value and adds one row at a
    # time, as a left fold down each column does.  A level is 1 + the
    # most terms of its steps deep, so depths up to 400 cover steps of up
    # to 399 terms, a dense n = 256 Jacobi body's 257 among them.  It is
    # at least 2 bounds wide (a step's pair): one column is contiguous
    # along axis 0, and NumPy sums it pairwise, which fails here.
    rng = np.random.default_rng(seed)
    a = np.array(CANCELLING)[rng.integers(len(CANCELLING), size=(depth, width))]
    scaled = rng.random(a.shape) < 0.3
    a[scaled] *= rng.normal(size=scaled.sum())
    special = rng.random(a.shape) < p_special
    a[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], size=special.sum())
    a[:, rng.random(width) < 0.05] = -0.0  # columns of -0.0 only
    out = np.empty(width)
    with np.errstate(invalid="ignore"):  # inf + -inf
        # the kernel's call: axis, dtype, out, keepdims, initial by position
        np.add.reduce(a, 0, None, out, False, -0.0)
    fold = [functools.reduce(operator.add, column, -0.0) for column in a.T.tolist()]
    assert [v.hex() for v in out.tolist()] == [v.hex() for v in fold]


def wide_and_narrow_program(n=16):
    """A body whose first level is wide and writes the states y, then a
    chain writing the states x, one narrow level each; z is -0.0 and e
    is 1, so each fourth y and x is a sum of -0.0 only, which stays -0.0
    only if the sums start from -0.0, and (1e16 + 1) - 1e16 is 0 only in
    body order."""
    ys, xs = [f"y{i}" for i in range(n)], [f"x{i}" for i in range(n)]
    cancel = ((1e16, "e"), (1.0, "e"), (-1e16, "e"))
    body = [Assignment(ys[i], -0.0, ((2.0, "z"),) * 20 if i % 4 == 0 else
                       cancel + tuple((0.25 * (-1) ** j, xs[(i + j) % n]) for j in range(20)))
            for i in range(n)]
    for i in range(n):
        if i % 4 == 0:
            terms = ((1.0, ys[i]),) + ((2.0, "z"),) * 24
        else:
            terms = cancel + tuple((0.25 * (-1) ** j, ys[(i + j) % n]) for j in range(22))
        body.append(Assignment(xs[i], -0.0, terms + ((0.0, xs[i - 1]),) * (i > 0)))
    inputs = (("z", Interval(-0.0, -0.0)), ("e", Interval(1.0, 1.0)))
    return Program(tuple((v, Interval(0, 1)) for v in ys + xs), inputs, tuple(body))


def test_wide_and_narrow_levels_equal_fold_of_affine_eval():
    n = 16
    p = wide_and_narrow_program(n)
    ys, xs = [f"y{i}" for i in range(n)], [f"x{i}" for i in range(n)]
    levels = p.lowered.schedule[1]
    assert [stop - start for _, _, start, stop in levels] == [2 * n] + [2] * n
    x = AbstractState((v, Interval(-1.0, float(i))) for i, v in enumerate(ys + xs))
    got = transfer(p, x)
    assert bits(got) == bits(fold_affine_eval(p, x))
    for v in ys[::4] + xs[::4]:
        assert got[v].lo.hex() == got[v].hi.hex() == (-0.0).hex()


# bodies whose schedules have only narrow levels (a dense Gauss-Seidel
# sweep, 64 levels 2 wide), only a wide one (a Jacobi body) and both
WORK_BUFFER_BODIES = {
    "narrow": lambda: parse(row_program(3, 64, None, gauss_seidel=True)),
    "wide": lambda: parse(row_program(3, 64, None)),
    "mixed": wide_and_narrow_program,
}


def work_buffer_body(kind):
    p = WORK_BUFFER_BODIES[kind]()
    # a narrow level is 2 bounds wide, a wide one at least 8
    widths = {"narrow" if stop - start == 2 else "wide" if stop - start >= 8 else "neither"
              for _, _, start, stop in p.lowered.schedule[1]}
    assert widths == ({"narrow", "wide"} if kind == "mixed" else {kind})
    return p


def random_rows(p, k, seed):
    """``k`` bound rows of ``p``'s states without Bottom, each its own array."""
    rng = np.random.default_rng(seed)
    lo = rng.normal(scale=10.0, size=(k, p.lowered.width // 2))
    rows = np.repeat(lo, 2, axis=1)
    rows[:, 1::2] += rng.exponential(size=lo.shape)
    return list(rows)


@pytest.mark.parametrize("kind", WORK_BUFFER_BODIES)
def test_an_image_leaves_nothing_in_the_work_buffer(kind):
    # row a, a row whose image is NaN (inf + -inf), then row b on one body:
    # each image is a fresh body's, bit for bit, and none is a view of the
    # buffer, which the next image overwrites
    p = work_buffer_body(kind)
    a, b = random_rows(p, 2, seed=11)
    lowered = p.lowered
    first = lowered._run(a)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN"):
        lowered._run(np.repeat(np.random.default_rng(0).choice([-math.inf, math.inf], len(a) // 2), 2))
    got = lowered._run(b)
    listed = lowered.image(b.tolist())
    assert len(lowered._kernels) == 1
    buffer = lowered._kernels[0].b
    assert got.tobytes() == programs.LoweredBody(p)._run(b).tobytes()
    assert first.tobytes() == programs.LoweredBody(p)._run(a).tobytes()
    assert np.array(listed).tobytes() == got.tobytes()
    # nor of any level's gather buffer, which the next image overwrites too
    gathers = [acc for _, _, acc, _ in lowered._kernels[0].levels]
    assert len(gathers) == len(lowered.schedule[1])
    for image in (got, first):
        assert not any(np.shares_memory(image, other) for other in [buffer, *gathers])


@pytest.mark.parametrize("kind", WORK_BUFFER_BODIES)
def test_threads_sharing_a_body_get_their_own_images(kind):
    # four threads image 200 rows each on one body, switching as often as
    # the interpreter allows: each gets exactly its single-thread images
    p, n_threads, per_thread = work_buffer_body(kind), 4, 200
    rows = random_rows(p, n_threads * per_thread, seed=5)
    single = programs.LoweredBody(p)
    expected = [single._run(r).tobytes() for r in rows]
    shared, got = p.lowered, [None] * n_threads

    def work(k):
        got[k] = [shared._run(r).tobytes() for r in rows[k::n_threads]]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(n_threads):
        assert got[k] == expected[k::n_threads]
    assert 1 <= len(shared._kernels) <= n_threads


def test_scheduled_body_without_states():
    # temporaries only: the image is an empty row, and the run converges
    body = tuple(Assignment(f"t{i}", 1.0, ((0.5, "u"),) * 3) for i in range(80))
    p = Program((), (("u", Interval(0.0, 1.0)),), body)
    assert p.lowered.schedule is not None
    assert transfer(p, p.initial_state()) == AbstractState(())
    report, _ = engine.analyze(p, engine.EngineConfig(mode="kleene"))
    assert report.reason == "converged"


# bound values for the stop test: signed zeros, infinities, and finite
# bounds whose differences overflow
STOP_VALUES = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e16, -1.7e308, 1.7e308, math.inf, -math.inf]
STOP_STEPS = [0.0, 5e-324, 1e-7, 3e-7, 6e-7, 1.0, 1e16, 1e308, math.inf]


@st.composite
def growing_rows(draw):
    """A bound row, a row that contains it, as a join or widening of it
    gives, and a stop tolerance."""
    value = st.one_of(st.sampled_from(STOP_VALUES), st.floats(-1e3, 1e3))
    prev, x = [], []
    for _ in range(draw(st.integers(1, 6))):
        pair = sorted([draw(value), draw(value)])
        if draw(st.integers(0, 4)) == 0:  # Bottom, which may stay Bottom
            prev += [math.inf, -math.inf]
            x += [math.inf, -math.inf] if draw(st.booleans()) else pair
            continue
        prev += pair
        lo, hi = pair
        grow = draw(st.sampled_from(["step", "step", "value"]))
        if grow == "step":
            lo, hi = lo - draw(st.sampled_from(STOP_STEPS)), hi + draw(st.sampled_from(STOP_STEPS))
            lo, hi = pair[0] if lo != lo else lo, pair[1] if hi != hi else hi  # inf - inf
        else:
            lo, hi = min(lo, draw(value)), max(hi, draw(value))
        x += [lo, hi]
    return prev, x, draw(st.sampled_from([0.0, 3e-7, 1.0, 1e300]))


@settings(max_examples=500, deadline=None)
@given(growing_rows())
# the largest move is exactly tol, which is within it
@example(([0.0, 1.0], [-1.0, 1.0], 1.0))
def test_one_reduction_gives_the_stop_reasons(case):
    # on a row that grew, as the plain loop's rows do, and on one that
    # shrank, which the test does not rely on
    prev, x, tol = case
    for a, b in ((prev, x), (x, prev)):
        with np.errstate(all="ignore"):  # inf - inf, and differences that overflow
            expected = stop_reason_before(a, b, tol)
            got = engine._stop_arrays(np.array(a), np.array(b), tol)
        event(f"reason: {expected}")
        assert got == expected == engine._stop_lists(a, b, tol)


@st.composite
def linear_bodies(draw):
    """A Bottom-free body with finite inputs, a finite row of its states,
    and whether the body is scheduled.

    The body is a Jacobi body (temporaries, then unit copies back into
    the states, whose constants may be nonzero) or a Gauss-Seidel sweep
    over 1-6 states, after 0-2 temporaries that later steps may read,
    some with a unit copy of their own and a copy of that copy, all of
    which fold.  Later steps may also read a folded value through a zero
    coefficient.  Coefficients, constants and bounds are often 0.0 or
    -0.0.  In half the draws the first step is padded with zero
    coefficients until the body runs the schedule; otherwise it runs the
    per-step loop.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, gauss_seidel, scheduled = draw(st.integers(1, 6)), draw(st.booleans()), draw(st.booleans())
    states = [f"x{i}" for i in range(n)]
    inputs = [f"u{i}" for i in range(draw(st.integers(0, 3)))]
    scope, body = states + inputs, []

    folded = []  # values read only by their copy

    def step(target):
        reads = [scope[k] for k in rng.integers(len(scope), size=rng.integers(0, 2 * n + 2))]
        terms = [(wide_coeff(rng), var) for var in reads]
        if folded and rng.random() < 0.3:
            terms.append(([0.0, -0.0][rng.integers(2)], folded[rng.integers(len(folded))]))
        body.append(Assignment(target, wide_const(rng), tuple(terms)))

    for i in range(rng.integers(0, 3)):
        step(f"s{i}")
        scope.append(f"s{i}")
        if rng.random() < 0.5:
            body.append(Assignment(f"c{i}", wide_const(rng), ((1.0, f"s{i}"),)))
            folded.append(f"s{i}")
            copied = f"c{i}"
            if rng.random() < 0.5:
                body.append(Assignment(f"cc{i}", wide_const(rng), ((1.0, f"c{i}"),)))
                folded.append(f"c{i}")
                copied = f"cc{i}"
            scope.append(copied)
    if gauss_seidel:
        for x in states:
            step(x)
    else:
        for i in range(n):
            step(f"t{i}")
        body += [Assignment(x, [0.0, wide_const(rng)][rng.integers(2)], ((1.0, f"t{i}"),)) for i, x in enumerate(states)]
    if scheduled:
        short = max(programs.BATCH_MIN_PRODUCTS, programs.LEVEL_MIN_PRODUCTS * len(body))
        short -= sum(1 + len(a.terms) for a in body)
        body[0] = Assignment(body[0].target, body[0].const, body[0].terms + ((0.0, "x0"),) * max(0, short))

    def pick():
        if rng.random() < 0.15:
            return SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
        return rand_interval(rng, p_bottom=0.0, p_inf=0.0)

    p = Program(tuple((x, Interval(0, 1)) for x in states), tuple((u, pick()) for u in inputs), tuple(body))
    row = [b for _ in states for b in (lambda iv: (iv.lo, iv.hi))(pick())]
    return p, row, scheduled


def magnitude(p, row):
    """The row's magnitude under ``p``'s image, bound by bound: the upper
    bounds of the image of each bound's absolute value through the body
    with every coefficient, constant and input bound made absolute.  Every
    sum that makes a bound of the image, in any order, is off by at most
    a few ulps of it per term it adds."""
    top = [max(abs(iv.lo), abs(iv.hi)) for _, iv in p.input_vars]
    absolute = Program(
        p.state_vars,
        tuple((u, Interval(0.0, t)) for (u, _), t in zip(p.input_vars, top)),
        tuple(Assignment(a.target, abs(a.const), tuple((abs(c), v) for c, v in a.terms)) for a in p.body),
    )
    tops = [max(abs(lo), abs(hi)) for lo, hi in zip(row[::2], row[1::2])]
    image = absolute.lowered.image([b for t in tops for b in (0.0, t)])
    return np.repeat(image[1::2], 2)


# the distance allowed between the composed map's bounds and the
# image's: this many ulps of each bound's magnitude (3,000 draws of
# linear_bodies came within 2.1)
LINEAR_ULPS = 8


@settings(max_examples=300, deadline=None)
@given(linear_bodies())
def test_composed_map_is_the_image_in_w(case):
    # ROADMAP F: w -> m @ w + c with m >= 0, in w = (-lo, hi)
    p, row, scheduled = case
    lowered = p.lowered
    assert (lowered.schedule is not None) == scheduled and (lowered.steps is None) == scheduled
    event("scheduled" if scheduled else "per-step loop")
    m, c = lowered.linear()
    width = lowered.width
    assert m.shape == (width, width) and c.shape == (width,)
    assert (m >= 0.0).all() and np.isfinite(c).all()
    sign = np.tile([-1.0, 1.0], width // 2)
    w, image = sign * np.array(row), np.array(lowered.image(row))
    composed = np.array([math.fsum([*(a * b for a, b in zip(mj, w)), cj]) for mj, cj in zip(m.tolist(), c)])
    tol = LINEAR_ULPS * np.finfo(float).eps * magnitude(p, row)
    assert (abs(composed - sign * image) <= tol).all()
    if lowered.composed is not None:  # the bound-row form the plain loop runs
        event("keeps the composed map")
        table, const = lowered.composed
        assert table.tobytes() == (sign[:, None] * m.T * sign).tobytes() and const.tobytes() == (c * sign).tobytes()
        assert (abs(lowered.linear_image(np.array(row)) - image) <= tol).all()


# sha256 of composed[0].tobytes() + composed[1].tobytes() for dense
# Gauss-Seidel sweeps, random_program(seed, n, True) and row_program(seed,
# n, None, gauss_seidel=True), recorded before the composed map was built
# from the single-assignment form; None where the body keeps no map
COMPOSED_TABLES = {
    ("random_program", 2029, 64): "f949c85fde4be03965e2ca28420fc603b47998268830c03e3c2a911bdc5e8c78",
    ("random_program", 2030, 128): None,
    ("random_program", 7, 48): "fad082c7707d3ad927af39c9b70f25053e38419263a245118d2e574b7dec9d77",
    ("row_program", 3, 64): "10d059e6d186835c3b1382300a06e5d163fefee007c6ebfa9fd56837971d5ff2",
}


@pytest.mark.parametrize("maker, seed, n", COMPOSED_TABLES)
def test_composed_tables_are_pinned(maker, seed, n):
    if maker == "random_program":
        text = random_program(seed, n, True)
    else:
        text = row_program(seed, n, None, gauss_seidel=True)
    composed = parse(text).lowered.composed
    digest = None if composed is None else hashlib.sha256(composed[0].tobytes() + composed[1].tobytes()).hexdigest()
    assert digest == COMPOSED_TABLES[maker, seed, n]


def test_composed_map_needs_finite_inputs():
    text = row_program(3, 64, None, gauss_seidel=True)
    p = parse(text.replace("input u0 in [-1.0, 1.0]", "input u0 in [-1.0, 1e999]"))
    assert p.lowered.schedule is not None and p.lowered.composed is None
    with pytest.raises(ValueError, match="finite input bounds"):
        p.lowered.linear()
    bottom = Program(p.state_vars, (("u0", BOTTOM), *p.input_vars[1:]), p.body)
    assert bottom.lowered.composed is None
    with pytest.raises(ValueError, match="finite input bounds"):
        bottom.lowered.linear()


def test_a_row_with_an_infinite_bound_skips_the_composed_product():
    # 0 * inf would make the product NaN: such a row goes to image before
    # any product, so no floating-point error is raised
    lowered = parse(random_program(2029, 64, True)).lowered
    assert lowered.composed is not None
    row = np.tile([0.0, 1.0], 64)
    row[[5, 40]] = math.inf, -math.inf
    with np.errstate(all="raise"):
        got = lowered.linear_image(row)
    assert got.tobytes() == np.array(lowered.image(row.tolist())).tobytes()


def test_a_finite_row_whose_composed_image_overflows_takes_the_schedule(monkeypatch):
    # every x coefficient tripled, so that each bound of the product of a
    # row of +-1e308 overflows: the row goes to the schedule after it
    text = re.sub(r"(\S+)\*x", lambda m: f"{3 * float(m[1])!r}*x", random_program(2029, 64, True))
    lowered = parse(text).lowered
    table, const = lowered.composed
    row = np.tile([-1e308, 1e308], 64)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(table.T * row, 1) + const).any()
        expected = np.array(lowered.image(row.tolist()))
        runs, run = [], programs.LoweredBody._run
        monkeypatch.setattr(programs.LoweredBody, "_run", lambda self, r: runs.append(1) or run(self, r))
        got = lowered.linear_image(row)
    assert runs == [1] and got.tobytes() == expected.tobytes()


def test_composed_image_is_a_pairwise_sum_of_the_transposed_table():
    # composed[0] is F-ordered, so its transpose is C-ordered, and each
    # bound of the image is a sum along that contiguous axis, which NumPy
    # adds pairwise: bit for bit this expression, and not the row-order
    # fold that a C-ordered table summed along axis 0 gives
    p = parse(random_program(2029, 64, True))
    table, const = p.lowered.composed
    assert table.flags.f_contiguous and table.T.flags.c_contiguous
    differ = 0
    for row in random_rows(p, 40, seed=2029):
        got = p.lowered.linear_image(row)
        assert got.tobytes() == (np.add.reduce(table.T * row, 1) + const).tobytes()
        in_row_order = np.add.reduce(np.ascontiguousarray(table * row[:, None]), 0) + const
        differ += np.count_nonzero(got != in_row_order)
    assert differ > 0


def test_only_long_chains_of_levels_keep_the_composed_map():
    # the kleene-wide shapes: only the dense Gauss-Seidel sweep, 64 levels
    # of 128 bounds, costs more than one 128 x 128 product
    dense_gs = parse(row_program(3, 64, None, gauss_seidel=True)).lowered
    assert len(dense_gs.schedule[1]) == 64 and dense_gs.composed is not None
    # test_cli's dense sweep, whose rows of |A| sum to 0.95, keeps it too
    assert parse(row_program(17, 64, None, gauss_seidel=True, rho=0.95)).lowered.composed is not None
    others = {
        "sparse-gauss-seidel": row_program(3, 256, 8, gauss_seidel=True),
        "dense-jacobi": row_program(3, 64, None),
        "sparse-jacobi": row_program(3, 256, 8),
        "accel-tail": gaussian_program(1, 16, 0.97),
    }
    for name, text in others.items():
        lowered = parse(text).lowered
        assert lowered.schedule is not None and lowered.composed is None, name
    for name in ("filter3", "lowpass1", "contraction2"):
        assert load_bundled(name).lowered.composed is None
