"""The lowered loop body and the engine's row operations, checked
against the interval operations they replace."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_intervals import rand_interval

from fixaccel import (
    AbstractState,
    Assignment,
    Interval,
    Program,
    ThresholdSet,
    affine_eval,
    join,
    leq,
    transfer,
    widen_std,
    widen_thresholds,
)
from fixaccel import engine, programs
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
    (step,) = p.lowered.steps
    assert [(type(c), c) for c, _, _ in step[4]] == [(float, 2.0), (float, 0.5), (float, 0.25)]
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


def per_interval(op, a, b, *extra):
    return AbstractState(
        (name, op(u, v, *extra)) for (name, u), v in zip(a, b.intervals)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_row_operations_equal_interval_operations(seed, n):
    names, a, b, t = rows_and_states(seed, n)
    ra, rb = bound_row(a).tolist(), bound_row(b).tolist()
    cases = [
        (engine.state_join(ra, rb), per_interval(join, a, b)),
        (engine.state_widen_std(ra, rb), per_interval(widen_std, a, b)),
        (engine.state_widen_thresholds(ra, rb, t), per_interval(widen_thresholds, a, b, t)),
    ]
    for row, expected in cases:
        assert bits(state_from_row(names, row)) == bits(expected)
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
    row = engine.state_join(bound_row(x).tolist(), bound_row(y).tolist())
    assert bits(state_from_row(names, row)) == bits(per_interval(join, x, y))


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


@st.composite
def wide_jacobi_bodies(draw):
    """A Jacobi-form body whose first run is wide enough to be batched.

    Temporaries read the states and inputs, with from zero to many terms
    each (a fifth have none, so the batch pads the short rows), together
    at least ``BATCH_MIN_PRODUCTS`` products; the copies back into the
    states depend on them.  Optionally a second wide run of temporaries reads
    the copied states, and a last step reads those.  Bounds and
    constants include signed zeros and infinite bounds; the state or an
    input may hold a Bottom, and a temporary may overflow to inf or to
    NaN (1e308 times an input, minus the same).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = draw(st.integers(1, 12))
    n_inputs = draw(st.integers(1, 3))
    bottom = draw(st.sampled_from([None, None, None, "state", "input"]))
    overflow = draw(st.sampled_from([None, None, "inf", "nan"]))
    second = draw(st.booleans())
    states = [f"x{i}" for i in range(n_states)]
    inputs = [f"u{i}" for i in range(n_inputs)]
    body = []

    def wide_run(prefix, scope):
        n_temps = int(rng.integers(8, 25))
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
        return n_temps

    n_temps = wide_run("t", states + inputs)
    if overflow is not None:
        k = rng.integers(n_temps)
        big = ((1e308, "u0"),) + (((-1e308, "u0"),) if overflow == "nan" else ())
        body[k] = Assignment(body[k].target, body[k].const, body[k].terms + big)
    # the constant -0.0 keeps a -0.0 temporary's sign in the state
    body += [Assignment(x, -0.0, ((1.0, f"t{i % n_temps}"),)) for i, x in enumerate(states)]
    if second:
        n_more = wide_run("s", states + inputs)
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
    return p, AbstractState(state)


@settings(max_examples=200, deadline=None)
@given(wide_jacobi_bodies())
def test_batched_runs_equal_fold_of_affine_eval(case):
    p, x = case
    plan = p.lowered.plan
    if p.lowered.bottom_inputs:
        assert plan is None  # the per-step loop handles a Bottom input
    else:
        assert any(isinstance(part, programs._Batch) for part in plan.parts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(transfer, p, x)
    assert got == outcome(fold_affine_eval, p, x)


def test_batched_row_keeps_negative_zero_when_others_pad():
    # t0 has no term, so every other row pads past it; adding a padding
    # +0.0 to its -0.0 constant would give +0.0
    n = programs.BATCH_MIN_PRODUCTS // 8
    body = [Assignment("t0", -0.0, ()), Assignment("t1", -0.0, ((2.0, "x"),))]
    body += [Assignment(f"t{i}", 1.0, ((0.5, "x"),) * 8) for i in range(2, n)]
    body += [Assignment("x", 0.0, ((1.0, "t2"),)), Assignment("y", -0.0, ((1.0, "t0"),))]
    p = Program((("x", Interval(-0.0, -0.0)), ("y", Interval(0, 1))), (), tuple(body))
    assert any(isinstance(part, programs._Batch) for part in p.lowered.plan.parts)
    out = transfer(p, p.initial_state())
    assert out["y"].lo.hex() == out["y"].hi.hex() == (-0.0).hex()
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
    x = bound_row(a).tolist()
    rng = np.random.default_rng(seed)
    # an estimate near the row: ties, signed-zero ties (-v of a zero
    # bound) and inverted pairs included
    y = []
    for v in x:
        if not math.isfinite(v):
            continue
        r = rng.random()
        y.append(v if r < 0.2 else -v if r < 0.4 else v + float(rng.normal(scale=5)))
    active = [j for j, v in enumerate(x) if math.isfinite(v)]
    got = engine._inject(x, active, np.array(y, dtype=float))
    assert bits(state_from_row(names, got)) == bits(interval_inject(names, x, y))


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.inf, 1.0], [1.0]])
def test_row_inject_rejects_bad_estimates(bad):
    with pytest.raises(ValueError):
        engine._inject([0.0, 1.0], [0, 1], np.array(bad))
