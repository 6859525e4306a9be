"""The lowered loop body and the engine's row operations, checked
against the interval operations they replace."""
import math

import numpy as np
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
from fixaccel import engine
from fixaccel.extraction import bound_row, state_from_row

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
