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
    load_bundled,
    parse,
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


def row_types(a, b):
    """Two states as bound rows: lists of floats, then read-only float64
    arrays, as the engine's loop carries them."""
    yield bound_row(a).tolist(), bound_row(b).tolist()
    ra, rb = bound_row(a), bound_row(b)
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
            (engine.state_join(ra, rb), per_interval(join, a, b)),
            (engine.state_widen_std(ra, rb), per_interval(widen_std, a, b)),
            (engine.state_widen_thresholds(ra, rb, t), per_interval(widen_thresholds, a, b, t)),
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
        assert row_bits(names, row, type(rx)) == bits(per_interval(join, x, y))


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
    # the per-step loop handles a Bottom input
    if p.lowered.bottom_inputs:
        assert p.lowered.schedule is None
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
    """A body in any order, wide enough to be scheduled, a state, and
    whether the state, an input or nothing holds Bottom.

    Each step writes a state, in Gauss-Seidel order, or a temporary, a
    new one or one already written, and reads the latest value of up to
    40 states, inputs and temporaries, so a temporary can be read after a
    later write of it.  Some steps also read the step before, which
    chains them; some copy a temporary, at times twice.  The first step
    is padded so that the body holds ``BATCH_MIN_PRODUCTS`` products and
    ``LEVEL_MIN_PRODUCTS`` per step, so it is scheduled whatever its
    levels unless an input is Bottom.  Bounds and constants include
    signed zeros and, in some draws, infinite bounds; an unread temporary
    may overflow to NaN (1e308 times an input, minus the same).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = draw(st.integers(1, 16))
    bottom = draw(st.sampled_from([None, None, None, "state", "input"]))
    nan = draw(st.sampled_from([False, False, False, True]))
    p_inf = draw(st.sampled_from([0.0, 0.0, 0.02]))
    states = [f"x{i}" for i in range(n_states)]
    inputs = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    scope, temps, body = states + inputs, [], []
    for i in range(int(rng.integers(2, 30))):
        if temps and rng.random() < 0.2:
            t = temps[rng.integers(len(temps))]
            for _ in range(1 + (rng.random() < 0.3)):
                target = [states[rng.integers(n_states)], f"c{len(body)}"][rng.random() < 0.3]
                body.append(Assignment(target, wide_const(rng), ((1.0, t),)))
        else:
            terms = [(wide_coeff(rng), scope[rng.integers(len(scope))]) for _ in range(rng.integers(0, 40))]
            if body and rng.random() < 0.3:
                terms.append((wide_coeff(rng), body[-1].target))
            r = rng.random()
            target = states[i % n_states] if r < 0.4 else temps[rng.integers(len(temps))] if temps and r < 0.6 else f"t{i}"
            body.append(Assignment(target, wide_const(rng), tuple(terms)))
        if body[-1].target not in scope:
            scope.append(body[-1].target)
            temps += [body[-1].target] * (body[-1].target[0] == "t")
    if nan:
        body.insert(int(rng.integers(len(body) + 1)), Assignment("d", 0.0, ((1e308, "u0"), (-1e308, "u0"))))
    products = sum(1 + len(a.terms) for a in body)
    short = max(programs.BATCH_MIN_PRODUCTS, programs.LEVEL_MIN_PRODUCTS * len(body)) - products
    body[0] = Assignment(body[0].target, body[0].const, body[0].terms + ((1.5, "x0"),) * max(0, short))

    def pick():
        if rng.random() < 0.15:
            return SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
        return rand_interval(rng, p_bottom=0.0, p_inf=p_inf)

    input_vars = [(u, pick()) for u in inputs]
    if nan:
        input_vars[0] = ("u0", Interval(2.0, 3.0))
    state = [(x, pick()) for x in states]
    if bottom == "state":
        k = rng.integers(n_states)
        state[k] = (states[k], BOTTOM)
    elif bottom == "input":
        input_vars[-1] = (inputs[-1], BOTTOM)
    p = Program(tuple((x, Interval(0, 1)) for x in states), tuple(input_vars), tuple(body))
    return p, AbstractState(state), bottom, nan


@settings(max_examples=300, deadline=None)
@given(scheduled_bodies())
def test_scheduled_bodies_equal_fold_of_affine_eval(case):
    p, x, bottom, nan = case
    lowered = p.lowered
    assert (lowered.schedule is None) == (bottom == "input")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(transfer, p, x)
    assert got == outcome(fold_affine_eval, p, x)
    if nan and bottom is None:
        assert got == "ValueError"
    # a scheduled body builds the per-step loop only for a row with Bottom
    assert (lowered.steps is None) == (bottom is None)
    # an array row has an array image of the same bits, or the same error
    row = p.row_of(x)
    assert image_bits(lowered, np.array(row)) == image_bits(lowered, row)


def image_bits(lowered, row):
    """The hex bounds of ``lowered.image(row)``, which must be of the
    type of ``row``, or "ValueError"."""
    try:
        with np.errstate(all="ignore"):
            out = lowered.image(row)
    except ValueError:
        return "ValueError"
    assert type(out) is type(row)
    return [float(v).hex() for v in out]


def row_program(seed, n, nnz, gauss_seidel=False):
    """A loop over ``n`` states whose rows have ``nnz`` random terms
    (all ``n`` if None), in Jacobi form (temporaries, then copies) or as
    a Gauss-Seidel sweep: the four body forms of the kleene-wide
    benchmark."""
    rng = np.random.default_rng(seed)
    lines = [f"state x{i} in [0.0, 1.0];" for i in range(n)]
    lines += [f"input u{i} in [-1.0, 1.0];" for i in range(n)]
    lines.append("loop {")
    for i in range(n):
        cols = range(n) if nnz is None else rng.choice(n, nnz, replace=False)
        terms = [f"{rng.normal() / len(cols)!r}*x{j}" for j in cols]
        target = f"x{i}" if gauss_seidel else f"t{i}"
        lines.append(f"  {target} = " + " + ".join(terms + [f"0.1*u{i}"]).replace("+ -", "- ") + ";")
    if not gauss_seidel:
        lines += [f"  x{i} = t{i};" for i in range(n)]
    return "\n".join(lines + ["}"]) + "\n"


def test_jacobi_bodies_schedule_to_one_level():
    from test_golden import gaussian_program

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
