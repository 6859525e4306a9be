"""Aitken delta-squared, the epsilon-algorithm, and stall handling."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixaccel import (
    EngineConfig,
    TransformConfig,
    aitken,
    analyze,
    converged,
    epsilon_diagonal,
    load_bundled,
    vector_epsilon_diagonal,
)
from fixaccel.transforms import MAX_COLUMN, EstimateStream, seq_norm

METHODS = ("aitken", "epsilon", "vector-epsilon")
TINY = np.finfo(float).tiny  # the smallest normal float


def geometric(limit, coeff, ratio, n):
    return np.array([limit + coeff * ratio**k for k in range(n)])


class TestAitken:
    def test_needs_three_elements(self):
        with pytest.raises(ValueError):
            aitken([1.0, 2.0])
        assert len(aitken([1.0, 2.0, 3.5])) == 1

    def test_element_count(self):
        assert len(aitken(np.arange(10.0) ** 2)) == 8

    def test_exact_on_geometric_sequence(self):
        x = geometric(3.0, 2.0, 0.5, 8)
        out = aitken(x)
        for el in out:
            assert not el.stalled
            assert el.value == pytest.approx(3.0, abs=1e-12)

    def test_element_uses_three_consecutive_inputs(self):
        # two sequences agreeing on a window give the same element there
        x = np.array([5.0, 4.0, 3.5, 3.25, 99.0])
        y = np.array([-1.0, 4.0, 3.5, 3.25, -99.0])
        assert aitken(x)[1].value == aitken(y)[1].value

    def test_constant_sequence_retains_base_value(self):
        out = aitken([7.0, 7.0, 7.0, 7.0])
        assert [el.stalled for el in out] == [True, True]
        assert [el.value for el in out] == [7.0, 7.0]

    def test_stall_retains_previous_valid_value(self):
        x = list(geometric(3.0, 2.0, 0.5, 6))
        x += [x[-1], x[-1]]  # flat tail: zero second difference
        out = aitken(x)
        assert out[-1].stalled
        last_valid = [el.value for el in out if not el.stalled][-1]
        assert out[-1].value == last_valid

    def test_stall_threshold_is_relative(self):
        # same shape, scaled up: relative threshold keeps both live
        x = geometric(1.0, 1.0, 0.5, 10)
        cfg = TransformConfig(stall_tolerance=1e-12)
        big = 1e9 * x
        assert not any(el.stalled for el in aitken(x, cfg))
        assert not any(el.stalled for el in aitken(big, cfg))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            aitken([1.0, math.inf, 2.0])
        with pytest.raises(ValueError):
            aitken([1.0, math.nan, 2.0])


def wynn_table(x, columns):
    """Textbook epsilon-table without stall handling; cols[k][n] = eps^k_n."""
    below = [0.0] * (len(x) + 1)
    cols = [[float(v) for v in x]]
    while len(cols) < columns:
        col = cols[-1]
        cols.append(
            [below[n + 1] + 1.0 / (col[n + 1] - col[n]) for n in range(len(col) - 1)]
        )
        below = col
    return cols


class TestEpsilonTable:
    def test_diagonal_entries_are_even_column_heads(self):
        # two decay modes keep the table live through column 4
        x = np.array(
            [5.0 + 2.0 * 0.5**k + 1.0 * (-0.3) ** k for k in range(11)]
        )
        t = wynn_table(x, 5)
        d = epsilon_diagonal(x)
        assert d[0].value == t[0][0]
        assert d[1].value == t[2][0]
        assert d[2].value == t[4][0]
        assert not d[2].stalled


class TestEpsilonDiagonal:
    def test_first_entry_is_first_element(self):
        x = geometric(4.0, -1.5, 0.7, 11)
        d = epsilon_diagonal(x)
        assert d[0].value == x[0]
        assert not d[0].stalled

    def test_entry_count(self):
        assert len(epsilon_diagonal(np.arange(1.0, 8.0) ** 1.5)) == 4  # 2k+1 <= 7

    def test_exact_on_geometric_sequence(self):
        x = geometric(2.0, 1.0, -0.8, 9)
        d = epsilon_diagonal(x)
        assert d[1].value == pytest.approx(2.0, abs=1e-10)

    def test_sum_of_two_geometric_modes_needs_depth_two(self):
        x = np.array(
            [5.0 + 2.0 * 0.5**k + 1.0 * (-0.3) ** k for k in range(11)]
        )
        d = epsilon_diagonal(x)
        assert not d[2].stalled
        assert d[2].value == pytest.approx(5.0, abs=1e-8)

    def test_single_mode_stalls_at_depth_two(self):
        # one geometric mode: column 2 is already constant at the limit,
        # so the next inverse column stalls and the diagonal retains
        x = geometric(2.0, 1.0, 0.6, 9)
        d = epsilon_diagonal(x)
        assert not d[1].stalled
        assert d[2].stalled
        assert d[2].value == d[1].value

    def test_stalled_entries_repeat_last_valid(self):
        x = np.concatenate([geometric(1.0, 1.0, 0.5, 8), np.full(6, 1.0 + 2.0**-52)])
        d = epsilon_diagonal(x)
        stalled = [el for el in d if el.stalled]
        assert stalled, "expected at least one stalled diagonal entry"
        valid_values = [el.value for el in d if not el.stalled]
        k0 = [el.stalled for el in d].index(True)
        for el in d[k0:]:
            if el.stalled:
                assert el.value == valid_values[-1] or el.value in valid_values


class TestVectorEpsilon:
    def test_affine_recurrence_limit_at_depth_two(self):
        a = np.array([[0.5, 0.1], [0.0, 0.25]])
        b = np.array([1.0, 1.0])
        x = np.zeros(2)
        seq = [x.copy()]
        for _ in range(6):
            x = a @ x + b
            seq.append(x.copy())
        d = vector_epsilon_diagonal(np.array(seq))
        limit = np.linalg.solve(np.eye(2) - a, b)
        assert limit == pytest.approx([34 / 15, 4 / 3])
        assert d[2].value == pytest.approx(limit, abs=1e-8)

    def test_dimension_one_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(3, 20))
            x = rng.normal() + rng.normal() * rng.uniform(-0.9, 0.9) ** np.arange(n)
            ds = epsilon_diagonal(x)
            dv = vector_epsilon_diagonal(x[:, None])
            assert len(ds) == len(dv)
            for s, v in zip(ds, dv):
                assert s.stalled == v.stalled
                assert v.value.shape == (1,)
                if not s.stalled:
                    assert float(v.value[0]) == s.value

    def test_whole_cell_stalls(self):
        seq = np.array([[1.0, 1.0]] * 5)
        d = vector_epsilon_diagonal(seq)
        assert d[0].stalled is False
        assert all(el.stalled for el in d[1:])
        for el in d[1:]:
            assert el.value == pytest.approx([1.0, 1.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            vector_epsilon_diagonal(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            vector_epsilon_diagonal(np.array([[1.0], [math.inf]]))


def scaled_norms(v):
    """Row by row, the Euclidean norm of ``v`` and its Samelson inverse
    v / (v . v).  A row whose v . v underflows or overflows is scaled
    exactly by the power of two that puts its largest entry in [0.5, 1)
    in magnitude, and its norm and inverse are scaled back.  The dot
    products are NumPy's, so that their summation order is the code's.
    A zero row's inverse is NaN, and a norm past the largest float inf;
    the callers stall the first."""
    vv = np.einsum("ij,ij->i", v, v)[:, None]
    wild = (vv < TINY) | (vv == np.inf)
    e = np.where(wild, np.frexp(np.abs(v).max(axis=1))[1][:, None], 0)
    s = np.ldexp(v, -e)
    ss = np.einsum("ij,ij->i", s, s)[:, None]
    with np.errstate(all="ignore"):
        return np.ldexp(np.sqrt(ss), e)[:, 0], np.ldexp(s / ss, -e)


def reference_table(x, tol, vector):
    """The full epsilon-table of ``x`` with explicit validity flags:
    ``table[k][n]`` is eps_k^(n) as (value, valid), and a cell is valid
    when its three operands are and its denominator d passes the literal
    stall rule |d| >= tol * max(1, |b|), or ||d|| >= max(tol * max(1,
    ||b||), TINY) for a vector table (``scaled_norms``), where d =
    eps_{k-1}^(n+1) - eps_{k-1}^(n) and b = eps_{k-1}^(n).  Vector cells
    are 1-D arrays."""

    def norm(v):
        return float(scaled_norms(v[None])[0][0])

    m = len(x)
    col = [(v, True) for v in x]
    table = [col]
    # column -1 is +0.0, as in the code; 0.0 * x[0] would copy the sign of x[0]
    below = [(np.zeros_like(x[0]) if vector else 0.0, True)] * (m + 1)
    for _ in range(m - 1):
        nxt = []
        for n in range(len(col) - 1):
            (b, b_ok), (a, a_ok), (c, c_ok) = col[n], col[n + 1], below[n + 1]
            if not (b_ok and a_ok and c_ok):
                nxt.append((None, False))
                continue
            d = a - b
            if vector:
                ok = norm(d) >= max(tol * max(1.0, norm(b)), TINY)
                nxt.append((c + scaled_norms(d[None])[1][0] if ok else None, ok))
            else:
                ok = abs(d) >= tol * max(1.0, abs(b))
                nxt.append((c + 1.0 / d if ok else None, ok))
        below, col = col, nxt
        table.append(col)
    return table


def carried(cells, bases):
    """(value, stalled) for each (value, valid) cell, a stalled cell
    replaced by the last valid one before it, or by its base while none
    exists."""
    out, last = [], None
    for (value, ok), base in zip(cells, bases):
        if ok:
            last = value
        out.append((base if last is None else last, not ok))
    return out


def reference_diagonal(x, tol, vector):
    """The tip eps_2k^(0) of each even column, as (value, stalled)."""
    tips = [col[0] for col in reference_table(x, tol, vector)[::2]]
    return carried(tips, [x[0]] * len(tips))


def reference_aitken(x, tol):
    """Column 2, eps_2^(n) = y_n, as (value, stalled); a stalled y_n
    carries the last valid one, or x_n while none exists."""
    return carried(reference_table(x, tol, False)[2], x)


@st.composite
def diagonal_cases(draw):
    """Rows of up to 4 coordinates with magnitudes up to 1e300, each
    optionally followed by a repeat (a zero first difference), a linear
    extension (a zero second difference) or a nudge, and a stall
    tolerance.  The square of 1e-200 underflows to 0; the vector floor
    is then the smallest normal float, so that a zero vector difference
    stalls instead of making its cell 0/0 = NaN."""
    w = draw(st.integers(1, 4))
    m = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["random", "geometric", "two-modes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(m)[:, None]
    if kind == "random":
        rows = np.array(draw(st.lists(finite, min_size=m * w, max_size=m * w))).reshape(m, w)
    elif kind == "geometric":
        rows = rng.normal(size=w) + rng.normal(size=w) * rng.uniform(-0.95, 0.95, w) ** k
    else:
        rows = rng.normal(size=w) + rng.uniform(-0.95, 0.95, 2) ** k @ rng.normal(size=(2, w))
    scale = 10.0 ** rng.choice([0, 0, 0, -150, 150, 300, 308], size=w)
    actions = draw(st.lists(st.sampled_from(["none", "none", "nudge", "repeat", "linear"]),
                            min_size=m, max_size=m))
    out = []
    with np.errstate(all="ignore"):  # clipped below
        rows = np.clip(rows * scale, -1.7e308, 1.7e308)
        for i, action in enumerate(actions):
            out.append(rows[i])
            if action == "nudge":
                out.append(rows[i] * (1.0 + rng.normal(size=w) * 10.0 ** rng.integers(-15, 0)))
            elif action == "repeat":
                out.append(rows[i].copy())
            elif action == "linear" and i >= 1:
                out.append(2.0 * rows[i] - rows[i - 1])
    rows = np.clip(np.array(out), -1.7e308, 1.7e308)
    return rows, draw(st.sampled_from([1e-12, 1e-12, 1e-8, 1e-3, 1e-200]))


def value_bits(v):
    return np.asarray(v, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=diagonal_cases())
@example(case=(np.array([[1.7e308, 1], [-1.7e308, 2], [1.7e308, 2.5], [-1.6e308, 2.75],
                         [1.5e308, 2.875]]), 1e-12))
@example(case=(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), 1e-200))
@example(case=(np.array([[-0.0, 1e150, 1e150], [-0.0, 0.0, -1.0], [-1e150, -1.7e308, -0.0],
                         [-1.0, 1e300, 1e150], [1.7e308, 1e150, 1.7e308]]), 1e-200))
def test_diagonals_equal_the_reference_table(case):
    rows, tol = case
    cfg = TransformConfig(stall_tolerance=tol)
    # the reference overflows like the code; tier-1 makes a warning fail
    with np.errstate(all="ignore"):
        for c in range(rows.shape[1]):
            x = [float(v) for v in rows[:, c]]
            pairs = [(epsilon_diagonal(x, cfg), reference_diagonal(x, tol, False))]
            if len(x) >= 3:
                pairs.append((aitken(x, cfg), reference_aitken(x, tol)))
            for got, want in pairs:
                assert [e.stalled for e in got] == [s for _, s in want]
                assert all(isinstance(e.value, float) for e in got)
                assert [value_bits(e.value) for e in got] == [value_bits(v) for v, _ in want]
        got = vector_epsilon_diagonal(rows, cfg)
        # rows of dimension 1 take the scalar rule
        want = reference_diagonal(list(rows), tol, rows.shape[1] != 1)
        assert [e.stalled for e in got] == [s for _, s in want]
        assert all(e.value.shape == rows.shape[1:] for e in got)
        assert [value_bits(e.value) for e in got] == [value_bits(v) for v, _ in want]


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=12),
       tol=st.sampled_from([1e-12, 1e-8, 1e-3, 1e-200]))
def test_aitken_is_column_two_of_the_epsilon_table(x, tol):
    # y_n is eps_2^(n), the tip of column 2 of the table of x_n, x_n+1, ...
    cfg = TransformConfig(stall_tolerance=tol)
    for n, y in enumerate(aitken(x, cfg)):
        tip = epsilon_diagonal(x[n:], cfg)[1]
        assert y.stalled == tip.stalled
        if n == 0 or not y.stalled:  # both carry x_0 when y_0 stalls
            assert value_bits(y.value) == value_bits(tip.value)


def _columns(arr, tol, cap):
    """Columns 0..``cap`` of the epsilon-table of ``arr`` as (values,
    valid) pairs: one scalar table per coordinate for a 2-D (rows,
    coordinates) array, with the scale-invariant stall rule
    |d| >= max(tol * |b|, TINY); a vector table of row cells for a list
    of rows, with ||d|| >= max(tol * ||b||, TINY) (``scaled_norms``).
    The float operations are those of ``EstimateStream``, one column at
    a time."""
    vector = isinstance(arr, list)
    arr = np.array(arr, dtype=float)
    ok = np.ones(arr.shape if not vector else len(arr), dtype=bool)
    cols = [(arr, ok)]
    below_vals = np.zeros((len(arr) + 1, *arr.shape[1:]))
    below_ok = np.ones((len(arr) + 1, *ok.shape[1:]), dtype=bool)
    while len(cols) <= cap and len(cols[-1][0]) >= 2:
        vals, ok = cols[-1]
        d = vals[1:] - vals[:-1]
        deps = ok[1:] & ok[:-1] & below_ok[1: len(vals)]
        if vector:
            norm_d, inverse = scaled_norms(d)
            live = deps & (norm_d >= np.maximum(tol * scaled_norms(vals[:-1])[0], TINY))
            new_vals = below_vals[1: len(vals)] + np.where(live[:, None], inverse, 0.0)
        else:
            live = deps & (np.abs(d) >= np.maximum(tol * np.abs(vals[:-1]), TINY))
            new_vals = below_vals[1: len(vals)] + 1.0 / np.where(live, d, 1.0)
        below_vals, below_ok = vals, ok
        cols.append((new_vals, live))
    return cols


def newest_cells(method, rows, tol=TransformConfig().stall_tolerance):
    """The full-table reference that ``EstimateStream`` must equal bit
    for bit: the estimate after each row, None for the first two.  It is
    the newest valid cell of the deepest even column that holds one, up
    to column 2 for Aitken and MAX_COLUMN for the epsilon methods, or
    the row itself where none does: per coordinate for Aitken and the
    scalar method, as a row for the vector method (whose rows of
    dimension 1 take the scalar rule).  The cell eps_k^(t-k) depends
    only on rows up to t, so one table gives the estimate after every
    row."""
    m = np.array(rows, dtype=float)
    out = [None] * min(2, len(m))
    if len(m) < 3:
        return out
    vector = method == "vector-epsilon" and m.shape[1] != 1
    cols = _columns(list(m) if vector else m, tol, 2 if method == "aitken" else MAX_COLUMN)
    est = m.copy()  # row t holds the estimate after row t
    for k in range(2, len(cols), 2):
        vals, ok = cols[k]  # cell k, t - k is on antidiagonal t
        np.copyto(est[k:], vals, where=ok[:, None] if vector else ok)
    return out + list(est[2:])


def newest_cell(method, rows):
    """The estimate after the last of ``rows``, None before the third."""
    return newest_cells(method, rows)[-1]


def bits(a):
    return None if a is None else (a.shape, a.tobytes())


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def stream_cases(draw):
    """Rows of one of four shapes, each followed by an optional extra
    row or a shrink of the coordinate set.  An extra row nudges the row,
    repeats it (a zero first difference) or extends the two before it
    linearly (a zero second difference), so that it stalls cells."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["random", "geometric", "rank1", "two-modes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(m)[:, None]
    if kind == "random":
        rows = np.array(draw(st.lists(finite, min_size=m * d, max_size=m * d))).reshape(m, d)
    elif kind == "geometric":  # one ratio per coordinate
        rows = rng.normal(size=d) + rng.normal(size=d) * rng.uniform(-0.95, 0.95, d) ** k
    elif kind == "rank1":  # the lowpass1 stall: a transient, then one shared ratio
        rows = rng.normal(size=d) + rng.normal(size=d) * rng.uniform(-0.95, 0.95) ** k
        rows[0] += rng.normal(size=d)
    else:
        rows = rng.normal(size=d) + rng.uniform(-0.95, 0.95, 2) ** k @ rng.normal(size=(2, d))
    if d > 1 and draw(st.booleans()):
        rows[:, 0] = 3.0  # a constant coordinate
    ops = []
    for i in range(m):
        ops.append(("push", rows[i]))
        action = draw(st.sampled_from(["none", "none", "nudge", "repeat", "linear", "keep"]))
        if action == "nudge":
            ops.append(("push", rows[i] + rng.normal(size=d) * 10.0 ** rng.integers(-12, 0)))
        elif action == "repeat":
            ops.append(("push", rows[i].copy()))
        elif action == "linear" and i >= 1:
            ops.append(("push", 2.0 * rows[i] - rows[i - 1]))
        elif action == "keep":
            ops.append(("keep", draw(st.lists(st.booleans(), min_size=d, max_size=d))))
    return ops


def replay(method, ops, sizes):
    """Apply ``ops`` to a stream, pushing each run of consecutive rows
    through ``push_rows_unguarded`` in blocks whose sizes cycle through
    ``sizes``.  Every estimate a block returns, and ``estimate()`` after
    each block and each ``keep``, must equal the full table's on the
    rows fed so far, bit for bit."""
    stream = EstimateStream(method)
    seen = []  # full rows pushed so far
    got = []  # (rows fed, estimate) since the coordinates last changed
    cols = None  # the coordinates the stream still keeps
    block = []
    size = itertools.cycle(sizes)

    def push_block():
        if block:
            estimates = stream.push_rows_unguarded([r[cols] for r in block])
            assert len(estimates) == len(block)
            got.extend(zip(range(len(seen) + 1, len(seen) + len(block) + 1), estimates))
            seen.extend(block)
            got.append((len(seen), stream.estimate()))
            assert stream.count == len(seen)
            block.clear()

    def compare():
        want = newest_cells(method, [r[cols] for r in seen])
        for n, estimate in got:
            assert bits(estimate) == bits(want[n - 1])
        got.clear()

    # tier-1 makes a warning fail, and the stream enters no error state
    with np.errstate(all="ignore"):
        limit = next(size)
        for op, arg in ops:
            if cols is None:
                cols = np.arange(len(arg))
            if op == "push":
                block.append(arg)
                if len(block) == limit:
                    push_block()
                    limit = next(size)
                continue
            push_block()
            compare()
            positions = [j for j, flag in enumerate(arg[: len(cols)]) if flag] or [0]
            cols = cols[positions]
            stream.keep(positions)
            got.append((len(seen), stream.estimate()))
        push_block()
        compare()


block_sizes = st.lists(st.integers(1, 24), min_size=1, max_size=6)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=150, deadline=None)
@given(ops=stream_cases(), sizes=block_sizes)
def test_stream_equals_full_table_on_every_prefix(method, ops, sizes):
    replay(method, ops, sizes)


@st.composite
def long_stream_cases(draw):
    """Runs as long and wide as the engine's: up to 70 rows of up to 40
    coordinates, with extra rows and shrinks as in ``stream_cases``.
    Coordinates have magnitudes up to 1e300, so that differences overflow
    to -inf or inf, and so would the vector method's unscaled dot
    products; some runs do not converge at all."""
    d = draw(st.integers(1, 40))
    m = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["geometric", "modes", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(m)[:, None]
    if kind == "geometric":  # one ratio per coordinate: stalls early
        rows = rng.normal(size=d) + rng.normal(size=d) * rng.uniform(-0.99, 0.99, d) ** k
    elif kind == "modes":  # shared ratios, as in an affine loop's iterates
        q = draw(st.integers(2, 16))
        rows = rng.normal(size=d) + rng.uniform(-0.99, 0.99, q) ** k @ rng.normal(size=(q, d))
    else:  # no stall: antidiagonals as deep as the run
        rows = rng.normal(size=(m, d))
    scale = 10.0 ** rng.choice([0, 0, 0, 3, 150, 300], size=d)
    rows = np.clip(rows * scale, -1e300, 1e300)
    flat = rng.random(d) < 0.1
    rows[:, flat] = rows[0, flat]  # constant coordinates
    # a repeated row stalls every coordinate and so restarts the
    # antidiagonals: only runs with few extra rows reach full depth
    rate = draw(st.sampled_from([0.0, 0.03, 0.2]))
    ops = []
    for i in range(m):
        ops.append(("push", rows[i]))
        action = rng.choice(["nudge", "repeat", "linear", "keep"]) if rng.random() < rate else "none"
        if action == "nudge":
            ops.append(("push", np.clip(rows[i] * (1.0 + rng.normal(size=d) * 1e-9), -1e300, 1e300)))
        elif action == "repeat":
            ops.append(("push", rows[i].copy()))
        elif action == "linear" and i >= 1:
            ops.append(("push", np.clip(2.0 * rows[i] - rows[i - 1], -1e300, 1e300)))
        elif action == "keep":
            ops.append(("keep", rng.random(d) < 0.9))
    return ops


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=60, deadline=None)
@given(ops=long_stream_cases(), sizes=block_sizes)
# d . d overflows: the vector cells come from rows scaled by a power of two
@example(ops=[("push", np.array([230.63, -6.6777e299, 1.002])),
              ("push", np.array([230.63, -3.7551e299, 1.002])),
              ("push", np.array([230.63, -2.4271e299, 1.002]))], sizes=[1])
def test_stream_equals_full_table_on_long_wide_runs(method, ops, sizes):
    # both sides overflow on huge magnitudes, and tier-1 makes a warning fail
    with np.errstate(all="ignore"):
        replay(method, ops, sizes)


@pytest.mark.parametrize("method", METHODS)
def test_stream_follows_lowpass1_stall(method):
    # lowpass1's Kleene bounds are exactly geometric after row 0, so the
    # epsilon tables stall; the stream must follow the table's stalls
    _, trace = analyze(load_bundled("lowpass1"), EngineConfig(mode="kleene"))
    rows = [np.array(r.row) for r in trace.records[:40]]
    stream = EstimateStream(method)
    for i, row in enumerate(rows):
        stream.push(row)
        assert bits(stream.estimate()) == bits(newest_cell(method, rows[: i + 1]))


@pytest.mark.parametrize("method", ["epsilon", "vector-epsilon"])
def test_newest_cell_leaves_the_transient_behind(method):
    # the tip eps_2j^(0) always reaches back to row 0; the newest cell
    # of a deep column does not, so a transient in row 0 is forgotten
    # once the column's cells have moved past it
    x = 2.0 + 1.5 * 0.9 ** np.arange(30.0) + 0.7 * 0.5 ** np.arange(30.0)
    x[0] += 5.0
    stream = EstimateStream(method)
    for v in x:
        stream.push([v, -v])
    tip = epsilon_diagonal(x)[-1].value
    assert abs(stream.estimate()[0] - 2.0) < 1e-12 < abs(tip - 2.0)
    assert stream.estimate()[1] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300])
def test_stall_rule_is_scale_invariant(method, scale):
    # scale * (2 - 0.5**k) is geometric at every scale, so its column 2
    # forms from three rows and holds the limit 2 * scale
    stream = EstimateStream(method)
    for k in range(3):
        stream.push([scale * (2.0 - 0.5**k), -scale])
    assert stream.estimate()[0] == pytest.approx(2.0 * scale, rel=1e-12, abs=0.0)


def test_stream_keeps_at_most_max_column_plus_one_cells():
    stream = EstimateStream("epsilon")
    for v in np.random.default_rng(5).normal(size=(40, 3)):
        stream.push(v)
        assert len(stream._cur) <= MAX_COLUMN + 1
    assert len(stream._cur) == MAX_COLUMN + 1


def test_vector_stream_of_dimension_one_takes_the_scalar_rule():
    x = 2.0 + 1.5 * 0.6 ** np.arange(9.0)
    vec, sca = EstimateStream("vector-epsilon"), EstimateStream("epsilon")
    for v in x:
        vec.push([v])
        sca.push([v])
        assert bits(vec.estimate()) == bits(sca.estimate())


def test_stream_rejects_bad_input():
    with pytest.raises(ValueError):
        EstimateStream("richardson")
    s = EstimateStream("epsilon")
    with pytest.raises(ValueError):
        s.push([1.0, math.nan])
    s.push([1.0, 2.0])
    with pytest.raises(ValueError):
        s.push([1.0])
    with pytest.raises(ValueError):
        s.push([[1.0, 2.0]])


class TestConverged:
    def test_infinity_norm(self):
        assert converged([1.0, 2.0], [1.0005, 2.0], 1e-3)
        assert not converged([1.0, 2.0], [1.002, 2.0], 1e-3)

    def test_euclidean_norm(self):
        cfg = TransformConfig(norm="euclidean")
        a, b = np.array([0.0, 0.0]), np.array([3e-4, 4e-4])
        assert not converged(a, b, 4.9e-4, cfg)
        assert converged(a, b, 5.1e-4, cfg)

    def test_nan_empty_and_scalar_differences(self):
        assert not converged([1.0, math.nan], [1.0, 2.0], 1e-3)
        assert not converged([math.nan], [math.nan], 1e-3, TransformConfig(norm="euclidean"))
        assert converged([], [], 1e-3)
        assert converged(1.0, 1.0005, 1e-3)
        assert not converged(1.0, 1.002, 1e-3)

    def test_relative_to_each_coordinate(self):
        # |y - y'| <= delta * max(1, |y|) for every coordinate
        assert converged([1e6, 0.5], [1e6 + 0.5, 0.5 + 5e-7], 1e-6)
        assert not converged([1e6, 0.5], [1e6 + 2.0, 0.5], 1e-6)
        assert not converged([1e6, 0.5], [1e6, 0.5 + 2e-6], 1e-6)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
    def test_euclidean_norm_neither_underflows_nor_overflows(self, scale):
        # tier-1 turns a NumPy RuntimeWarning into an error
        cfg = TransformConfig(norm="euclidean")
        assert seq_norm([3 * scale, 4 * scale], cfg) == pytest.approx(5 * scale, rel=1e-15)
        assert seq_norm([scale, scale], cfg) == pytest.approx(math.sqrt(2) * scale, rel=1e-15)
        assert seq_norm([-scale], cfg) == seq_norm([scale], TransformConfig()) == scale

    def test_euclidean_norm_of_normal_squares_is_sqrt_of_dot(self):
        v = np.random.default_rng(3).normal(size=(14, 7)) * 10.0 ** np.arange(-140, 140, 20)[:, None]
        cfg = TransformConfig(norm="euclidean")
        for row in v:
            assert seq_norm(row, cfg) == math.sqrt(np.dot(row, row))
        assert seq_norm([0.0, -0.0], cfg) == seq_norm([], cfg) == 0.0
        assert seq_norm([math.inf, 1.0], cfg) == math.inf
        assert math.isnan(seq_norm([math.nan, 1e-300], cfg))
        assert seq_norm([1.7e308, 1.7e308], cfg) == math.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            converged([1.0, 2.0], [1.0], 1e-3)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            converged([1.0], [1.0], 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformConfig(stall_tolerance=0.0)
        with pytest.raises(ValueError):
            TransformConfig(norm="manhattan")
