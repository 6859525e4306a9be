"""Aitken delta-squared, the epsilon-algorithm, and stall handling."""
import itertools
import math
import struct

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
from fixaccel.transforms import (
    MAX_COLUMN,
    STALL_TOLERANCE,
    EstimateStream,
    _norms_and_inverses,
    agreements,
    seq_norm,
    vector_epsilon_tip,
)

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


class TestEpsilonTable:
    def test_diagonal_entries_are_even_column_heads(self):
        # two decay modes keep the table live through column 4
        x = np.array(
            [5.0 + 2.0 * 0.5**k + 1.0 * (-0.3) ** k for k in range(11)]
        )
        # tol = floor = 0: the textbook table, which stalls no difference of finite cells
        t = reference_table(x[:, None], 0.0, 0.0, False, 4)
        d = epsilon_diagonal(x)
        assert d[0].value == t[0][0][0, 0]
        assert d[1].value == t[2][0][0, 0]
        assert d[2].value == t[4][0][0, 0]
        assert not d[2].stalled


class TestEpsilonDiagonal:
    def test_first_entry_is_first_element(self):
        x = geometric(4.0, -1.5, 0.7, 11)
        d = epsilon_diagonal(x)
        assert d[0].value == x[0]
        assert not d[0].stalled

    def test_entry_count(self):
        assert len(epsilon_diagonal(np.arange(1.0, 8.0) ** 1.5)) == 4  # 2k+1 <= 7

    @pytest.mark.parametrize("x", [[], [[1.0, 2.0], [3.0, 4.0]]])
    def test_needs_a_scalar_sequence_of_one_element(self, x):
        with pytest.raises(ValueError, match="length >= 1"):
            epsilon_diagonal(x)

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


NAN_ROW = [math.nan, 1.0, 2.0]


@pytest.mark.parametrize("rows", [
    # a NaN row beside a normal, an underflowing and an overflowing row
    [[3.0, -4.0, 0.5], NAN_ROW, [1e-200, -3e-200, 2e-201], [1e200, 3e200, -2e200]],
    # beside a normal row only, which needs no scaling
    [[3.0, -4.0, 0.5], NAN_ROW],
    # only NaN rows, and beside a zero row and a row holding an infinity
    [NAN_ROW, [math.nan] * 3],
    [NAN_ROW, [0.0, -0.0, 0.0], [math.inf, 1.0, 2.0]],
], ids=["under-and-overflow", "normal", "all-nan", "zero-and-inf"])
def test_norms_and_inverses_beside_a_nan_row_equal_the_reference(rows):
    # the fast test for rows to scale passes over a NaN row, as the
    # reference's mask does, whichever rows sit beside it
    v = np.array(rows)
    out = np.empty_like(v)
    with np.errstate(all="ignore"):
        norms = _norms_and_inverses(v, out)
    want_norms, want_inverses = scaled_norms(v)
    assert value_bits(norms[:, 0]) == value_bits(want_norms)
    assert value_bits(out) == value_bits(want_inverses)


def reference_table(rows, tol, floor, vector, columns=None):
    """Columns 0..``columns`` (all if None) of the epsilon-table of
    ``rows``, shape (m, coordinates), as (values, valid) pairs, one
    column at a time: one scalar table per coordinate, or with
    ``vector`` one table whose cells are rows and which has one flag per
    cell.  A cell is valid when its three operands are and its
    denominator d = eps_{k-1}^(n+1) - eps_{k-1}^(n) passes the kernel's
    rule |d| >= max(tol * |b|, floor), b = eps_{k-1}^(n), with the
    Euclidean norms and inverses of ``scaled_norms`` for a vector table.
    An invalid cell's value means nothing.  ``rows`` is copied in C
    order, as the kernel's table holds it: ``scaled_norms``' einsum sums
    the rows of an F-ordered array (``m[:, mask]``) in another order.

    Each reader passes the (tol, floor) of the code it checks: the
    one-shot functions (``reference_diagonal``, ``reference_aitken``)
    (tol, tol), or (tol, max(tol, TINY)) for a vector table;
    ``vector_epsilon_tip`` (STALL_TOLERANCE, STALL_TOLERANCE);
    ``EstimateStream`` (``newest_cells``) (STALL_TOLERANCE, TINY); and
    ``TestEpsilonTable`` (0, 0), the textbook table."""
    vals = np.array(rows, dtype=float, order="C")
    ok = np.ones(len(vals) if vector else vals.shape, dtype=bool)
    cols = [(vals, ok)]
    # column -1 is +0.0, as in the code
    below_vals, below_ok = np.zeros_like(vals), np.ones_like(ok)
    while len(vals) >= 2 and (columns is None or len(cols) <= columns):
        d = vals[1:] - vals[:-1]
        deps = ok[1:] & ok[:-1] & below_ok[1: len(vals)]
        if vector:
            norm_d, inverse = scaled_norms(d)
            live = deps & (norm_d >= np.maximum(tol * scaled_norms(vals[:-1])[0], floor))
            new_vals = below_vals[1: len(vals)] + np.where(live[:, None], inverse, 0.0)
        else:
            live = deps & (np.abs(d) >= np.maximum(tol * np.abs(vals[:-1]), floor))
            new_vals = below_vals[1: len(vals)] + 1.0 / np.where(live, d, 1.0)
        below_vals, below_ok, vals, ok = vals, ok, new_vals, live
        cols.append((vals, ok))
    return cols


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
    """The tip eps_2k^(0) of each even column of the table of ``x``,
    shape (m, coordinates), a vector table or one of a single
    coordinate, as (value, stalled)."""
    floor = max(tol, TINY) if vector else tol
    tips = [(vals[0], ok[0].all()) for vals, ok in reference_table(x, tol, floor, vector)[::2]]
    return carried(tips, [x[0]] * len(tips))


def reference_aitken(x, tol):
    """Column 2 of the table of ``x``, shape (m, 1): eps_2^(n) = y_n, as
    (value, stalled); a stalled y_n carries the last valid one, or x_n
    while none exists."""
    vals, ok = reference_table(x, tol, tol, False, 2)[2]
    return carried(zip(vals, ok[:, 0]), x)


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
# the first difference is exactly the floor tol, which passes the stall
# test, and so column 2's cell is valid
@example(case=(np.array([[0.0], [0.25], [1.0]]), 0.25))
def test_diagonals_equal_the_reference_table(case):
    rows, tol = case
    cfg = TransformConfig(stall_tolerance=tol)
    # the reference overflows like the code; tier-1 makes a warning fail
    with np.errstate(all="ignore"):
        for c in range(rows.shape[1]):
            x = [float(v) for v in rows[:, c]]
            pairs = [(epsilon_diagonal(x, cfg), reference_diagonal(rows[:, [c]], tol, False))]
            if len(x) >= 3:
                pairs.append((aitken(x, cfg), reference_aitken(rows[:, [c]], tol)))
            for got, want in pairs:
                assert [e.stalled for e in got] == [s for _, s in want]
                assert all(isinstance(e.value, float) for e in got)
                assert [value_bits(e.value) for e in got] == [value_bits(v) for v, _ in want]
        got = vector_epsilon_diagonal(rows, cfg)
        # rows of dimension 1 take the scalar rule
        want = reference_diagonal(rows, tol, rows.shape[1] != 1)
        assert [e.stalled for e in got] == [s for _, s in want]
        assert all(e.value.shape == rows.shape[1:] for e in got)
        assert [value_bits(e.value) for e in got] == [value_bits(v) for v, _ in want]


@settings(max_examples=200, deadline=None)
@given(case=diagonal_cases(), spoiled=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3)), max_size=3))
def test_vector_epsilon_tip_is_the_reference_tables_on_the_finite_coordinates(case, spoiled):
    # the deepest valid even cell of the last antidiagonal, by the vector
    # rule at every width, over the coordinates finite in every row; the
    # others keep the last row's values
    rows, _ = case
    rows = rows.copy()
    for n, c in spoiled:
        rows[n % len(rows), c % rows.shape[1]] = math.inf
    finite = np.isfinite(rows).all(axis=0)
    if not finite.any():
        return
    with np.errstate(all="ignore"):
        got = vector_epsilon_tip(rows)
        table = reference_table(rows[:, finite], STALL_TOLERANCE, STALL_TOLERANCE, True)
    cells = [(vals[-1], ok[-1]) for vals, ok in table[::2]]
    tip = next((v for v, ok in reversed(cells) if ok), rows[-1, finite])
    if not np.isfinite(tip).all():
        assert got is None
        return
    want = rows[-1].copy()
    want[finite] = tip
    assert value_bits(got) == value_bits(want)


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


def newest_cells(method, rows):
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
    cols = reference_table(m, STALL_TOLERANCE, TINY, vector, 2 if method == "aitken" else MAX_COLUMN)
    est = m.copy()  # row t holds the estimate after row t
    for k in range(2, len(cols), 2):
        vals, ok = cols[k]  # cell k, t - k is on antidiagonal t
        np.copyto(est[k:], vals, where=ok[:, None] if vector else ok)
    return out + list(est[2:])


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _bounds(rows, alive):
    """``rows`` with every coordinate that ``alive`` rules out set to an
    infinite bound: -inf at an even position, inf at an odd one."""
    return np.where(alive, rows, np.where(np.arange(len(alive)) % 2, np.inf, -np.inf))


@st.composite
def stream_cases(draw):
    """Rows of one of four shapes, each followed by an optional extra
    row, a shrink or a gain of the finite coordinates.  An extra row
    nudges the row, repeats it (a zero first difference) or extends the
    two before it linearly (a zero second difference), so that it stalls
    cells.  After a shrink, the dropped coordinates are infinite (all of
    them, at times); a gain makes one of them finite again."""
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
    alive = np.ones(d, dtype=bool)
    out = []
    for i in range(m):
        out.append(_bounds(rows[i], alive))
        action = draw(st.sampled_from(["none", "none", "nudge", "repeat", "linear", "keep", "gain"]))
        if action == "nudge":
            out.append(_bounds(rows[i] + rng.normal(size=d) * 10.0 ** rng.integers(-12, 0), alive))
        elif action == "repeat":
            out.append(out[-1].copy())
        elif action == "linear" and i >= 1:
            out.append(_bounds(2.0 * rows[i] - rows[i - 1], alive))
        elif action == "keep":
            alive &= draw(st.lists(st.booleans(), min_size=d, max_size=d))
        elif action == "gain" and not alive.all():
            alive[draw(st.sampled_from(np.flatnonzero(~alive).tolist()))] = True
    return out


def expected_stream(method, rows):
    """What the stream returns after each of ``rows``, with its count:
    the full table's estimate over the row's finite coordinates, their
    positions and the rows in the table.  The table holds the rows since
    the last one that gained a finite coordinate, on the finite
    coordinates of the newest; a row with no finite coordinate has no
    estimate and empties it."""
    out, table, cols = [], [], None
    finite = np.isfinite(rows)
    for run in np.split(np.arange(len(rows)), np.flatnonzero((finite[1:] != finite[:-1]).any(axis=1)) + 1):
        mask = finite[run[0]]
        if cols is None or (mask & ~cols).any():
            table = []  # a coordinate turned finite: start over
        cols = mask
        positions = np.flatnonzero(mask).tolist()
        if not positions:
            table = []
            out += [(None, positions, 0)] * len(run)
            continue
        table += [rows[t] for t in run]
        estimates = newest_cells(method, [r[mask] for r in table])[-len(run):]
        out += [(y, positions, len(table) - len(run) + j) for j, y in enumerate(estimates, 1)]
    return out


def laid_bits(est):
    """A laid-out estimate as the bytes of each coordinate, None where
    it covers none, or None for no estimate."""
    return None if est is None else [v if v is None else struct.pack("d", v) for v in est]


def laid_out(y, positions, width):
    """``expected_stream``'s estimate ``y`` placed at its ``positions``
    in a row of ``width`` coordinates, None elsewhere."""
    if y is None:
        return None
    laid = [None] * width
    for j, v in zip(positions, y.tolist()):
        laid[j] = v
    return laid


def replay(method, rows, sizes, delta=1e-6):
    """Push ``rows`` through ``push_rows_unguarded`` in blocks whose
    sizes cycle through ``sizes``, and return the (estimate, flag) pairs.
    Every estimate a block returns, laid out over the row, and ``count``
    after each block, must equal those of the full table on the rows fed
    so far, bit for bit."""
    want = expected_stream(method, rows)
    stream = EstimateStream(method, delta)
    got = []
    size = itertools.cycle(sizes)
    # tier-1 makes a warning fail, and the stream enters no error state
    with np.errstate(all="ignore"):
        while len(got) < len(rows):
            block = rows[len(got): len(got) + next(size)]
            estimates = stream.push_rows_unguarded(block)
            assert len(estimates) == len(block)
            got += estimates
            assert stream.count == want[len(got) - 1][2]
    assert [laid_bits(est) for est, _ in got] == [
        laid_bits(laid_out(y, positions, len(row))) for (y, positions, _), row in zip(want, rows)
    ]
    return got


block_sizes = st.lists(st.integers(1, 24), min_size=1, max_size=6)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=150, deadline=None)
@given(rows=stream_cases(), sizes=block_sizes)
def test_stream_equals_full_table_on_every_prefix(method, rows, sizes):
    replay(method, rows, sizes)


@st.composite
def long_stream_cases(draw):
    """Runs as long and wide as the engine's: up to 70 rows of up to 40
    coordinates, with extra rows, shrinks and gains as in
    ``stream_cases``.  Coordinates have magnitudes up to 1e300, so that
    differences overflow to -inf or inf, and so would the vector
    method's unscaled dot products; some runs do not converge at all."""
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
    alive = np.ones(d, dtype=bool)
    out = []
    for i in range(m):
        out.append(_bounds(rows[i], alive))
        action = rng.choice(["nudge", "repeat", "linear", "keep", "gain"]) if rng.random() < rate else "none"
        if action == "nudge":
            out.append(_bounds(np.clip(rows[i] * (1.0 + rng.normal(size=d) * 1e-9), -1e300, 1e300), alive))
        elif action == "repeat":
            out.append(out[-1].copy())
        elif action == "linear" and i >= 1:
            out.append(_bounds(np.clip(2.0 * rows[i] - rows[i - 1], -1e300, 1e300), alive))
        elif action == "keep":
            alive &= rng.random(d) < 0.9
        elif action == "gain" and not alive.all():
            alive[rng.choice(np.flatnonzero(~alive))] = True
    return out


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=60, deadline=None)
@given(rows=long_stream_cases(), sizes=block_sizes)
# d . d overflows: the vector cells come from rows scaled by a power of two
@example(rows=[np.array([230.63, -6.6777e299, 1.002]),
               np.array([230.63, -3.7551e299, 1.002]),
               np.array([230.63, -2.4271e299, 1.002])], sizes=[1])
def test_stream_equals_full_table_on_long_wide_runs(method, rows, sizes):
    # both sides overflow on huge magnitudes, and tier-1 makes a warning fail
    with np.errstate(all="ignore"):
        replay(method, rows, sizes)


def walked_flags(want, delta):
    """The agreement flag after each row of ``expected_stream``'s
    ``want``: each estimate tested by ``converged`` against the one
    before it under the same positions, the first estimate after a
    change of positions, a restart or a replay, against none."""
    flags, active, prior = [], None, None
    for y, positions, _ in want:
        if positions != active:
            active, prior = positions, None
        agrees = False
        if y is not None:
            agrees = prior is not None and converged(y, prior, delta)
            prior = y
        flags.append(agrees)
    return flags


DELTAS = st.sampled_from([1e-6, 1e-3, 0.5, 1.0]) | st.floats(1e-300, 1e300)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=150, deadline=None)
@given(rows=stream_cases() | long_stream_cases(), sizes=block_sizes, delta=DELTAS)
# the stalled rows are their own estimates, and the last moves by
# exactly delta * max(1, |y|): a tie agrees
@example(rows=[np.array([0.0])] * 3 + [np.array([0.5])], sizes=[1], delta=0.5)
# the finite coordinate moves within one block, which restarts the
# table, and the same three values estimate the same limit there: no
# agreement across the restart
@example(rows=[np.array([v, math.inf]) for v in (1.0, 1.5, 1.75)]
         + [np.array([-math.inf, v]) for v in (1.0, 1.5, 1.75)], sizes=[6], delta=1e-6)
def test_stream_flags_agreement_as_converged_does_row_by_row(method, rows, sizes, delta):
    got = replay(method, rows, sizes, delta)
    with np.errstate(all="ignore"):
        want = walked_flags(expected_stream(method, rows), delta)
    assert [agrees for _, agrees in got] == want


# entries on both sides of the agreement test: ±0.0, the ends of a
# change of exactly delta * max(1, |y|) for delta 0.5 (0.5 from 0.0,
# 2.0 from 1.0) and 1.0, huge, infinite and NaN entries, and any float
AGREEMENT_ENTRIES = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.0, -1.0, -2.0, 1.0 + 1e-6, 1e300, -1e300, math.inf, -math.inf, math.nan]
) | st.floats(width=64)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_agreements_are_converged_row_by_row(data):
    width, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    block = st.lists(AGREEMENT_ENTRIES, min_size=width * m, max_size=width * m)
    ys, priors = (np.array(data.draw(block)).reshape(m, width) for _ in range(2))
    delta = data.draw(st.sampled_from([1e-6, 0.5, 1.0, math.inf]) | st.floats(1e-300, 1e300))
    with np.errstate(all="ignore"):
        got = agreements(ys, priors, delta)
        want = [converged(y, p, delta) for y, p in zip(ys, priors)]
    assert got.dtype == bool and got.tolist() == want
    # the engine injects an agreeing estimate, which must be finite: an
    # infinite entry changes by NaN, (inf - p) / inf, which fails any delta
    assert np.isfinite(ys[got]).all()


@pytest.mark.parametrize("method", METHODS)
def test_stream_follows_lowpass1_stall(method):
    # lowpass1's Kleene bounds are exactly geometric after row 0, so the
    # epsilon tables stall; the stream must follow the table's stalls
    _, trace = analyze(load_bundled("lowpass1"), EngineConfig(mode="kleene"))
    rows = [np.array(r.row) for r in trace.records[:40]]
    with np.errstate(all="ignore"):
        got = EstimateStream(method, 1e-6).push_rows_unguarded(rows)
    assert [laid_bits(est) for est, _ in got] == [
        laid_bits(None if y is None else y.tolist()) for y in newest_cells(method, rows)
    ]


@pytest.mark.parametrize("method", ["epsilon", "vector-epsilon"])
def test_newest_cell_leaves_the_transient_behind(method):
    # the tip eps_2j^(0) always reaches back to row 0; the newest cell
    # of a deep column does not, so a transient in row 0 is forgotten
    # once the column's cells have moved past it
    x = 2.0 + 1.5 * 0.9 ** np.arange(30.0) + 0.7 * 0.5 ** np.arange(30.0)
    x[0] += 5.0
    with np.errstate(all="ignore"):
        *_, (est, _) = EstimateStream(method, 1e-6).push_rows_unguarded([[v, -v] for v in x])
    tip = epsilon_diagonal(x)[-1].value
    assert abs(est[0] - 2.0) < 1e-12 < abs(tip - 2.0)
    assert est[1] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300])
def test_stall_rule_is_scale_invariant(method, scale):
    # scale * (2 - 0.5**k) is geometric at every scale, so its column 2
    # forms from three rows and holds the limit 2 * scale
    rows = [[scale * (2.0 - 0.5**k), -scale] for k in range(3)]
    with np.errstate(all="ignore"):
        *_, (est, _) = EstimateStream(method, 1e-6).push_rows_unguarded(rows)
    assert est[0] == pytest.approx(2.0 * scale, rel=1e-12, abs=0.0)


def test_stream_keeps_at_most_max_column_plus_one_cells():
    stream = EstimateStream("epsilon", 1e-6)
    with np.errstate(all="ignore"):
        for v in np.random.default_rng(5).normal(size=(40, 3)):
            stream.push_rows_unguarded([v])
            assert len(stream._cur) <= MAX_COLUMN + 1
    assert len(stream._cur) == MAX_COLUMN + 1


def test_vector_stream_of_dimension_one_takes_the_scalar_rule():
    rows = (2.0 + 1.5 * 0.6 ** np.arange(9.0))[:, None]
    with np.errstate(all="ignore"):
        vec = EstimateStream("vector-epsilon", 1e-6).push_rows_unguarded(rows)
        sca = EstimateStream("epsilon", 1e-6).push_rows_unguarded(rows)
    assert [(laid_bits(est), agrees) for est, agrees in vec] == [
        (laid_bits(est), agrees) for est, agrees in sca
    ]


def test_stream_rejects_bad_input():
    with pytest.raises(ValueError):
        EstimateStream("richardson", 1e-6)
    for delta in (0.0, -1e-6, math.nan):  # as EngineConfig rejects it
        with pytest.raises(ValueError, match="delta"):
            EstimateStream("epsilon", delta)
    s = EstimateStream("epsilon", 1e-6)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            s.push_rows_unguarded([[1.0, math.nan]])
        s.push_rows_unguarded([[1.0, 2.0]])
        for block in ([[1.0]], [[[1.0, 2.0]]], []):
            with pytest.raises(ValueError):
                s.push_rows_unguarded(block)
        # an infinite bound is accepted and gets no estimate, and a row
        # without a finite bound gets none at all
        s = EstimateStream("epsilon", 1e-6)
        got = s.push_rows_unguarded([[v, math.inf] for v in (1.0, 1.5, 1.75)] + [[-math.inf, math.inf]])
    assert got == [(None, False), (None, False), ((2.0, None), False), (None, False)]


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

    def test_euclidean_norm_is_the_stall_tests_norm(self):
        # bit for bit the norm the vector epsilon table takes of the row
        rng = np.random.default_rng(3)
        rows = [
            rng.normal(size=n) * scale
            for n in (1, 2, 7, 100)
            for scale in 10.0 ** np.arange(-300, 301, 50)
        ]
        rows += [[0.0], [0.0, -0.0], [math.inf, 1.0], [1.0, -math.inf], [math.nan, 1e-300],
                 [math.inf, math.nan], [1.7e308, 1.7e308], [5e-324], [1e-320, -3e-310]]
        cfg = TransformConfig(norm="euclidean")
        for row in rows:
            v = np.array(row, dtype=float)[None]
            with np.errstate(over="ignore"):
                expected = _norms_and_inverses(v, v[:0])[0, 0]
            assert np.float64(seq_norm(row, cfg)).tobytes() == expected.tobytes(), row
        assert seq_norm([], cfg) == 0.0
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
