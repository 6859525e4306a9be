"""Aitken delta-squared, the epsilon-algorithm, and stall handling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from fixaccel.transforms import EstimateStream

METHODS = ("aitken", "epsilon", "vector-epsilon")


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


def full_table_last(method, rows):
    """The last element of the full-table function on ``rows``: the
    reference ``EstimateStream.estimate()`` must equal bit for bit."""
    m = np.array(rows)
    if method == "aitken":
        if len(m) < 3:
            return None
        return np.array([aitken(m[:, c])[-1].value for c in range(m.shape[1])])
    if method == "epsilon":
        return np.array([epsilon_diagonal(m[:, c])[-1].value for c in range(m.shape[1])])
    return np.asarray(vector_epsilon_diagonal(m)[-1].value, dtype=float)


def bits(a):
    return None if a is None else (a.shape, a.tobytes())


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def stream_cases(draw):
    """Rows of one of four shapes, each followed by an optional
    replacement of the newest row or a shrink of the coordinate set.  A
    replacement nudges the row, repeats the row before (a zero first
    difference) or extends the two before linearly (a zero second
    difference), so that it can stall cells the original row did not."""
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
            ops.append(("replace", rows[i] + rng.normal(size=d) * 10.0 ** rng.integers(-12, 0)))
        elif action == "repeat" and i >= 1:
            ops.append(("replace", rows[i - 1].copy()))
        elif action == "linear" and i >= 2:
            ops.append(("replace", 2.0 * rows[i - 1] - rows[i - 2]))
        elif action == "keep":
            ops.append(("keep", draw(st.lists(st.booleans(), min_size=d, max_size=d))))
    return ops


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=150, deadline=None)
@given(ops=stream_cases())
def test_stream_equals_full_table_on_every_prefix(method, ops):
    stream = EstimateStream(method)
    seen = []  # full rows pushed so far
    cols = None  # the coordinates the stream still keeps
    for op, arg in ops:
        if cols is None:
            cols = np.arange(len(arg))
        if op == "push":
            seen.append(arg)
            stream.push(arg[cols])
        elif op == "replace":
            seen[-1] = arg
            stream.replace_last(arg[cols])
        else:
            positions = [j for j, flag in enumerate(arg[: len(cols)]) if flag] or [0]
            cols = cols[positions]
            stream.keep(positions)
        want = full_table_last(method, [r[cols] for r in seen])
        assert bits(stream.estimate()) == bits(want)
        assert stream.count == len(seen)


@pytest.mark.parametrize("method", METHODS)
def test_stream_follows_lowpass1_stall(method):
    # lowpass1's Kleene bounds are exactly geometric after row 0, so the
    # epsilon tables stall; the stream must retain what the table retains
    _, trace = analyze(load_bundled("lowpass1"), EngineConfig(mode="kleene"))
    rows = [np.array(r.row) for r in trace.records[:40]]
    stream = EstimateStream(method)
    for i, row in enumerate(rows):
        stream.push(row)
        assert bits(stream.estimate()) == bits(full_table_last(method, rows[: i + 1]))


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
        s.replace_last([1.0])
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
