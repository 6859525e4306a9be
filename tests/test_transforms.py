"""Aitken delta-squared, the epsilon-algorithm, and stall handling."""
import math

import numpy as np
import pytest

from fixaccel import (
    TransformConfig,
    aitken,
    converged,
    epsilon_diagonal,
    vector_epsilon_diagonal,
)


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
