"""Interval lattice operations: ordering, join, widening, affine images."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixaccel import (
    BOTTOM,
    TOP,
    AbstractState,
    Interval,
    ThresholdSet,
    affine_eval,
    join,
    leq,
    state_join,
    state_leq,
    state_widen_std,
    state_widen_thresholds,
    widen_std,
    widen_thresholds,
)
from families import rand_interval


class TestIntervalBasics:
    def test_bottom_and_top(self):
        assert BOTTOM.is_bottom
        assert BOTTOM == Interval(math.inf, -math.inf)
        assert not TOP.is_bottom
        assert TOP == Interval(-math.inf, math.inf)

    def test_nonempty_point_interval(self):
        iv = Interval(2.0, 2.0)
        assert not iv.is_bottom
        assert (iv.lo, iv.hi) == (2.0, 2.0)

    def test_inverted_finite_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.nan)

    def test_join_examples(self):
        assert join(Interval(0, 1), Interval(2, 3)) == Interval(0, 3)
        assert join(BOTTOM, Interval(2, 3)) == Interval(2, 3)
        assert join(Interval(2, 3), BOTTOM) == Interval(2, 3)
        assert join(TOP, Interval(2, 3)) == TOP

    def test_leq_examples(self):
        assert leq(Interval(1, 2), Interval(0, 3))
        assert not leq(Interval(0, 3), Interval(1, 2))
        assert leq(BOTTOM, Interval(5, 5))
        assert leq(Interval(5, 5), TOP)
        assert not leq(TOP, Interval(0, 1))

    def test_join_is_least_upper_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = rand_interval(rng), rand_interval(rng)
            j = join(a, b)
            assert leq(a, j) and leq(b, j)
            # tightening either bound of the join loses one argument
            if not j.is_bottom and not math.isinf(j.lo):
                shrunk = Interval(math.nextafter(j.lo, math.inf), max(j.hi, j.lo))
                if leq(shrunk, j) and shrunk != j:
                    assert not (leq(a, shrunk) and leq(b, shrunk))


class TestWidening:
    def test_unstable_upper_goes_infinite(self):
        assert widen_std(Interval(0, 1), Interval(0, 2)) == Interval(0, math.inf)

    def test_unstable_lower_goes_infinite(self):
        assert widen_std(Interval(0, 1), Interval(-1, 1)) == Interval(-math.inf, 1)

    def test_stable_bounds_kept(self):
        assert widen_std(Interval(0, 2), Interval(0, 2)) == Interval(0, 2)
        assert widen_std(Interval(0, 2), Interval(1, 2)) == Interval(0, 2)

    def test_bottom_first_argument_passes_second_through(self):
        assert widen_std(BOTTOM, Interval(1, 2)) == Interval(1, 2)
        assert widen_thresholds(BOTTOM, Interval(1, 2), ThresholdSet((5.0,))) == Interval(1, 2)

    def test_thresholds_snap_upper(self):
        t = ThresholdSet((5.0, 10.0))
        assert widen_thresholds(Interval(0, 1), Interval(0, 2), t) == Interval(0, 5)

    def test_thresholds_snap_lower(self):
        t = ThresholdSet((0.0,))
        assert widen_thresholds(Interval(2, 3), Interval(1, 3), t) == Interval(0, 3)

    def test_thresholds_exhausted_fall_back_to_infinity(self):
        t = ThresholdSet((5.0,))
        assert widen_thresholds(Interval(0, 6), Interval(0, 7), t) == Interval(
            0, math.inf
        )
        assert widen_thresholds(Interval(4, 6), Interval(3, 6), t) == Interval(
            -math.inf, 6
        )

    def test_empty_threshold_set_behaves_like_standard(self):
        t = ThresholdSet(())
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rand_interval(rng), rand_interval(rng)
            assert widen_thresholds(a, b, t) == widen_std(a, b)

    def test_threshold_set_validation(self):
        with pytest.raises(ValueError):
            ThresholdSet((3.0, 1.0))  # not ascending
        with pytest.raises(ValueError):
            ThresholdSet((1.0, 1.0))  # not strict
        with pytest.raises(ValueError):
            ThresholdSet((math.inf,))  # not finite
        assert len(ThresholdSet((1.0, 2.0))) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12, unique=True),
        data=st.data(),
    )
    def test_snaps_equal_a_linear_scan(self, values, data):
        # ThresholdSet holds no two equal values, so not both 0.0 and -0.0
        t = ThresholdSet(tuple(sorted(values)))
        points = st.sampled_from([0.0, -0.0, math.inf, -math.inf, *t.values])
        for x in data.draw(st.lists(points | st.floats(allow_nan=False), min_size=1)):
            up = next((v for v in t.values if v >= x), math.inf)
            down = next((v for v in reversed(t.values) if v <= x), -math.inf)
            assert t.snap_up(x).hex() == up.hex()
            assert t.snap_down(x).hex() == down.hex()

    def test_widening_covers_both_arguments(self):
        rng = np.random.default_rng(13)
        t = ThresholdSet((-10.0, -1.0, 0.0, 2.5, 20.0))
        for _ in range(500):
            a, b = rand_interval(rng), rand_interval(rng)
            for w in (widen_std(a, b), widen_thresholds(a, b, t)):
                assert leq(a, w) and leq(b, w)


class TestAffineEval:
    def test_three_state_filter_row(self):
        terms = (
            (-0.4375, Interval(1, 2)),
            (0.0625, Interval(1, 4)),
            (0.2652, Interval(1, 20)),
            (0.1, Interval(1, 6)),
        )
        iv = affine_eval(0.0, terms)
        assert iv.lo == pytest.approx(-0.4473, abs=1e-12)
        assert iv.hi == pytest.approx(5.7165, abs=1e-12)

    def test_constant_only(self):
        assert affine_eval(3.5, ()) == Interval(3.5, 3.5)

    def test_negative_coefficient_swaps_bounds(self):
        assert affine_eval(0.0, ((-2.0, Interval(1, 3)),)) == Interval(-6, -2)

    def test_bottom_argument_gives_bottom(self):
        assert affine_eval(1.0, ((1.0, BOTTOM),)).is_bottom

    def test_zero_coefficient_ignores_unbounded_argument(self):
        assert affine_eval(1.0, ((0.0, TOP),)) == Interval(1, 1)

    def test_infinite_argument_propagates(self):
        iv = affine_eval(0.0, ((1.0, Interval(0.0, math.inf)),))
        assert iv == Interval(0.0, math.inf)

    def test_nan_constant_rejected(self):
        with pytest.raises(ValueError):
            affine_eval(math.nan, ())

    @pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="coefficient must be finite"):
            affine_eval(0.0, ((coeff, Interval(0, 1)),))


class TestAbstractState:
    def test_lookup_and_iteration_order(self):
        s = AbstractState([("a", Interval(0, 1)), ("b", Interval(2, 3))])
        assert s["a"] == Interval(0, 1)
        assert s.names == ("a", "b")
        assert [n for n, _ in s] == ["a", "b"]
        with pytest.raises(KeyError):
            s["missing"]

    def test_pointwise_join_leq(self):
        x = AbstractState([("a", Interval(0, 1)), ("b", Interval(0, 1))])
        y = AbstractState([("a", Interval(1, 2)), ("b", BOTTOM)])
        j = state_join(x, y)
        assert j["a"] == Interval(0, 2)
        assert j["b"] == Interval(0, 1)
        assert state_leq(x, j) and state_leq(y, j)

    def test_pointwise_widen(self):
        x = AbstractState([("a", Interval(0, 1))])
        y = AbstractState([("a", Interval(0, 2))])
        assert state_widen_std(x, y)["a"] == Interval(0, math.inf)
        t = ThresholdSet((5.0,))
        assert state_widen_thresholds(x, y, t)["a"] == Interval(0, 5)

    def test_mismatched_variables_rejected(self):
        x = AbstractState([("a", Interval(0, 1))])
        y = AbstractState([("b", Interval(0, 1))])
        with pytest.raises(ValueError):
            state_join(x, y)

    def test_a_mapping_builds_the_state_its_pairs_build(self):
        pairs = [("b", Interval(2, 3)), ("a", Interval(0, 1))]
        s = AbstractState(dict(pairs))
        assert s == AbstractState(pairs) and hash(s) == hash(AbstractState(pairs))
        assert s.names == ("b", "a")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate variable names"):
            AbstractState([("a", Interval(0, 1)), ("a", Interval(2, 3))])

    def test_not_equal_to_what_is_not_a_state(self):
        s = AbstractState([("a", Interval(0, 1))])
        assert s.__eq__((("a", Interval(0, 1)),)) is NotImplemented
        assert s != (("a", Interval(0, 1)),) and not s == {"a": Interval(0, 1)}

    def test_repr_names_bottom_and_writes_bounds_by_g(self):
        assert [repr(iv) for iv in (BOTTOM, TOP, Interval(-0.5, 2.0), Interval(1e-7, 3e20))] == [
            "BOTTOM", "[-inf, inf]", "[-0.5, 2]", "[1e-07, 3e+20]"]
        s = AbstractState([("x", BOTTOM), ("y", TOP), ("z", Interval(-0.5, 2.0))])
        assert repr(s) == "{x: BOTTOM, y: [-inf, inf], z: [-0.5, 2]}"
