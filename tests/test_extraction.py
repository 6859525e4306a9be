"""Flattening abstract states to coordinate vectors and back."""
import math

import numpy as np
import pytest

from fixaccel import (
    BOTTOM,
    TOP,
    AbstractState,
    ExtractionSchema,
    Interval,
    combine_detailed,
    extract,
    state_leq,
)


def schema2():
    return ExtractionSchema.for_variables(("a", "b"))


class TestSchema:
    def test_coordinate_order(self):
        s = ExtractionSchema.for_variables(("x", "y", "z"))
        assert s.coords == (
            ("x", "lower"),
            ("x", "upper"),
            ("y", "lower"),
            ("y", "upper"),
            ("z", "lower"),
            ("z", "upper"),
        )
        assert s.variables == ("x", "y", "z")
        assert s.dimension == 6

    def test_malformed_schema_rejected(self):
        with pytest.raises(ValueError):
            ExtractionSchema((("a", "lower"),))
        with pytest.raises(ValueError):
            ExtractionSchema((("a", "upper"), ("a", "lower")))
        with pytest.raises(ValueError):
            ExtractionSchema.for_variables(("a", "a"))


class TestExtract:
    def test_all_finite(self):
        x = AbstractState([("a", Interval(-1, 2)), ("b", Interval(0, 5))])
        r = extract(x, schema2())
        assert r.vector.tolist() == [-1, 2, 0, 5]
        assert r.excluded == frozenset()

    def test_infinite_bounds_excluded(self):
        x = AbstractState(
            [("a", Interval(-math.inf, 2)), ("b", Interval(0, math.inf))]
        )
        r = extract(x, schema2())
        assert r.vector.tolist() == [2, 0]
        assert r.excluded == {("a", "lower"), ("b", "upper")}

    def test_bottom_component_fully_excluded(self):
        x = AbstractState([("a", BOTTOM), ("b", Interval(0, 1))])
        r = extract(x, schema2())
        assert r.vector.tolist() == [0, 1]
        assert r.excluded == {("a", "lower"), ("a", "upper")}

    def test_everything_excluded_signals_nothing_to_accelerate(self):
        x = AbstractState([("a", TOP), ("b", BOTTOM)])
        r = extract(x, schema2())
        assert len(r.vector) == 0
        assert len(r.excluded) == 4

    def test_vector_plus_excluded_covers_schema(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            items = []
            for j in range(int(rng.integers(1, 6))):
                roll = rng.random()
                if roll < 0.15:
                    iv = BOTTOM
                else:
                    lo = -math.inf if rng.random() < 0.2 else float(rng.normal())
                    hi = math.inf if rng.random() < 0.2 else float(rng.normal())
                    if lo > hi:
                        lo, hi = hi, lo
                    iv = Interval(lo, hi)
                items.append((f"v{j}", iv))
            x = AbstractState(items)
            s = ExtractionSchema.for_variables(x.names)
            r = extract(x, s)
            assert len(r.vector) + len(r.excluded) == s.dimension

    def test_mismatched_variables_rejected(self):
        x = AbstractState([("z", Interval(0, 1))])
        with pytest.raises(ValueError):
            extract(x, schema2())


class TestCombine:
    def test_round_trip_identity_on_finite_states(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            items = []
            for j in range(int(rng.integers(1, 7))):
                lo, hi = sorted(rng.normal(scale=100, size=2))
                items.append((f"v{j}", Interval(float(lo), float(hi))))
            x = AbstractState(items)
            s = ExtractionSchema.for_variables(x.names)
            r = extract(x, s)
            assert combine_detailed(r.vector, r.excluded, s)[0] == x

    def test_excluded_coordinates_become_infinities(self):
        s = schema2()
        excluded = frozenset({("a", "lower"), ("b", "upper")})
        x = combine_detailed(np.array([2.0, 0.0]), excluded, s)[0]
        assert x["a"] == Interval(-math.inf, 2)
        assert x["b"] == Interval(0, math.inf)

    def test_inverted_pair_swapped_and_flagged(self):
        s = schema2()
        x, swapped = combine_detailed(
            np.array([5.0, 1.0, 0.0, 2.0]), frozenset(), s
        )
        assert x["a"] == Interval(1, 5)
        assert x["b"] == Interval(0, 2)
        assert swapped == frozenset({"a"})

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            combine_detailed(np.array([1.0, 2.0, 3.0]), frozenset(), schema2())

    def test_non_finite_vector_rejected(self):
        s = schema2()
        with pytest.raises(ValueError):
            combine_detailed(np.array([1.0, 2.0, 3.0, math.nan]), frozenset(), s)
        with pytest.raises(ValueError):
            combine_detailed(np.array([1.0, 2.0, 3.0, math.inf]), frozenset(), s)

    def test_monotone_in_each_coordinate(self):
        # pushing a lower coordinate down / an upper coordinate up can
        # only grow the combined state
        rng = np.random.default_rng(31)
        s = schema2()
        for _ in range(200):
            lo_a, hi_a = sorted(rng.normal(size=2))
            lo_b, hi_b = sorted(rng.normal(size=2))
            v = np.array([lo_a, hi_a, lo_b, hi_b])
            x = combine_detailed(v, frozenset(), s)[0]
            j = int(rng.integers(0, 4))
            w = v.copy()
            w[j] += -abs(rng.normal()) if j % 2 == 0 else abs(rng.normal())
            y = combine_detailed(w, frozenset(), s)[0]
            assert state_leq(x, y)
