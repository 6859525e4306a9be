"""Flattening abstract states to coordinate vectors and back."""
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
from fixaccel.extraction import bound_row, state_from_row


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
        with pytest.raises(ValueError):
            ExtractionSchema("ab")
        with pytest.raises(ValueError):
            ExtractionSchema.for_variables("ab")


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
        with pytest.raises(ValueError, match="flat coordinate vector"):
            combine_detailed(np.array([[1.0, 2.0], [3.0, 4.0]]), frozenset(), schema2())

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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# finite bounds of every size, signed zeros and infinities
BOUNDS = st.one_of(FINITE, st.sampled_from([0.0, -0.0, math.inf, -math.inf]))


@st.composite
def states(draw):
    """A state of 1 to 6 components, each BOTTOM or [lo, hi] with lo <=
    hi drawn from BOUNDS ([0.0, -0.0] and [inf, inf] included)."""
    items = []
    for j in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            iv = BOTTOM
        else:
            a, b = draw(BOUNDS), draw(BOUNDS)
            iv = Interval(*((b, a) if a > b else (a, b)))
        items.append((f"v{j}", iv))
    return AbstractState(items)


def hexes(row):
    return [float.hex(v) for v in row]


def filled_array(x):
    """The bound row as a float64 array filled element by element."""
    row = np.empty(2 * len(x))
    for j, iv in enumerate(x.intervals):
        row[2 * j] = iv.lo
        row[2 * j + 1] = iv.hi
    return row


@settings(max_examples=300, deadline=None)
@given(states())
def test_bound_row_is_a_list_and_state_from_row_its_inverse(x):
    row = bound_row(x)
    assert type(row) is list and all(type(b) is float for b in row)
    assert hexes(row) == hexes(filled_array(x).tolist())
    y = state_from_row(x.names, row)
    assert y.names == x.names and hexes(bound_row(y)) == hexes(row)


@settings(max_examples=300, deadline=None)
@given(states())
def test_combine_of_extract_restores_each_excluded_bound_as_its_infinity(x):
    # x itself, bit for bit, when each infinite bound of x is on its own
    # side; a BOTTOM or an [inf, inf] component comes back as its pair of
    # excluded coordinates, [-inf, inf]
    s = ExtractionSchema.for_variables(x.names)
    r = extract(x, s)
    y, swapped = combine_detailed(r.vector, r.excluded, s)
    row = bound_row(x)
    expected = [v if math.isfinite(v) else -math.inf if j % 2 == 0 else math.inf for j, v in enumerate(row)]
    event(f"x restored: {hexes(expected) == hexes(row)}")
    assert hexes(bound_row(y)) == hexes(expected)
    assert y.names == x.names and swapped == frozenset()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=6), st.data())
def test_combine_swaps_exactly_the_inverted_pairs(pairs, data):
    s = ExtractionSchema.for_variables([f"v{j}" for j in range(len(pairs))])
    excluded = data.draw(st.frozensets(st.sampled_from(s.coords)))
    flat = [v for pair in pairs for v in pair]
    y, swapped = combine_detailed([v for v, c in zip(flat, s.coords) if c not in excluded], excluded, s)
    expected, inverted = [], set()
    for j, name in enumerate(s.variables):
        lo = -math.inf if s.coords[2 * j] in excluded else flat[2 * j]
        hi = math.inf if s.coords[2 * j + 1] in excluded else flat[2 * j + 1]
        if lo > hi:
            lo, hi = hi, lo
            inverted.add(name)
        expected += [lo, hi]
    assert swapped == inverted
    assert hexes(bound_row(y)) == hexes(expected)
