"""Fixpoint engine: plain iteration, widening, acceleration, soundness."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixaccel import (
    AbstractState,
    EngineConfig,
    Interval,
    ThresholdSet,
    analyze,
    load_bundled,
    parse,
    state_leq,
    state_join,
    transfer,
    verify_postfixpoint,
)
from fixaccel import engine, programs
from fixaccel.extraction import bound_row
from fixaccel.intervals import BOTTOM, TOP
from fixaccel.programs import Assignment, Program
from fixaccel.transforms import EstimateStream
from test_golden import gaussian_program

METHODS = ["aitken", "epsilon", "vector-epsilon"]
POLICIES = ["once", "repeat"]

# limits of the bundled programs, from solving the stationary bound
# equations of each loop directly (see tests below for the 2-state case)
FILTER3_LIMIT = {
    "x1": (-5.197505568307443, 8.873306648974609),
    "x2": (-2.6244448118404273, 11.126367405441624),
    "x3": (-4.718725899853036, 20.0),
}
LOWPASS1_UPPER = 20.00840336134455
CONTRACTION2_LIMIT = {"a": (-1 / 3, 1.0), "b": (-4 / 15, 1.0)}


def max_err(state, limits):
    worst = 0.0
    for name, (lo, hi) in limits.items():
        iv = state[name]
        worst = max(worst, abs(iv.lo - lo), abs(iv.hi - hi))
    return worst


class TestKleene:
    def test_three_state_filter_tolerance_stop(self):
        p = load_bundled("filter3")
        report, trace = analyze(p, EngineConfig(mode="kleene"))
        assert report.converged and report.sound
        assert report.reason == "converged-tolerance+sealed"
        assert 50 <= report.iterations <= 60
        assert max_err(report.invariant, FILTER3_LIMIT) < 1e-4

    def test_three_state_filter_exact_stop(self):
        p = load_bundled("filter3")
        report, trace = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
        assert report.reason == "converged"
        assert report.iterations == 129
        assert max_err(report.invariant, FILTER3_LIMIT) < 1e-9

    def test_sealed_result_contains_unsealed_iterate(self):
        p = load_bundled("contraction2")
        report, trace = analyze(p, EngineConfig(mode="kleene"))
        assert report.sound
        last = trace.records[-1].state
        assert state_leq(last, report.invariant)
        assert max_err(report.invariant, CONTRACTION2_LIMIT) < 1e-4

    def test_max_iter_reports_non_convergence(self):
        p = load_bundled("filter3")
        report, trace = analyze(p, EngineConfig(mode="kleene", max_iter=10))
        assert not report.converged
        assert report.reason == "max-iter"
        assert report.iterations == 10
        assert trace.reason == "max-iter"

    def test_trace_shape(self):
        p = load_bundled("contraction2")
        report, trace = analyze(p, EngineConfig(mode="kleene"))
        assert trace.variables == p.state_names
        assert trace.initial == p.initial_state()
        assert [r.index for r in trace.records] == list(
            range(1, report.iterations + 1)
        )
        assert trace.records[-1].event == "converged"
        assert all(r.event != "converged" for r in trace.records[:-1])
        assert trace.iterations == report.iterations


class TestVerifyPostfixpoint:
    def test_converged_invariant_verifies(self):
        p = load_bundled("filter3")
        report, _ = analyze(p, EngineConfig(mode="kleene"))
        assert verify_postfixpoint(p, report.invariant)

    def test_initial_state_does_not_verify(self):
        p = load_bundled("filter3")
        assert not verify_postfixpoint(p, p.initial_state())

    def test_top_always_verifies(self):
        p = load_bundled("filter3")
        top = AbstractState(
            [(n, Interval(-math.inf, math.inf)) for n in p.state_names]
        )
        assert verify_postfixpoint(p, top)


class TestWidening:
    def test_unstable_bounds_jump_to_infinity(self):
        p = load_bundled("lowpass1")
        report, _ = analyze(p, EngineConfig(mode="widen"))
        assert report.converged and report.sound
        assert report.iterations == 2
        assert report.invariant["x1"] == Interval(0, math.inf)

    def test_thresholds_bound_the_jump(self):
        p = load_bundled("lowpass1")
        cfg = EngineConfig(mode="widen", thresholds=ThresholdSet((21.0,)))
        report, _ = analyze(p, cfg)
        assert report.converged and report.sound
        assert report.invariant["x1"] == Interval(0, 21)
        assert report.invariant["xn1"].hi == 21
        assert math.isinf(report.invariant["xn1"].lo)

    def test_delay_runs_plain_joins_first(self):
        p = load_bundled("lowpass1")
        report, trace = analyze(
            p, EngineConfig(mode="widen", widen_delay=5)
        )
        assert report.iterations == 7
        assert all(r.event == "plain-step" for r in trace.records[:5])
        assert any(r.event == "widen-step" for r in trace.records[5:])

    def test_identity_loop_stabilizes_at_initial_state(self):
        p = parse("state z in [0, 1];\nloop { z = z; }")
        report, _ = analyze(p, EngineConfig(mode="widen"))
        assert report.iterations == 1
        assert report.invariant == p.initial_state()

    def test_widened_result_always_verifies(self):
        for name in ("filter3", "lowpass1", "contraction2"):
            p = load_bundled(name)
            for cfg in (
                EngineConfig(mode="widen"),
                EngineConfig(mode="widen", widen_delay=3),
                EngineConfig(mode="widen", thresholds=ThresholdSet((25.0,))),
            ):
                report, _ = analyze(p, cfg)
                assert report.converged
                assert report.sound
                assert verify_postfixpoint(p, report.invariant)


class TestAccelerated:
    @pytest.mark.parametrize("method", ["aitken", "epsilon", "vector-epsilon"])
    def test_bottom_variable_that_becomes_finite(self, method):
        # ``a`` starts as Bottom and is finite from the first iterate on;
        # its Bottom row has no finite history, so the estimator starts
        # over from the first row in which it is finite
        p = Program(
            state_vars=(("a", BOTTOM), ("b", Interval(0.0, 1.0))),
            input_vars=(("w", Interval(-1.0, 1.0)),),
            body=(
                Assignment("a", 0.0, ((0.5, "b"), (0.1, "w"))),
                Assignment("b", 0.0, ((0.5, "a"), (0.25, "b"), (0.1, "w"))),
            ),
        )
        exact, _ = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
        report, _ = analyze(p, EngineConfig(method=method))
        assert report.converged and report.sound
        assert report.injections >= 1
        for (_, iv), (_, ref) in zip(report.invariant, exact.invariant):
            assert iv.lo == pytest.approx(ref.lo, abs=1e-6)
            assert iv.hi == pytest.approx(ref.hi, abs=1e-6)

    def test_three_state_filter_short_circuits(self):
        p = load_bundled("filter3")
        report, trace = analyze(p, EngineConfig())
        assert report.converged and report.sound
        assert report.iterations <= 25
        assert report.injections == 1
        assert max_err(report.invariant, FILTER3_LIMIT) < 1e-6
        events = [r.event for r in trace.records]
        assert "injection" in events

    def test_no_injection_before_two_estimates_exist(self):
        # the first comparable pair of estimates needs five iterates for
        # the vector method, so nothing can be injected before step 4
        p = load_bundled("filter3")
        _, trace = analyze(p, EngineConfig())
        first = next(r.index for r in trace.records if r.event == "injection")
        assert first >= 4

    def test_injection_grows_the_state(self):
        p = load_bundled("filter3")
        _, trace = analyze(p, EngineConfig())
        states = {0: trace.initial}
        for r in trace.records:
            states[r.index] = r.state
        for r in trace.records:
            if r.event == "injection":
                before = states[r.index - 1]
                pre = state_join(before, transfer(load_bundled("filter3"), before))
                assert state_leq(pre, r.state)
                assert pre != r.state

    def test_once_policy_stops_after_first_injection(self):
        p = load_bundled("filter3")
        report, trace = analyze(p, EngineConfig(inject_policy="once"))
        assert report.injections == 1

    def test_repeat_policy_still_converges(self):
        p = load_bundled("filter3")
        report, _ = analyze(p, EngineConfig(inject_policy="repeat"))
        assert report.converged and report.sound
        assert report.injections >= 1
        assert max_err(report.invariant, FILTER3_LIMIT) < 1e-6

    def test_first_order_filter_componentwise_aitken(self):
        p = load_bundled("lowpass1")
        report, _ = analyze(p, EngineConfig(method="aitken"))
        assert report.converged and report.sound
        assert report.iterations <= 8
        assert report.injections == 1
        assert abs(report.invariant["x1"].hi - LOWPASS1_UPPER) < 1e-6

    def test_degenerate_transient_never_injects_noise(self):
        # the delayed state xn1 kills its own history in one step, which
        # collapses the vector table early; the newest cell of its
        # deepest column leaves row 0 behind, so the one injection is
        # the verified limit, not noise
        p = load_bundled("lowpass1")
        report, trace = analyze(p, EngineConfig())
        assert report.injections == 1
        assert report.sound and report.reason == "verified-injection"
        assert report.iterations <= 10
        assert [r.event for r in trace.records].count("injection") == 1
        assert report.invariant["x1"].hi == pytest.approx(LOWPASS1_UPPER, rel=1e-8)
        assert report.invariant["x1"].hi >= LOWPASS1_UPPER

    def test_fallback_widening_guarantees_termination(self):
        # a divergent bound: estimates never agree, so the fallback
        # fires after 2 * fallback_after iterations
        p = parse("state x in [0, 1];\nloop { x = x + 1; }")
        cfg = EngineConfig(fallback_after=10)
        report, trace = analyze(p, cfg)
        assert report.converged and report.sound
        events = [r.event for r in trace.records]
        assert events.index("fallback-widen") == 20
        assert report.iterations < 30
        assert report.invariant["x"] == Interval(0.0, math.inf)
        # fallback costs precision, never soundness
        assert verify_postfixpoint(p, report.invariant)

    def test_estimates_recorded_only_with_new_evidence(self):
        p = load_bundled("filter3")
        _, trace = analyze(p, EngineConfig())
        with_estimate = [r.index for r in trace.records if r.accel is not None]
        # every row adds a newest cell to each column, and the stream
        # has an estimate from its third row, the iterate of step 2
        assert with_estimate == list(range(2, trace.iterations + 1))

    def test_agreement_between_plain_and_accelerated_bounds(self):
        # whenever acceleration converges without falling back, its
        # invariant must match plain iteration to within the stop scale
        for name in ("filter3", "lowpass1", "contraction2"):
            p = load_bundled(name)
            base, _ = analyze(p, EngineConfig(mode="kleene"))
            for method in ("aitken", "epsilon", "vector-epsilon"):
                report, trace = analyze(p, EngineConfig(method=method))
                assert report.sound
                if any(r.event == "fallback-widen" for r in trace.records):
                    continue
                for v in p.state_names:
                    assert abs(report.invariant[v].lo - base.invariant[v].lo) < 1e-3
                    assert abs(report.invariant[v].hi - base.invariant[v].hi) < 1e-3


def _shrinking_program(with_y=True):
    """``x`` reads an unbounded input, so it is finite only in the
    initial row; ``y`` converges to [1, 6]."""
    states = [("x", Interval(0.0, 1.0))]
    inputs = [("u", TOP)]
    body = [Assignment("x", 0.0, ((0.5, "x"), (1.0, "u")))]
    if with_y:
        states.append(("y", Interval(1.0, 2.0)))
        inputs.append(("w", Interval(1.0, 6.0)))
        body.append(Assignment("y", 0.0, ((0.9, "y"), (0.1, "w"))))
    return Program(tuple(states), tuple(inputs), tuple(body))


# exact results of the shrinking program per method: the upper bound of
# ``y``, the iteration count and the iterations with a fresh estimate;
# the verified injection pads the estimate by 1e-9 of its magnitude
SHRINK_RESULTS = {
    "aitken": (6.000000006000006, 3, [2, 3]),
    "epsilon": (6.000000006000006, 3, [2, 3]),
    "vector-epsilon": (6.0000000060000005, 3, [2, 3]),
}


class TestAcceleratorBranches:
    """Exact results of the estimator's rarer paths: the finite
    coordinates shrinking, all of them vanishing, and a fallback that
    fires before any estimate exists."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_shrinking_coordinates_keep_their_history(self, method, policy):
        # ``x`` leaves the finite set after the first step; the stream
        # keeps the history of ``y``, so Aitken estimates already at
        # iteration 2 from the rows 0..2
        report, trace = analyze(
            _shrinking_program(), EngineConfig(method=method, inject_policy=policy)
        )
        y_hi, iterations, with_estimate = SHRINK_RESULTS[method]
        assert report.invariant["x"] == TOP
        assert report.invariant["y"] == Interval(1.0 - 1e-9, y_hi)
        assert report.iterations == iterations
        assert report.injections == 1
        assert report.reason == "verified-injection"
        assert [r.index for r in trace.records if r.accel is not None] == with_estimate
        assert all(r.accel[:2] == (None, None) for r in trace.records if r.accel)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_no_finite_coordinate_left(self, method, policy):
        report, trace = analyze(
            _shrinking_program(with_y=False),
            EngineConfig(method=method, inject_policy=policy),
        )
        assert report.invariant["x"] == TOP
        assert (report.iterations, report.injections) == (2, 0)
        assert report.reason == "converged"
        assert [r.event for r in trace.records] == ["plain-step", "converged"]
        assert all(r.accel is None for r in trace.records)

    def test_fallback_before_any_estimate(self):
        # ``b`` and then ``c`` turn finite in the first two steps, so the
        # stream starts over at each and has one row when the fallback
        # fires at step 2: it widens without thresholds
        p = Program(
            state_vars=(("a", Interval(0.0, 1.0)), ("b", BOTTOM), ("c", BOTTOM)),
            input_vars=(),
            body=(
                Assignment("c", 0.0, ((1.0, "b"),)),
                Assignment("b", 0.0, ((1.0, "a"),)),
                Assignment("a", 1.0, ((0.5, "a"),)),
            ),
        )
        report, trace = analyze(p, EngineConfig(method="epsilon", fallback_after=1))
        assert [r.event for r in trace.records] == [
            "plain-step", "plain-step", "fallback-widen", "converged"
        ]
        assert all(r.accel is None for r in trace.records)
        assert report.invariant["a"] == Interval(0.0, math.inf)
        assert report.converged and report.sound

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_injection_keeps_bottom_variable(self, method, policy):
        p = Program(
            state_vars=(("x", Interval(1.0, 2.0)), ("y", BOTTOM)),
            input_vars=(("u", Interval(1.0, 6.0)),),
            body=(
                Assignment("x", 0.0, ((0.5, "x"), (0.1, "u"))),
                Assignment("y", 0.0, ((1.0, "y"),)),
            ),
        )
        exact, _ = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
        assert exact.invariant["y"] == BOTTOM
        report, _ = analyze(p, EngineConfig(method=method, inject_policy=policy))
        assert report.converged and report.sound
        assert report.injections == 1
        assert report.invariant["y"] == BOTTOM
        assert report.invariant["x"].lo == pytest.approx(0.2, abs=1e-6)
        assert report.invariant["x"].hi == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_estimate_is_no_threshold(self, method, policy):
        # Aitken's squared difference overflows to an infinite estimate;
        # it must neither warn nor reach the fallback's threshold set
        p = parse("state x in [0, 1];\nloop {\n  x = 0.5*x + 1e200;\n}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = analyze(p, EngineConfig(method=method, inject_policy=policy))
        assert report.converged and report.sound
        iv = report.invariant["x"]
        assert iv.lo <= 0.0 and iv.hi >= 2e200


def exact_kleene(p):
    """The reference: Kleene iteration to a bit-exact fixpoint."""
    report, _ = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
    assert report.reason == "converged"
    return report.invariant


def assert_contains_and_near(invariant, ref, tol):
    """Every bound of ``invariant`` contains the reference bound and
    lies within tol * max(1, |reference|) of it."""
    for (name, iv), (_, r) in zip(invariant, ref):
        assert iv.lo <= r.lo and iv.hi >= r.hi, name
        for b, rb in ((iv.lo, r.lo), (iv.hi, r.hi)):
            assert abs(b - rb) <= tol * max(1.0, abs(rb)), (name, b, rb)


class TestPrecision:
    """Accelerated results against an exact-stop Kleene run: a verified
    result contains the least fixpoint, and its bounds lie within 1e-6."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ["filter3", "lowpass1", "contraction2"])
    def test_bundled_programs_match_exact_kleene(self, name, method, policy):
        p = load_bundled(name)
        report, _ = analyze(p, EngineConfig(method=method, inject_policy=policy))
        assert report.converged and report.sound
        assert report.reason == "verified-injection"
        assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("c", [1e12, 1e14, 1e20])
    def test_large_steps_do_not_stall(self, c, method):
        # the stall test is relative to the element, so a sequence of
        # any scale forms its epsilon columns
        p = parse(f"state x in [0, 1];\nloop {{\n  x = 0.5*x + {c!r};\n}}\n")
        report, _ = analyze(p, EngineConfig(method=method))
        assert report.converged and report.sound
        x = report.invariant["x"]
        assert x.lo == 0.0
        assert 2 * c <= x.hi == pytest.approx(2 * c, rel=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("c", [1e-20, 1e-12])
    def test_small_steps_do_not_stall(self, c, method):
        # no absolute floor under the stall test: every method, Aitken's
        # column 2 included, forms its columns at any scale and verifies
        # its first estimate, after the same 3 iterations
        p = parse(f"state x in [0, {c!r}];\nloop {{\n  x = 0.5*x + {c!r};\n}}\n")
        report, _ = analyze(p, EngineConfig(method=method))
        assert (report.reason, report.iterations) == ("verified-injection", 3)
        x = report.invariant["x"]
        assert x.lo == 0.0
        assert 2 * c <= x.hi == pytest.approx(2 * c, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_scales_take_the_same_iterations_with_every_method(self, c):
        # the vector stall test compares norms of rows scaled by a power
        # of two, so no dot product underflows or overflows: every method
        # verifies its first estimate, after the same 3 iterations
        p = parse(f"state x in [0, {c!r}];\nloop {{\n  x = 0.5*x + {c!r};\n}}\n")
        for method in METHODS:
            report, _ = analyze(p, EngineConfig(method=method))
            assert (report.reason, report.iterations) == ("verified-injection", 3), method
            x = report.invariant["x"]
            assert x.lo == 0.0
            assert 2 * c <= x.hi == pytest.approx(2 * c, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    def test_divergent_bound_beside_a_contracting_one(self, method, policy):
        # the estimates of x never agree, so the fallback widens x to
        # +inf and the threshold from y's estimate keeps y bounded
        p = parse("state x in [0, 1];\nstate y in [0, 1];\n"
                  "loop {\n  x = x + 1;\n  y = 0.5*y + 1;\n}\n")
        report, trace = analyze(p, EngineConfig(method=method, inject_policy=policy))
        assert report.converged and report.sound
        assert "fallback-widen" in [r.event for r in trace.records]
        assert report.invariant["x"] == Interval(0.0, math.inf)
        y = report.invariant["y"]
        assert y.lo == 0.0
        assert 2.0 <= y.hi == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("method", ["aitken", "epsilon"])
    def test_repeat_verifies_after_unverified_joins(self, method):
        # Both methods join a rejected candidate in unverified first.  The
        # next Kleene steps then move less than stop_tol; a tolerance stop
        # there would seal a row whose |A| rows sum past 1, and the seal
        # runs away to infinite bounds.  The verified result is checked
        # against the state it grows from, so it contains every iterate.
        p = parse(gaussian_program(2, 4, 0.97))
        cfg = EngineConfig(method=method, inject_policy="repeat", fallback_after=200)
        report, trace = analyze(p, cfg)
        assert report.reason == "verified-injection"
        assert report.injections >= 2
        states = {0: trace.initial, **{r.index: r.state for r in trace.records}}
        for r in trace.records:
            if r.event == "injection":
                before = states[r.index - 1]
                assert state_leq(state_join(before, transfer(p, before)), r.state)
        assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)

    @pytest.mark.xfail(strict=True, reason="a bound that moves every other step "
                       "stalls the componentwise tables; the vector method "
                       "verifies this loop in 6 iterations")
    @pytest.mark.parametrize("method", ["aitken", "epsilon"])
    def test_componentwise_methods_on_alternating_bounds(self, method):
        # the negative coefficient makes x's lower bound follow its upper
        # bound and back, so each moves only every other step and the
        # fallback fires before the estimates agree
        p = parse("state x in [0, 1];\ninput u in [-1, 1];\nloop {\n  x = -0.955*x + 0.1*u;\n}\n")
        report, _ = analyze(p, EngineConfig(method=method))
        assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


@st.composite
def gaussian_jacobi_programs(draw):
    """A Jacobi loop ``t = A x + 0.1 u; x = t`` over x in [0, 1] and
    u in [-1, 1], with N(0, 1) coefficients scaled so that the spectral
    radius of |A| is drawn from [0.5, 0.97]."""
    n = draw(st.integers(1, 6))
    rho = draw(st.floats(0.5, 0.97))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, n))
    a *= rho / np.max(np.abs(np.linalg.eigvals(np.abs(a))))
    body = [
        Assignment(f"t{i}", 0.0, (*((float(a[i, j]), f"x{j}") for j in range(n)), (0.1, f"u{i}")))
        for i in range(n)
    ]
    body += [Assignment(f"x{i}", 0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    return Program(
        tuple((f"x{i}", Interval(0.0, 1.0)) for i in range(n)),
        tuple((f"u{i}", Interval(-1.0, 1.0)) for i in range(n)),
        tuple(body),
    )


@settings(max_examples=40, deadline=None)
@given(p=gaussian_jacobi_programs())
def test_gaussian_jacobi_sweep_matches_exact_kleene(p):
    # The fallback budget is the benchmark's repeat budget, so that this
    # checks the estimates and their verification rather than the clock.
    # Every result contains the least fixpoint.  The epsilon methods'
    # bounds are finite and within 1e-6 of it; Aitken's agreement gate
    # does not bound its error on these multi-mode sequences, so its
    # bounds are only checked to contain the least fixpoint.
    ref = exact_kleene(p)
    for method in METHODS:
        for policy in POLICIES:
            cfg = EngineConfig(method=method, inject_policy=policy, fallback_after=200)
            report, _ = analyze(p, cfg)
            assert report.converged and report.sound
            tol = math.inf if method == "aitken" else 1e-6
            assert_contains_and_near(report.invariant, ref, tol)


# Programs whose runs put each event inside a block of rows computed
# ahead: an exact fixpoint, a bound overflowing to inf (the finite
# coordinates change), unverified joins that restart the stream, a
# fallback, a Bottom variable turning finite and one turning infinite.
LOOKAHEAD_PROGRAMS = {
    "filter3": load_bundled("filter3"),
    "zero": parse("state x in [0, 0];\nstate y in [0, 1];\nloop {\n  x = 0.5*x;\n  y = 0.5*y + 1;\n}\n"),
    "chain": parse("state x in [0, 0];\nstate y in [0, 0];\nstate z in [0, 0];\n"
                   "loop {\n  z = y;\n  y = x;\n  x = 1;\n}\n"),
    "overflow": parse("state x in [1, 2];\nstate y in [0, 1];\nloop {\n  x = 1e200*x;\n  y = 0.5*y + 1;\n}\n"),
    "overflow-late": parse("state x in [1, 2];\nstate y in [0, 1];\n"
                           "loop {\n  x = 1e100*x;\n  y = 0.5*y + 1;\n}\n"),
    "divergent": parse("state x in [0, 1];\nstate y in [0, 1];\nloop {\n  x = x + 1;\n  y = 0.5*y + 1;\n}\n"),
    "alternating": parse("state x in [0, 1];\ninput u in [-1, 1];\nloop {\n  x = -0.955*x + 0.1*u;\n}\n"),
    "restarts": parse(gaussian_program(2, 4, 0.97)),
    "shrinking": _shrinking_program(),
    "bottom": Program(
        state_vars=(("a", BOTTOM), ("b", Interval(0.0, 1.0))),
        input_vars=(("w", Interval(-1.0, 1.0)),),
        body=(
            Assignment("a", 0.0, ((0.5, "b"), (0.1, "w"))),
            Assignment("b", 0.0, ((0.5, "a"), (0.25, "b"), (0.1, "w"))),
        ),
    ),
}
LOOKAHEAD_CONFIGS = [
    *({"max_iter": n} for n in (1, 2, 3, 5, 9, 17)),
    *({"fallback_after": n} for n in (1, 2, 5)),
    {"fallback_after": 200},
]


def _run_record(p, cfg):
    """Everything a run reports, with floats written by ``repr``."""
    report, trace = analyze(p, cfg)
    rows = [(r.index, r.row, r.accel, r.event) for r in trace.records]
    bounds = [(iv.lo, iv.hi) for iv in report.invariant.intervals]
    fields = (report.iterations, report.injections, report.sound, report.converged, report.reason)
    return repr((rows, trace.reason, bounds, fields))


class TestLookahead:
    """The rows an accel run computes ahead change none of its results,
    and none is computed past max_iter or the fallback."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", LOOKAHEAD_PROGRAMS)
    def test_same_run_as_one_row_at_a_time(self, monkeypatch, name, method, policy):
        p = LOOKAHEAD_PROGRAMS[name]
        cfgs = [EngineConfig(method=method, inject_policy=policy, **c) for c in LOOKAHEAD_CONFIGS]
        assert engine.LOOKAHEAD > 1
        blocks = [_run_record(p, cfg) for cfg in cfgs]
        monkeypatch.setattr(engine, "LOOKAHEAD", 1)
        assert [_run_record(p, cfg) for cfg in cfgs] == blocks

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ["filter3", "divergent", "alternating", "restarts"])
    def test_no_row_past_max_iter_or_the_fallback(self, monkeypatch, name, method):
        # every candidate is rejected, so each of these runs ends at
        # max_iter or falls back, on the clock or on the rejections
        p = LOOKAHEAD_PROGRAMS[name]
        monkeypatch.setattr(engine, "_verify", lambda p, base, c: None)
        calls, image = [], engine.transfer
        monkeypatch.setattr(engine, "transfer", lambda p, x: calls.append(1) or image(p, x))
        cfgs = [EngineConfig(method=method, **c) for c in LOOKAHEAD_CONFIGS]

        def transfers():
            counts = []
            for cfg in cfgs:
                calls.clear()
                report, _ = analyze(p, cfg)
                assert report.injections == 0
                counts.append(len(calls))
            return counts

        blocks = transfers()
        monkeypatch.setattr(engine, "LOOKAHEAD", 1)
        assert transfers() == blocks


def list_kleene(p, cfg):
    """The kleene and widen runs of ``analyze`` as a loop over lists of
    floats, through ``LoweredBody.image`` and the engine's list row
    operations: (rows, reason, invariant row)."""
    x, rows = bound_row(p.initial_state()).tolist(), []
    for i in range(1, cfg.max_iter + 1):
        prev, x = x, engine.state_join(x, p.lowered.image(x))
        if cfg.mode == "widen" and i > cfg.widen_delay:
            if cfg.thresholds is None:
                x = engine.state_widen_std(prev, x)
            else:
                x = engine.state_widen_thresholds(prev, x, cfg.thresholds)
        rows.append(tuple(x))
        if x == prev:
            return rows, "converged", x
        if all(u == v or abs(u - v) <= cfg.stop_tol for u, v in zip(prev, x)):
            return rows, "converged-tolerance", engine._seal(p, x)
    return rows, "max-iter", x


def scheduled_programs():
    """``row_program`` bodies with a level schedule: dense and sparse,
    Jacobi and Gauss-Seidel; and two built through the API with a Bottom
    state, whose rows with Bottom take the per-step loop: the first
    state, which the first join makes finite, or a new state ``z`` that
    reads only itself and stays Bottom."""
    from test_lowering import row_program

    texts = {
        "dense-jacobi": row_program(11, 32, None),
        "dense-gauss-seidel": row_program(12, 64, None, gauss_seidel=True),
        "sparse-jacobi": row_program(13, 96, 4),
        "sparse-gauss-seidel": row_program(14, 256, 8, gauss_seidel=True),
    }
    out = {name: parse(text) for name, text in texts.items()}
    p = out["sparse-jacobi"]
    out["bottom-state"] = Program(((p.state_vars[0][0], BOTTOM), *p.state_vars[1:]), p.input_vars, p.body)
    out["bottom-forever"] = Program(
        (*p.state_vars, ("z", BOTTOM)), p.input_vars, (*p.body, Assignment("z", 0.0, ((0.5, "z"),)))
    )
    return out


SCHEDULED = scheduled_programs()
ROW_CONFIGS = [
    EngineConfig(mode="kleene"),
    EngineConfig(mode="kleene", stop_tol=0.0, max_iter=400),
    EngineConfig(mode="widen", widen_delay=8),
    EngineConfig(mode="widen", widen_delay=3, thresholds=ThresholdSet((-2.0, -0.5, 0.5, 2.0, 8.0))),
]


@pytest.mark.parametrize("cfg", ROW_CONFIGS)
@pytest.mark.parametrize("name", SCHEDULED)
def test_array_rows_equal_a_loop_over_lists(name, cfg):
    # kleene and widen runs on a scheduled body carry float64 arrays
    p = SCHEDULED[name]
    assert p.lowered.schedule is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, trace = analyze(p, cfg)
    rows, reason, invariant = list_kleene(p, cfg)
    assert [r.index for r in trace.records] == list(range(1, len(rows) + 1))
    for r, row in zip(trace.records, rows):
        assert type(r.bounds) is np.ndarray and not r.bounds.flags.writeable
        assert all(type(v) is float for v in r.row)
        assert [v.hex() for v in r.row] == [v.hex() for v in row]
    assert trace.reason == reason
    bounds = [b for iv in report.invariant.intervals for b in (iv.lo, iv.hi)]
    assert all(type(v) is float for v in bounds)
    assert [v.hex() for v in bounds] == [v.hex() for v in invariant]
    if name == "bottom-state":
        assert trace.initial.intervals[0].is_bottom
    if name == "bottom-forever":
        assert all(r.state["z"].is_bottom for r in trace.records)


def test_array_rows_raise_on_nan_without_warning():
    p = batched_program(((1e308, "u"), (-1e308, "u")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("kleene", "widen"):
            with pytest.raises(ValueError, match="NaN"):
                analyze(p, EngineConfig(mode=mode))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="sideways")
        with pytest.raises(ValueError):
            EngineConfig(method="richardson")
        with pytest.raises(ValueError):
            EngineConfig(delta=0.0)
        with pytest.raises(ValueError):
            EngineConfig(max_iter=0)
        with pytest.raises(ValueError):
            EngineConfig(widen_delay=-1)
        with pytest.raises(ValueError):
            EngineConfig(fallback_after=0)
        with pytest.raises(ValueError):
            EngineConfig(stop_tol=-1e-9)
        with pytest.raises(ValueError):
            EngineConfig(stop_tol=math.nan)
        with pytest.raises(ValueError):
            EngineConfig(inject_policy="thrice")

    def test_analyze_dispatches_on_mode(self):
        p = load_bundled("contraction2")
        for mode in ("kleene", "widen", "accel"):
            report, _ = analyze(p, EngineConfig(mode=mode))
            assert report.converged and report.sound


# The public entry points each hold their own NumPy error state, so that
# they stay silent when called on their own (``analyze`` holds one for
# the whole run).  Tier-1 turns a warning into an error.

def batched_program(t0_terms):
    """A Jacobi body wide enough to run as a one-level schedule, with
    ``t0`` (and so ``x0``) computed from ``t0_terms`` over an input ``u``
    in [2, 3]."""
    n = programs.BATCH_MIN_PRODUCTS // 8
    body = [Assignment(f"t{i}", 0.0, ((0.5, f"x{i}"),) * 8) for i in range(n)]
    body[0] = Assignment("t0", 0.0, t0_terms)
    body += [Assignment(f"x{i}", 0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    states = tuple((f"x{i}", Interval(0, 1)) for i in range(n))
    p = Program(states, (("u", Interval(2.0, 3.0)),), tuple(body))
    assert len(p.lowered.schedule[1]) == 1
    return p


def test_transfer_and_verify_stay_silent_on_overflow():
    p = batched_program(((1e308, "u"),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert transfer(p, p.initial_state())["x0"] == Interval(math.inf, math.inf)
        assert verify_postfixpoint(p, p.initial_state()) is False


def test_transfer_and_verify_raise_on_nan_without_warning():
    # inf - inf inside the schedule: the NaN check raises, NumPy stays silent
    p = batched_program(((1e308, "u"), (-1e308, "u")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            transfer(p, p.initial_state())
        with pytest.raises(ValueError, match="NaN"):
            verify_postfixpoint(p, p.initial_state())


@pytest.mark.parametrize("method", METHODS)
def test_stream_methods_stay_silent_on_overflow_and_division_by_zero(method):
    # column 0 never moves (1/0 for the epsilon methods); column 1
    # squares past the float range (Aitken's numerator, the vector
    # method's norms); column 2 moves by 5e-324, whose inverse overflows
    rows = [[1.0, 1e300, 0.0], [1.0, -1e300, 5e-324]] * 3
    stream = EstimateStream(method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in rows:
            stream.push(row)
            stream.push(row)
        stream.keep([0, 1])
        stream.push([1.0, 1e300])
    assert stream.estimate() is not None
