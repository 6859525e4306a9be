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
    bundled_source,
    load_bundled,
    parse,
    state_leq,
    state_join,
    transfer,
    verify_postfixpoint,
)
from fixaccel import engine, programs
from fixaccel.cli import main
from fixaccel.extraction import bound_row, state_from_row
from fixaccel.intervals import BOTTOM, TOP
from fixaccel.programs import Assignment, Program
from test_golden import _hex_run, gaussian_program, random_program

METHODS = ["aitken", "epsilon", "vector-epsilon"]
# the two accepted values of inject_policy: "repeat", a retired policy,
# is an alias of "once", so each of its cases checks that it runs once
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
        assert report.reason == "converged-tolerance+finished"
        assert 50 <= report.iterations <= 60
        assert max_err(report.invariant, FILTER3_LIMIT) < 1e-7

    def test_three_state_filter_exact_stop(self):
        p = load_bundled("filter3")
        report, trace = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
        assert report.reason == "converged"
        assert report.iterations == 129
        assert max_err(report.invariant, FILTER3_LIMIT) < 1e-9

    def test_finished_result_contains_the_stopped_iterate(self):
        p = load_bundled("contraction2")
        report, trace = analyze(p, EngineConfig(mode="kleene"))
        assert report.sound
        last = trace.records[-1].state
        assert state_leq(last, report.invariant)
        assert max_err(report.invariant, CONTRACTION2_LIMIT) < 1e-8

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
        assert report.injections == 1
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

    def test_fallback_thresholds_come_from_the_newest_record(self, monkeypatch):
        # with delta = 0.5 the estimates agree early and every candidate
        # is rejected, so the fallback fires at the fourth rejection
        seen, thresholds_of = [], engine._fallback_thresholds

        def spy(estimate):
            seen.append((estimate, thresholds_of(estimate)))
            return seen[-1][1]

        monkeypatch.setattr(engine, "_fallback_thresholds", spy)
        _, trace = analyze(load_bundled("filter3"), EngineConfig(fallback_after=2, delta=0.5))
        [(estimate, thresholds)] = seen
        # the record whose estimate it took is the newest with one
        [record] = [r for r in trace.records if r.accel is estimate]
        assert all(r.accel is None for r in trace.records[record.index :])
        assert (record.index, record.event) == (7, "plain-step")
        relaxed = [v + (1 if j % 2 else -1) * max(1e-6, 1e-6 * abs(v)) for j, v in enumerate(record.accel)]
        assert len(thresholds) == 6
        assert thresholds == ThresholdSet(tuple(sorted(relaxed)))

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


def _tip_not_finite(monkeypatch):
    table = engine._epsilon_table

    def overflowed(*args):
        out = table(*args)
        out[2][-1, 0] = math.inf
        return out

    monkeypatch.setattr(engine, "_epsilon_table", overflowed)
    monkeypatch.setattr(engine, "_verify", lambda *args: pytest.fail("verified a tip that is not finite"))


@pytest.mark.parametrize("fail", [
    lambda monkeypatch: monkeypatch.setattr(engine, "_verify", lambda *args: None),
    _tip_not_finite,
], ids=["unverified", "not-finite"])
def test_a_failed_finish_reports_the_stopped_row(monkeypatch, capsys, tmp_path, fail):
    # no workload's tip fails: the branch is forced, by a tip that does
    # not verify and by one with an infinite entry
    fail(monkeypatch)
    p = load_bundled("filter3")
    report, trace = analyze(p, EngineConfig(mode="kleene"))
    assert (report.reason, trace.reason) == ("converged-tolerance", "converged-tolerance")
    assert report.converged and not report.sound
    assert bound_row(report.invariant) == list(trace.rows[-1])
    assert all(math.isfinite(b) for b in trace.rows[-1])
    prog = tmp_path / "filter3.loop"
    prog.write_text(bundled_source("filter3"))
    assert main(["analyze", str(prog), "--mode", "kleene"]) == 2
    out = capsys.readouterr()
    assert "sound: false  reason: converged-tolerance\n" in out.out and out.err == ""


def test_finish_covers_the_bounds_finite_in_every_row():
    # z stays Bottom, (inf, -inf) in every row, and w's input is [-inf, inf]:
    # the tip covers x alone, and the others keep their bounds
    p = Program((("x", Interval(0.0, 1.0)), ("z", BOTTOM), ("w", Interval(0.0, 0.0))),
                (("u", TOP),),
                (Assignment("x", 1.0, ((0.5, "x"),)), Assignment("z", 0.0, ((0.5, "z"),)),
                 Assignment("w", 0.0, ((1.0, "u"),))))
    report, trace = analyze(p, EngineConfig(mode="kleene"))
    assert report.reason == "converged-tolerance+finished" and report.sound
    assert report.invariant["z"].is_bottom and report.invariant["w"] == TOP
    assert report.invariant["x"].lo == 0.0
    assert 2.0 <= report.invariant["x"].hi <= 2.0 + 1e-8


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
    """A ``gaussian_jacobi_program`` with n from 1 to 6, the spectral
    radius of |A| from [0.5, 0.97] and any seed."""
    return gaussian_jacobi_program(draw(st.integers(1, 6)), draw(st.floats(0.5, 0.97)),
                                   draw(st.integers(0, 2**32 - 1)))


def gaussian_jacobi_program(n, rho, seed):
    """A Jacobi loop ``t = A x + 0.1 u; x = t`` over x in [0, 1] and
    u in [-1, 1], with N(0, 1) coefficients from ``default_rng(seed)``
    scaled so that the spectral radius of |A| is ``rho``."""
    rng = np.random.default_rng(seed)
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
    # The fallback budget is 200 iterations, so that this checks the
    # estimates and their verification rather than the clock.
    # Every result contains the least fixpoint.  The epsilon methods'
    # bounds are finite and within 1e-6 of it; Aitken's agreement gate
    # does not bound its error on these multi-mode sequences, so its
    # bounds are only checked to contain the least fixpoint.
    # Kleene's results, finished where they stop on the tolerance, are
    # finite and within 1e-6 of it as well.
    ref = exact_kleene(p)
    report, _ = analyze(p, EngineConfig(mode="kleene"))
    assert report.sound and report.reason in ("converged", "converged-tolerance+finished")
    assert_contains_and_near(report.invariant, ref, 1e-6)
    for method in METHODS:
        report, _ = analyze(p, EngineConfig(method=method, fallback_after=200))
        assert report.converged and report.sound
        tol = math.inf if method == "aitken" else 1e-6
        assert_contains_and_near(report.invariant, ref, tol)


@pytest.mark.xfail(strict=True, reason="the fallback widens every bound to +-inf; "
                   "ROADMAP item 1b, the solve that finishes the fallback")
def test_default_budget_keeps_the_bounds_of_a_sweep_program():
    # a draw of the sweep whose |A| has rows summing to 1.35: the default
    # budget falls back, ends after 61 iterations and reports [-inf, inf],
    # converged and sound, for all six variables; a budget of 200 verifies
    # it after 66 iterations, and kleene mode finishes it after 141
    p = gaussian_jacobi_program(6, 0.9531671492933111, 1388451957)
    report, _ = analyze(p, EngineConfig())
    assert report.converged and report.sound
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


@pytest.mark.xfail(strict=True, reason="the tip of a kleene stop does not verify, and "
                   "accel falls back and widens every bound to +-inf; ROADMAP item 1b, "
                   "the solve that repairs a lost or unverified result")
@pytest.mark.parametrize("mode", ["kleene", "accel"])
def test_sparse_jacobi_body_with_constants_keeps_its_bounds(mode):
    # a contracting sparse n = 256 Jacobi body with constant terms, 8
    # columns a row: kleene mode stops on the tolerance after 192
    # iterations and its finish does not verify (sound false); accel with
    # vector-epsilon falls back after 52 iterations and loses all 256
    # variables.  The exact stop takes 586 iterations
    p = parse(random_program(2029, 256, False, nnz=8))
    report, _ = analyze(p, EngineConfig(mode=mode))
    assert report.converged and report.sound
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


# A 4-state program of the sweep's form (t = A x + 0.1 u; x = t) on which
# epsilon verifies a row farther than 1e-6 from the least fixpoint.
IMPRECISE_EPSILON_ROWS = (
    (-0.02134307260158137, -0.18074665567034326, -0.03967460836942152, 0.22697248621942603),
    (0.23313980028375902, 0.29865002169853816, 0.029418562689150028, -0.03628837900733807),
    (0.06936919661884249, -0.101363769110882, -0.23862970939096723, 0.01911255030108892),
    (-0.15581227293698993, -0.12068848439535167, 0.01075001707161895, -0.08426444128423084),
)


@pytest.mark.xfail(strict=True, reason="two agreeing estimates do not bound the error of "
                   "the row they verify; ROADMAP item 1b, the error certificate")
def test_epsilon_verifies_a_sweep_program_within_tolerance():
    # epsilon ends verified-injection after 7 iterations with x1's lower
    # bound 2.27e-6 below the least fixpoint's; aitken ends 1.25e-9 from
    # it and vector-epsilon 1.0e-9
    n = len(IMPRECISE_EPSILON_ROWS)
    body = [Assignment(f"t{i}", 0.0, (*((c, f"x{j}") for j, c in enumerate(row)), (0.1, f"u{i}")))
            for i, row in enumerate(IMPRECISE_EPSILON_ROWS)]
    body += [Assignment(f"x{i}", 0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    p = Program(tuple((f"x{i}", Interval(0.0, 1.0)) for i in range(n)),
                tuple((f"u{i}", Interval(-1.0, 1.0)) for i in range(n)), tuple(body))
    report, _ = analyze(p, EngineConfig(method="epsilon", fallback_after=200))
    assert report.converged and report.sound
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


# A draw of the sweep above on which the retired `repeat` policy verified
# a row that an unverified join had left 1.13e-6 (epsilon) and 2.18e-6
# (Aitken) above the least fixpoint; `once` runs end near 1e-8 on it.
IMPRECISE_REPEAT_ROWS = (
    (0.013444200816985039, 0.6187498099202239, 0.03296055386867317, -0.19155944484008244, -0.2523051580175215),
    (0.06663305179751262, 0.17990556463919205, -0.10924387060128203, 0.2081427374751145, -0.05906230519303094),
    (-0.26178838836715274, -0.5667737360660684, 0.40005346985452617, -0.24348295609570197, 0.017524891735571983),
    (0.07180962621383123, 0.3032748845053795, 0.0174286792151395, 0.361561412656755, 0.07421568245242405),
    (-0.052093864715413246, 0.5568367489012237, 0.2779788307029982, -0.4593024099588281, -0.18744273168771788),
)


@pytest.mark.parametrize("method", ["aitken", "epsilon"])
def test_repeat_runs_once_on_an_imprecise_sweep_program(method):
    n = len(IMPRECISE_REPEAT_ROWS)
    body = [Assignment(f"t{i}", 0.0, (*((c, f"x{j}") for j, c in enumerate(row)), (0.1, f"u{i}")))
            for i, row in enumerate(IMPRECISE_REPEAT_ROWS)]
    body += [Assignment(f"x{i}", 0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    p = Program(tuple((f"x{i}", Interval(0.0, 1.0)) for i in range(n)),
                tuple((f"u{i}", Interval(-1.0, 1.0)) for i in range(n)), tuple(body))
    report, _ = analyze(p, EngineConfig(method=method, inject_policy="repeat", fallback_after=200))
    assert report.converged and report.sound
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


# Programs whose runs put each event inside a block of rows computed
# ahead: an exact fixpoint, a bound overflowing to inf (the finite
# coordinates change), candidates rejected before one verifies, a
# fallback, a Bottom variable turning finite and one turning infinite;
# a body with a level schedule, whose fallback iterates on arrays; and
# two programs like the benchmark's accel tail, whose runs agree inside
# the first block, after its first LOOKAHEAD rows, and past it.
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
    "scheduled": parse(gaussian_program(3, 16, 0.97)),
    "tail-first-block": parse(gaussian_program(2, 16, 0.97)),
    "tail-past-first-block": parse(gaussian_program(4, 16, 0.97)),
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


def _row_by_row(monkeypatch):
    """Make every block of an accel run, the first too, one row long."""
    monkeypatch.setattr(engine, "FIRST_BLOCK", 1)
    monkeypatch.setattr(engine, "LOOKAHEAD", 1)


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
        assert engine.FIRST_BLOCK > engine.LOOKAHEAD > 1
        blocks = [_run_record(p, cfg) for cfg in cfgs]
        _row_by_row(monkeypatch)
        assert [_run_record(p, cfg) for cfg in cfgs] == blocks

    @pytest.mark.parametrize("method", METHODS)
    def test_tail_programs_verify_in_the_first_block_and_past_it(self, method):
        first = [analyze(LOOKAHEAD_PROGRAMS[name], EngineConfig(method=method))[0]
                 for name in ("tail-first-block", "tail-past-first-block")]
        assert [(r.reason, r.sound) for r in first] == [("verified-injection", True)] * 2
        assert all(math.isfinite(b) for r in first for b in bound_row(r.invariant))
        assert engine.LOOKAHEAD < first[0].iterations <= engine.FIRST_BLOCK < first[1].iterations

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ["filter3", "divergent", "alternating", "restarts", "scheduled"])
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
        _row_by_row(monkeypatch)
        assert transfers() == blocks


@pytest.mark.parametrize("length", range(1, 3 * engine.LOOKAHEAD + 2))
def test_exact_fixpoint_at_every_offset_from_a_block_boundary(monkeypatch, length):
    # x_k = x_{k-1} down to x_1 = 1, all from [0, 0]: x_k turns [0, 1] at
    # iteration k, so the run is an exact fixpoint at iteration length + 1,
    # which falls at every place in the first block and in the block after
    # it as the length grows
    lines = [f"state x{k} in [0, 0];" for k in range(1, length + 1)]
    lines += ["loop {", *(f"  x{k} = x{k - 1};" for k in range(length, 1, -1)), "  x1 = 1;", "}"]
    p = parse("\n".join(lines) + "\n")
    cfgs = [EngineConfig(max_iter=length), EngineConfig(max_iter=length + 1), EngineConfig()]
    for cfg in cfgs:
        report, trace = analyze(p, cfg)
        reason = "max-iter" if cfg.max_iter == length else "converged"
        assert (report.reason, report.iterations) == (reason, min(length + 1, cfg.max_iter))
        assert [r.index for r in trace.records] == list(range(1, report.iterations + 1))
        assert trace.records[-1].event == ("converged" if reason == "converged" else "plain-step")
    blocks = [_run_record(p, cfg) for cfg in cfgs]
    _row_by_row(monkeypatch)
    assert [_run_record(p, cfg) for cfg in cfgs] == blocks


# runs whose traces hold each kind of row and event: the program, the
# config, the type of the rows and an event the run must record
COLUMN_RUNS = {
    "list-kleene": ("lowpass1", EngineConfig(mode="kleene"), tuple, "converged"),
    "array-kleene": (gaussian_program(3, 16, 0.97), EngineConfig(mode="kleene"), np.ndarray, "converged"),
    "injection": ("filter3", EngineConfig(), tuple, "injection"),
    "fallback": ("filter3", EngineConfig(fallback_after=2, delta=0.5), tuple, "fallback-widen"),
}


@pytest.mark.parametrize("name", COLUMN_RUNS)
def test_records_are_built_from_the_columns(name):
    program, cfg, row_type, event = COLUMN_RUNS[name]
    report, trace = analyze(parse(program) if "\n" in program else load_bundled(program), cfg)
    assert event in trace.events
    n = report.iterations
    assert len(trace.rows) == len(trace.estimates) == len(trace.events) == trace.iterations == n
    records = trace.records
    assert [r.index for r in records] == list(range(1, n + 1))
    for r, row, est, ev in zip(records, trace.rows, trace.estimates, trace.events):
        assert type(row) is row_type and r.bounds is row
        assert r.row == tuple(row if row_type is tuple else row.tolist())
        assert (r.accel, r.event) == (est, ev)
        assert r.state == state_from_row(trace.variables, r.row)
    assert report.injections == trace.events.count("injection")
    # records is built on each access, and no append reaches the trace
    with pytest.raises(AttributeError):
        trace.records.append(records[0])
    assert trace.records is not records and len(trace.records) == n


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("program", ["filter3", "lowpass1", "contraction2", "gaussian-16"])
def test_an_injection_leaves_no_speculative_row(monkeypatch, program, method):
    # the loop computes its rows a block ahead of the iteration it verifies;
    # none of them stays in the trace past the injection, which ends where
    # a run of one-row blocks ends.  The bundled programs verify inside the
    # first block, on lists; the n = 16 body, scheduled, in the second, on
    # arrays
    p = parse(gaussian_program(4, 16, 0.97)) if program == "gaussian-16" else load_bundled(program)
    report, trace = analyze(p, EngineConfig(method=method))
    assert report.reason == "verified-injection"
    assert len(trace.rows) == len(trace.estimates) == len(trace.events) == report.iterations
    assert trace.events[-1] == "injection" and trace.events.count("injection") == 1
    if program == "gaussian-16":
        assert report.iterations > engine.FIRST_BLOCK and type(trace.rows[-1]) is np.ndarray
    _row_by_row(monkeypatch)
    assert analyze(p, EngineConfig(method=method))[0].iterations == report.iterations


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("method", METHODS)
def test_accel_fallback_on_arrays_equals_the_per_step_loop(monkeypatch, method, policy):
    # the fallback on a scheduled body iterates on arrays; the same body
    # lowered below the schedule's threshold takes the per-step loop on lists
    text = gaussian_program(3, 16, 0.97)
    p, q = parse(text), parse(text)
    assert p.lowered.schedule is not None
    with monkeypatch.context() as m:
        m.setattr(programs, "BATCH_MIN_PRODUCTS", 10**9)
        assert q.lowered.schedule is None and q.lowered.steps is not None
    for c in ({"fallback_after": 1}, {"fallback_after": 5}, {"fallback_after": 1, "max_iter": 6}):
        cfg = EngineConfig(method=method, inject_policy=policy, **c)
        (rp, tp), (rq, tq) = analyze(p, cfg), analyze(q, cfg)
        assert "fallback-widen" in [r.event for r in tp.records]
        assert [r.index for r in tp.records] == list(range(1, min(len(tp.records), cfg.max_iter) + 1))
        assert type(tp.records[-1].bounds) is np.ndarray and type(tq.records[-1].bounds) is tuple
        assert _hex_run(rp, tp) == _hex_run(rq, tq)


@pytest.mark.parametrize("mode", ["kleene", "widen", "accel"])
@pytest.mark.parametrize(
    "text", [gaussian_program(3, 16, 0.97), gaussian_program(2, 4, 0.97)], ids=["scheduled", "per-step"]
)
def test_analyze_lowers_the_body_before_the_first_transfer(monkeypatch, mode, text):
    # so that the traced transfer time holds no lowering
    p, image = parse(text), engine.transfer

    def transfer(prog, x):
        assert "lowered" in prog.__dict__
        return image(prog, x)

    monkeypatch.setattr(engine, "transfer", transfer)
    report, _ = analyze(p, EngineConfig(mode=mode))
    assert report.sound


def list_kleene(p, cfg):
    """The kleene and widen runs of ``analyze`` as a loop over lists of
    floats, through the engine's list row operations: (rows, reason,
    invariant row, the iterations taken again).  Each image is
    ``LoweredBody.image``'s, or, where the body keeps a composed map,
    ``linear_image``'s, and then an iteration that stops is taken again
    from ``image``'s and stops only if that row stops too, as in the
    engine's loop."""
    lowered = p.lowered

    def step(i, prev, fx):
        x = engine.state_join(prev, fx)
        if cfg.mode == "widen" and i > cfg.widen_delay:
            if cfg.thresholds is None:
                return engine.state_widen_std(prev, x)
            return engine.state_widen_thresholds(prev, x, cfg.thresholds)
        return x

    def stop(prev, x):
        if x == prev:
            return "converged"
        if all(u == v or abs(u - v) <= cfg.stop_tol for u, v in zip(prev, x)):
            return "converged-tolerance"
        return None

    x0 = x = bound_row(p.initial_state())
    rows, again = [], []
    for i in range(1, cfg.max_iter + 1):
        prev = x
        if lowered.composed is None:
            x = step(i, prev, lowered.image(prev))
        else:
            with np.errstate(all="ignore"):  # 0 * inf, on a row with an infinite bound
                x = step(i, prev, lowered.linear_image(np.array(prev)).tolist())
        reason = stop(prev, x)
        if reason is not None and lowered.composed is not None:
            again.append(i)
            x = step(i, prev, lowered.image(prev))
            reason = stop(prev, x)
        rows.append(tuple(x))
        if reason == "converged":
            return rows, reason, x, again
        if reason is not None:
            return rows, reason, engine._finish(p, x0, rows) or x, again
    return rows, "max-iter", x, again


def scheduled_programs():
    """``row_program`` bodies with a level schedule: dense and sparse,
    Jacobi and Gauss-Seidel; and two built through the API with a Bottom
    state, whose rows with Bottom take ``affine_eval``: the first
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
    # widening from the first iteration: the loop's first block is empty
    EngineConfig(mode="widen", widen_delay=0),
]
# the loop's first block cut at max_iter, by a delay at or past it: these
# runs end at max_iter, where the composed-map test has no stop to compare
CUT_AT_MAX_ITER = [
    EngineConfig(mode="widen", widen_delay=12, max_iter=12),
    EngineConfig(mode="widen", widen_delay=30, max_iter=12),
]


@pytest.mark.parametrize("cfg", ROW_CONFIGS + CUT_AT_MAX_ITER)
@pytest.mark.parametrize("name", SCHEDULED)
def test_array_rows_equal_a_loop_over_lists(monkeypatch, name, cfg):
    # kleene and widen runs on a scheduled body carry float64 arrays, unless
    # the initial row holds Bottom: then every row is a list, and its record
    # a tuple.  No array row holding Bottom reaches transfer: a row holding
    # Bottom goes as a list, the first row of bottom-state, every row of
    # bottom-forever, no row of the others
    p = SCHEDULED[name]
    from_bottom = name.startswith("bottom")
    assert p.lowered.schedule is not None
    rows, reason, invariant, again = list_kleene(p, cfg)
    image, calls = engine.transfer, []

    def transfer(prog, x):
        calls.append((type(x) is list, any(lo > hi for lo, hi in zip(x[::2], x[1::2]))))
        return image(prog, x)

    monkeypatch.setattr(engine, "transfer", transfer)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, trace = analyze(p, cfg)
    # the loop's images come first, one an iteration, and after each
    # iteration taken again from image (dense-gauss-seidel's composed map)
    # one more of a list row; then the finish's and the check's, of list rows
    with_bottom = {"bottom-state": 1, "bottom-forever": trace.iterations}.get(name, 0)
    loop = [(True, True)] * with_bottom + [(from_bottom, False)] * (trace.iterations - with_bottom)
    for i in reversed(again):
        loop.insert(i, (True, False))
    assert calls[: len(loop)] == loop
    assert all(is_list for is_list, _ in calls[len(loop) :])
    assert [r.index for r in trace.records] == list(range(1, len(rows) + 1))
    for r, row in zip(trace.records, rows):
        if from_bottom:
            assert type(r.bounds) is tuple
        else:
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


@pytest.mark.parametrize("name", ["dense-jacobi", "dense-gauss-seidel", "sparse-jacobi", "sparse-gauss-seidel"])
def test_kleene_finish_on_a_scheduled_body_holds_the_exact_stop(name):
    # the four body forms of the kleene-wide benchmark
    p = SCHEDULED[name]
    report, _ = analyze(p, EngineConfig(mode="kleene"))
    assert report.sound and report.reason == "converged-tolerance+finished"
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


@pytest.mark.parametrize("cfg", ROW_CONFIGS)
def test_composed_rows_end_like_image_rows(monkeypatch, cfg):
    # the dense Gauss-Seidel body keeps its composed map, whose rows are a
    # few ulps off image's; the same body lowered without it runs image
    # alone.  Only an exact stop may take a few more iterations: the
    # composed rows need not stop where image's do, and the loop goes on
    # from image's row until both stop
    p = SCHEDULED["dense-gauss-seidel"]
    assert p.lowered.composed is not None
    monkeypatch.setattr(programs, "COMPOSE_LEVEL_PRODUCTS", 0)
    q = Program(p.state_vars, p.input_vars, p.body)
    assert q.lowered.schedule is not None and q.lowered.composed is None
    (rp, tp), (rq, tq) = analyze(p, cfg), analyze(q, cfg)
    assert rp.reason == rq.reason
    if cfg.stop_tol > 0:
        assert rp.iterations == rq.iterations
    else:
        assert rp.reason == "converged" and rq.iterations <= rp.iterations <= rq.iterations + 10
        last = tp.rows[-1]
        assert engine.state_join(last, p.lowered.image(last)).tolist() == last.tolist()
    assert rp.sound and rq.sound
    assert verify_postfixpoint(p, rp.invariant) and verify_postfixpoint(q, rq.invariant)
    for a, b in zip(rp.invariant.intervals, rq.invariant.intervals):
        for u, v in ((a.lo, b.lo), (a.hi, b.hi)):
            assert u == v or abs(u - v) <= 8 * np.finfo(float).eps * max(1.0, abs(v))


@pytest.mark.parametrize(
    "cfg", [EngineConfig(mode="kleene", stop_tol=0.0), EngineConfig()], ids=["kleene", "accel"]
)
def test_rows_from_bottom_on_a_composed_body_are_image_rows(monkeypatch, cfg):
    # a run whose initial row holds Bottom carries lists, whose images come
    # from image, never from the composed map: its rows equal those of the
    # body lowered without the map.  The Bottom state w reads only x0, so
    # the first join makes it finite
    p = SCHEDULED["dense-gauss-seidel"]
    body = (*p.body, Assignment("w", 0.0, ((0.5, p.state_vars[0][0]),)))
    q = Program((*p.state_vars, ("w", BOTTOM)), p.input_vars, body)
    assert q.lowered.composed is not None
    monkeypatch.setattr(programs, "COMPOSE_LEVEL_PRODUCTS", 0)
    r = Program(q.state_vars, q.input_vars, q.body)
    assert r.lowered.schedule is not None and r.lowered.composed is None
    (rq, tq), (rr, tr) = analyze(q, cfg), analyze(r, cfg)
    assert rq.sound and not tq.records[0].state["w"].is_bottom
    assert all(type(row) is tuple for row in tq.rows)
    assert _hex_run(rq, tq) == _hex_run(rr, tr)


@pytest.mark.parametrize(
    "cfg",
    [EngineConfig(method=m) for m in METHODS] + [EngineConfig(fallback_after=1, delta=0.5)],
    ids=[*METHODS, "fallback"],
)
@pytest.mark.parametrize("name", [n for n, p in SCHEDULED.items() if p.lowered.composed is None])
def test_accel_rows_on_a_scheduled_body_equal_the_per_step_loop(monkeypatch, name, cfg):
    # an accel run on a scheduled body carries float64 arrays, watched or
    # not, unless its initial row holds Bottom; the same body lowered below
    # the schedule's threshold carries lists
    p = SCHEDULED[name]
    assert p.lowered.schedule is not None
    with monkeypatch.context() as m:
        m.setattr(programs, "BATCH_MIN_PRODUCTS", 10**9)
        q = Program(p.state_vars, p.input_vars, p.body)
        assert q.lowered.schedule is None and q.lowered.steps is not None
    (rp, tp), (rq, tq) = analyze(p, cfg), analyze(q, cfg)
    if cfg.fallback_after == 1:
        assert "fallback-widen" in tp.events
    if name.startswith("bottom"):
        assert all(type(r.bounds) is tuple for r in tp.records)
    else:
        assert all(type(r.bounds) is np.ndarray and not r.bounds.flags.writeable for r in tp.records)
    assert all(type(r.bounds) is tuple for r in tq.records)
    assert _hex_run(rp, tp) == _hex_run(rq, tq)


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

    def test_repeat_is_an_alias_of_once(self):
        # the retired policy is accepted, silently, and the config says
        # what runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = EngineConfig(inject_policy="repeat")
        assert cfg == EngineConfig() and cfg.inject_policy == "once"

    @pytest.mark.parametrize("name", ["max_iter", "widen_delay", "fallback_after"])
    def test_counts_must_be_integers(self, name):
        # a float count used to fail in ``range`` or overrun max_iter
        for bad in (2.5, 3.0, "3", None, True, False, np.True_):
            with pytest.raises(ValueError, match=name):
                EngineConfig(mode="kleene", **{name: bad})
        for mode in ("kleene", "widen", "accel"):
            report, _ = analyze(load_bundled("filter3"), EngineConfig(mode=mode, **{name: np.int64(3)}))
            assert report.iterations <= 3 if name == "max_iter" else report.converged

    def test_thresholds_must_be_a_threshold_set(self):
        # a tuple or a list used to fail in the middle of a widen run
        for bad in ((1.0, 2.0), [1.0, 2.0], 8.0, "8"):
            with pytest.raises(ValueError, match="thresholds"):
                EngineConfig(mode="widen", thresholds=bad)
        for thresholds in (None, ThresholdSet((1.0, 2.0))):
            report, _ = analyze(load_bundled("filter3"), EngineConfig(mode="widen", thresholds=thresholds))
            assert report.converged and report.sound

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
