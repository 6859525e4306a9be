"""Fixpoint engine: plain iteration, widening, acceleration, soundness."""
import math

import pytest

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
from fixaccel.intervals import BOTTOM
from fixaccel.programs import Assignment, Program

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
        # collapses the vector table early; estimates then repeat by
        # retention and must not be counted as injections
        p = load_bundled("lowpass1")
        report, trace = analyze(p, EngineConfig())
        assert report.injections == 0
        assert report.sound
        assert all(r.event != "injection" for r in trace.records)

    def test_fallback_widening_guarantees_termination(self):
        p = load_bundled("lowpass1")
        cfg = EngineConfig(fallback_after=10)
        report, trace = analyze(p, cfg)
        assert report.converged and report.sound
        events = [r.event for r in trace.records]
        assert "fallback-widen" in events
        assert report.iterations < 30
        # fallback costs precision, never soundness
        assert verify_postfixpoint(p, report.invariant)

    def test_estimates_recorded_only_with_new_evidence(self):
        p = load_bundled("filter3")
        _, trace = analyze(p, EngineConfig())
        with_estimate = [r.index for r in trace.records if r.accel is not None]
        # the vector method gains a new diagonal entry every other step
        assert with_estimate == [i for i in with_estimate if i % 2 == 0]
        assert all(b - a == 2 for a, b in zip(with_estimate, with_estimate[1:]))

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
