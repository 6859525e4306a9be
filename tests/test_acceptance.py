"""End-to-end acceptance checks, one test per promised behavior.

Each test pins a user-facing guarantee of the package at its stated
tolerance: iteration counts and bound accuracy of the bundled analyses,
short-circuiting by injection, transform accuracy on randomized
families, lattice laws of the widenings, verified soundness of every
reported invariant, and the exactness of the state/vector bridge.
Expected limits come from independent closed-form solves
(``np.linalg.solve`` on the stationary bound equations), never from the
engine itself.
"""
import math
import time

import numpy as np
import pytest

from fixaccel import (
    EngineConfig,
    Interval,
    ThresholdSet,
    aitken,
    analyze,
    bundled_path,
    combine_detailed,
    epsilon_diagonal,
    extract,
    ExtractionSchema,
    AbstractState,
    join,
    leq,
    load_bundled,
    state_join,
    state_leq,
    transfer,
    vector_epsilon_diagonal,
    verify_postfixpoint,
    widen_std,
    widen_thresholds,
)

# Stationary bounds of the three-state filter, solved directly from the
# loop's bound recursion (lower bounds take each row's sign-split
# endpoints); frozen here after checking residuals below 1e-12.
FILTER3_LIMIT = {
    "x1": (-5.197505568307443, 8.873306648974609),
    "x2": (-2.6244448118404273, 11.126367405441624),
    "x3": (-4.718725899853036, 20.0),
}
# Stationary upper bound of the first-order lowpass state:
# h = 0.9048 h + 0.9524 * 2  =>  h = 1.9048 / 0.0952.
LOWPASS1_UPPER = 20.00840336134455

# Generator of the bundled lowpass2_iterates.csv trajectory.
LOWPASS2_A = np.array([[0.9858, -0.009929], [0.00929, 1.0]])
LOWPASS2_B = np.array([0.9929, 0.004965])
LOWPASS2_U = 2.0


@pytest.fixture(scope="module")
def filter3():
    return load_bundled("filter3")


@pytest.fixture(scope="module")
def lowpass1():
    return load_bundled("lowpass1")


@pytest.fixture(scope="module")
def filter3_kleene(filter3):
    start = time.perf_counter()
    report, trace = analyze(filter3, EngineConfig(mode="kleene"))
    return report, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def lowpass1_kleene(lowpass1):
    start = time.perf_counter()
    report, trace = analyze(lowpass1, EngineConfig(mode="kleene"))
    return report, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def lowpass1_exact(lowpass1):
    report, trace = analyze(lowpass1, EngineConfig(mode="kleene", stop_tol=0.0))
    return report, trace


def upper_sequence(trace, var):
    seq = [trace.initial[var].hi]
    seq.extend(r.state[var].hi for r in trace.records)
    return np.array(seq)


def test_01_plain_iteration_on_three_state_filter(filter3_kleene):
    report, _, elapsed = filter3_kleene
    assert report.converged and report.sound
    assert 50 <= report.iterations <= 60
    x1 = report.invariant["x1"]
    assert abs(x1.lo - (-5.1975)) <= 5e-4
    assert abs(x1.hi - 8.8733) <= 5e-4
    assert elapsed < 1.0
    print(
        f"PASS plain iteration: {report.iterations} steps, "
        f"x1=[{x1.lo:.6f},{x1.hi:.6f}], {elapsed * 1e3:.1f} ms"
    )


def test_02_injection_short_circuits_three_state_filter(filter3, filter3_kleene):
    base, _, _ = filter3_kleene
    report, trace = analyze(filter3, EngineConfig())  # accel, vea, 1e-3, once
    assert report.converged and report.sound
    assert report.iterations <= 25
    assert report.injections >= 1
    for v in ("x1", "x2", "x3"):
        assert abs(report.invariant[v].lo - base.invariant[v].lo) <= 1e-3
        assert abs(report.invariant[v].hi - base.invariant[v].hi) <= 1e-3
    print(
        f"PASS accelerated run: {report.iterations} steps "
        f"({report.injections} injection), bounds agree with plain"
    )


def test_03_first_order_filter_iteration_and_diagonal(
    lowpass1_kleene, lowpass1_exact
):
    report, trace, elapsed = lowpass1_kleene
    exact_report, _ = lowpass1_exact
    assert report.converged and report.sound
    assert 146 <= report.iterations <= 166
    x1 = report.invariant["x1"]
    assert abs(x1.lo - 0.0) <= 1e-3
    assert abs(x1.hi - 20.0084) <= 1e-3
    assert elapsed < 1.0

    converged_upper = exact_report.invariant["x1"].hi
    assert converged_upper == pytest.approx(LOWPASS1_UPPER, abs=1e-9)
    diag = epsilon_diagonal(upper_sequence(trace, "x1"))
    errs = [abs(d.value - converged_upper) for d in diag[: 8 + 1]]
    best = min(errs)
    assert best <= 1e-6
    print(
        f"PASS lowpass analysis: {report.iterations} steps, upper error "
        f"{abs(x1.hi - 20.0084):.2e}, best diagonal error {best:.2e}"
    )


def test_04_aitken_on_lowpass_upper_bounds(lowpass1_exact):
    _, trace = lowpass1_exact
    seq = upper_sequence(trace, "x1")
    out = aitken(seq)
    early = [abs(el.value - 20.0084) for el in out[: 5 + 1]]
    assert min(early) <= 2e-4
    onset = next((i for i, el in enumerate(out) if el.stalled), None)
    assert onset is not None, "expected the squared differences to stall"
    retained = [el.value for el in out[onset:] if el.stalled]
    assert retained
    assert all(20.0082 <= v <= 20.0086 for v in retained)
    print(
        f"PASS squared-difference transform: early error {min(early):.2e}, "
        f"stall onset at {onset}, retained within window"
    )


def test_05_vector_epsilon_detects_concrete_convergence():
    rows = np.loadtxt(bundled_path("lowpass2_iterates.csv"), delimiter=",", skiprows=1)
    # the bundled trajectory really is x_{n+1} = A x_n + B u
    for n in range(len(rows) - 1):
        step = LOWPASS2_A @ rows[n] + LOWPASS2_B * LOWPASS2_U
        assert np.max(np.abs(step - rows[n + 1])) < 1e-12
    limit = np.linalg.solve(np.eye(2) - LOWPASS2_A, LOWPASS2_B * LOWPASS2_U)

    diag = vector_epsilon_diagonal(rows)
    values = [np.asarray(el.value) for el in diag]
    detections = {}
    for delta in (1e-3, 1e-4, 1e-5):
        hit = next(
            (
                j
                for j in range(1, len(values))
                if np.max(np.abs(values[j] - values[j - 1])) <= delta
            ),
            None,
        )
        assert hit is not None and hit <= 16
        detections[delta] = hit
    err = np.max(np.abs(values[detections[1e-5]] - limit))
    assert err <= 1e-6
    print(
        f"PASS concrete detection: indices {sorted(detections.values())}, "
        f"limit error {err:.2e}"
    )


def test_06_randomized_transform_accuracy():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()

    worst_geo = 0.0
    for _ in range(100):
        limit = float(rng.uniform(-100, 100))
        coeff = float(rng.uniform(0.1, 10) * rng.choice([-1, 1]))
        ratio = float(rng.uniform(0.05, 0.9) * rng.choice([-1, 1]))
        seq = limit + coeff * ratio ** np.arange(10)
        got = aitken(seq)[-1].value
        rel = abs(got - limit) / max(1.0, abs(limit))
        worst_geo = max(worst_geo, rel)
    assert worst_geo <= 1e-8

    worst_rec = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        m = rng.normal(size=(p, p))
        radius = max(abs(np.linalg.eigvals(m)))
        m *= rng.uniform(0.3, 0.85) / radius
        b = rng.normal(size=p)
        x = np.zeros(p)
        seq = [x.copy()]
        for _ in range(40):
            x = m @ x + b
            seq.append(x.copy())
        diag = vector_epsilon_diagonal(np.array(seq))
        best = [el.value for el in diag if not el.stalled][-1]
        stationary = np.linalg.solve(np.eye(p) - m, b)
        worst_rec = max(worst_rec, float(np.max(np.abs(best - stationary))))
    assert worst_rec <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"PASS randomized transforms: geometric worst {worst_geo:.2e}, "
        f"recurrence worst {worst_rec:.2e}, {elapsed:.2f} s"
    )


def rand_interval(rng):
    roll = rng.random()
    if roll < 0.1:
        return Interval(math.inf, -math.inf)  # empty
    lo = -math.inf if rng.random() < 0.15 else float(rng.normal(scale=20))
    hi = math.inf if rng.random() < 0.15 else float(rng.normal(scale=20))
    if lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def test_07_widening_laws_and_stabilization():
    rng = np.random.default_rng(777)
    t = ThresholdSet((-25.0, -5.0, 0.0, 1.0, 12.5, 40.0))
    for _ in range(1000):
        a, b = rand_interval(rng), rand_interval(rng)
        for w in (widen_std(a, b), widen_thresholds(a, b, t)):
            assert leq(a, w) and leq(b, w)

    longest_std = 0
    worst_per_bound = 0
    for _ in range(100):
        k = int(rng.integers(0, 6))
        values = tuple(sorted(rng.normal(scale=30, size=k).tolist()))
        tk = ThresholdSet(values)
        # standard widening chain
        x = rand_interval(rng)
        changes = 0
        for _ in range(12):
            y = join(x, rand_interval(rng))
            nxt = widen_std(x, y)
            if nxt != x:
                changes += 1
            x = nxt
        assert changes <= 4
        longest_std = max(longest_std, changes)
        # threshold widening chain: each bound steps through the
        # threshold ladder at most once
        x = rand_interval(rng)
        lo_changes = hi_changes = 0
        for _ in range(4 * (k + 3)):
            y = join(x, rand_interval(rng))
            nxt = widen_thresholds(x, y, tk)
            lo_changes += nxt.lo != x.lo
            hi_changes += nxt.hi != x.hi
            x = nxt
        assert lo_changes <= len(tk) + 2
        assert hi_changes <= len(tk) + 2
        worst_per_bound = max(worst_per_bound, lo_changes, hi_changes)
    print(
        f"PASS widening laws: longest plain chain {longest_std}, "
        f"most per-bound threshold steps {worst_per_bound}"
    )


def test_08_every_reported_invariant_verifies():
    configs = [
        EngineConfig(mode="kleene"),
        EngineConfig(mode="kleene", stop_tol=0.0),
        EngineConfig(mode="widen"),
        EngineConfig(mode="widen", widen_delay=4),
        EngineConfig(mode="widen", thresholds=ThresholdSet((25.0,))),
        EngineConfig(),
        EngineConfig(method="aitken"),
        EngineConfig(method="epsilon"),
        EngineConfig(inject_policy="repeat"),
        EngineConfig(fallback_after=8),
    ]
    runs = injections = 0
    for name in ("filter3", "lowpass1", "contraction2"):
        p = load_bundled(name)
        for cfg in configs:
            report, trace = analyze(p, cfg)
            assert report.converged, (name, cfg.mode, cfg.method)
            assert report.sound, (name, cfg.mode, cfg.method)
            assert verify_postfixpoint(p, report.invariant)
            runs += 1
            states = {0: trace.initial}
            for r in trace.records:
                states[r.index] = r.state
            for r in trace.records:
                if r.event != "injection":
                    continue
                before = states[r.index - 1]
                pre = state_join(before, transfer(p, before))
                assert state_leq(pre, r.state)
                injections += 1
    assert injections >= 1
    print(
        f"PASS soundness sweep: {runs} runs verified, "
        f"{injections} injections all grew the state"
    )


def test_09_state_vector_bridge_is_exact():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        items = []
        for j in range(int(rng.integers(1, 7))):
            lo, hi = sorted(rng.normal(scale=1000, size=2))
            items.append((f"v{j}", Interval(float(lo), float(hi))))
        x = AbstractState(items)
        schema = ExtractionSchema.for_variables(x.names)
        r = extract(x, schema)
        assert combine_detailed(r.vector, r.excluded, schema)[0] == x

    compared = 0
    for _ in range(100):
        n = int(rng.integers(3, 30))
        mode = rng.random()
        if mode < 0.3:
            seq = np.full(n, float(rng.normal()))  # stalls immediately
        else:
            seq = rng.normal() + rng.normal() * rng.uniform(-0.9, 0.9) ** np.arange(n)
        ds = epsilon_diagonal(seq)
        dv = vector_epsilon_diagonal(seq[:, None])
        assert len(ds) == len(dv)
        for s, v in zip(ds, dv):
            assert s.stalled == v.stalled
            if not s.stalled:
                assert float(np.asarray(v.value)[0]) == s.value
                compared += 1
    assert compared > 0
    print(
        f"PASS state/vector bridge: 1000 exact round-trips, "
        f"{compared} bit-identical diagonal entries"
    )
