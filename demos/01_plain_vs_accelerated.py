"""Plain Kleene iteration versus accelerated iteration on a bundled filter.

Runs the three-state filter loop twice: once with ordinary interval
iteration until the bounds settle, and once with the vector epsilon
accelerator watching the iterates: as soon as two consecutive estimates
agree, their limit, padded outward a hair, is checked as an invariant,
and the first one that the loop body maps into itself ends the run.
Prints both invariants side by side and the full event log of the
accelerated run.

Run with:  python3 demos/01_plain_vs_accelerated.py
"""
import fixaccel as fa

program = fa.load_bundled("filter3")
print(fa.unparse(program))

# --- plain iteration -------------------------------------------------
plain_report, plain_trace = fa.analyze(program, fa.EngineConfig(mode="kleene"))
print(f"plain iteration:       {plain_report.iterations} steps "
      f"({plain_report.reason})")

# --- accelerated iteration -------------------------------------------
cfg = fa.EngineConfig(mode="accel", method="vector-epsilon", inject_policy="once")
accel_report, accel_trace = fa.analyze(program, cfg)
print(f"accelerated iteration: {accel_report.iterations} steps "
      f"({accel_report.injections} injection, {accel_report.reason})")

# --- compare the invariants ------------------------------------------
print(f"\n{'var':>4} {'plain':>42} {'accelerated':>42}")
for name in plain_report.invariant.names:
    a = plain_report.invariant[name]
    b = accel_report.invariant[name]
    print(f"{name:>4} [{a.lo:19.12f}, {a.hi:19.12f}] "
          f"[{b.lo:19.12f}, {b.hi:19.12f}]")

assert accel_report.sound and plain_report.sound
speedup = plain_report.iterations / accel_report.iterations
print(f"\nboth invariants verified sound; {speedup:.1f}x fewer steps")

# --- what the accelerator saw ----------------------------------------
# rec.accel lays out the estimate as (x1_lo, x1_hi, x2_lo, ...) with
# None where no estimate was available for a coordinate.
print("\nevent log of the accelerated run:")
for rec in accel_trace.records:
    est = ""
    if rec.accel is not None and rec.accel[0] is not None:
        est = f"  estimate x1 = [{rec.accel[0]:.6f}, {rec.accel[1]:.6f}]"
    print(f"  step {rec.index:2d}  {rec.event:12}{est}")
