"""Sequence transforms on the bound iterates of a first-order lowpass loop.

The upper bound of the filter state converges geometrically toward
1.9048/0.0952 = 20.00840336...  This script pulls the raw bound
sequence out of an engine trace and applies the two scalar transforms:

* Aitken's squared-difference transform, which is exact on a single
  geometric mode after three elements, and
* the epsilon algorithm's even diagonal, which removes one additional
  mode per depth step.

It also shows what happens when a transform runs out of signal: once
consecutive differences fall below the stall tolerance the transform
stops producing new values and simply retains the last valid one.

Run with:  python3 demos/02_sequence_transforms.py
"""
import numpy as np

import fixaccel as fa

program = fa.load_bundled("lowpass1")

# Full-precision run: iterate until the bounds are bit-exact stable.
report, trace = fa.analyze(program, fa.EngineConfig(mode="kleene", stop_tol=0.0))
limit = report.invariant["x1"].hi
uppers = np.array([trace.initial["x1"].hi]
                  + [r.state["x1"].hi for r in trace.records])
print(f"{len(uppers)} upper-bound iterates, plain limit {limit:.12f}")

# --- raw sequence versus both transforms -----------------------------
ait = fa.aitken(uppers)
eps = fa.epsilon_diagonal(uppers)
print(f"\n{'n':>3} {'x_n':>18} {'aitken_n':>18} {'diagonal d_n':>18}")
for n in range(8):
    a = f"{ait[n].value:18.12f}" if n < len(ait) else ""
    d = f"{eps[n].value:18.12f}" if n < len(eps) else ""
    print(f"{n:>3} {uppers[n]:18.12f} {a} {d}")

print(f"\n|aitken_0 - limit|   = {abs(ait[0].value - limit):.3e}  "
      f"(uses x_0..x_2 only)")
print(f"|d_1 - limit|        = {abs(eps[1].value - limit):.3e}  "
      f"(uses x_0..x_2 only)")
print(f"|x_2 - limit|        = {abs(uppers[2] - limit):.3e}  "
      f"(the raw element)")

# --- stall behaviour late in the sequence ----------------------------
onset = next(i for i, el in enumerate(ait) if el.stalled)
print(f"\naitken stalls from element {onset}: floating-point round-off "
      f"leaves no usable difference that far into the tail.")
tail = ait[onset:onset + 3]
for i, el in enumerate(tail, start=onset):
    print(f"  element {i}: value {el.value:.12f}  stalled={el.stalled}")
print("stalled elements retain the last valid estimate instead of "
      "dividing by a vanishing denominator.")
