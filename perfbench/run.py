"""fixaccel benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload kleene-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each analysis starts only after the previous one returned,
in one process with BLAS pinned to one thread.  Every result is checked
against a reference the benchmark computes with NumPy.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics
from a traced pass (see README.md).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS thread, set before numpy is first imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 11
MIN_ROUNDS = 4
OVERRUN = 3  # stop early once the calls have taken OVERRUN x --seconds
SETUP_CODE = (
    "import time\n"
    "import speed\n"
    "before = speed.kernel_ms()\n"
    "t = time.perf_counter()\n"
    "import fixaccel, fixaccel.cli\n"
    "seconds = time.perf_counter() - t\n"
    "print(repr(seconds * speed.scale(before, speed.kernel_ms())), fixaccel.__file__)\n"
)


def measure_setup() -> float:
    """Median time to import fixaccel and fixaccel.cli in a fresh
    interpreter, scaled to the nominal machine, after one unmeasured
    import that warms file caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, path = out.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fixaccel imported from {path}, not {SRC}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and that percentile; the maximum if there are only
    ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if k >= 1 and n - k >= 10:
            return ordered[k - 1], p
    return ordered[-1], 100


class Tally:
    """What a run keeps of its calls.

    The first round is kept whole.  Of later rounds only the figures
    the metrics need are kept, so the harness's memory, which counts in
    ``peak_rss_mb``, does not grow with the number of calls.  A later
    round that repeats the first round's items is compared with it.
    """

    def __init__(self):
        self.first: tuple[list, list] | None = None
        self.repeated = False
        self.unstable: set[str] = set()
        self.nominal_ms = array("d")
        self.raw_ms = array("d")
        self.bound_errs = array("d")  # of kleene and accel calls
        self.iterations: list[int] = []  # per round
        self.failed = 0
        self.wrong = 0
        self.busy_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.raw_ms)

    def add(self, items: list, outcomes: list) -> None:
        if self.first is None:
            self.first = (items, outcomes)
        elif items is self.first[0]:
            self.repeated = True
            self.compare(outcomes)
        for it, o in zip(items, outcomes):
            self.nominal_ms.append(o.nominal_ms)
            self.raw_ms.append(o.ms)
            if it.mode in ("kleene", "accel"):
                self.bound_errs.append(o.bound_err)
            self.failed += o.failure is not None
            self.wrong += o.wrong
        self.iterations.append(sum(o.iterations for o in outcomes))
        self.busy_s += sum(o.ms for o in outcomes) / 1e3

    def compare(self, outcomes: list) -> None:
        """Note the first round's items whose results differ in ``outcomes``."""
        items, base = self.first
        self.unstable.update(it.id for it, o, b in zip(items, outcomes, base)
                             if o.signature != b.signature)

    def failure_lines(self) -> list[str]:
        """Failures of the first round, per ledger group and reason."""
        failures: dict[str, dict[str, int]] = {}
        for it, o in zip(*self.first):
            if o.failure:
                reasons = failures.setdefault(it.group, {})
                reasons[o.failure] = reasons.get(o.failure, 0) + 1
        return [f"  {g}: " + ", ".join(f"{r} x{c}" for r, c in sorted(rs.items()))
                for g, rs in sorted(failures.items())]


def planned_rounds(workload: str, seconds: float) -> int:
    """Rounds that take ``seconds`` of calls on the nominal machine.

    The number of rounds, and so the set of calls a run measures, depends
    only on ``--seconds``, never on the speed of the machine or of the
    code: a faster program finishes the same work sooner.
    """
    return max(MIN_ROUNDS, round(seconds / workloads.ROUND_SECONDS[workload]))


def run_rounds(source, rounds: int, execute=workloads.execute,
               limit_s: float = math.inf) -> Tally:
    """Run ``rounds`` rounds from ``source``; stop early only once the
    calls have taken ``limit_s``.  Checking results, drawing new inputs
    and calibrating between calls are not counted.  Each outcome gets
    ``nominal_ms``, its time scaled to the nominal machine."""
    tally = Tally()
    for items in itertools.islice(source, rounds):
        outcomes = []
        before = speed.kernel_ms()
        for it in items:
            o = execute(it)
            after = speed.kernel_ms()
            o.nominal_ms = o.ms * speed.scale(before, after)
            before = after
            outcomes.append(o)
        tally.add(items, outcomes)
        if tally.busy_s >= limit_s:
            break
    return tally


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fixaccel" / "__init__.py").is_file():
        print(f"error: no fixaccel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        source = workloads.rounds(args.workload, args.seed, work)
        first = next(source)
        workloads.execute(first[0])  # warm-up, not measured
        gc.collect()
        source = itertools.chain([first], source)
        return (traced_pass if args.trace else untraced_pass)(args, source)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced_pass(args, source) -> int:
    setup_s = measure_setup()
    planned = planned_rounds(args.workload, args.seconds)
    tally = run_rounds(source, planned, limit_s=OVERRUN * args.seconds)
    if not tally.repeated:
        tally.compare([workloads.execute(it) for it in tally.first[0]])
    n = tally.attempted
    ms, raw_ms = tally.nominal_ms, tally.raw_ms
    tail_ms, tail_p = tail(ms)
    errs = tally.bound_errs
    metrics = {
        "setup_s": (setup_s, "s"),
        "analyses_per_s": (n * 1e3 / sum(ms), "1/s"),
        "analysis_ms_p50": (statistics.median(ms), "ms"),
        "analysis_ms_tail": (tail_ms, "ms"),
        "iterations_total": (statistics.fmean(tally.iterations), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "failure_frac": (tally.failed / n, "ratio"),
        "bound_err_p50": (statistics.median(errs) if errs else 0.0, "relative"),
    }
    notes = {
        "analysis_ms_tail": f"p{tail_p} of {n} samples, "
                            f"{n - math.ceil(tail_p * n / 100)} beyond",
        "iterations_total": "per round, mean over the rounds",
        "failure_frac": f"{tally.failed} failed of {n} attempted",
        "bound_err_p50": "median over kleene and accel analyses, failed = inf",
    }
    speed_factor = statistics.median(m / r for m, r in zip(ms, raw_ms))
    report_rounds(args, tally, planned, "rounds")
    print(f"times are scaled to the nominal machine; this machine ran "
          f"{speed_factor:.3f} x as fast (raw p50 {statistics.median(raw_ms):.4g} ms)")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<18} {value:.6g} {unit}{note}")
    report_checks(tally, "NOT DETERMINISTIC")
    print(result_line(not tally.unstable and tally.wrong == 0, n, tally.failed, metrics))
    return 0


def report_rounds(args, tally: Tally, planned: int, what: str) -> None:
    rounds = len(tally.iterations)
    print(f"workload {args.workload}  seed {args.seed}  {rounds} {what}, "
          f"{tally.attempted} calls, {tally.busy_s:.2f} s in calls")
    if rounds < planned:
        print(f"STOPPED EARLY after {rounds} of {planned} rounds: the calls took "
              f"over {OVERRUN} x --seconds")


def report_checks(tally: Tally, unstable_label: str) -> None:
    lines = tally.failure_lines()
    if lines:
        print("failures in the first round (group: reason x count):")
        print("\n".join(lines))
    if tally.unstable:
        print(f"{unstable_label}: {', '.join(sorted(tally.unstable))}")
    if tally.wrong:
        print(f"WRONG: {tally.wrong} verified result(s) exclude the reference")


def traced_pass(args, source) -> int:
    import fixaccel

    # the first round untraced: the base for the overhead and for the check
    # that tracing changes no result
    items = next(source)
    base = run_rounds([items], 1).first[1]

    tr = tracer.Tracer()
    api = (tr.wrap("programs.parse", fixaccel.parse),
           tr.wrap("engine.analyze", fixaccel.analyze))
    analyses: dict[int, dict] = {}

    def traced(it):
        tr.analysis = len(analyses)
        o = workloads.execute(it, api)
        analyses[tr.analysis] = {"mode": it.mode, "iterations": o.iterations,
                                 "injections": o.injections, "bytes": o.bytes_written}
        return o

    planned = planned_rounds(args.workload, args.seconds)
    tr.install()
    try:
        tally = run_rounds(itertools.chain([items], source), planned, traced,
                           OVERRUN * args.seconds)
    finally:
        tr.uninstall()
    tally.compare(base)
    metrics = tracer.layer_metrics(tr, analyses, len(tally.iterations))
    traced_ms = tally.nominal_ms[:len(items)]
    overhead = sum(traced_ms) / sum(o.nominal_ms for o in base) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    spans_path = OUT / f"spans-{args.workload}.jsonl.gz"
    tr.write(spans_path)

    report_rounds(args, tally, planned, "traced rounds")
    print(f"{len(tr)} spans -> {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    if tr.missing:
        print(f"not wrapped (attribute absent): {', '.join(tr.missing)}")
    report_checks(tally, "TRACED RESULTS DIFFER from untraced or between rounds")
    print(result_line(not tally.unstable and tally.wrong == 0, tally.attempted,
                      tally.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
