"""The three seeded workloads, how one item runs, and how its result is
classified against the NumPy reference.

An item is one analysis (``parse`` + ``analyze`` through the library) or
one in-process ``fixaccel.cli.main`` call.  ``rounds(name, seed, work)``
yields the items of successive rounds; a run takes rounds for as long
as it measures.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import loops

WORKLOADS = ("cli-bundled", "kleene-wide", "accel-tail")
# Seconds one round of calls takes on the nominal machine (see speed.py)
# at the commit that introduced the benchmark; a run of --seconds plans
# its number of rounds from these.
ROUND_SECONDS = {"cli-bundled": 0.135, "kleene-wide": 7.5, "accel-tail": 2.5}

# Kleene shapes: dense rows stress the per-term cost of transfer, sparse
# rows a long body with few terms per row.  Programs of one shape take
# about the same time, so the copies per round decide where the median
# and the tail fall.  The slowest shape (sparse Jacobi) has 4 copies, so
# from four rounds on the tail's ten samples and the one at the tail are
# all its own.  The median falls among the sparse Gauss-Seidel times,
# not in the gap between two shapes.  (shape, n, nonzeros, form, copies)
KLEENE_SHAPES = (
    ("dense", 64, None, "gauss-seidel", 4),
    ("sparse", 256, 8, "gauss-seidel", 4),
    ("dense", 64, None, "jacobi", 1),
    ("sparse", 256, 8, "jacobi", 4),
)
KLEENE_RHO = 0.95
# ROADMAP random family: |A| rows sum past 1, so the seal and the
# fallback both run.  At these sizes a block takes about 2.5 s, so a 25-s
# run holds 10 blocks and its longest calls stay under a second.
ACCEL_SIZES = (8, 16)
ACCEL_BLOCKS = 12  # blocks of ACCEL_SIZES x ACCEL_RHOS programs in the population
ACCEL_RHOS = (0.9, 0.97)
ACCEL_CONFIGS = tuple(
    (method, policy, fallback)
    for method in ("aitken", "epsilon", "vector-epsilon")
    for policy, fallback in (("once", 20), ("repeat", 200))
)
CLI_METHODS = ("aitken", "epsilon", "vea")

SLACK = 1e-9  # relative float slack when comparing with the reference
ACCEL_CSV_TOL = 1e-6  # epsilon/vea final element against the closed-form limit


@dataclass
class Item:
    """One analysis or CLI call of a round."""

    id: str
    group: str  # what the failure ledger is keyed by
    mode: str  # kleene | widen | accel | accelerate
    ref: np.ndarray | None = None  # (n, 2) reference bounds
    text: str = ""  # API items: program text
    cfg: object = None  # API items: fixaccel.EngineConfig
    argv: list[str] = field(default_factory=list)  # CLI items
    outputs: tuple[Path, ...] = ()  # files a CLI item writes
    method: str = ""  # accelerate items


@dataclass(slots=True)
class Outcome:
    """What one execution of an item produced, and its verdict."""

    ms: float
    nominal_ms: float = math.nan  # ms scaled to the nominal machine (see speed.py)
    iterations: int = 0
    injections: int = 0
    bytes_written: int = 0
    failure: str | None = None  # None when the result passed
    wrong: bool = False  # a result claimed verified but excludes the reference
    bound_err: float = math.inf
    signature: tuple = ()  # compared across rounds and between passes


# ---- building rounds --------------------------------------------------

def rounds(name: str, seed: int, work: Path) -> Iterator[list[Item]]:
    """The items of successive rounds of workload ``name``, each round in
    seeded order.

    ``cli-bundled`` and ``kleene-wide`` repeat one round drawn from the
    seed.  ``accel-tail`` takes its rounds from a population of
    ACCEL_BLOCKS blocks of programs, in an order drawn from the seed.
    One accel analysis costs from 20 ms to 900 ms depending on the
    program, so programs drawn afresh from each seed made a run's
    figures depend on the seed (analyses_per_s spread 0.18 between
    seeds); a 25-s run of 10 rounds measures 10 of the 12 blocks.
    """
    import fixaccel

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    tag = WORKLOADS.index(name)
    rng = np.random.default_rng([seed, tag])
    if name == "accel-tail":
        blocks = []
        for block in range(ACCEL_BLOCKS):
            block_rng = np.random.default_rng([tag, block])
            blocks.append(_accel_tail(block_rng, fixaccel.EngineConfig))
        blocks = [_shuffled(rng, items) for items in blocks]
        yield from itertools.cycle([blocks[b] for b in rng.permutation(ACCEL_BLOCKS)])
    if name == "cli-bundled":
        items = _shuffled(rng, _cli_bundled(rng, work))
    else:
        items = _shuffled(rng, _kleene_wide(rng, fixaccel.EngineConfig))
    while True:
        yield items


def _shuffled(rng: np.random.Generator, items: list[Item]) -> list[Item]:
    return [items[i] for i in rng.permutation(len(items))]


def _cli_bundled(rng: np.random.Generator, work: Path) -> list[Item]:
    # a seeded threshold ladder: +-10**U(-0.5, 2.5), six values
    ladder = sorted(
        float(s * 10 ** e)
        for s, e in zip(rng.choice([-1.0, 1.0], 6), rng.uniform(-0.5, 2.5, 6))
    )
    configs = [
        ("kleene", "kleene", ["--mode", "kleene"]),
        ("widen", "widen", ["--mode", "widen"]),
        ("widen-ladder", "widen", ["--mode", "widen", "--widen-delay", "5",
                                   "--thresholds=" + ",".join(map(repr, ladder))]),
    ]
    configs += [
        (f"accel-{m}-{p}", "accel", ["--mode", "accel", "--method", m, "--inject", p])
        for m in CLI_METHODS
        for p in ("once", "repeat")
    ]
    items = []
    for prog, loop in loops.BUNDLED.items():
        path = work / f"{prog}.loop"
        path.write_text(loops.render(loop))
        ref = loops.reference_fixpoint(loop)
        for cid, mode, args in configs:
            trace, report = work / f"{prog}-{cid}.csv", work / f"{prog}-{cid}.json"
            method = args[args.index("--method") + 1] if mode == "accel" else mode
            items.append(Item(
                id=f"{prog}/{cid}", group=f"{prog}/{method}", mode=mode, ref=ref,
                argv=["analyze", str(path), *args, "--trace", str(trace),
                      "--report", str(report)],
                outputs=(trace, report),
            ))
    csv = work / "lowpass2_iterates.csv"
    csv.write_text(loops.lowpass2_csv())
    for m in CLI_METHODS:
        out = work / f"accelerate-{m}.csv"
        items.append(Item(
            id=f"lowpass2/accelerate-{m}", group=f"lowpass2/{m}", mode="accelerate",
            argv=["accelerate", str(csv), "--method", m, "--output", str(out)],
            outputs=(out,), method=m,
        ))
    return items


def _kleene_wide(rng: np.random.Generator, EngineConfig) -> list[Item]:
    items = []
    for kind, n, nnz, form, copies in KLEENE_SHAPES:
        for copy in range(copies):
            loop = loops.row_normalised(rng, n, KLEENE_RHO, nnz, form == "gauss-seidel")
            items.append(Item(
                id=f"{kind}{n}-{form}-{copy}", group=f"{kind}-{form}", mode="kleene",
                ref=loops.reference_fixpoint(loop), text=loops.render(loop),
                cfg=EngineConfig(mode="kleene"),
            ))
    return items


def _accel_tail(rng: np.random.Generator, EngineConfig) -> list[Item]:
    items = []
    for n in ACCEL_SIZES:
        for rho in ACCEL_RHOS:
            loop = loops.gaussian(rng, n, rho)
            text, ref = loops.render(loop), loops.reference_fixpoint(loop)
            for method, policy, fallback in ACCEL_CONFIGS:
                items.append(Item(
                    id=f"n{n}-rho{rho}/{method}-{policy}",
                    group=f"gaussian-rho{rho}/{method}-{policy}",
                    mode="accel", ref=ref, text=text,
                    cfg=EngineConfig(mode="accel", method=method,
                                     inject_policy=policy, fallback_after=fallback),
                ))
    return items


# ---- running one item ---------------------------------------------------

def execute(item: Item, api=None) -> Outcome:
    """Run ``item`` once and classify its result.

    ``api`` is an optional pair of callables standing in for
    ``fixaccel.parse`` and ``fixaccel.analyze`` (the traced pass wraps
    them); only the call itself is timed.
    """
    import fixaccel
    import fixaccel.cli

    clock = time.perf_counter
    if item.argv:
        for path in item.outputs:
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = fixaccel.cli.main(item.argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - any raise is a failed call
            return Outcome((clock() - t0) * 1e3, failure=f"exception:{type(exc).__name__}")
        ms = (clock() - t0) * 1e3
        return _classify_cli(item, code, ms)

    parse, analyze = api or (fixaccel.parse, fixaccel.analyze)
    t0 = clock()
    try:
        report, _ = analyze(parse(item.text), item.cfg)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed analysis
        return Outcome((clock() - t0) * 1e3, failure=f"exception:{type(exc).__name__}")
    ms = (clock() - t0) * 1e3
    bounds = np.array([[iv.lo, iv.hi] for iv in report.invariant.intervals])
    out = Outcome(ms, iterations=report.iterations, injections=report.injections)
    _judge(item, out, bounds, report.sound, report.converged)
    out.signature = (report.iterations, report.injections, report.reason,
                     bounds.tobytes())
    return out


def _classify_cli(item: Item, code: int, ms: float) -> Outcome:
    blobs = [p.read_bytes() if p.exists() else b"" for p in item.outputs]
    out = Outcome(ms, bytes_written=sum(map(len, blobs)))
    out.signature = (code, *(hashlib.sha256(b).hexdigest() for b in blobs))
    if code != 0:
        out.failure = f"exit-code-{code}"
        return out
    try:
        if item.mode == "accelerate":
            out.failure = _check_accelerate(item, blobs[0])
            return out
        report = json.loads(blobs[1])
        bounds = np.array([[float(v["lower"]), float(v["upper"])]
                           for v in report["invariant"].values()])
        out.iterations, out.injections = report["iterations"], report["injections"]
        sound, converged = report["sound"], report["converged"]
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        out.failure = "unreadable-output"
        return out
    _judge(item, out, bounds, sound, converged)
    return out


def _judge(item: Item, out: Outcome, bounds: np.ndarray, sound: bool, converged: bool) -> None:
    """Set ``failure``, ``wrong`` and ``bound_err`` from the reported bounds."""
    out.failure, out.wrong = classify(item.mode, item.ref, bounds, sound, converged)
    if out.failure is None and item.mode != "widen":
        out.bound_err = bound_error(item.ref, bounds)


def classify(mode: str, ref: np.ndarray, bounds: np.ndarray, sound: bool,
             converged: bool) -> tuple[str | None, bool]:
    """(failure reason or None, whether the result is wrong).

    A result is wrong when it claims a converged, verified invariant
    that does not contain the reference: that is an incorrect output,
    not merely a failed analysis.  Infinite bounds are legitimate only
    in widen mode.
    """
    slack = SLACK * np.maximum(1.0, np.abs(ref))
    contained = bool(np.all(bounds[:, 0] <= ref[:, 0] + slack[:, 0])
                     and np.all(bounds[:, 1] >= ref[:, 1] - slack[:, 1]))
    if not sound:
        return "not-sound", False
    if not converged:
        return "not-converged", False
    if not contained:
        return "not-contained", True
    if mode != "widen" and np.any(np.isinf(bounds) & np.isfinite(ref)):
        return "lost-bound", False
    return None, False


def bound_error(ref: np.ndarray, bounds: np.ndarray) -> float:
    """max |bound - reference| / max(1, |reference|), inf if unbounded."""
    with np.errstate(invalid="ignore"):
        err = np.abs(bounds - ref) / np.maximum(1.0, np.abs(ref))
    return float(np.max(np.nan_to_num(err, nan=math.inf)))


def _check_accelerate(item: Item, blob: bytes) -> str | None:
    rows = np.loadtxt(io.StringIO(blob.decode()), delimiter=",", skiprows=1, ndmin=2)
    values = rows[:, 1:3]
    seq = loops.lowpass2_iterates()
    if item.method == "aitken":
        # Aitken's delta-squared, column by column: no stalls on this data
        d1 = seq[1:-1] - seq[:-2]
        d2 = seq[2:] - 2.0 * seq[1:-1] + seq[:-2]
        expect = seq[:-2] - d1 * d1 / d2
        ok = values.shape == expect.shape and np.allclose(values, expect, rtol=1e-9, atol=1e-9)
        return None if ok else "aitken-mismatch"
    limit = loops.lowpass2_limit()
    err = np.max(np.abs(values[-1] - limit) / np.maximum(1.0, np.abs(limit)))
    return None if err <= ACCEL_CSV_TOL else "limit-mismatch"
