"""The program families and helpers that more than one test module uses.

Each family is built once here: the text families (``random_program``,
``gaussian_program``, ``row_program``) write their declarations and
their loop through ``loop_text``, and the sweep's ``Program`` is
``jacobi_program`` of its rows.  ``tests/test_families.py`` pins the
SHA-256 of every text the suite asks of them.

Each reference the suite checks the engine against is here once: the
precision reference ``exact_kleene`` with ``assert_contains_and_near``,
the plain loop's stop rule ``stop_reason_before``, and the record of a
whole run, ``hex_run``.
"""
import json
import math
import random

import numpy as np
import pytest

from fixaccel import EngineConfig, Interval, analyze, parse, programs
from fixaccel.intervals import BOTTOM
from fixaccel.programs import Assignment, Program


def loop_text(rhs, inputs, gauss_seidel):
    """A loop over states x0.. in [0.0, 1.0] and inputs u0.. in
    ``inputs``, one per right-hand side in ``rhs`` (each a list of
    terms): in Jacobi form (temporaries, then copies) or as a
    Gauss-Seidel sweep."""
    n = len(rhs)
    lines = [f"state x{i} in [0.0, 1.0];" for i in range(n)]
    lines += [f"input u{i} in {inputs};" for i in range(n)]
    lines.append("loop {")
    target = "x" if gauss_seidel else "t"
    lines += [f"  {target}{i} = " + " + ".join(terms).replace("+ -", "- ") + ";" for i, terms in enumerate(rhs)]
    if not gauss_seidel:
        lines += [f"  x{i} = t{i};" for i in range(n)]
    return "\n".join(lines + ["}"]) + "\n"


def random_program(seed: int, n: int, gauss_seidel: bool, nnz: int | None = None) -> str:
    """A contracting loop with random signs, rows of |A| summing to 0.95,
    a constant and one input in [-1.0, 2.0] per state.  Each row has
    ``nnz`` terms, over columns drawn by ``rng.sample`` and sorted, or
    all ``n`` if None.  Built with ``random`` and ``math.fsum`` only,
    whose results are the same on every platform and Python version."""
    rng = random.Random(seed)
    rhs = []
    for i in range(n):
        cols = range(n) if nnz is None else sorted(rng.sample(range(n), nnz))
        row = [rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0)) for _ in cols]
        scale = 0.95 / math.fsum(abs(a) for a in row)
        rhs.append([f"{a * scale!r}*x{j}" for j, a in zip(cols, row)] + [f"0.1*u{i}", repr(0.01 * i)])
    return loop_text(rhs, "[-1.0, 2.0]", gauss_seidel)


def gaussian_program(seed: int, n: int, rho: float) -> str:
    """A Jacobi loop with N(0, 1) coefficients scaled so that the
    spectral radius of |A| is about ``rho``, found by power iteration in
    plain floats; at rho = 0.97 the iterates have a long tail.  Built
    with ``random`` and ``math.fsum`` only, so the same on every
    platform."""
    rng = random.Random(seed)
    rows = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    v = [1.0] * n
    for _ in range(100):
        w = [math.fsum(abs(a) * vj for a, vj in zip(row, v)) for row in rows]
        top = max(w)
        v = [wi / top for wi in w]
    scale = rho / top
    rhs = [[f"{a * scale!r}*x{j}" for j, a in enumerate(row)] + [f"0.1*u{i}"] for i, row in enumerate(rows)]
    return loop_text(rhs, "[-1.0, 1.0]", False)


def row_program(seed, n, nnz, gauss_seidel=False, rho=None):
    """A loop over ``n`` states whose rows have ``nnz`` random terms
    (all ``n`` if None): the four body forms of the kleene-wide
    benchmark.  Each row's N(0, 1) coefficients are divided by their
    number, or, with ``rho``, by the sum of their magnitudes over ``rho``,
    so that the row of |A| sums to ``rho``.  It draws from NumPy's
    ``Generator``, whose streams NumPy may change between versions."""
    rng = np.random.default_rng(seed)
    rhs = []
    for i in range(n):
        cols = range(n) if nnz is None else rng.choice(n, nnz, replace=False)
        c = [rng.normal() for _ in cols]
        div = len(cols) if rho is None else math.fsum(map(abs, c)) / rho
        rhs.append([f"{a / div!r}*x{j}" for a, j in zip(c, cols)] + [f"0.1*u{i}"])
    return loop_text(rhs, "[-1.0, 1.0]", gauss_seidel)


def jacobi_program(rows):
    """The sweep's Jacobi loop ``t = A x + 0.1 u; x = t`` over x in
    [0, 1] and u in [-1, 1], built through the API, for the rows of A."""
    n = len(rows)
    body = [Assignment(f"t{i}", 0.0, (*((float(c), f"x{j}") for j, c in enumerate(row)), (0.1, f"u{i}")))
            for i, row in enumerate(rows)]
    body += [Assignment(f"x{i}", 0.0, ((1.0, f"t{i}"),)) for i in range(n)]
    return Program(tuple((f"x{i}", Interval(0.0, 1.0)) for i in range(n)),
                   tuple((f"u{i}", Interval(-1.0, 1.0)) for i in range(n)), tuple(body))


def gaussian_jacobi_program(n, rho, seed):
    """``jacobi_program`` of N(0, 1) coefficients from
    ``default_rng(seed)``, scaled so that the spectral radius of |A| is
    ``rho``.  The scale comes from ``np.linalg.eigvals``, a LAPACK call,
    so the coefficients may differ by ulps between BLAS builds.  It is
    the benchmark's ``perfbench/loops.py`` ``gaussian`` of the same
    generator, so one of the two can go."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= rho / np.max(np.abs(np.linalg.eigvals(np.abs(a))))
    return jacobi_program(a)


def scheduled_programs():
    """``row_program`` bodies with a level schedule: dense and sparse,
    Jacobi and Gauss-Seidel; and two built through the API with a Bottom
    state, whose rows with Bottom take ``affine_eval``: the first
    state, which the first join makes finite, or a new state ``z`` that
    reads only itself and stays Bottom."""
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


def relowered(p, **cuts):
    """A fresh copy of ``p``, lowered with the cuts of
    ``fixaccel.programs`` named in ``cuts`` (``BATCH_MIN_PRODUCTS``,
    ``LEVEL_MIN_PRODUCTS``, ``COMPOSE_LEVEL_PRODUCTS``) patched during
    its lowering only."""
    q = Program(p.state_vars, p.input_vars, p.body)
    with pytest.MonkeyPatch.context() as m:
        for name, value in cuts.items():
            m.setattr(programs, name, value)
        q.lowered  # lowered now, under the cuts, and kept
    return q


def hex_run(report, trace):
    """A run's rows, estimates, events, reasons and invariant, with every
    bound written by ``float.hex``."""
    def hexed(est):
        return est and [v if v is None else v.hex() for v in est]

    rows = [(r.index, [v.hex() for v in r.row], hexed(r.accel), r.event) for r in trace.records]
    bounds = [v.hex() for iv in report.invariant.intervals for v in (iv.lo, iv.hi)]
    return rows, trace.reason, report.reason, report.injections, bounds


def exact_kleene(p):
    """The precision reference: Kleene iteration to a bit-exact
    fixpoint, which is sound."""
    report, _ = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
    assert report.reason == "converged" and report.sound
    return report.invariant


def assert_contains_and_near(invariant, ref, tol):
    """Every bound of ``invariant`` contains the reference bound and
    lies within tol * max(1, |reference|) of it."""
    for (name, iv), (_, r) in zip(invariant, ref):
        assert iv.lo <= r.lo and iv.hi >= r.hi, name
        for b, rb in ((iv.lo, r.lo), (iv.hi, r.hi)):
            assert abs(b - rb) <= tol * max(1.0, abs(rb)), (name, b, rb)


def stop_reason_before(prev, x, tol):
    """The plain loop's stop rule on two rows: equality, then, where
    ``tol`` > 0, every bound equal or within ``tol``.  A bound infinite
    in both rows makes inf - inf, which warns outside ``np.errstate``."""
    prev, x = np.array(prev), np.array(x)
    if np.array_equal(x, prev):
        return "converged"
    if tol > 0.0 and ((prev == x) | (abs(prev - x) <= tol)).all():
        return "converged-tolerance"
    return None


def lost_bound_warnings(report) -> str:
    """The stderr ``fixaccel analyze`` prints with the --report file
    ``report``: one warning per variable with an infinite bound (a string
    in the JSON), in order, and nothing else."""
    invariant = json.loads(report.read_bytes())["invariant"]
    return "".join(f"warning: {v} has an infinite bound\n" for v, bounds in invariant.items()
                   if any(isinstance(b, str) for b in bounds.values()))


# finite data whose differences overflow
OVERFLOWING_CSV = "a,b\n1.7e308,1\n-1.7e308,2\n1.7e308,2.5\n-1.6e308,2.75\n1.5e308,2.875\n"


def rand_interval(rng, p_bottom=0.1, p_inf=0.2):
    """An interval from NumPy's ``rng``: Bottom with probability
    ``p_bottom``, else each bound infinite with probability ``p_inf``."""
    if rng.random() < p_bottom:
        return BOTTOM
    lo = -math.inf if rng.random() < p_inf else float(rng.normal(scale=10))
    hi = math.inf if rng.random() < p_inf else float(rng.normal(scale=10))
    if lo > hi:
        lo, hi = hi, lo
    if math.isinf(lo) and lo > 0:
        lo = -lo
    if math.isinf(hi) and hi < 0:
        hi = -hi
    return Interval(lo, hi)
