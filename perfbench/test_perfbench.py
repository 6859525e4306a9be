"""Tests of the benchmark's own parts: reference, classifier, generators,
determinism and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import loops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def stationary_bounds(loop: loops.Loop) -> np.ndarray:
    """Solve lo = A+ lo + A- hi + c_lo, hi = A+ hi + A- lo + c_hi."""
    n = len(loop.states)
    ap, an = np.maximum(loop.A, 0), np.minimum(loop.A, 0)
    bp, bn = np.maximum(loop.B, 0), np.minimum(loop.B, 0)
    ulo, uhi = loop.ranges[:, 0], loop.ranges[:, 1]
    M = np.eye(2 * n) - np.block([[ap, an], [an, ap]])
    rhs = np.concatenate([bp @ ulo + bn @ uhi, bp @ uhi + bn @ ulo])
    sol = np.linalg.solve(M, rhs)
    return np.column_stack([sol[:n], sol[n:]])


@pytest.mark.parametrize("gauss_seidel", [False, True])
def test_reference_matches_linear_solve_when_x0_inside_limit(gauss_seidel):
    rng = np.random.default_rng(7)
    loop = loops.row_normalised(rng, 12, 0.95, None, gauss_seidel)
    limit = stationary_bounds(loop)
    mid, half = limit.mean(axis=1), (limit[:, 1] - limit[:, 0]) / 4
    inside = loops.Loop(loop.states, np.column_stack([mid - half, mid + half]),
                        loop.inputs, loop.ranges, loop.A, loop.B, loop.order)
    ref = loops.reference_fixpoint(inside)
    assert np.allclose(ref, limit, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nnz", [None, 8])
def test_row_normalised_generator_has_the_requested_radius(nnz):
    loop = loops.row_normalised(np.random.default_rng(3), 64, 0.95, nnz, False)
    assert abs(loops.spectral_radius(np.abs(loop.A)) - 0.95) <= 1e-12
    if nnz is not None:
        assert np.all(np.count_nonzero(loop.A, axis=1) == nnz)


def test_gaussian_generator_has_the_requested_radius():
    loop = loops.gaussian(np.random.default_rng(3), 16, 0.97)
    assert abs(loops.spectral_radius(np.abs(loop.A)) - 0.97) <= 1e-12


def test_classifier_flags_lost_upper_bounds_of_lowpass1():
    ref = loops.reference_fixpoint(loops.BUNDLED["lowpass1"])
    top = ref.copy()
    top[:, 1] = np.inf  # vea on lowpass1 reports every upper bound as +inf
    assert workloads.classify("accel", ref, top, True, True) == ("lost-bound", False)
    assert workloads.classify("widen", ref, top, True, True) == (None, False)
    assert workloads.classify("accel", ref, ref, True, True) == (None, False)


def test_classifier_separates_wrong_from_failed():
    ref = loops.reference_fixpoint(loops.BUNDLED["filter3"])
    tight = ref.copy()
    tight[0, 1] -= 1e-3
    assert workloads.classify("kleene", ref, tight, True, True) == ("not-contained", True)
    assert workloads.classify("kleene", ref, tight, False, True) == ("not-sound", False)
    assert workloads.classify("kleene", ref, ref, True, False) == ("not-converged", False)


def test_bundled_transcriptions_match_the_package_data():
    import fixaccel

    for name, loop in loops.BUNDLED.items():
        assert fixaccel.parse(loops.render(loop)) == fixaccel.load_bundled(name)
    shipped = fixaccel.bundled_path("lowpass2_iterates.csv").read_text()
    assert loops.lowpass2_csv() == shipped


def test_inputs_depend_on_the_seed_only(tmp_path):
    def texts(seed):
        return [(it.id, it.text, tuple(it.argv))
                for name in ("cli-bundled", "accel-tail")
                for it in next(workloads.rounds(name, seed, tmp_path))]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def test_rounds_are_deterministic_and_tracing_changes_nothing(tmp_path):
    import fixaccel

    items = next(workloads.rounds("cli-bundled", 1, tmp_path))
    loop = loops.row_normalised(np.random.default_rng(5), 6, 0.9, None, True)
    items.append(workloads.Item(
        id="small", group="small", mode="kleene", ref=loops.reference_fixpoint(loop),
        text=loops.render(loop), cfg=fixaccel.EngineConfig(mode="kleene")))
    first = [workloads.execute(it) for it in items]
    assert [o.signature for o in first] == [workloads.execute(it).signature for it in items]
    assert not any(o.wrong for o in first)

    tr = tracer.Tracer()
    api = (tr.wrap("programs.parse", fixaccel.parse),
           tr.wrap("engine.analyze", fixaccel.analyze))
    tr.install()
    try:
        tr.analysis = 0
        small = workloads.execute(items[-1], api)
    finally:
        tr.uninstall()
    assert small.signature == first[-1].signature
    assert not tr.missing
    info = {0: {"mode": "kleene", "iterations": small.iterations,
                "injections": small.injections, "bytes": 0}}
    m = tracer.layer_metrics(tr, info, 1)
    assert m["transforms.estimate_calls"][0] == 0
    assert m["programs.transfer_calls"][0] == (
        small.iterations + 1 + m["engine.seal_transfers"][0])
    assert m["engine.self_ms"][0] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
