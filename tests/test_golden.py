"""Golden outputs: byte-exact CLI files and exact engine results.

The values below were recorded from the interval engine before the
loop body was lowered to a flat plan; the lowered engine must reproduce
them bit for bit.  Every path pinned by the CLI hashes and the Kleene
results is pure-Python float arithmetic (no BLAS, no transcendental
functions), so they do not depend on the platform.

The accel results were recorded from the engine that rebuilt the whole
epsilon-table at every step, before the estimator became incremental;
the incremental estimator must reproduce them bit for bit.  They go
through NumPy elementwise arithmetic, which is correctly rounded, and
vector-epsilon also through ``np.einsum`` dot products, whose summation
order is NumPy's (the pins held with its AVX512, AVX2 and baseline x86-64
kernels); the Gaussian program's coefficients come from ``random.gauss``.
"""
import hashlib
import math
import random

import pytest

from fixaccel import EngineConfig, analyze, bundled_source, load_bundled, parse
from fixaccel.cli import main

CONFIGS = {
    "kleene": ["--mode", "kleene"],
    "widen": ["--mode", "widen"],
    "widen-ladder": ["--mode", "widen", "--widen-delay", "5",
                     "--thresholds=-50,-5,-0.5,0.5,5,50"],
}

# (program, config) -> (sha256 of the --trace CSV, sha256 of the --report JSON)
GOLDEN_FILES = {
    ('filter3', 'kleene'): (
        '430ccc74cdbdcecb01ffac360118c1a87d807ef59e6a15b3d74e42c9524115c2',
        '0c96b9a2dde5b5bdfe6939c7fb300b4404dff360a9b32a4f4e46f8675f90140f',
    ),
    ('filter3', 'widen'): (
        '0f455770f6e73c0ec59971138e6b46419702192e255e2a11905f453358d18756',
        '1fb73ecbc3dfa4b5f3a33ab9584d8b1b579dd5d782fc6f28a0ba0719cd5efc7c',
    ),
    ('filter3', 'widen-ladder'): (
        'd6fa3bed6759456aba54ef34d45d9b07e42245b0e766c9a8c008d608d88c3aed',
        '5ab4d3fea94387ebb2caa1585bc230ed6801533bef446c3340870a84e6047f9d',
    ),
    ('lowpass1', 'kleene'): (
        'fdb85bd35c2e453bda574b0b99d720a92f9d699edb0efc7865f7a62e43554248',
        '7df85313855497d7738aae4a5d511cb3dcb6853966b06626c68f65d9257032ce',
    ),
    ('lowpass1', 'widen'): (
        '7c6b60fdb6757f1949897fc278dcbe16ba62d026d53a89d12ced18e5e0ffa63b',
        '95bf8efeb313bd36cfa1d99f52cc6fbdd98c57966fb22c4ff042b0af3d6246e5',
    ),
    ('lowpass1', 'widen-ladder'): (
        'ec28fce4ee7a7e6143d5af7df72bade99703ade3858b19746ddc95af6d548efb',
        '6d87d47aaf2eaa804b20e2bc5f2dda8ddc8d4bce780aac165ea219d7cbcf3c7e',
    ),
    ('contraction2', 'kleene'): (
        '08b01bfcaa12ceb75f990a62e7962e1d7a0650da9e2191c32213fa7e974a1ad5',
        '34cd453bc12842d4464a9ec653c8101e6c29755f94e08e61cd4322243fba435e',
    ),
    ('contraction2', 'widen'): (
        'c53ed93e3c0afb9160b3e406ed8829cca6c2faf989cf615e3fcfc590c9781369',
        'e2602b5888de972eaff0e3de0933bf997ea2e8e757151221609b9ed8ecc308fe',
    ),
    ('contraction2', 'widen-ladder'): (
        'f7a7a389c8b32f663c941646707bcea4e1520ef5faae577f24daa39eddf2ebaf',
        'b7fd137ada12df7fe7019571cb05b7b2194d3bdb3878ccb6d3cba3aee7a4e6f6',
    ),
}

# form -> (iterations, reason, invariant bounds as float.hex pairs)
GOLDEN_RANDOM = {
    'jacobi': (252, 'converged-tolerance+sealed', (
        ('-0x1.7922fc588e0eap+1', '0x1.86dd191acd5d2p+1'),
        ('-0x1.7432074716dc3p+1', '0x1.8bce0e2c448f5p+1'),
        ('-0x1.6e9fe5a922508p+1', '0x1.91602fca391afp+1'),
        ('-0x1.78656da51559ep+1', '0x1.879aa7ce4611ep+1'),
        ('-0x1.7760e7fa00c0cp+1', '0x1.889f2d795aaaep+1'),
        ('-0x1.7b73a4ffb6486p+1', '0x1.848c7073a5235p+1'),
        ('-0x1.7ae3845aa28a3p+1', '0x1.851c9118b8e18p+1'),
        ('-0x1.73d092a09906ep+1', '0x1.8c2f82d2c264bp+1'),
        ('-0x1.670f7520c7095p+1', '0x1.98f0a05294625p+1'),
        ('-0x1.6cae7c6fda46ep+1', '0x1.935199038124dp+1'),
        ('-0x1.70d002ecbc4f8p+1', '0x1.8f3012869f1c3p+1'),
        ('-0x1.6dbfe4c8be012p+1', '0x1.924030aa9d6a9p+1'),
    )),
    'gauss-seidel': (146, 'converged-tolerance+sealed', (
        ('-0x1.7922fcff66c45p+1', '0x1.86dd19c1a612cp+1'),
        ('-0x1.74320823b670bp+1', '0x1.8bce0f08e423cp+1'),
        ('-0x1.6e9fe698801efp+1', '0x1.916030b996e96p+1'),
        ('-0x1.78656ebeddbdfp+1', '0x1.879aa8e80e75ep+1'),
        ('-0x1.7760e927ded0ep+1', '0x1.889f2ea738baep+1'),
        ('-0x1.7b73a62d3589ap+1', '0x1.848c71a124647p+1'),
        ('-0x1.7ae385afb6a62p+1', '0x1.851c926dccfd6p+1'),
        ('-0x1.73d094052ab75p+1', '0x1.8c2f843754153p+1'),
        ('-0x1.670f769a9cefcp+1', '0x1.98f0a1cc6a48dp+1'),
        ('-0x1.6cae7e040e558p+1', '0x1.93519a97b5338p+1'),
        ('-0x1.70d00484d464ep+1', '0x1.8f30141eb7318p+1'),
        ('-0x1.6dbfe676f66d9p+1', '0x1.92403258d5d6ep+1'),
    )),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("program", ["filter3", "lowpass1", "contraction2"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cli_files_are_byte_identical(tmp_path, monkeypatch, capsys, program, config):
    # the report names the program path, so run from a fixed relative one
    monkeypatch.chdir(tmp_path)
    src = f"{program}.loop"
    (tmp_path / src).write_text(bundled_source(program))
    main(["analyze", src, *CONFIGS[config], "--trace", "t.csv", "--report", "r.json"])
    capsys.readouterr()
    got = (_sha(tmp_path / "t.csv"), _sha(tmp_path / "r.json"))
    assert got == GOLDEN_FILES[program, config]


def random_program(seed: int, n: int, gauss_seidel: bool) -> str:
    """A contracting loop with random signs, rows of |A| summing to 0.95,
    a constant and one input per state; the Jacobi form writes
    temporaries, then copies.  Built with ``random`` and ``math.fsum``,
    whose results are the same on every platform and Python version."""
    rng = random.Random(seed)
    rhs = []
    for i in range(n):
        row = [rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0)) for _ in range(n)]
        scale = 0.95 / math.fsum(abs(a) for a in row)
        terms = [f"{a * scale!r}*x{j}" for j, a in enumerate(row)]
        rhs.append(" + ".join(terms + [f"0.1*u{i}", repr(0.01 * i)]).replace("+ -", "- "))
    lines = [f"state x{i} in [0.0, 1.0];" for i in range(n)]
    lines += [f"input u{i} in [-1.0, 2.0];" for i in range(n)]
    lines.append("loop {")
    if gauss_seidel:
        lines += [f"  x{i} = {rhs[i]};" for i in range(n)]
    else:
        lines += [f"  t{i} = {rhs[i]};" for i in range(n)]
        lines += [f"  x{i} = t{i};" for i in range(n)]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("form", ["jacobi", "gauss-seidel"])
def test_random_program_results_are_bit_identical(form):
    p = parse(random_program(20260, 12, form == "gauss-seidel"))
    report, _ = analyze(p, EngineConfig(mode="kleene"))
    bounds = tuple((iv.lo.hex(), iv.hi.hex()) for iv in report.invariant.intervals)
    assert (report.iterations, report.reason, bounds) == GOLDEN_RANDOM[form]


METHODS = ("aitken", "epsilon", "vector-epsilon")

# (program, method, inject policy) -> (iterations, injections, reason,
# invariant bounds as float.hex pairs); default EngineConfig otherwise
GOLDEN_ACCEL = {
    ('filter3', 'aitken', 'once'): (25, 1, 'converged-tolerance+sealed', (
        ('-0x1.4ca527f54160cp+2', '0x1.1bf26602acc0dp+3'),
        ('-0x1.4ff7942e738eep+1', '0x1.640b3b9049225p+3'),
        ('-0x1.2e022ddfcd262p+2', '0x1.4000002ffd491p+4'),
    )),
    ('filter3', 'aitken', 'repeat'): (24, 9, 'converged', (
        ('-0x1.4ca5c9874279fp+2', '0x1.1bf28b9de6155p+3'),
        ('-0x1.4ff792ae89466p+1', '0x1.640b61fdcda83p+3'),
        ('-0x1.2e022d1fd801ep+2', '0x1.4000000000000p+4'),
    )),
    ('filter3', 'epsilon', 'once'): (11, 1, 'converged-tolerance+sealed', (
        ('-0x1.4ca3ee652a67ap+2', '0x1.1bf220c917581p+3'),
        ('-0x1.4fedcebe81fbep+1', '0x1.640b33a83500dp+3'),
        ('-0x1.2dff9aeaaa522p+2', '0x1.4000000000119p+4'),
    )),
    ('filter3', 'epsilon', 'repeat'): (11, 1, 'converged-tolerance+sealed', (
        ('-0x1.4ca3ee652a67ap+2', '0x1.1bf220c917581p+3'),
        ('-0x1.4fedcebe81fbep+1', '0x1.640b33a83500dp+3'),
        ('-0x1.2dff9aeaaa522p+2', '0x1.4000000000119p+4'),
    )),
    ('filter3', 'vector-epsilon', 'once'): (13, 1, 'converged-tolerance+sealed', (
        ('-0x1.4ca3ee652a6adp+2', '0x1.1bf220c917580p+3'),
        ('-0x1.4fedcebe820bdp+1', '0x1.640b33a83500cp+3'),
        ('-0x1.2dff9aeaaa5bdp+2', '0x1.4000000000119p+4'),
    )),
    ('filter3', 'vector-epsilon', 'repeat'): (13, 1, 'converged-tolerance+sealed', (
        ('-0x1.4ca3ee652a6adp+2', '0x1.1bf220c917580p+3'),
        ('-0x1.4fedcebe820bdp+1', '0x1.640b33a83500cp+3'),
        ('-0x1.2dff9aeaaa5bdp+2', '0x1.4000000000119p+4'),
    )),
    ('lowpass1', 'aitken', 'once'): (5, 1, 'converged-tolerance+sealed', (
        ('-0x1.19799812dea11p-40', '0x1.40226b90227ccp+4'),
        ('-0x1.19799812dea11p-40', '0x1.001b89401c176p+1'),
        ('0x1.e7a0f9096986ap-1', '0x1.40226b90227ccp+4'),
    )),
    ('lowpass1', 'aitken', 'repeat'): (5, 1, 'converged-tolerance+sealed', (
        ('-0x1.19799812dea11p-40', '0x1.40226b90227ccp+4'),
        ('-0x1.19799812dea11p-40', '0x1.001b89401c176p+1'),
        ('0x1.e7a0f9096986ap-1', '0x1.40226b90227ccp+4'),
    )),
    ('lowpass1', 'epsilon', 'once'): (6, 1, 'converged', (
        ('0x0.0p+0', '0x1.40226b90226c1p+4'),
        ('0x0.0p+0', '0x1.001b89401b89bp+1'),
        ('0x1.e7a0f9096bb99p-1', '0x1.40226b90226c1p+4'),
    )),
    ('lowpass1', 'epsilon', 'repeat'): (6, 1, 'converged', (
        ('0x0.0p+0', '0x1.40226b90226c1p+4'),
        ('0x0.0p+0', '0x1.001b89401b89bp+1'),
        ('0x1.e7a0f9096bb99p-1', '0x1.40226b90226c1p+4'),
    )),
    ('lowpass1', 'vector-epsilon', 'once'): (23, 0, 'converged', (
        ('0x0.0p+0', 'inf'),
        ('0x0.0p+0', 'inf'),
        ('0x1.e7a0f9096bb99p-1', 'inf'),
    )),
    ('lowpass1', 'vector-epsilon', 'repeat'): (23, 0, 'converged', (
        ('0x0.0p+0', 'inf'),
        ('0x0.0p+0', 'inf'),
        ('0x1.e7a0f9096bb99p-1', 'inf'),
    )),
    ('contraction2', 'aitken', 'once'): (17, 1, 'converged-tolerance+sealed', (
        ('-0x1.5566807172a98p-2', '0x1.0000033217124p+0'),
        ('-0x1.1133641734a74p-2', '0x1.0000033217124p+0'),
    )),
    ('contraction2', 'aitken', 'repeat'): (15, 8, 'converged-tolerance+sealed', (
        ('-0x1.556678743cbc6p-2', '0x1.0000000001198p+0'),
        ('-0x1.1133574edcc40p-2', '0x1.0000000001198p+0'),
    )),
    ('contraction2', 'epsilon', 'once'): (24, 1, 'converged-tolerance+sealed', (
        ('-0x1.5555630000002p-2', '0x1.0000036aaaaabp+0'),
        ('-0x1.1111199bbbbbep-2', '0x1.0000036aaaaabp+0'),
    )),
    ('contraction2', 'epsilon', 'repeat'): (24, 1, 'converged-tolerance+sealed', (
        ('-0x1.5555630000002p-2', '0x1.0000036aaaaabp+0'),
        ('-0x1.1111199bbbbbep-2', '0x1.0000036aaaaabp+0'),
    )),
    ('contraction2', 'vector-epsilon', 'once'): (7, 1, 'converged', (
        ('-0x1.5555555555559p-2', '0x1.0000000000000p+0'),
        ('-0x1.1111111111117p-2', '0x1.0000000000000p+0'),
    )),
    ('contraction2', 'vector-epsilon', 'repeat'): (7, 1, 'converged', (
        ('-0x1.5555555555559p-2', '0x1.0000000000000p+0'),
        ('-0x1.1111111111117p-2', '0x1.0000000000000p+0'),
    )),
}

# method -> the same, for gaussian_program(1, 8, 0.97) with the repeat
# policy and fallback after 200 iterations
GOLDEN_GAUSSIAN = {
    'aitken': (37, 17, 'converged', (
        ('-0x1.004e0397bd305p+2', '0x1.004e01c7f63fbp+2'),
        ('-0x1.3774747252babp+1', '0x1.37747d1792fcap+1'),
        ('-0x1.83af6b5dc846ap+1', '0x1.83af43ff985e4p+1'),
        ('-0x1.2b53970d7a4d7p+1', '0x1.2b53ade2fb6a3p+1'),
        ('-0x1.3c0e3fbdb5734p+1', '0x1.3c0e3ea2c9505p+1'),
        ('-0x1.11e08eead3cc1p+2', '0x1.11e086d269e83p+2'),
        ('-0x1.1ba0344f62f11p+2', '0x1.1ba000c9b2821p+2'),
        ('-0x1.b7c01f2cafca7p+1', '0x1.b7c0537956d61p+1'),
    )),
    'epsilon': (106, 2, 'converged-tolerance+sealed', (
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
    )),
    'vector-epsilon': (34, 1, 'converged-tolerance+sealed', (
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
        ('-inf', 'inf'),
    )),
}


def _pinned(report):
    bounds = tuple((iv.lo.hex(), iv.hi.hex()) for iv in report.invariant.intervals)
    return (report.iterations, report.injections, report.reason, bounds)


@pytest.mark.parametrize("program", ["filter3", "lowpass1", "contraction2"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("policy", ["once", "repeat"])
def test_accel_results_are_bit_identical(program, method, policy):
    cfg = EngineConfig(mode="accel", method=method, inject_policy=policy)
    report, _ = analyze(load_bundled(program), cfg)
    assert _pinned(report) == GOLDEN_ACCEL[program, method, policy]


def gaussian_program(seed: int, n: int, rho: float) -> str:
    """A Jacobi loop with N(0, 1) coefficients scaled so that the
    spectral radius of |A| is about ``rho``, found by power iteration in
    plain floats; at rho = 0.97 the iterates have a long tail."""
    rng = random.Random(seed)
    rows = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    v = [1.0] * n
    for _ in range(100):
        w = [math.fsum(abs(a) * vj for a, vj in zip(row, v)) for row in rows]
        top = max(w)
        v = [wi / top for wi in w]
    scale = rho / top
    lines = [f"state x{i} in [0.0, 1.0];" for i in range(n)]
    lines += [f"input u{i} in [-1.0, 1.0];" for i in range(n)]
    lines.append("loop {")
    for i, row in enumerate(rows):
        terms = [f"{a * scale!r}*x{j}" for j, a in enumerate(row)] + [f"0.1*u{i}"]
        lines.append(f"  t{i} = " + " + ".join(terms).replace("+ -", "- ") + ";")
    lines += [f"  x{i} = t{i};" for i in range(n)]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("method", METHODS)
def test_gaussian_accel_results_are_bit_identical(method):
    p = parse(gaussian_program(1, 8, 0.97))
    cfg = EngineConfig(mode="accel", method=method, inject_policy="repeat",
                       fallback_after=200)
    report, _ = analyze(p, cfg)
    assert _pinned(report) == GOLDEN_GAUSSIAN[method]


# (seed, n, rho, method, inject policy) -> (number of estimate rows,
# sha256 of their ``float.hex`` text, as ``_accel_digest`` writes it);
# gaussian_program(seed, n, rho), once with fallback after 20 iterations
# and repeat with fallback after 200, as in the benchmark's accel-tail.
# The invariants of the epsilon methods above are [-inf, inf], so these
# pin the estimates themselves.  They were recorded from the estimator
# that applied the stall rule cell by cell along each antidiagonal.
GOLDEN_GAUSSIAN_ESTIMATES = {
    (1, 8, 0.97, 'aitken', 'once'): (19, '96eb8a990b650f16a34a1e4207517d2d33016bd63df62ad86696fd59a9090c34'),
    (1, 8, 0.97, 'aitken', 'repeat'): (36, '4c0c2753b3409dfed918d401e359d7fd21b125ae9e60acfa95db1b0444a1f819'),
    (1, 8, 0.97, 'epsilon', 'once'): (10, 'bb505032bc4325681b98fbbddb0603aed1a26539c345ca38d4174be74cd63b14'),
    (1, 8, 0.97, 'epsilon', 'repeat'): (53, 'f59040eca0e7a38d0a7f38ae80a2da885dbefd0e95f047cf96d75f3a56a39aa1'),
    (1, 8, 0.97, 'vector-epsilon', 'once'): (10, '05df29d457cc1c00f52c0907f99753dd2800af141a181407ff989ff7ce974527'),
    (1, 8, 0.97, 'vector-epsilon', 'repeat'): (17, 'c62bab488e6f1c089e12e683ae259d79291f52e40c1c9dbb6c4aae61e72a3b7f'),
    (2, 16, 0.9, 'aitken', 'once'): (14, '2ca04d374a2016653fdbe0e35321fadaa3b302eb68f5ec9d7aa07fa4c396f9c2'),
    (2, 16, 0.9, 'aitken', 'repeat'): (33, 'e779636c84197e37d559c8d35eaa612840988dca63228004ee5b92616d3807a1'),
    (2, 16, 0.9, 'epsilon', 'once'): (10, 'ce48d0e0d10e0f4579df3d75bb4572579ca892ca9d96754bea1213436548291a'),
    (2, 16, 0.9, 'epsilon', 'repeat'): (19, 'f5b5960cae6fde643ae0b346e3d997d59212cc9426c60c6d36c756e506318be6'),
    (2, 16, 0.9, 'vector-epsilon', 'once'): (9, '5df3557da3441ba7fc658443ba38a680f269476b72c9faf67d052c5d2eb528ed'),
    (2, 16, 0.9, 'vector-epsilon', 'repeat'): (29, 'c7a5cd5dfacd65aafdfcc59c22857ce9b7eab6b93b37595bfa28d7c7965a8464'),
}


def _accel_digest(trace):
    """The number of trace records with an estimate, and the sha256 of
    one line per such record: its index, then every coordinate's
    estimate as ``float.hex`` (``-`` where there is none)."""
    h = hashlib.sha256()
    rows = [r for r in trace.records if r.accel is not None]
    for r in rows:
        cells = ",".join("-" if v is None else v.hex() for v in r.accel)
        h.update(f"{r.index}:{cells}\n".encode())
    return len(rows), h.hexdigest()


@pytest.mark.parametrize("seed, n, rho", [(1, 8, 0.97), (2, 16, 0.9)])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("policy, fallback", [("once", 20), ("repeat", 200)])
def test_gaussian_estimates_are_bit_identical(seed, n, rho, method, policy, fallback):
    p = parse(gaussian_program(seed, n, rho))
    cfg = EngineConfig(mode="accel", method=method, inject_policy=policy,
                       fallback_after=fallback)
    _, trace = analyze(p, cfg)
    assert _accel_digest(trace) == GOLDEN_GAUSSIAN_ESTIMATES[seed, n, rho, method, policy]
