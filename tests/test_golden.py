"""Golden outputs: byte-exact CLI files and exact engine results.

The values below were recorded from the interval engine before the
loop body was lowered to a flat plan; the lowered engine must reproduce
them bit for bit.  Every path pinned by the CLI hashes and the Kleene
results is pure-Python float arithmetic (no BLAS, no transcendental
functions), so they do not depend on the platform.

The accel results were recorded from the engine that verifies each
injection and ends at the first one that verifies, with epsilon
estimates taken from the newest cell of the deepest even column.  The
Aitken entries were re-recorded when Aitken became column 2 of the
epsilon-table, which rounds its element in the rhombus form.  The
kleene and widen files were recorded earlier; their reports were
re-recorded when the default ``delta`` moved to 1e-6, which is the only
line of them that changed.  The accel results go
through NumPy elementwise arithmetic, which is correctly rounded, and
vector-epsilon also through ``np.einsum`` dot products, whose summation
order is NumPy's (the pins held with its AVX512, AVX2 and baseline x86-64
kernels); the Gaussian program's coefficients come from ``random.gauss``.
The Kleene rows of a dense Gauss-Seidel sweep (``GOLDEN_COMPOSED``) come
from the body's composed linear map: NumPy elementwise multiplies and
``np.add.reduce`` along axis 0, which adds one row at a time, so they
do not depend on the NumPy version or the BLAS build either.
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
        '2f8286ae777c62dc9258dfd199b77234bdc757de1e180c25dd7356b6951a3e3d',
    ),
    ('filter3', 'widen'): (
        '0f455770f6e73c0ec59971138e6b46419702192e255e2a11905f453358d18756',
        'c933ee1f33be699258857274991220bf2329700d874d56c66d53f3759871204a',
    ),
    ('filter3', 'widen-ladder'): (
        'd6fa3bed6759456aba54ef34d45d9b07e42245b0e766c9a8c008d608d88c3aed',
        '2a2db5fbcbad5757b8e7ceb4cf1bed892ee24fef94aff085b24c472507bc9f40',
    ),
    ('lowpass1', 'kleene'): (
        'fdb85bd35c2e453bda574b0b99d720a92f9d699edb0efc7865f7a62e43554248',
        '35de24c0c7b10b01b317e2e66b2014466a5c2a1009a0af1e0d2e2fb4431d83d2',
    ),
    ('lowpass1', 'widen'): (
        '7c6b60fdb6757f1949897fc278dcbe16ba62d026d53a89d12ced18e5e0ffa63b',
        '0125244329faa16a2b120d890fb3ff9de6a4f71005a64e50d55bbec3e0cd257e',
    ),
    ('lowpass1', 'widen-ladder'): (
        'ec28fce4ee7a7e6143d5af7df72bade99703ade3858b19746ddc95af6d548efb',
        '41588372b620e3b52ec54e3211db1b7c5852c0b5dea5d3bbd2d78b843af7c50f',
    ),
    ('contraction2', 'kleene'): (
        '08b01bfcaa12ceb75f990a62e7962e1d7a0650da9e2191c32213fa7e974a1ad5',
        'f8e7ed2fcd50d4d6c983ab0573b7c75b926d5c2cd13654ff15b43f036592f98b',
    ),
    ('contraction2', 'widen'): (
        'c53ed93e3c0afb9160b3e406ed8829cca6c2faf989cf615e3fcfc590c9781369',
        '60afcd950d15cf2c00b7de8fbb3b293a3772cad4ce0187d80f025bd5fd982565',
    ),
    ('contraction2', 'widen-ladder'): (
        'f7a7a389c8b32f663c941646707bcea4e1520ef5faae577f24daa39eddf2ebaf',
        '5c4e754d61d0be9a8ba604ff8bf60c37e3d84982a1db9f88cfe93c3386ceb215',
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
    ('filter3', 'aitken', 'once'): (21, 1, 'verified-injection', (
        ('-0x1.4ca3ee7b03f0fp+2', '0x1.1bf220d3eba50p+3'),
        ('-0x1.4fedcef1cbf62p+1', '0x1.640b33b0e60c2p+3'),
        ('-0x1.2dff9b0726c89p+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'aitken', 'repeat'): (21, 1, 'verified-injection', (
        ('-0x1.4ca3ee7b03f0fp+2', '0x1.1bf220d3eba50p+3'),
        ('-0x1.4fedcef1cbf62p+1', '0x1.640b33b0e60c2p+3'),
        ('-0x1.2dff9b0726c89p+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'epsilon', 'once'): (12, 1, 'verified-injection', (
        ('-0x1.4ca3ee7a5a444p+2', '0x1.1bf220d5e87d5p+3'),
        ('-0x1.4fedced77784bp+1', '0x1.640b33b91a496p+3'),
        ('-0x1.2dff9afee3378p+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'epsilon', 'repeat'): (12, 1, 'verified-injection', (
        ('-0x1.4ca3ee7a5a444p+2', '0x1.1bf220d5e87d5p+3'),
        ('-0x1.4fedced77784bp+1', '0x1.640b33b91a496p+3'),
        ('-0x1.2dff9afee3378p+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'vector-epsilon', 'once'): (12, 1, 'verified-injection', (
        ('-0x1.4ca3ee78cb1cep+2', '0x1.1bf220d540529p+3'),
        ('-0x1.4fedced6035d8p+1', '0x1.640b33b811120p+3'),
        ('-0x1.2dff9afd8cc5ep+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'vector-epsilon', 'repeat'): (12, 1, 'verified-injection', (
        ('-0x1.4ca3ee78cb1cep+2', '0x1.1bf220d540529p+3'),
        ('-0x1.4fedced6035d8p+1', '0x1.640b33b811120p+3'),
        ('-0x1.2dff9afd8cc5ep+2', '0x1.400000055e63cp+4'),
    )),
    ('lowpass1', 'aitken', 'once'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958162bp+4'),
        ('0x0.0p+0', '0x1.001b89446783ap+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958162bp+4'),
    )),
    ('lowpass1', 'aitken', 'repeat'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958162bp+4'),
        ('0x0.0p+0', '0x1.001b89446783ap+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958162bp+4'),
    )),
    ('lowpass1', 'epsilon', 'once'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958162bp+4'),
        ('0x0.0p+0', '0x1.001b89446783ap+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958162bp+4'),
    )),
    ('lowpass1', 'epsilon', 'repeat'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958162bp+4'),
        ('0x0.0p+0', '0x1.001b89446783ap+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958162bp+4'),
    )),
    ('lowpass1', 'vector-epsilon', 'once'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958161fp+4'),
        ('0x0.0p+0', '0x1.001b894467833p+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958161fp+4'),
    )),
    ('lowpass1', 'vector-epsilon', 'repeat'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958161fp+4'),
        ('0x0.0p+0', '0x1.001b894467833p+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958161fp+4'),
    )),
    ('contraction2', 'aitken', 'once'): (12, 1, 'verified-injection', (
        ('-0x1.55555564eb372p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111123645f8p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'aitken', 'repeat'): (12, 1, 'verified-injection', (
        ('-0x1.55555564eb372p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111123645f8p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'epsilon', 'once'): (6, 1, 'verified-injection', (
        ('-0x1.5555555b0f5b2p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111115a5e12p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'epsilon', 'repeat'): (6, 1, 'verified-injection', (
        ('-0x1.5555555b0f5b2p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111115a5e12p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'vector-epsilon', 'once'): (5, 1, 'verified-injection', (
        ('-0x1.5555555b0f576p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111115a5e06p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'vector-epsilon', 'repeat'): (5, 1, 'verified-injection', (
        ('-0x1.5555555b0f576p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111115a5e06p-2', '0x1.000000044b830p+0'),
    )),
}

# method -> the same, for gaussian_program(1, 8, 0.97) with the repeat
# policy and fallback after 200 iterations
GOLDEN_GAUSSIAN = {
    'aitken': (25, 1, 'verified-injection', (
        ('-0x1.004b6f45d76c3p+2', '0x1.004b6f456df45p+2'),
        ('-0x1.37716071c7222p+1', '0x1.37716072f7e2fp+1'),
        ('-0x1.83ab86247078bp+1', '0x1.83ab8622e94eep+1'),
        ('-0x1.2b50b2abd8a4fp+1', '0x1.2b50b2ac8b563p+1'),
        ('-0x1.3c0b2c264814ep+1', '0x1.3c0b2c2527908p+1'),
        ('-0x1.11ddd9072e323p+2', '0x1.11ddd906941c2p+2'),
        ('-0x1.1b9d2c6555441p+2', '0x1.1b9d2c6518051p+2'),
        ('-0x1.b7bb563f996b2p+1', '0x1.b7bb563f6e82bp+1'),
    )),
    'epsilon': (24, 1, 'verified-injection', (
        ('-0x1.004b6f39ecb3bp+2', '0x1.004b6f3a223e2p+2'),
        ('-0x1.3771606451103p+1', '0x1.37716064c186bp+1'),
        ('-0x1.83ab861175b66p+1', '0x1.83ab861350901p+1'),
        ('-0x1.2b50b29e542ebp+1', '0x1.2b50b29f8995ap+1'),
        ('-0x1.3c0b2c172462ap+1', '0x1.3c0b2c1815c4dp+1'),
        ('-0x1.11ddd8f9f8371p+2', '0x1.11ddd8fad240bp+2'),
        ('-0x1.1b9d2c5824f3dp+2', '0x1.1b9d2c5898518p+2'),
        ('-0x1.b7bb562b8d812p+1', '0x1.b7bb562b9f9c5p+1'),
    )),
    'vector-epsilon': (24, 1, 'verified-injection', (
        ('-0x1.004b6f3e81ca0p+2', '0x1.004b6f3eff324p+2'),
        ('-0x1.3771606a75e2cp+1', '0x1.37716069ea80ep+1'),
        ('-0x1.83ab86186b4f0p+1', '0x1.83ab861a7cec2p+1'),
        ('-0x1.2b50b2a3e19a8p+1', '0x1.2b50b2a4caa91p+1'),
        ('-0x1.3c0b2c1caee39p+1', '0x1.3c0b2c1e055bcp+1'),
        ('-0x1.11ddd8ff2a10bp+2', '0x1.11ddd8ffc9b08p+2'),
        ('-0x1.1b9d2c5d7fdc7p+2', '0x1.1b9d2c5db8241p+2'),
        ('-0x1.b7bb5633db3afp+1', '0x1.b7bb56337d968p+1'),
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



@pytest.mark.xfail(strict=True, reason="the kleene seal pads every bound by the same amount, "
                   "which closes only when every row of |A| sums below 1; on this loop it "
                   "ends at [-inf, inf] (ROADMAP item 1, the exact finish)")
def test_kleene_keeps_the_bounds_of_a_contracting_loop():
    # |A| has spectral radius 0.97 but rows that sum above 1; an exact
    # stop (stop_tol=0) ends at finite bounds after about a thousand steps
    p = parse(gaussian_program(1, 8, 0.97))
    report, _ = analyze(p, EngineConfig(mode="kleene"))
    exact, _ = analyze(p, EngineConfig(mode="kleene", stop_tol=0.0))
    assert exact.converged and exact.sound
    for iv, ref in zip(report.invariant.intervals, exact.invariant.intervals):
        assert math.isfinite(iv.lo) and math.isfinite(iv.hi)
        assert iv.lo <= ref.lo and ref.hi <= iv.hi
        assert ref.lo - iv.lo <= 1e-6 * max(1.0, abs(ref.lo))
        assert iv.hi - ref.hi <= 1e-6 * max(1.0, abs(ref.hi))

# (seed, n, rho, method, inject policy) -> (number of estimate rows,
# sha256 of their ``float.hex`` text, as ``_accel_digest`` writes it);
# gaussian_program(seed, n, rho), once with fallback after 20 iterations
# and repeat with fallback after 200, as in the benchmark's accel-tail.
# These pin the estimates themselves, every one the trace records.
GOLDEN_GAUSSIAN_ESTIMATES = {
    (1, 8, 0.97, 'aitken', 'once'): (24, '396a2cd93d6c4a54bc11c79bad0c635aa8eed304bc8dbb58ab039c2ef216b594'),
    (1, 8, 0.97, 'aitken', 'repeat'): (24, '396a2cd93d6c4a54bc11c79bad0c635aa8eed304bc8dbb58ab039c2ef216b594'),
    (1, 8, 0.97, 'epsilon', 'once'): (23, '7831fce206a55ea8db6ab176a3d5619d2056189e0a82211e4346ca29a923eb81'),
    (1, 8, 0.97, 'epsilon', 'repeat'): (23, '7831fce206a55ea8db6ab176a3d5619d2056189e0a82211e4346ca29a923eb81'),
    (1, 8, 0.97, 'vector-epsilon', 'once'): (23, '7c55c5f219a886754164d60baec438fa3c17e928d13e56d79f2179146c4aaa08'),
    (1, 8, 0.97, 'vector-epsilon', 'repeat'): (23, '7c55c5f219a886754164d60baec438fa3c17e928d13e56d79f2179146c4aaa08'),
    (2, 16, 0.9, 'aitken', 'once'): (30, 'ad9bc3e3a44becedf4e5e5c977592c1f3912c5756bfd52b839860c0977d8c3b0'),
    (2, 16, 0.9, 'aitken', 'repeat'): (27, 'e7ac4d9a444689ac63a71ce3f75e631ce78622f9f76f8269542f6fd794e21bc8'),
    (2, 16, 0.9, 'epsilon', 'once'): (31, 'bba39d124641ba9ad6f9b4f8a44c20fbdac3885697d4eccf1a0fe04bc81f84ed'),
    (2, 16, 0.9, 'epsilon', 'repeat'): (29, '436aa742c8550a263126b609398510fc9d7b4979888b5414d01da4a39241a93c'),
    (2, 16, 0.9, 'vector-epsilon', 'once'): (30, '173a4ed5e3e4721b34971ef4b1aae497591b6011bef020e8dcbbdfb4a3b6e4c7'),
    (2, 16, 0.9, 'vector-epsilon', 'repeat'): (28, '5196638c4510941bbbcd53a60dc2c1053f6136f72f9648ed48bf6d3e4c79fb61'),
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


# stop_tol -> (iterations, reason, sha256 of the run as ``_kleene_digest``
# writes it) for the kleene runs of random_program(2029, 64, True), a
# dense Gauss-Seidel sweep whose plain loop takes its rows from the
# body's composed linear map.  The map and its products are elementwise
# multiplies and np.add.reduce along axis 0, never BLAS, so these pins
# hold across NumPy versions and BLAS builds.
GOLDEN_COMPOSED = {
    3e-7: (138, 'converged-tolerance+sealed', '5f1853578244e63e583ce48ba9ae93dd4392ff4c31c655cb286ec6db8f72bb8c'),
    0.0: (447, 'converged', 'e9990c78b27d41c5fa42b66844409dab90402f642987536f3a04c126c4ed49e9'),
}


def _kleene_digest(report, trace):
    """The sha256 of one line per trace row, each bound by ``float.hex``,
    then one line of the invariant's bounds."""
    h = hashlib.sha256()
    for row in trace.rows:
        h.update((",".join(v.hex() for v in row.tolist()) + "\n").encode())
    bounds = [v for iv in report.invariant.intervals for v in (iv.lo, iv.hi)]
    h.update((",".join(v.hex() for v in bounds) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("stop_tol", sorted(GOLDEN_COMPOSED))
def test_composed_kleene_rows_are_bit_identical(stop_tol):
    p = parse(random_program(2029, 64, True))
    assert p.lowered.composed is not None
    report, trace = analyze(p, EngineConfig(mode="kleene", stop_tol=stop_tol))
    assert report.sound
    assert (report.iterations, report.reason, _kleene_digest(report, trace)) == GOLDEN_COMPOSED[stop_tol]


# stop_tol -> (iterations, reason, sha256 as ``_kleene_digest`` writes it)
# for the kleene runs of random_program(2030, 128, True), a dense
# Gauss-Seidel sweep of 128 levels, each 2 bounds wide, that keeps no
# composed map: every row comes from the level schedule, whose sums are
# np.add.reduce along axis 0 of tables 130 rows deep.  The pins hold only
# while that reduce adds the rows in order on every NumPy version.
GOLDEN_NARROW_CHAIN = {
    3e-7: (136, 'converged-tolerance+sealed', '4044cbd98cb0a19957ebf094bdd0fc9511cf8f4c84fa988c06807086a8dc0775'),
    0.0: (393, 'converged', 'd4686a7d2251397fe4cda9f618e3c817f19cfa8b0bfd57e4447a954f14d0a4cd'),
}


@pytest.mark.parametrize("stop_tol", sorted(GOLDEN_NARROW_CHAIN))
def test_narrow_chain_kleene_rows_are_bit_identical(stop_tol):
    p = parse(random_program(2030, 128, True))
    lowered = p.lowered
    assert lowered.composed is None
    assert [stop - start for _, _, start, stop in lowered.schedule[1]] == [2] * 128
    report, trace = analyze(p, EngineConfig(mode="kleene", stop_tol=stop_tol))
    assert report.sound
    assert (report.iterations, report.reason, _kleene_digest(report, trace)) == GOLDEN_NARROW_CHAIN[stop_tol]
