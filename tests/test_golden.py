"""Golden outputs: byte-exact CLI files and exact engine results.

The values below were recorded from the interval engine before the
loop body was lowered to a flat plan; the lowered engine must reproduce
them bit for bit.  Every path pinned here is pure-Python float
arithmetic (no BLAS, no transcendental functions), so the hashes do not
depend on the platform.  The accel modes go through NumPy transforms and
are not pinned here.
"""
import hashlib
import math
import random

import pytest

from fixaccel import EngineConfig, analyze, bundled_source, parse
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
