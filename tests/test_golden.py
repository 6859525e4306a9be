"""Golden outputs: byte-exact CLI files and exact engine results.

The values below were recorded from the interval engine before the
loop body was lowered to a flat plan; the lowered engine must reproduce
them bit for bit.  Every path pinned by the CLI traces and the Kleene
rows is pure-Python float arithmetic (no BLAS, no transcendental
functions), so they do not depend on the platform; the finish of a
kleene tolerance stop goes through NumPy, as described below.

The accel results were recorded from the engine that verifies each
injection and ends at the first one that verifies, with epsilon
estimates taken from the newest cell of the deepest even column.  The
Aitken entries were re-recorded when Aitken became column 2 of the
epsilon-table, which rounds its element in the rhombus form.  The
kleene and widen files were recorded earlier; their reports were
re-recorded when the default ``delta`` moved to 1e-6, which is the only
line of them that changed.  Every kleene result that stops on the
tolerance (the kleene reports, ``GOLDEN_RANDOM`` and the 3e-7 entries
of the dense sweeps) was re-recorded when the vector-epsilon finish
replaced the seal; the trace rows and iteration counts stayed bit for
bit, and only the invariant and the reason moved.  The accel results go
through NumPy elementwise arithmetic, which is correctly rounded, and
vector-epsilon also through ``np.einsum`` dot products, whose summation
order is NumPy's (the pins held with its AVX512, AVX2 and baseline x86-64
kernels), and so does the kleene finish's vector table; the Gaussian
program's coefficients come from ``random.gauss``.
The Kleene rows of a dense Gauss-Seidel sweep (``GOLDEN_COMPOSED``), and
the rows its accel runs watch (``GOLDEN_COMPOSED_ACCEL``), come from the
body's composed linear map: NumPy elementwise multiplies and
``np.add.reduce`` along the contiguous axis of the transposed table,
which NumPy sums pairwise.  They do not depend on the BLAS build; they
hold on every NumPy version that keeps that pairwise order.
"""
import hashlib
import json

import pytest

from fixaccel import EngineConfig, ThresholdSet, analyze, bundled_path, bundled_source, load_bundled, parse
from fixaccel.cli import main
from families import (OVERFLOWING_CSV, SCHEDULED, assert_contains_and_near, exact_kleene, gaussian_program, hex_run,
                      lost_bound_warnings, random_program)

CONFIGS = {
    "kleene": ["--mode", "kleene"],
    "widen": ["--mode", "widen"],
    "widen-ladder": ["--mode", "widen", "--widen-delay", "5",
                     "--thresholds=-50,-5,-0.5,0.5,5,50"],
    "accel-aitken": ["--mode", "accel", "--method", "aitken"],
    "accel-epsilon": ["--mode", "accel", "--method", "epsilon"],
    "accel-vea": ["--mode", "accel", "--method", "vea"],
}

# (program, config) -> (sha256 of the --trace CSV, sha256 of the --report JSON);
# the accel entries, whose traces hold estimate rows, were recorded before
# the CLI wrote each file in one pass
GOLDEN_FILES = {
    ('filter3', 'kleene'): (
        '430ccc74cdbdcecb01ffac360118c1a87d807ef59e6a15b3d74e42c9524115c2',
        'f9d1e275f265d5ac2249a2eb8cfa1e8865121b0ec6f21026707ea8760f7d86cb',
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
        '69e561fe33945e6dd355521ec2151eb29a7b34360da8d6c25a566dcd0acc436b',
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
        'ad0832f3f57173ce0b3e6a5f1ddc772d6a1abf8563cd16d8d8f41d23a0bf3556',
    ),
    ('contraction2', 'widen'): (
        'c53ed93e3c0afb9160b3e406ed8829cca6c2faf989cf615e3fcfc590c9781369',
        '60afcd950d15cf2c00b7de8fbb3b293a3772cad4ce0187d80f025bd5fd982565',
    ),
    ('contraction2', 'widen-ladder'): (
        'f7a7a389c8b32f663c941646707bcea4e1520ef5faae577f24daa39eddf2ebaf',
        '5c4e754d61d0be9a8ba604ff8bf60c37e3d84982a1db9f88cfe93c3386ceb215',
    ),
    ('filter3', 'accel-aitken'): (
        '27867e2f1159f66a6999215bddc70e7ac5a90e94c79d08623ee24aa5f77a02c4',
        'd0f35accb726281901d232495bba2cc3939b77b5c31f537c628e12c5c2e6304b',
    ),
    ('filter3', 'accel-epsilon'): (
        '575307c06d1e4ba0b07a660a4773b35d96af2929f8d9c7d5e3d6cb46e730bec0',
        '551e648cece5f2336d12a72d1faf34327b902be9ac5e137367ae6bd6593d0913',
    ),
    ('filter3', 'accel-vea'): (
        'eb1214f955bd5b8830525a0766b45163ad812713d9b935c7ddc4efcae25b380d',
        'cd617e9621b14e529484d19f6b6d8890ae9284b065af9dc1fb9d5bedd5f83988',
    ),
    ('lowpass1', 'accel-aitken'): (
        '5d5fd7c00e322fbaabaa4fd2b500de78650a2b55cd35b91c7c889ba49dca10e3',
        'aa66c240800bb203db9bbe39ab7378956c7ad20ecd280fec00d4d6ce6757743f',
    ),
    ('lowpass1', 'accel-epsilon'): (
        '5d5fd7c00e322fbaabaa4fd2b500de78650a2b55cd35b91c7c889ba49dca10e3',
        '9a89d90da45687e7e9420d4eacebd825eafbdeba766029ac6138f05e92d534b5',
    ),
    ('lowpass1', 'accel-vea'): (
        'c2b4a92b7fd558745314d1d21e257f234580d232507797cfd6d6ba6f0d42498e',
        'ab6d689d9f22221c154954cc2016bcfa9c54ca58dbe87d03d869d3f44a653e74',
    ),
    ('contraction2', 'accel-aitken'): (
        '735776e12ad86aaa9a7d63b4d282a2e4b09341820898b95173efd7b0b476657b',
        'd5c80cb7fe64fa1b078078adb0269678d9b0bdef25c588d788c0556545f800b7',
    ),
    ('contraction2', 'accel-epsilon'): (
        '34c316c12785c9257cac6067dc623c80c1af9c5dd9e97cfaeb107c71dfcf43de',
        '334d397cc695e96c0f085209b09617325595abdd491e6467fb40d35ce3b912df',
    ),
    ('contraction2', 'accel-vea'): (
        '3b10b81049ca7fdb1eb11f1019c4935467ef1da9c628057ff4a04afe2c193591',
        '220ecba366f88fee38be159a473cfad4508fad4873d1e8c4f2d5f259740f94fd',
    ),
}

# form -> (iterations, reason, invariant bounds as float.hex pairs)
GOLDEN_RANDOM = {
    'jacobi': (252, 'converged-tolerance+finished', (
        ('-0x1.7922f1ab50ecap+1', '0x1.86dd0e6dcf345p+1'),
        ('-0x1.7431fc99b4b50p+1', '0x1.8bce037f6b629p+1'),
        ('-0x1.6e9fdafb95e02p+1', '0x1.9160251d8a41ep+1'),
        ('-0x1.786562f7e26b0p+1', '0x1.879a9d213dbc2p+1'),
        ('-0x1.7760dd4cca7dep+1', '0x1.889f22cc559fap+1'),
        ('-0x1.7b739a52a89a5p+1', '0x1.848c65c677859p+1'),
        ('-0x1.7ae379ad95855p+1', '0x1.851c866b8a953p+1'),
        ('-0x1.73d087f354c78p+1', '0x1.8c2f7825cb54dp+1'),
        ('-0x1.670f6a731a978p+1', '0x1.98f095a60587bp+1'),
        ('-0x1.6cae71c2638e6p+1', '0x1.93518e56bc85cp+1'),
        ('-0x1.70cff83f6e9aap+1', '0x1.8f3007d9b17c5p+1'),
        ('-0x1.6dbfda1b5b935p+1', '0x1.924025fdc4814p+1'),
    )),
    'gauss-seidel': (146, 'converged-tolerance+finished', (
        ('-0x1.7922f1a534093p+1', '0x1.86dd0e67ae67dp+1'),
        ('-0x1.7431fc93a7ccdp+1', '0x1.8bce03793aca1p+1'),
        ('-0x1.6e9fdaf59b355p+1', '0x1.916025174748dp+1'),
        ('-0x1.786562f1b83fcp+1', '0x1.879a9d1b2a490p+1'),
        ('-0x1.7760dd469f499p+1', '0x1.889f22c6433afp+1'),
        ('-0x1.7b739a4c66379p+1', '0x1.848c65c07c50dp+1'),
        ('-0x1.7ae379a750102p+1', '0x1.851c86659250fp+1'),
        ('-0x1.73d087ed2834ap+1', '0x1.8c2f781fba4cdp+1'),
        ('-0x1.670f6a6d1f70ep+1', '0x1.98f0959fc319bp+1'),
        ('-0x1.6cae71bc4ad84p+1', '0x1.93518e5097a1cp+1'),
        ('-0x1.70cff8393e86bp+1', '0x1.8f3007d3a3f40p+1'),
        ('-0x1.6dbfda1533284p+1', '0x1.924025f7af656p+1'),
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
    code = main(["analyze", src, *CONFIGS[config], "--trace", "t.csv", "--report", "r.json"])
    assert code == 0
    assert capsys.readouterr().err == lost_bound_warnings(tmp_path / "r.json")
    got = (_sha(tmp_path / "t.csv"), _sha(tmp_path / "r.json"))
    assert got == GOLDEN_FILES[program, config]


# the sha256 of the default run's --report JSON for lowpass1 read from
# REPORT_PATH, a name with a quote, a backslash and a non-ASCII character
REPORT_PATH = 'q"b\\sé.loop'
GOLDEN_REPORT_PATH = 'ddce440be7e6aaa2b1afce4dd0046ea48d0e1d3c3c782e5c300b4e899432d137'


def test_report_escapes_the_program_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / REPORT_PATH).write_text(bundled_source("lowpass1"))
    assert main(["analyze", REPORT_PATH, "--report", "r.json"]) == 0
    capsys.readouterr()
    assert _sha(tmp_path / "r.json") == GOLDEN_REPORT_PATH
    assert json.loads((tmp_path / "r.json").read_bytes())["program"] == REPORT_PATH


# (data, method, norm) -> (sha256 of the stdout of ``fixaccel accelerate``,
# sha256 of its --output CSV), for the bundled lowpass2 iterates and for
# OVERFLOWING_CSV, recorded before the command laid out the elements of
# every method in one pass
GOLDEN_ACCELERATE = {
    ('lowpass2', 'aitken', 'infinity'): (
        '1868678893475c5643ed7d4717dfe550b2ce62af236584d126103a9787f36bb2',
        '35dc75694f9ca91d9dc955b1f7eb4278db6e1daa573ee2c885e161a9b95136ab',
    ),
    ('lowpass2', 'aitken', 'euclidean'): (
        '1868678893475c5643ed7d4717dfe550b2ce62af236584d126103a9787f36bb2',
        '35dc75694f9ca91d9dc955b1f7eb4278db6e1daa573ee2c885e161a9b95136ab',
    ),
    ('lowpass2', 'epsilon', 'infinity'): (
        'e1334e7d061ebc5f06330e43b8794a5a11b5f8ef4e58c775bb6189c4fbae432c',
        'd8693ce475a6ec2753af6ba76af4e1a819d71609f55020fe1bc3fbc45a9b9611',
    ),
    ('lowpass2', 'epsilon', 'euclidean'): (
        'e1334e7d061ebc5f06330e43b8794a5a11b5f8ef4e58c775bb6189c4fbae432c',
        'd8693ce475a6ec2753af6ba76af4e1a819d71609f55020fe1bc3fbc45a9b9611',
    ),
    ('lowpass2', 'vea', 'infinity'): (
        'e6f100289c2182a785741584e84829507cb0778985ffc96e1053ce48c7ea1e89',
        'a84d2835c88198fbb4763ed46c31303ea586e55457f6bbf0bab7b40a8e2ee5ff',
    ),
    ('lowpass2', 'vea', 'euclidean'): (
        'e6f100289c2182a785741584e84829507cb0778985ffc96e1053ce48c7ea1e89',
        'a84d2835c88198fbb4763ed46c31303ea586e55457f6bbf0bab7b40a8e2ee5ff',
    ),
    ('overflow', 'aitken', 'infinity'): (
        'd50c5536156a1f0207565dd4d5ca80d561583627dc351cb813615a5de82a12c3',
        '0af841de64d03f3d6b1ad869f5336b1d9ff166dd7375fe561cf65139034b4bc3',
    ),
    ('overflow', 'aitken', 'euclidean'): (
        'd50c5536156a1f0207565dd4d5ca80d561583627dc351cb813615a5de82a12c3',
        '0af841de64d03f3d6b1ad869f5336b1d9ff166dd7375fe561cf65139034b4bc3',
    ),
    ('overflow', 'epsilon', 'infinity'): (
        '0dd5842435181825da637aa2cee6e7ffbd952cb9ab6dbaee0e042a48aa895bfe',
        '294b8881c2cde8bfb8205c16de0bde052edb452d1104a2c19b5252aa2cfa3624',
    ),
    ('overflow', 'epsilon', 'euclidean'): (
        '0dd5842435181825da637aa2cee6e7ffbd952cb9ab6dbaee0e042a48aa895bfe',
        '294b8881c2cde8bfb8205c16de0bde052edb452d1104a2c19b5252aa2cfa3624',
    ),
    ('overflow', 'vea', 'infinity'): (
        'a58950e2ec72d09bd35fbae048fcc456ca0e341c98e82b3a45ea8b17dd8592b9',
        'ee4344ec77f56c9d1eed7a2555c98a7631a89894b25b2fd870356635c97867c2',
    ),
    ('overflow', 'vea', 'euclidean'): (
        'a58950e2ec72d09bd35fbae048fcc456ca0e341c98e82b3a45ea8b17dd8592b9',
        'ee4344ec77f56c9d1eed7a2555c98a7631a89894b25b2fd870356635c97867c2',
    ),
}


@pytest.mark.parametrize("data", ["lowpass2", "overflow"])
@pytest.mark.parametrize("method", ["aitken", "epsilon", "vea"])
@pytest.mark.parametrize("norm", ["infinity", "euclidean"])
def test_accelerate_output_is_byte_identical(tmp_path, capsys, data, method, norm):
    path = bundled_path("lowpass2_iterates.csv")
    if data == "overflow":
        path = tmp_path / "overflow.csv"
        path.write_text(OVERFLOWING_CSV)
    out = tmp_path / "elements.csv"
    code = main(["accelerate", str(path), "--method", method, "--norm", norm, "--output", str(out)])
    stdout, stderr = capsys.readouterr()
    assert (code, stderr) == (0, "")
    assert (hashlib.sha256(stdout.encode()).hexdigest(), _sha(out)) == GOLDEN_ACCELERATE[data, method, norm]


@pytest.mark.parametrize("form", ["jacobi", "gauss-seidel"])
def test_random_program_results_are_bit_identical(form):
    p = parse(random_program(20260, 12, form == "gauss-seidel"))
    report, _ = analyze(p, EngineConfig(mode="kleene"))
    bounds = tuple((iv.lo.hex(), iv.hi.hex()) for iv in report.invariant.intervals)
    assert (report.iterations, report.reason, bounds) == GOLDEN_RANDOM[form]


METHODS = ("aitken", "epsilon", "vector-epsilon")

# (program, method) -> (iterations, injections, reason, invariant
# bounds as float.hex pairs); default EngineConfig otherwise, whose inject
# policy is "once"
GOLDEN_ACCEL = {
    ('filter3', 'aitken'): (21, 1, 'verified-injection', (
        ('-0x1.4ca3ee7b03f0fp+2', '0x1.1bf220d3eba50p+3'),
        ('-0x1.4fedcef1cbf62p+1', '0x1.640b33b0e60c2p+3'),
        ('-0x1.2dff9b0726c89p+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'epsilon'): (12, 1, 'verified-injection', (
        ('-0x1.4ca3ee7a5a444p+2', '0x1.1bf220d5e87d5p+3'),
        ('-0x1.4fedced77784bp+1', '0x1.640b33b91a496p+3'),
        ('-0x1.2dff9afee3378p+2', '0x1.400000055e63cp+4'),
    )),
    ('filter3', 'vector-epsilon'): (12, 1, 'verified-injection', (
        ('-0x1.4ca3ee78cb1cep+2', '0x1.1bf220d540529p+3'),
        ('-0x1.4fedced6035d8p+1', '0x1.640b33b811120p+3'),
        ('-0x1.2dff9afd8cc5ep+2', '0x1.400000055e63cp+4'),
    )),
    ('lowpass1', 'aitken'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958162bp+4'),
        ('0x0.0p+0', '0x1.001b89446783ap+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958162bp+4'),
    )),
    ('lowpass1', 'epsilon'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958162bp+4'),
        ('0x0.0p+0', '0x1.001b89446783ap+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958162bp+4'),
    )),
    ('lowpass1', 'vector-epsilon'): (4, 1, 'verified-injection', (
        ('0x0.0p+0', '0x1.40226b958161fp+4'),
        ('0x0.0p+0', '0x1.001b894467833p+1'),
        ('0x1.e7a0f9013d601p-1', '0x1.40226b958161fp+4'),
    )),
    ('contraction2', 'aitken'): (12, 1, 'verified-injection', (
        ('-0x1.55555564eb372p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111123645f8p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'epsilon'): (6, 1, 'verified-injection', (
        ('-0x1.5555555b0f5b2p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111115a5e12p-2', '0x1.000000044b830p+0'),
    )),
    ('contraction2', 'vector-epsilon'): (5, 1, 'verified-injection', (
        ('-0x1.5555555b0f576p-2', '0x1.000000044b830p+0'),
        ('-0x1.11111115a5e06p-2', '0x1.000000044b830p+0'),
    )),
}

# method -> the same, for gaussian_program(1, 8, 0.97) with fallback
# after 200 iterations
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
@pytest.mark.parametrize("method", METHODS, ids=[f"once-{method}" for method in METHODS])
def test_accel_results_are_bit_identical(program, method):
    report, _ = analyze(load_bundled(program), EngineConfig(mode="accel", method=method))
    assert _pinned(report) == GOLDEN_ACCEL[program, method]


@pytest.mark.parametrize("method", METHODS)
def test_gaussian_accel_results_are_bit_identical(method):
    p = parse(gaussian_program(1, 8, 0.97))
    report, _ = analyze(p, EngineConfig(mode="accel", method=method, fallback_after=200))
    assert _pinned(report) == GOLDEN_GAUSSIAN[method]


def test_kleene_keeps_the_bounds_of_a_contracting_loop():
    # |A| has spectral radius 0.97 but rows that sum above 1; an exact
    # stop (stop_tol=0) ends at finite bounds after about a thousand steps
    p = parse(gaussian_program(1, 8, 0.97))
    report, _ = analyze(p, EngineConfig(mode="kleene"))
    assert report.sound and report.reason == "converged-tolerance+finished"
    # an infinite bound is within 1e-6 of no bound, so these are finite
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)

# (seed, n, rho, method) -> (number of estimate rows, sha256 of their
# ``float.hex`` text, as ``_accel_digest`` writes it) for
# gaussian_program(seed, n, rho), which each run reaches with fallback
# after 20 iterations and after 200.  The runs are the benchmark's
# accel-tail configs: both are "once", one at fallback_after=20 and one at
# fallback_after=200 (the benchmark spells the second with the retired
# alias of "once").  These pin the estimates themselves, every one the
# trace records.
GOLDEN_GAUSSIAN_ESTIMATES = {
    (1, 8, 0.97, 'aitken'): (24, '396a2cd93d6c4a54bc11c79bad0c635aa8eed304bc8dbb58ab039c2ef216b594'),
    (1, 8, 0.97, 'epsilon'): (23, '7831fce206a55ea8db6ab176a3d5619d2056189e0a82211e4346ca29a923eb81'),
    (1, 8, 0.97, 'vector-epsilon'): (23, '7c55c5f219a886754164d60baec438fa3c17e928d13e56d79f2179146c4aaa08'),
    (2, 16, 0.9, 'aitken'): (30, 'ad9bc3e3a44becedf4e5e5c977592c1f3912c5756bfd52b839860c0977d8c3b0'),
    (2, 16, 0.9, 'epsilon'): (31, 'bba39d124641ba9ad6f9b4f8a44c20fbdac3885697d4eccf1a0fe04bc81f84ed'),
    (2, 16, 0.9, 'vector-epsilon'): (30, '173a4ed5e3e4721b34971ef4b1aae497591b6011bef020e8dcbbdfb4a3b6e4c7'),
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
@pytest.mark.parametrize("fallback", [20, 200], ids=["once-20", "once-200"])
def test_gaussian_estimates_are_bit_identical(seed, n, rho, method, fallback):
    p = parse(gaussian_program(seed, n, rho))
    _, trace = analyze(p, EngineConfig(mode="accel", method=method, fallback_after=fallback))
    assert _accel_digest(trace) == GOLDEN_GAUSSIAN_ESTIMATES[seed, n, rho, method]


# stop_tol -> (iterations, reason, sha256 of the run as ``_kleene_digest``
# writes it) for the kleene runs of random_program(2029, 64, True), a
# dense Gauss-Seidel sweep whose loop takes its rows from the
# body's composed linear map.  The map and its products are elementwise
# multiplies and np.add.reduce's pairwise sums along the contiguous axis,
# never BLAS, so these pins hold across BLAS builds, and across NumPy
# versions that keep that pairwise order.
GOLDEN_COMPOSED = {
    3e-7: (138, 'converged-tolerance+finished', 'f0484936a3eca03ef9a855597a649bdb6b876c83da65fc370a89137bc1664432'),
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


# method -> (iterations, reason, ``_accel_digest``) for the accel runs
# of GOLDEN_COMPOSED's body, whose watched rows also come from the
# composed map and are a few ulps off ``image``'s; the stop, the
# verification and the check still run ``image``.
GOLDEN_COMPOSED_ACCEL = {
    'aitken': (12, 'verified-injection', (11, 'ba12910b34b12dfd8aa39d3b1d9454d169a1ef83a001ba6a1033272ad52ae919')),
    'epsilon': (13, 'verified-injection', (12, '60cc7b2eafadd9e2ee34b5a253cd1466137587346aff58988c7d251c169cb753')),
    'vector-epsilon': (11, 'verified-injection', (10, '8e725e019b5565c0da5f0e68678b9613df55c81b4f3d7b340ed2f243256a1557')),
}


@pytest.mark.parametrize("method", METHODS)
def test_composed_accel_runs_are_bit_identical(method):
    p = parse(random_program(2029, 64, True))
    assert p.lowered.composed is not None
    report, trace = analyze(p, EngineConfig(method=method))
    assert (report.iterations, report.reason, _accel_digest(trace)) == GOLDEN_COMPOSED_ACCEL[method]
    assert report.sound
    assert_contains_and_near(report.invariant, exact_kleene(p), 1e-6)


# stop_tol -> (iterations, reason, sha256 as ``_kleene_digest`` writes it)
# for the kleene runs of random_program(2030, 128, True), a dense
# Gauss-Seidel sweep of 128 levels, each 2 bounds wide, that keeps no
# composed map: every row comes from the level schedule, whose sums are
# np.add.reduce along axis 0 of tables 130 rows deep.  The pins hold only
# while that reduce adds the rows in order on every NumPy version.
GOLDEN_NARROW_CHAIN = {
    3e-7: (136, 'converged-tolerance+finished', '0cd1674c6d7baee308a81cee7935c9b05434e5ad8a03355376cabff300ea1f57'),
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


SCHEDULED_LADDER = ThresholdSet((-2.0, -0.5, 0.5, 2.0, 8.0))
SCHEDULED_CONFIGS = {
    "widen-0": EngineConfig(mode="widen"),
    "widen-3": EngineConfig(mode="widen", widen_delay=3),
    "widen-0-thresholds": EngineConfig(mode="widen", thresholds=SCHEDULED_LADDER),
    "widen-3-thresholds": EngineConfig(mode="widen", widen_delay=3, thresholds=SCHEDULED_LADDER),
    "fallback": EngineConfig(fallback_after=1, delta=0.5),
}

# (body, config) -> (iterations, reason, sha256 of ``hex_run``'s JSON) for
# three of tests/families.py's SCHEDULED bodies: a dense Gauss-Seidel
# sweep that keeps a composed map, a sparse Jacobi body, and that body
# with its first state Bottom.  The runs widen from the start or after a
# delay, by the standard widening or a ladder, or fall back to threshold
# widening after one rejected estimate.
GOLDEN_SCHEDULED = {
    ('dense-gauss-seidel', 'widen-0'): (3, 'converged', 'e9899f2e136abab1b041bbc41ff379b2a7e74a060b040f5348a9a19df989d0cf'),
    ('dense-gauss-seidel', 'widen-3'): (6, 'converged', '9a7bc0804049d182a5d930f6030e7b8cd3fde2159aeb22e1d5913b9354f127fd'),
    ('dense-gauss-seidel', 'widen-0-thresholds'): (4, 'converged', '89c2479c5864b47d479b7de22ed17313358e8cd827d6acc4422ccc6ba65bff54'),
    ('dense-gauss-seidel', 'widen-3-thresholds'): (7, 'converged', 'babfd4343edb8e294d87c68027f4343ffb1f161b6d2858e55cd808f280c470a4'),
    ('dense-gauss-seidel', 'fallback'): (10, 'converged', '21ffd10d7253e4ce39010030e131c015c70ceb37654c73805d38d6a3201778d8'),
    ('sparse-jacobi', 'widen-0'): (4, 'converged', '8ea54d9208e317259bd1446bb2e805ff7032102c1eefc553bae97328e5f2ab36'),
    ('sparse-jacobi', 'widen-3'): (6, 'converged', '898beb99db26f3f370093d8ff1cddc61dc316e7fe6d42e9d2323caf45d02e890'),
    ('sparse-jacobi', 'widen-0-thresholds'): (7, 'converged', 'ad948d6984f08c11be636581cb7a70ab0555d88d9ef0704e51029878237fd6c8'),
    ('sparse-jacobi', 'widen-3-thresholds'): (9, 'converged', '0af9fcf1a335ccfa75a4768d7072874bcbbbd1857032c4efc0c3616b15dbf6fb'),
    ('sparse-jacobi', 'fallback'): (9, 'converged', '00c9e0244883de2778ae4ee90937c05b0d79ea1dcaf7a1c5a5b85fc681a07462'),
    ('bottom-state', 'widen-0'): (4, 'converged', '815ddb7c72fba390392e06b77686847c4711d0f48eb4cfde041d91fe1d84713c'),
    ('bottom-state', 'widen-3'): (6, 'converged', '4f3ef56376492d0ffa55d53702ce4b84d7b7fa0c84ea77b4eb250e649c9259c4'),
    ('bottom-state', 'widen-0-thresholds'): (7, 'converged', '49e3e203fe5659151371458356fb177f4ac34028ec2c80b3f4dfd905a31e9edb'),
    ('bottom-state', 'widen-3-thresholds'): (9, 'converged', 'c8e05ec68104ac83a03f7ed996c43e334e29ee189e1a047befe9e5d7d9e13cb0'),
    ('bottom-state', 'fallback'): (6, 'converged', '9aea3443f384fd748d1e8305e842f2855e6cd59c684c5d30cf883abcf3872660'),
}


@pytest.mark.parametrize("name, config", sorted(GOLDEN_SCHEDULED))
def test_scheduled_widening_runs_are_bit_identical(name, config):
    report, trace = analyze(SCHEDULED[name], SCHEDULED_CONFIGS[config])
    assert report.sound
    digest = hashlib.sha256(json.dumps(hex_run(report, trace)).encode()).hexdigest()
    assert (report.iterations, report.reason, digest) == GOLDEN_SCHEDULED[name, config]
