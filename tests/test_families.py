"""The program families of tests/families.py stay what the suite was
recorded on, and the test modules share them only through that module."""
import ast
import hashlib
from pathlib import Path

import pytest

from fixaccel import parse
from fixaccel.programs import unparse
import families

# (family, arguments) -> sha256 of the text of each call the suite makes,
# or of ``unparse`` of the Program, recorded before the families moved
# into one module
FAMILY_TEXTS = {
    ("gaussian_jacobi_program", (6, 0.9531671492933111, 1388451957)):
        "41b96176b2add8d6f59119f0161ca2622d0b466ae16e17f037c9fdc59e075321",
    ("gaussian_program", (1, 3, 0.97)): "d0d81dfd1038d9d900e4b6e481e1e850f9b889717dbb07eee131b1f6cbf223a7",
    ("gaussian_program", (1, 8, 0.97)): "76357a3b8d045a494099ca09e8e04a54b9cd94e238c27e7bec5752010a2c8e5a",
    ("gaussian_program", (1, 16, 0.97)): "b30fb9f79181c892b35ee3e6c4bec525361c34778516b12e2ff6b50286ee3ae4",
    ("gaussian_program", (2, 4, 0.97)): "91efac620a58fcf4db81effdc74474577c595836845f779e11cbe2302735f9f7",
    ("gaussian_program", (2, 8, 0.9)): "901183af2e406263c48a404cefd62d432b16cb0295f62198cac9df8bf4638e54",
    ("gaussian_program", (2, 16, 0.9)): "59aa69d299128df8e58f66813c8c44c6d2ee9133095b57edddc9ef4831c45685",
    ("gaussian_program", (2, 16, 0.97)): "78d6d0ff43c584b343cec3a5efb7fb789e5cb9b1f7d406cee15da0b821a5dab8",
    ("gaussian_program", (3, 16, 0.97)): "346c6478d7003ef418ef207b0ac57dd3cb2f82c6dd1006342f83be8b3c6d5340",
    ("gaussian_program", (4, 16, 0.97)): "3ebeede8fb2fbbb116519b6062976b00d19a995c4e91261d2718bf9fdd827e38",
    ("random_program", (7, 48, True)): "b912538380e485b17b1b8df545858be94110c0de6bf8b751167b54e12606ba9f",
    ("random_program", (2029, 64, True)): "ac1ab2651e54d536a4e092c8d0a57e0d9b9e7c87a985c09c09771f2f29ba91fd",
    ("random_program", (2029, 256, False, 8)): "3693ed4dc758aec3eccebbf161b03900c14ec26daaffb70d61021c40b4284328",
    ("random_program", (2030, 128, True)): "c57774d6cbd47401b3fddaff57a313d5cd3e8cf44987fba9966d9190629a3071",
    ("random_program", (20260, 12, False)): "f3298268e620789b9c985b8d0cc457a693625b86855e0ac7c07a9b01829421df",
    ("random_program", (20260, 12, True)): "13f8a26b1798247fe863374ec01e7e27821c8eb82edab5937d3ddfacb10c4c57",
    ("row_program", (3, 64, None)): "891660f22224da1c7f10184724b82f11e430f43f99218ea6fa05ed4b8812a916",
    ("row_program", (3, 64, None, True)): "4c9fb6e90ae43c7f98d0561d932cedd1de3e15c5ae8f47d191c2b273107ced3a",
    ("row_program", (3, 256, 8)): "f32eee2ab83dd1c2ad34785c33ce849f81b1ae2794830d285b20e024e7209ab2",
    ("row_program", (3, 256, 8, True)): "3bb65444a4cd7c07649ff6c291686ce6cccc63e51a7c4aaeb8892dc253f90fe4",
    ("row_program", (11, 32, None)): "e1160795071d8c8ace40bd7b898255e85f93f8f67f0a13441436f4df1f1bd635",
    ("row_program", (12, 64, None, True)): "5375e56c580c9a8401b07e8c86b0370f9936d48db6eb7751c30e5b54799a0065",
    ("row_program", (13, 96, 4)): "016184fab5be98654c75841067226cbc7e4a72a63732283ea55edd94555cbe76",
    ("row_program", (14, 256, 8, True)): "d0c3e93228671c271b23db502ae2651ea3e9521933fe175f35bb3f579e871424",
    ("row_program", (17, 64, None, True, 0.95)): "f9021ea2a3605c81aa1ed9176820ab5716e56fc9510524de840e33913aee7712",
    ("row_program", (17, 256, 8, False, 0.95)): "881cff8b1e4b5decca5e9a01411b6b3f3a66ca120add494de38357b71a14473c",
}


@pytest.mark.parametrize("family, args", FAMILY_TEXTS, ids=[f"{f}{a}" for f, a in FAMILY_TEXTS])
def test_family_texts_are_byte_identical(family, args):
    out = getattr(families, family)(*args)
    text = out if isinstance(out, str) else unparse(out)
    if not isinstance(out, str):
        assert parse(text) == out
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_TEXTS[family, args]


def test_no_test_module_imports_another():
    tests = Path(__file__).parent
    names = {path.stem for path in tests.glob("test_*.py")}
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {m}" for m in modules if m in names]
    assert found == []
