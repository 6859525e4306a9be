"""The public namespace and the demo scripts run as shipped, every
import is used, no call reaches BLAS, a Program needs no cycle collector
and its lowered body holds nothing of it."""
import ast
import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from families import gaussian_program

import fixaccel
from fixaccel import EngineConfig, Program, analyze, bundled_path, bundled_source, parse
from fixaccel.intervals import BOTTOM

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted((ROOT / "src" / "fixaccel").glob("*.py"))


def test_every_exported_name_resolves():
    for name in fixaccel.__all__:
        assert hasattr(fixaccel, name), name


@pytest.mark.parametrize("name", ["../cli.py", ".", "..", "", "../data/filter3.loop", "missing.loop"])
def test_bundled_path_takes_only_a_file_inside_data(name):
    # "../cli.py" named the package's own module, and "." the data
    # directory itself
    with pytest.raises(FileNotFoundError, match="no bundled file"):
        bundled_path(name)
    path = bundled_path("filter3.loop")
    assert path.is_file() and path.parent.name == "data"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a warning is an error, as in the tests themselves
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def unused_imports(path):
    """The names ``path`` imports and never reads, leaving out
    ``__future__`` imports, lines marked ``# noqa: F401`` and, in
    ``__init__``, the names of ``__all__``."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}  # bound name: line
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {
        node.value.id for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    if path.name == "__init__.py":
        read |= set(fixaccel.__all__)
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read)


def test_readme_counts_the_steps_of_filter3():
    # the bundled-data table states how many iterations plain and
    # accelerated analysis take on filter3.loop
    row = next(ln for ln in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
               if ln.startswith("| `filter3.loop` |"))
    plain, accelerated = map(int, re.search(r"takes (\d+) steps, accelerated (\d+)", row).groups())
    p = parse(bundled_source("filter3"))
    assert analyze(p, EngineConfig(mode="kleene"))[0].iterations == plain
    assert analyze(p, EngineConfig())[0].iterations == accelerated


def test_every_import_is_used():
    assert [u for path in MODULES for u in unused_imports(path)] == []


def private_imports(path):
    """Where ``path`` imports a ``_``-prefixed name from a sibling
    module, by a relative import or one from ``fixaccel``."""
    return [
        f"{path.name}:{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "fixaccel")
        for alias in node.names if alias.name.startswith("_")
    ]


def test_no_module_imports_a_siblings_private_name():
    # a private name is its module's own: what two modules must both know
    # is a public name of the module that owns it
    assert [u for path in MODULES for u in private_imports(path)] == []


def test_the_engine_leaves_the_array_row_rule_to_the_lowered_body():
    # which rows the loop carries as arrays, and the Bottom test in that
    # rule, are LoweredBody.loop_row's: engine.py reads no ``schedule``
    # and takes no ``operator.gt``, by attribute or by import
    tree = ast.parse((ROOT / "src" / "fixaccel" / "engine.py").read_text())
    assert [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("schedule", "gt")
        or isinstance(node, ast.ImportFrom) and node.module == "operator" and "gt" in {a.name for a in node.names}
    ] == []


# numpy's names that reach BLAS: a result that went through one of them
# could depend on the BLAS build
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def blas_uses(path):
    """Where ``path`` applies the ``@`` operator, or reads or imports
    one of BLAS_NAMES (``np.dot``, ``arr.dot``, ``np.linalg.norm``,
    ``from numpy import dot`` ...)."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {node.module.split(".")[-1], *(alias.name for alias in node.names)}
            uses += [(node.lineno, f"import {name}") for name in names & BLAS_NAMES]
    return [f"{path.name}:{line}: {use}" for line, use in sorted(uses)]


def test_no_blas_call():
    assert [u for path in MODULES for u in blas_uses(path)] == []


def test_blas_uses_sees_each_spelling(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy as np\nfrom numpy import inner\nfrom numpy.linalg import norm\n"
        "a = np.dot(x, x)\nb = x.dot(x)\nc = x @ x\nc @= x\nd = np.linalg.norm(x)\ne = np.add(x, x)\n"
    )
    assert blas_uses(path) == [
        "m.py:2: import inner", "m.py:3: import linalg", "m.py:4: .dot", "m.py:5: .dot",
        "m.py:6: @", "m.py:7: @", "m.py:8: .linalg",
    ]


@pytest.mark.parametrize(
    "text", [bundled_source("filter3"), gaussian_program(3, 16, 0.97)], ids=["per-step", "scheduled"]
)
def test_a_program_is_freed_without_the_cycle_collector(text):
    # the lowered body, which the Program holds, must not hold the Program
    gc.disable()
    try:
        p = parse(text)
        report, _ = analyze(p, EngineConfig())
        assert report.sound
        assert (p.lowered.schedule is None) == (text == bundled_source("filter3"))
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["per-step", "scheduled", "bottom-input"])
def test_a_lowered_body_holds_nothing_of_its_program(kind):
    # _assign reads the Program once: the lowered body holds the
    # single-assignment form and the inputs' intervals, so two levels of
    # its referents reach neither the declarations nor the body, nor any
    # Assignment of it; Intervals and floats, which are immutable, may be
    # shared
    p = parse(gaussian_program(3, 16, 0.97) if kind == "scheduled" else bundled_source("filter3"))
    if kind == "bottom-input":
        p = Program(p.state_vars, tuple((name, BOTTOM) for name, _ in p.input_vars), p.body)
    lowered = p.lowered
    assert (lowered.schedule is not None, lowered.steps is not None) == {
        "per-step": (False, True), "scheduled": (True, False), "bottom-input": (False, False)}[kind]
    parts = {id(part): part for part in (p.body, p.state_vars, p.input_vars, *p.body)}
    assert p.input_vars and p.body  # not (), which is every empty tuple
    reached = gc.get_referents(lowered)
    reached += [obj for referent in reached for obj in gc.get_referents(referent)]
    assert [parts[id(obj)] for obj in reached if id(obj) in parts] == []
