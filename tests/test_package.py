"""The public namespace and the demo scripts run as shipped."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixaccel

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    for name in fixaccel.__all__:
        assert hasattr(fixaccel, name), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
