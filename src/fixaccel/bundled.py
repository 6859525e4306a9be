"""Access to the loop programs and data files shipped with the package."""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .programs import Program, parse

PROGRAM_NAMES = ("filter3", "lowpass1", "contraction2")


def bundled_path(filename: str) -> Path:
    """Filesystem path of a bundled data file, e.g. ``"filter3.loop"``:
    a file directly inside the package's ``data`` directory.  Any other
    name, such as ``"../cli.py"`` or ``"."``, raises FileNotFoundError."""
    data = Path(str(resources.files("fixaccel") / "data"))
    path = data / filename
    if path.parent != data or not path.is_file():
        raise FileNotFoundError(f"no bundled file named {filename!r}")
    return path


def bundled_source(name: str) -> str:
    """Source text of a bundled loop program, by bare name."""
    return bundled_path(f"{name}.loop").read_text()


def load_bundled(name: str) -> Program:
    """Parse and return a bundled loop program, e.g. ``load_bundled("filter3")``."""
    return parse(bundled_source(name))
