"""Run the tier-1 tests in process under a line tracer, and print every
line of a ``fixaccel`` function that no test ran::

    PYTHONPATH=src python tests/lines_run.py

The hypothesis seed is fixed, so a run reports the same lines each time.
The exit status is pytest's if a test fails, else 1 if a line other than
those of SUBPROCESS_ONLY went unrun.  Class bodies and module-level code
run at import and are left out.  Expect the suite to take about twice
its usual time.
"""
import dis
import inspect
import sys
import threading
from pathlib import Path

import pytest

import fixaccel

# (module, function) -> the texts of its lines that only a subprocess
# test runs, where the tracer does not reach: main's read of sys.argv,
# and its handler for a pipe closed early
SUBPROCESS_ONLY = {
    ("cli.py", "main"): {
        "argv = sys.argv[1:]", "except BrokenPipeError:", "devnull = os.open(os.devnull, os.O_WRONLY)",
        "os.dup2(devnull, sys.stdout.fileno())", "os.close(devnull)", "return 1",
    },
}


def function_lines(path):
    """(line, qualified name) of each line start of each function, lambda
    and comprehension in the module at ``path``."""
    found, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += filter(inspect.iscode, code.co_consts)
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function's code, not a class body's
            name = getattr(code, "co_qualname", code.co_name)  # 3.11 on
            found |= {(line, name) for _, line in dis.findlinestarts(code) if line}
    return found


def main():
    paths = sorted(Path(fixaccel.__file__).parent.glob("*.py"))
    files, ran = {str(path) for path in paths}, set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename in files:
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return trace

    tests = str(Path(__file__).parent)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unexpected = 0
    for path in paths:
        text = path.read_text().splitlines()
        for line, name in sorted(function_lines(path)):
            if (str(path), line) not in ran:
                code = text[line - 1].strip()
                expected = code in SUBPROCESS_ONLY.get((path.name, name), ())
                unexpected += not expected
                print(f"{path.name}:{line} {name}: {code}" + " (subprocess only)" * expected)
    return status or int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main())
