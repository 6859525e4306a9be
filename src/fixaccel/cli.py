"""Command-line front end.

Two subcommands:

* ``analyze`` — run the fixpoint engine on a loop program, print a
  summary, and optionally export the iteration trace (CSV) and the
  final report (JSON);
* ``accelerate`` — apply a sequence transformation to the columns of a
  numeric CSV file and report where consecutive accelerated elements
  first agree to within a tolerance.

All emitted numbers carry 17 significant digits, so outputs are
byte-identical across runs.  Infinities print bare (``inf``/``-inf``)
in CSV and as quoted strings in JSON.  Each output file is laid out as
one text, a CSV with one ``%`` format per line and the report from one
template, and written as its UTF-8 bytes in one pass; a text that
cannot be encoded (a report naming a non-UTF-8 path) leaves no file.
A trace exported by ``analyze`` can be fed straight back into
``accelerate``: its ``index``/``event``/``accel_*`` columns are ignored
on read, and the row at index 0 holds the initial state, so the
transform sees exactly the rows the engine saw.  Only finite data cells
are accepted: a trace holding an infinite bound (as widening can
produce) is rejected as unusable input.

Exit status: 0 for a converged, verified analysis (and for any
successful acceleration), 2 when the analysis did not converge or the
result could not be verified, 1 for unusable input or an output file
that cannot be written.  ``analyze`` also names each variable with an
infinite bound on stderr (``warning: x has an infinite bound``), which
leaves the exit status as it is.

Every option is declared once, in ``build_parser``.  ``main`` reads a
well-formed argv (the subcommand, its positional, and its options
spelled out in full as ``--opt value`` or ``--opt=value``) straight
from an option table built once from that parser's actions and
defaults, into the Namespace argparse would return.  Any other argv
goes to argparse itself, so help, abbreviated options and usage errors
(exit 1) read as argparse writes them.  An option that takes a value,
given ``=--`` (``--trace=--``), reads as the option with its value
missing: argparse would read the value as an empty list, which no
option's type takes, so ``main`` cuts argv there and argparse reports
``expected one argument`` on every Python.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args

import numpy as np

from .engine import EngineConfig, FixpointReport, IterationTrace, analyze
from .engine import InjectPolicy, Mode
from .extraction import bound_row
from .intervals import ThresholdSet
from .programs import ParseError, parse
from .transforms import (
    Method,
    Norm,
    TransformConfig,
    aitken,
    epsilon_diagonal,
    seq_norm,
    vector_epsilon_diagonal,
)

_METHOD_ALIASES = {"vea": "vector-epsilon"}
_METHODS = (*get_args(Method), *_METHOD_ALIASES)


def _fmt(v: float) -> str:
    """One float, 17 significant digits; infinities print bare."""
    return "%.17g" % v


# json.dumps(value, ensure_ascii=False) for a string, without building
# an encoder per call
_json_str = json.JSONEncoder(ensure_ascii=False).encode


def _json_scalar(value) -> str:
    """One value of the report: a float through ``_fmt`` (a non-finite one
    quoted), a string through the standard encoder, which escapes control
    characters, ``null``/``true``/``false``, an integer, and the config
    block's thresholds as an indented list."""
    if isinstance(value, float):
        return _fmt(value) if math.isfinite(value) else '"' + _fmt(value) + '"'
    if isinstance(value, str):
        return _json_str(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, ThresholdSet):
        cells = ",\n      ".join(map(_json_scalar, value.values))
        return "[\n      " + cells + "\n    ]" if cells else "[]"
    return str(value)


# the report's fixed shape: one _BOUNDS pair per state variable, then the
# config block, which ends on TransformConfig's defaults (_TRANSFORM_CONFIG)
_REPORT = """{
  "program": %s,
  "invariant": {
%s
  },
  "iterations": %d,
  "injections": %d,
  "converged": %s,
  "sound": %s,
  "reason": %s,
  "config": {
%s%s
  }
}
"""
_BOUNDS = '    "%s": {\n      "lower": %s,\n      "upper": %s\n    }'
_TRANSFORM_CONFIG = "".join(',\n    "%s": %s' % (k, _json_scalar(v))
                            for k, v in asdict(TransformConfig()).items())
# how _write opens a file; O_BINARY: no newline translation where the platform has it
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _trace_csv(trace: IterationTrace) -> str:
    """The iteration trace as CSV text.

    One row per iteration plus a row at index 0 for the initial state.
    Columns: the iteration index, lower/upper bounds per variable, the
    accelerated estimate per bound (blank when none was computed this
    iteration), and the step event.
    """
    names = trace.variables
    header = ["index", *(f"{pre}{n}_{end}" for pre in ("", "accel_") for n in names
                         for end in ("lo", "hi")), "event"]
    # one format per row, built once: the index and each bound as
    # ``_fmt`` writes it, then the estimate cells (blank, or all of them
    # as ``_fmt`` writes them) and the event
    bounds = "%d," + "%.17g," * (2 * len(names))
    plain = bounds + "," * (2 * len(names)) + "%s"
    full = bounds + "%.17g," * (2 * len(names)) + "%s"
    lines = [",".join(header), plain % (0, *bound_row(trace.initial), "initial")]
    for index, (row, est, event) in enumerate(zip(trace.rows, trace.estimates, trace.events), 1):
        if type(row) is not tuple:
            row = row.tolist()
        if est is None:
            lines.append(plain % (index, *row, event))
        elif None in est:  # a bound without an estimate leaves its cell blank
            cells = ["" if v is None else _fmt(v) for v in est]
            lines.append(bounds % (index, *row) + ",".join(cells) + "," + event)
        else:
            lines.append(full % (index, *row, *est, event))
    return "\n".join(lines) + "\n"


def _report_json(report: FixpointReport, cfg: EngineConfig, program: str) -> str:
    """The JSON report.  Its ``config`` block holds the fields of ``cfg`` in
    declaration order, then the estimator's fixed values (_TRANSFORM_CONFIG)."""
    invariant = (_BOUNDS % (name, _json_scalar(iv.lo), _json_scalar(iv.hi))
                 for name, iv in report.invariant)
    config = (f'    "{f.name}": {_json_scalar(getattr(cfg, f.name))}' for f in fields(cfg))
    return _REPORT % (
        _json_str(program), ",\n".join(invariant), report.iterations, report.injections,
        _json_scalar(report.converged), _json_scalar(report.sound),
        _json_str(report.reason), ",\n".join(config), _TRANSFORM_CONFIG,
    )


def _parse_thresholds(text: str) -> ThresholdSet:
    try:
        values = tuple(sorted(float(part) for part in text.split(",") if part))
        return ThresholdSet(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad threshold list {text!r}: {exc}")


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path`` as UTF-8, encoded before the file is
    opened; on failure report it and return False."""
    try:
        data = memoryview(text.encode())
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        source = Path(args.program).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.program}: {exc}", file=sys.stderr)
        return 1
    try:
        program = parse(source)
    except ParseError as exc:
        print(f"error: {args.program}: {exc}", file=sys.stderr)
        return 1

    values = {f.name: getattr(args, f.name) for f in fields(EngineConfig)}
    values["method"] = _METHOD_ALIASES.get(args.method, args.method)
    try:
        cfg = EngineConfig(**values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report, trace = analyze(program, cfg)
    except ValueError as exc:  # a non-finite coefficient, or NaN in evaluation
        print(f"error: {args.program}: {exc}", file=sys.stderr)
        return 1
    # a bound lost to infinity is sound but bounds nothing
    for name, iv in report.invariant:
        if iv.lo == -math.inf or iv.hi == math.inf:
            print(f"warning: {name} has an infinite bound", file=sys.stderr)

    if args.trace is not None and not _write(args.trace, _trace_csv(trace)):
        return 1
    if args.report is not None and not _write(
        args.report, _report_json(report, cfg, args.program)
    ):
        return 1

    print(f"program: {args.program}")
    # only accel mode runs an estimator
    print(f"mode: {cfg.mode}" + (f"  method: {cfg.method}" if cfg.mode == "accel" else ""))
    print(f"iterations: {report.iterations}  injections: {report.injections}")
    print(
        f"converged: {'true' if report.converged else 'false'}  "
        f"sound: {'true' if report.sound else 'false'}  "
        f"reason: {report.reason}"
    )
    print("invariant:")
    for name, iv in report.invariant:
        print(f"  {name} in [{_fmt(iv.lo)}, {_fmt(iv.hi)}]")
    return 0 if report.converged and report.sound else 2


_SKIP_COLUMNS = {"index", "event"}


def _read_sequence_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a CSV of numeric columns, skipping trace bookkeeping columns
    (``index``, ``event``, and everything starting with ``accel_``).

    Every data cell must be a finite number: the transformations take
    finite sequences only, so an ``inf`` cell is rejected with its line.
    """
    text = Path(path).read_text()
    # numbered before the blank and comment lines are dropped, so that an
    # error names its line in the file
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), 1)
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty file")
    header = [h.strip() for h in lines[0][1].split(",")]
    keep = [
        j
        for j, h in enumerate(header)
        if h not in _SKIP_COLUMNS and not h.startswith("accel_")
    ]
    if not keep:
        raise ValueError("no data columns in header")
    names = [header[j] for j in keep]
    rows: list[list[float]] = []
    for lineno, ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(
                f"line {lineno}: expected {len(header)} cells, found {len(cells)}"
            )
        try:
            # float() also reads non-ASCII digits and "_" separators,
            # which program literals reject
            if not all(cells[j].isascii() and "_" not in cells[j] for j in keep):
                raise ValueError
            values = [float(cells[j]) for j in keep]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value in data column")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"line {lineno}: non-finite value in data column")
        rows.append(values)
    return names, np.array(rows, dtype=float)


def cmd_accelerate(args: argparse.Namespace) -> int:
    try:
        names, data = _read_sequence_csv(args.csv)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.csv}: {exc}", file=sys.stderr)
        return 1

    method = _METHOD_ALIASES.get(args.method, args.method)
    try:
        tf = TransformConfig(**{f.name: getattr(args, f.name) for f in fields(TransformConfig)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.delta > 0:  # NaN included, as in EngineConfig
        print("error: delta must be positive", file=sys.stderr)
        return 1
    n = len(data)
    print(f"columns: {', '.join(names)}")
    print(f"rows: {n}")
    print(f"method: {method}")
    if n < 3:
        print(f"insufficient data: {n} rows, {method} needs at least 3")
        # a header-only file, so that no earlier output stays behind
        if args.output is not None and not _write(args.output, _elements_csv(names, [], [])):
            return 1
        return 0

    # differences of finite data may overflow; the elements then hold inf
    # or NaN silently, as ``analyze`` holds one error state per analysis
    with np.errstate(all="ignore"):
        # the elements of each column; the vector method's cover them all
        if method == "vector-epsilon":
            per_column = [vector_epsilon_diagonal(data, tf)]
        else:
            transform = aitken if method == "aitken" else epsilon_diagonal
            per_column = [transform(data[:, c], tf) for c in range(data.shape[1])]
        # one row per index: the columns' values side by side, and how
        # many of them stalled
        values = list(np.column_stack([[e.value for e in col] for col in per_column]))
        stalled = [sum(e.stalled for e in elements) for elements in zip(*per_column)]

        agree = next((i for i in range(1, len(values))
                      if seq_norm(values[i] - values[i - 1], tf) <= args.delta), None)

    print(f"elements: {len(values)}")
    print(f"stalled elements: {sum(1 for s in stalled if s)}")
    if agree is None:
        print(f"first agreement at delta={_fmt(args.delta)}: none")
    else:
        print(f"first agreement at delta={_fmt(args.delta)}: index {agree}")
    print(f"final element: {', '.join(_fmt(v) for v in values[-1])}")

    if args.output is not None and not _write(args.output, _elements_csv(names, values, stalled)):
        return 1
    return 0


def _elements_csv(names: list[str], values: list[np.ndarray], stalled: list[int]) -> str:
    """The transformed elements as CSV: index, one column per name, and
    the stalled count."""
    line = "%d," + "%.17g," * len(names) + "%d"  # one format, each value as _fmt writes it
    lines = [",".join(["index", *names, "stalled"])]
    lines += [line % (i, *vals.tolist(), st) for i, (vals, st) in enumerate(zip(values, stalled))]
    return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1, keeping
    status 2 free to mean "analysis did not converge"."""

    def error(self, message):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fixaccel",
        description="Interval invariants for affine loops, with optional "
        "sequence-transformation acceleration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="compute an interval invariant for a loop program",
        description="Run the fixpoint engine over a loop program file.",
    )
    pa.add_argument("program", help="path to the loop program")
    # the dests are EngineConfig's fields, whose defaults set_defaults reads
    pa.add_argument(
        "--mode", choices=get_args(Mode), help="iteration strategy (default: %(default)s)"
    )
    pa.add_argument(
        "--method",
        choices=_METHODS,
        help="sequence transformation in accel mode; vea is an alias of "
        "vector-epsilon (default: %(default)s)",
    )
    pa.add_argument(
        "--delta",
        type=float,
        help="relative agreement tolerance between consecutive "
        "accelerated estimates; agreeing estimates are tried as a "
        "verified post-fixpoint (default: %(default)s)",
    )
    pa.add_argument(
        "--widen-delay",
        type=int,
        help="plain-join iterations before widening kicks in (widen mode; default: %(default)s)",
    )
    pa.add_argument(
        "--thresholds",
        type=_parse_thresholds,
        metavar="A,B,C",
        help="comma-separated widening thresholds; without them an "
        "unstable bound widens to infinity (widen mode; default: %(default)s)",
    )
    pa.add_argument(
        "--inject",
        dest="inject_policy",
        choices=get_args(InjectPolicy),
        help="injection policy: once drops an estimate that does not "
        "verify, and the first one that verifies ends the run; repeat, "
        "a retired policy, is accepted as an alias of once "
        "(default: %(default)s)",
    )
    pa.add_argument(
        "--fallback-after",
        type=int,
        help="acceleration budget: switch to widening after twice "
        "this many rejected estimates, or twice this many iterations "
        "since estimates last agreed (default: %(default)s)",
    )
    pa.add_argument("--max-iter", type=int, help="iteration budget (default: %(default)s)")
    pa.add_argument(
        "--stop-tol",
        type=float,
        help="maximum bound movement treated as stabilization; the "
        "stop is then finished by the vector-epsilon tip of the last "
        "rows, kept where it verifies as a post-fixpoint "
        "(0 demands bit-exact stabilization; default: %(default)s)",
    )
    pa.add_argument("--trace", metavar="PATH", help="write the iteration trace CSV here")
    pa.add_argument("--report", metavar="PATH", help="write the JSON report here")
    pa.set_defaults(func=cmd_analyze, **{f.name: f.default for f in fields(EngineConfig)})

    pc = sub.add_parser(
        "accelerate",
        help="apply a sequence transformation to CSV columns",
        description="Accelerate the column sequences of a numeric CSV "
        "file and report the first index at which consecutive "
        "accelerated elements agree.",
    )
    pc.add_argument("csv", help="path to the CSV file (header row of column names)")
    pc.add_argument(
        "--method",
        choices=_METHODS,
        help="sequence transformation; vea is an alias of vector-epsilon (default: %(default)s)",
    )
    pc.add_argument(
        "--delta",
        type=float,
        default=1e-3,
        help="agreement tolerance between consecutive elements (default: %(default)s)",
    )
    # the dests of --stall-tol and --norm are TransformConfig's fields
    pc.add_argument(
        "--stall-tol",
        dest="stall_tolerance",
        type=float,
        metavar="STALL_TOL",
        help="relative threshold under which a difference counts as a "
        "stall (default: %(default)s)",
    )
    pc.add_argument(
        "--norm", choices=get_args(Norm), help="norm for agreement checks (default: %(default)s)"
    )
    pc.add_argument("--output", metavar="PATH", help="write the accelerated elements CSV here")
    pc.set_defaults(func=cmd_accelerate, method=EngineConfig.method, **asdict(TransformConfig()))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call only: a build
    leaves argparse objects in reference cycles that only the cyclic
    garbage collector frees, so one build per call kept memory growing
    between collections.  Parsing does not change the parser."""
    return build_parser()


@functools.cache
def _options() -> dict[str, tuple[dict[str, argparse.Action], list[argparse.Action], dict]]:
    """The option table ``_read`` reads argv from, built once from the
    actions and defaults of ``_parser()``: per subcommand, its long
    options that store one value, by option string; its positionals in
    order; and the values its Namespace holds before any argument is read
    (the subcommand's name, each action's default and the other values
    of ``set_defaults``)."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, parser in sub.choices.items():
        stores = [a for a in parser._actions if type(a) is argparse._StoreAction and a.nargs is None]
        table[name] = (
            {s: a for a in stores for s in a.option_strings if s.startswith("--")},
            [a for a in parser._actions if not a.option_strings],
            {sub.dest: name, **parser._defaults,
             **{a.dest: a.default for a in parser._actions if a.default is not argparse.SUPPRESS}},
        )
    return table


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace ``_parser().parse_args(argv)`` returns, read from the
    option table: the subcommand first, then its positionals and exact
    long options (``--opt value`` or ``--opt=value``) in any order, each
    value through its action's ``type`` and ``choices``.  None where only
    argparse can read ``argv``: any other token (``-h``, an abbreviation,
    ``--``), a separate value starting with ``-`` (argparse's rule for
    negative numbers), the value ``--`` in the ``=`` form, a value its
    type or choices reject, or a missing or extra positional."""
    entry = _options().get(argv[0]) if argv else None
    if entry is None:
        return None
    options, positionals, defaults = entry
    values = dict(defaults)
    positionals = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            action, value = next(positionals, None), token
        elif token in options:
            # a missing value reads as one starting with "-"
            action, value = options[token], next(tokens, "-")
            if value.startswith("-"):
                return None
        else:
            name, eq, value = token.partition("=")
            action = options.get(name) if eq and value != "--" else None
        if action is None:
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if next(positionals, None) is not None:
        return None
    return argparse.Namespace(**values)


def _cut(argv: list[str]) -> list[str]:
    """``argv`` up to its first ``--opt=--``, given as ``--opt`` with its
    value missing, where ``--opt`` is one option of the table, by its name
    or an abbreviation; ``argv`` itself if it has none before a bare
    ``--``."""
    entry = _options().get(argv[0]) if argv else None
    options = entry[0] if entry else {}
    for i, token in enumerate(argv):
        if token == "--":
            break
        if token.endswith("=--") and token.startswith("--"):
            name = token[:-3]
            if sum(option.startswith(name) for option in options) == 1:
                return [*argv[:i], name]
    return argv


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand ``argv`` names (``sys.argv[1:]`` when None) and
    return its exit status.

    A well-formed ``argv`` is read straight from the option table
    (``_read``); any other goes to ``_parser().parse_args``, so help,
    abbreviated options and usage errors (exit 1) are argparse's own.
    Both read ``argv`` as ``_cut`` leaves it.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = _cut(argv)
    args = _read(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # standard output closed early (``fixaccel analyze ... | head``).
        # The interpreter flushes it again at exit, so it goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
