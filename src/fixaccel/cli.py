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
in CSV and as quoted strings in JSON.  A trace exported by ``analyze``
can be fed straight back into ``accelerate``: its ``index``/``event``/
``accel_*`` columns are ignored on read, and the row at index 0 holds
the initial state, so the transform sees exactly the rows the engine
saw.  Only finite data cells are accepted: a trace holding an infinite
bound (as widening can produce) is rejected as unusable input.

Exit status: 0 for a converged, verified analysis (and for any
successful acceleration), 2 when the analysis did not converge or the
result could not be verified, 1 for unusable input or an output file
that cannot be written.  ``analyze`` also names each variable with an
infinite bound on stderr (``warning: x has an infinite bound``), which
leaves the exit status as it is.
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


def _json(value, indent: int = 0) -> str:
    """Serialize to JSON with 17-significant-digit floats.

    The standard serializer renders floats in shortest-round-trip form
    and rejects infinities, so the few shapes we emit are handled here:
    floats go through ``_fmt`` (non-finite ones as quoted strings) and
    dict keys, which are names, keep insertion order.  String values go
    through the standard encoder, which escapes control characters.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value) if np.isfinite(value) else '"' + _fmt(value) + '"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _trace_csv(trace: IterationTrace) -> str:
    """The iteration trace as CSV text.

    One row per iteration plus a row at index 0 for the initial state.
    Columns: the iteration index, lower/upper bounds per variable, the
    accelerated estimate per bound (blank when none was computed this
    iteration), and the step event.
    """
    names = trace.variables
    header = ["index"]
    for n in names:
        header += [f"{n}_lo", f"{n}_hi"]
    for n in names:
        header += [f"accel_{n}_lo", f"accel_{n}_hi"]
    header.append("event")
    # one format per row, built once: the index and each bound as
    # ``_fmt`` writes it, then the blank estimate cells and the event
    # of a record without an estimate
    bounds = "%d," + "%.17g," * (2 * len(names))
    plain = bounds + "," * (2 * len(names)) + "%s"
    lines = [",".join(header), plain % (0, *bound_row(trace.initial).tolist(), "initial")]
    for index, (row, est, event) in enumerate(zip(trace.rows, trace.estimates, trace.events), 1):
        if type(row) is not tuple:
            row = row.tolist()
        if est is None:
            lines.append(plain % (index, *row, event))
        else:
            cells = ["" if v is None else _fmt(v) for v in est]
            cells.append(event)
            lines.append(bounds % (index, *row) + ",".join(cells))
    return "\n".join(lines) + "\n"


def _report_json(
    report: FixpointReport, cfg: EngineConfig, program: str
) -> str:
    """The JSON report.  Its ``config`` block holds the fields of ``cfg``
    in declaration order, then the estimator's fixed stall tolerance and
    agreement norm (``TransformConfig``'s defaults)."""
    invariant = {
        name: {"lower": iv.lo, "upper": iv.hi}
        for name, iv in report.invariant
    }
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    if cfg.thresholds is not None:
        config["thresholds"] = list(cfg.thresholds.values)
    doc = {
        "program": program,
        "invariant": invariant,
        "iterations": report.iterations,
        "injections": report.injections,
        "converged": report.converged,
        "sound": report.sound,
        "reason": report.reason,
        "config": config | asdict(TransformConfig()),
    }
    return _json(doc) + "\n"


def _parse_thresholds(text: str) -> ThresholdSet:
    try:
        values = tuple(sorted(float(part) for part in text.split(",") if part))
        return ThresholdSet(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad threshold list {text!r}: {exc}")


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure report it and return False."""
    try:
        Path(path).write_text(text)
    except (OSError, UnicodeEncodeError) as exc:  # also text naming a non-UTF-8 path
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
        if method == "vector-epsilon":
            elements = vector_epsilon_diagonal(data, tf)
            values = [np.asarray(e.value, dtype=float) for e in elements]
            stalled = [1 if e.stalled else 0 for e in elements]
        else:
            transform = aitken if method == "aitken" else epsilon_diagonal
            per_column = [transform(data[:, c], tf) for c in range(data.shape[1])]
            count = len(per_column[0])
            values = [
                np.array([col[i].value for col in per_column]) for i in range(count)
            ]
            stalled = [
                sum(1 for col in per_column if col[i].stalled) for i in range(count)
            ]

        agree = None
        for i in range(1, len(values)):
            if seq_norm(values[i] - values[i - 1], tf) <= args.delta:
                agree = i
                break

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
    lines = [",".join(["index"] + names + ["stalled"])]
    for i, (vals, st) in enumerate(zip(values, stalled)):
        lines.append(",".join([str(i)] + [_fmt(v) for v in vals] + [str(st)]))
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
        help="what to do with an estimate that does not verify: once "
        "drops it, repeat joins it in unverified and restarts the "
        "estimator; the first one that verifies ends the run "
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
        "result is then inflated into a verified post-fixpoint "
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


def main(argv: list[str] | None = None) -> int:
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
