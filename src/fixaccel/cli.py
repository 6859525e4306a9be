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
that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .engine import EngineConfig, FixpointReport, IterationTrace, analyze
from .extraction import bound_row
from .intervals import ThresholdSet
from .programs import ParseError, parse
from .transforms import (
    TransformConfig,
    aitken,
    epsilon_diagonal,
    seq_norm,
    vector_epsilon_diagonal,
)

_METHOD_ALIASES = {"vea": "vector-epsilon"}
_METHODS = ("aitken", "epsilon", "vector-epsilon", "vea")


def _fmt(v: float) -> str:
    """One float, 17 significant digits; infinities print bare."""
    return "%.17g" % v


def _json(value, indent: int = 0) -> str:
    """Serialize to JSON with 17-significant-digit floats.

    The standard serializer renders floats in shortest-round-trip form
    and rejects infinities, so the few shapes we emit are handled here:
    floats go through ``_fmt`` (non-finite ones as quoted strings) and
    dict keys keep insertion order.
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
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
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
    lines = [",".join(header)]

    def row(index: int, bounds, accel, event: str) -> str:
        cells = [str(index)]
        cells += [_fmt(v) for v in bounds]
        if accel is None:
            cells += [""] * (2 * len(names))
        else:
            cells += ["" if v is None else _fmt(v) for v in accel]
        cells.append(event)
        return ",".join(cells)

    lines.append(row(0, bound_row(trace.initial).tolist(), None, "initial"))
    for rec in trace.records:
        lines.append(row(rec.index, rec.row, rec.accel, rec.event))
    return "\n".join(lines) + "\n"


def _report_json(
    report: FixpointReport, cfg: EngineConfig, program: str
) -> str:
    invariant = {
        name: {"lower": iv.lo, "upper": iv.hi}
        for name, iv in report.invariant
    }
    doc = {
        "program": program,
        "invariant": invariant,
        "iterations": report.iterations,
        "injections": report.injections,
        "converged": report.converged,
        "sound": report.sound,
        "reason": report.reason,
        "config": {
            "mode": cfg.mode,
            "method": cfg.method,
            "delta": cfg.delta,
            "widen_delay": cfg.widen_delay,
            "thresholds": None
            if cfg.thresholds is None
            else list(cfg.thresholds.values),
            "inject_policy": cfg.inject_policy,
            "fallback_after": cfg.fallback_after,
            "max_iter": cfg.max_iter,
            "stop_tol": cfg.stop_tol,
            "stall_tolerance": cfg.transform.stall_tolerance,
            "norm": cfg.transform.norm,
        },
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
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        source = Path(args.program).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.program}: {exc}", file=sys.stderr)
        return 1
    try:
        program = parse(source)
    except ParseError as exc:
        print(f"error: {args.program}: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = EngineConfig(
            mode=args.mode,
            method=_METHOD_ALIASES.get(args.method, args.method),
            delta=args.delta,
            widen_delay=args.widen_delay,
            thresholds=args.thresholds,
            inject_policy=args.inject,
            fallback_after=args.fallback_after,
            max_iter=args.max_iter,
            stop_tol=args.stop_tol,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report, trace = analyze(program, cfg)
    except ValueError as exc:  # a non-finite coefficient, or NaN in evaluation
        print(f"error: {args.program}: {exc}", file=sys.stderr)
        return 1

    if args.trace is not None and not _write(args.trace, _trace_csv(trace)):
        return 1
    if args.report is not None and not _write(
        args.report, _report_json(report, cfg, args.program)
    ):
        return 1

    print(f"program: {args.program}")
    print(f"mode: {cfg.mode}  method: {cfg.method}")
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
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty file")
    header = [h.strip() for h in lines[0].split(",")]
    keep = [
        j
        for j, h in enumerate(header)
        if h not in _SKIP_COLUMNS and not h.startswith("accel_")
    ]
    if not keep:
        raise ValueError("no data columns in header")
    names = [header[j] for j in keep]
    rows: list[list[float]] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(
                f"line {lineno}: expected {len(header)} cells, found {len(cells)}"
            )
        try:
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
        tf = TransformConfig(stall_tolerance=args.stall_tol, norm=args.norm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n = len(data)
    print(f"columns: {', '.join(names)}")
    print(f"rows: {n}")
    print(f"method: {method}")
    if n < 3:
        print(f"insufficient data: {n} rows, {method} needs at least 3")
        return 0

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

    if args.output is not None:
        lines = [",".join(["index"] + names + ["stalled"])]
        for i, (vals, st) in enumerate(zip(values, stalled)):
            lines.append(
                ",".join([str(i)] + [_fmt(v) for v in vals] + [str(st)])
            )
        if not _write(args.output, "\n".join(lines) + "\n"):
            return 1
    return 0


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
    pa.add_argument(
        "--mode",
        choices=("kleene", "widen", "accel"),
        default="accel",
        help="iteration strategy (default: accel)",
    )
    pa.add_argument(
        "--method",
        choices=_METHODS,
        default="vea",
        help="sequence transformation in accel mode (default: vea, "
        "an alias of vector-epsilon)",
    )
    pa.add_argument(
        "--delta",
        type=float,
        default=1e-3,
        help="agreement tolerance between consecutive accelerated "
        "estimates (default: 1e-3)",
    )
    pa.add_argument(
        "--widen-delay",
        type=int,
        default=0,
        help="plain-join iterations before widening kicks in (widen mode)",
    )
    pa.add_argument(
        "--thresholds",
        type=_parse_thresholds,
        default=None,
        metavar="A,B,C",
        help="comma-separated widening thresholds (widen mode)",
    )
    pa.add_argument(
        "--inject",
        choices=("once", "repeat"),
        default="once",
        help="how many accelerated injections to allow (default: once)",
    )
    pa.add_argument(
        "--fallback-after",
        type=int,
        default=20,
        help="iterations without an injection before switching to "
        "widening (default: 20)",
    )
    pa.add_argument(
        "--max-iter", type=int, default=10000, help="iteration budget"
    )
    pa.add_argument(
        "--stop-tol",
        type=float,
        default=3e-7,
        help="maximum bound movement treated as stabilization; the "
        "result is then inflated into a verified post-fixpoint "
        "(0 demands bit-exact stabilization; default: 3e-7)",
    )
    pa.add_argument("--trace", metavar="PATH", help="write the iteration trace CSV here")
    pa.add_argument("--report", metavar="PATH", help="write the JSON report here")
    pa.set_defaults(func=cmd_analyze)

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
        default="vea",
        help="sequence transformation (default: vea)",
    )
    pc.add_argument(
        "--delta",
        type=float,
        default=1e-3,
        help="agreement tolerance between consecutive elements",
    )
    pc.add_argument(
        "--stall-tol",
        type=float,
        default=1e-12,
        help="relative threshold under which a difference counts as a "
        "stall (default: 1e-12)",
    )
    pc.add_argument(
        "--norm",
        choices=("infinity", "euclidean"),
        default="infinity",
        help="norm for agreement checks (default: infinity)",
    )
    pc.add_argument(
        "--output", metavar="PATH", help="write the accelerated elements CSV here"
    )
    pc.set_defaults(func=cmd_accelerate)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
