"""Command-line behavior: output formats, determinism, exit codes."""
import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixaccel
from fixaccel import EngineConfig, TransformConfig, analyze, bundled_path, load_bundled
from fixaccel.bundled import PROGRAM_NAMES
from fixaccel.cli import _trace_csv, build_parser, main
from fixaccel.engine import IterationTrace
from fixaccel.extraction import bound_row, state_from_row
from fixaccel.transforms import EstimateStream
from test_golden import gaussian_program


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


FILTER3 = str(bundled_path("filter3.loop"))
LOWPASS1 = str(bundled_path("lowpass1.loop"))
ITERATES = str(bundled_path("lowpass2_iterates.csv"))
OVERFLOWING_CSV = "a,b\n1.7e308,1\n-1.7e308,2\n1.7e308,2.5\n-1.6e308,2.75\n1.5e308,2.875\n"


class TestAnalyze:
    def test_summary_and_exit_zero(self, capsys):
        code, out, err = run(capsys, "analyze", FILTER3)
        assert code == 0
        assert "iterations: 12" in out
        assert "injections: 1" in out
        assert "converged: true" in out
        assert "sound: true" in out
        assert "x1 in [" in out

    def test_report_json_fields(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, *_ = run(capsys, "analyze", FILTER3, "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {
            "program",
            "invariant",
            "iterations",
            "injections",
            "converged",
            "sound",
            "reason",
            "config",
        }
        assert doc["config"]["mode"] == "accel"
        assert doc["config"]["method"] == "vector-epsilon"
        assert doc["invariant"]["x1"]["upper"] == pytest.approx(8.8733, abs=1e-3)

    def test_infinities_are_strings_in_json(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        run(capsys, "analyze", LOWPASS1, "--mode", "widen", "--report", str(report))
        doc = json.loads(report.read_text())
        assert doc["invariant"]["x1"]["upper"] == "inf"
        assert doc["invariant"]["xn1"]["lower"] == "-inf"

    def test_report_escapes_control_characters_in_the_program_path(self, capsys, tmp_path):
        program = tmp_path / "a\tb\nc.loop"
        program.write_text(Path(FILTER3).read_text())
        report = tmp_path / "r.json"
        code, *_ = run(capsys, "analyze", str(program), "--report", str(report))
        assert code == 0
        with report.open() as f:
            doc = json.load(f)
        assert doc["program"] == str(program)

    def test_infinities_are_bare_in_csv(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        run(capsys, "analyze", LOWPASS1, "--mode", "widen", "--trace", str(trace))
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert rows[-1]["x1_hi"] == "inf"
        assert float(rows[-1]["x1_hi"]) == math.inf

    def test_trace_layout(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        run(capsys, "analyze", FILTER3, "--trace", str(trace))
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert rows[0]["index"] == "0"
        assert rows[0]["event"] == "initial"
        assert rows[0]["x1_lo"] == "1"
        assert [r["index"] for r in rows[1:]] == [str(i) for i in range(1, len(rows))]
        # the run ends at the injection that verified
        assert rows[-1]["event"] == "injection"
        # estimates appear exactly on the rows that computed one
        for r in rows:
            cells = [r[k] for k in r if k.startswith("accel_")]
            assert len(set(c == "" for c in cells)) == 1

    def test_outputs_are_byte_deterministic(self, capsys, tmp_path):
        pairs = []
        for tag in ("one", "two"):
            trace = tmp_path / f"t-{tag}.csv"
            report = tmp_path / f"r-{tag}.json"
            run(
                capsys,
                "analyze",
                FILTER3,
                "--trace",
                str(trace),
                "--report",
                str(report),
            )
            pairs.append((trace.read_bytes(), report.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_widen_flags(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys,
            "analyze",
            LOWPASS1,
            "--mode",
            "widen",
            "--thresholds",
            "21",
            "--report",
            str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["thresholds"] == [21.0]
        assert doc["invariant"]["x1"]["upper"] == 21.0

    @pytest.mark.parametrize("mode", ["kleene", "widen", "accel"])
    def test_header_names_the_method_only_in_accel_mode(self, capsys, tmp_path, mode):
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, "analyze", FILTER3, "--mode", mode, "--method", "aitken",
                           "--report", str(report))
        assert code in (0, 2)
        header = out.splitlines()[1]
        assert header == ("mode: accel  method: aitken" if mode == "accel" else f"mode: {mode}")
        # the report keeps every setting
        assert json.loads(report.read_text())["config"]["method"] == "aitken"

    def test_method_alias(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        run(capsys, "analyze", FILTER3, "--method", "vea", "--report", str(report))
        doc = json.loads(report.read_text())
        assert doc["config"]["method"] == "vector-epsilon"

    @pytest.mark.parametrize("mode", ["kleene", "widen", "accel"])
    def test_warns_of_each_infinite_bound_and_keeps_the_exit_code(self, capsys, tmp_path, mode):
        # kleene's seal and widening lose every bound of this program, and
        # so does an accel run whose fallback fires at once
        prog = tmp_path / "gaussian.loop"
        prog.write_text(gaussian_program(1, 8, 0.97))
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "analyze", str(prog), "--mode", mode, "--fallback-after", "1",
                             "--report", str(report))
        assert code == 0 and "sound: true" in out
        assert err.splitlines() == [f"warning: x{i} has an infinite bound" for i in range(8)]
        assert all(v == {"lower": "-inf", "upper": "inf"} for v in json.loads(report.read_text())["invariant"].values())

    def test_warns_of_the_infinite_bounds_only(self, capsys, tmp_path):
        # z doubles up and w down until they overflow, while x contracts:
        # widening loses z's upper and w's lower bound, and so does Kleene
        # at iteration 1024, which is max-iter here, so the run keeps its
        # exit code 2
        prog = tmp_path / "doubling.loop"
        prog.write_text("state x in [0.0, 1.0];\nstate z in [1.0, 1.0];\nstate w in [-1.0, -1.0];\n"
                        "loop {\n  x = 0.5*x;\n  z = 2.0*z;\n  w = 2.0*w;\n}\n")
        warnings = "warning: z has an infinite bound\nwarning: w has an infinite bound\n"
        code, out, err = run(capsys, "analyze", str(prog), "--mode", "widen")
        assert (code, err) == (0, warnings)
        assert "x in [0, 1]" in out
        code, out, err = run(capsys, "analyze", str(prog), "--mode", "kleene", "--max-iter", "1024")
        assert (code, err) == (2, warnings)
        assert "reason: max-iter" in out
        code, _, err = run(capsys, "analyze", str(prog), "--mode", "kleene", "--max-iter", "1023")
        assert (code, err) == (2, "")

    @pytest.mark.parametrize("name", sorted(PROGRAM_NAMES))
    @pytest.mark.parametrize("method", ["aitken", "epsilon", "vea"])
    def test_accel_run_on_a_bundled_program_warns_of_nothing(self, capsys, name, method):
        for policy in ("once", "repeat"):
            code, _, err = run(capsys, "analyze", str(bundled_path(f"{name}.loop")), "--method", method, "--inject", policy)
            assert (code, err) == (0, "")

    def test_exit_two_when_not_converged(self, capsys):
        code, out, _ = run(capsys, "analyze", FILTER3, "--mode", "kleene", "--max-iter", "10")
        assert code == 2
        assert "converged: false" in out

    def test_exit_one_on_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.loop")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("command, name, text", [
        ("analyze", "latin1.loop", b"# caf\xe9\nstate x in [0, 1];\nloop { x = 0.5*x; }\n"),
        ("accelerate", "latin1.csv", b"# caf\xe9\na\n1\n2\n3\n"),
    ], ids=["analyze", "accelerate"])
    def test_exit_one_on_a_file_that_is_not_utf8(self, capsys, tmp_path, command, name, text):
        path = tmp_path / name
        path.write_bytes(text)
        code, _, err = run(capsys, command, str(path))
        assert code == 1
        assert err.startswith(f"error: cannot read {path}")
        assert "Traceback" not in err

    def test_exit_one_on_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("state x in [0, 1];\nloop { x = y; }\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            # the literal overflows to inf, which lowering rejects
            ("state x in [0, 1];\nloop { x = 1e400*x; }\n", "coefficient must be finite"),
            # 1e308*u overflows to inf, and inf - inf is NaN
            (
                "state x in [0, 1];\ninput u in [1e308, 1e308];\n"
                "loop { t = 1e308*u - 1e308*u; x = 0.5*x; }\n",
                "NaN produced",
            ),
        ],
        ids=["overflowing-literal", "nan-in-evaluation"],
    )
    def test_exit_one_when_analysis_rejects_program(self, capsys, tmp_path, source, message):
        bad = tmp_path / "bad.loop"
        bad.write_text(source)
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: ")
        assert message in err

    @pytest.mark.parametrize("flag", ["--trace", "--report"])
    @pytest.mark.parametrize("target", ["missing-dir/out", "."])
    def test_exit_one_on_unwritable_output(self, capsys, tmp_path, flag, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "analyze", FILTER3, flag, path)
        assert code == 1
        assert err.startswith(f"error: cannot write {path}: ")
        assert out == ""

    def test_exit_one_when_report_names_a_non_utf8_path(self, capsys, tmp_path):
        # the byte 0xff of the file name decodes to the lone surrogate
        # U+DCFF, which the report's UTF-8 text cannot hold
        program = tmp_path / os.fsdecode(b"bad\xff.loop")
        program.write_text(Path(FILTER3).read_text())
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "analyze", str(program), "--report", str(report))
        assert code == 1
        assert err.startswith(f"error: cannot write {report}: ")
        assert "surrogates not allowed" in err
        assert out == ""

    def test_exit_one_on_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", FILTER3, "--mode", "sideways"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-iter", "0"),
            ("--fallback-after", "0"),
            ("--delta", "0"),
            ("--stop-tol", "-1"),
            ("--stop-tol", "nan"),
            ("--widen-delay", "-1"),
        ],
    )
    def test_exit_one_on_out_of_range_value(self, capsys, flag, value):
        code, out, err = run(capsys, "analyze", FILTER3, flag, value)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""


def subcommand_options(name):
    """The options of one subcommand of ``build_parser()``, by dest."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[name]._actions if a.option_strings}


class TestSettings:
    """EngineConfig and TransformConfig state each setting once: the
    options, their defaults and the report's config block are theirs."""

    @pytest.mark.parametrize(
        "command, config", [("analyze", EngineConfig), ("accelerate", TransformConfig)]
    )
    def test_every_config_field_is_an_option_with_its_default(self, command, config):
        options = subcommand_options(command)
        for f in dataclasses.fields(config):
            assert f.name in options, f.name
            assert options[f.name].default == f.default, f.name

    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_analyze_without_options_reports_the_default_config(self, capsys, tmp_path, name):
        report = tmp_path / "r.json"
        code, *_ = run(capsys, "analyze", str(bundled_path(f"{name}.loop")), "--report", str(report))
        want, _ = analyze(load_bundled(name), EngineConfig())
        assert code == (0 if want.converged and want.sound else 2)
        doc = json.loads(report.read_text())
        assert (doc["iterations"], doc["reason"]) == (want.iterations, want.reason)
        bounds = {v: (float(b["lower"]).hex(), float(b["upper"]).hex())
                  for v, b in doc["invariant"].items()}
        assert bounds == {v: (iv.lo.hex(), iv.hi.hex()) for v, iv in want.invariant}
        defaults = dataclasses.asdict(EngineConfig()) | dataclasses.asdict(TransformConfig())
        assert doc["config"] == defaults
        assert list(doc["config"]) == list(defaults)

    @pytest.mark.parametrize("command", ["analyze", "accelerate"])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert "(default: " in capsys.readouterr().out


class TestAccelerate:
    @pytest.mark.parametrize("flag, value", [("--stall-tol", "0"), ("--stall-tol", "-1")])
    def test_exit_one_on_out_of_range_value(self, capsys, flag, value):
        code, out, err = run(capsys, "accelerate", ITERATES, flag, value)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_exit_one_on_delta_not_positive(self, capsys, value):
        # the values ``analyze`` rejects: none of them can be an agreement tolerance
        code, out, err = run(capsys, "accelerate", ITERATES, "--delta", value)
        assert code == 1
        assert err == "error: delta must be positive\n"
        assert out == ""

    @pytest.mark.parametrize("target", ["missing-dir/out.csv", "."])
    def test_exit_one_on_unwritable_output(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, _, err = run(capsys, "accelerate", ITERATES, "--output", path)
        assert code == 1
        assert err.startswith(f"error: cannot write {path}: ")

    def test_summary_on_bundled_iterates(self, capsys):
        code, out, _ = run(
            capsys, "accelerate", ITERATES, "--delta", "1e-5"
        )
        assert code == 0
        assert "rows: 41" in out
        assert "method: vector-epsilon" in out
        assert "first agreement at delta=1.0000000000000001e-05: index 3" in out

    def test_insufficient_data_exits_zero(self, capsys, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text("a,b\n1,2\n3,4\n")
        code, out, _ = run(capsys, "accelerate", str(two), "--method", "epsilon")
        assert code == 0
        assert "insufficient data" in out
        # an earlier output file gives way to a header-only one
        out_csv = tmp_path / "acc.csv"
        out_csv.write_text("stale\n")
        code, out, _ = run(capsys, "accelerate", str(two), "--output", str(out_csv))
        assert code == 0
        assert "insufficient data" in out
        assert out_csv.read_text() == "index,a,b,stalled\n"

    def test_output_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "acc.csv"
        code, *_ = run(
            capsys, "accelerate", ITERATES, "--output", str(out_csv)
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert list(rows[0]) == ["index", "x1", "x2", "stalled"]
        assert len(rows) == 21  # every even-diagonal element of 41 iterates
        assert float(rows[3]["x1"]) == pytest.approx(-1.0688914, abs=1e-6)

    def test_componentwise_methods(self, capsys):
        for method in ("aitken", "epsilon"):
            code, out, _ = run(
                capsys, "accelerate", ITERATES, "--method", method
            )
            assert code == 0
            assert f"method: {method}" in out

    def test_exit_one_on_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n")
        code, _, err = run(capsys, "accelerate", str(bad))
        assert code == 1
        assert "expected 2 cells" in err

    def test_exit_one_on_non_numeric(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        code, _, err = run(capsys, "accelerate", str(bad))
        assert code == 1

    @pytest.mark.parametrize("norm", ["infinity", "euclidean"])
    @pytest.mark.parametrize("method", ["aitken", "epsilon", "vea"])
    def test_differences_that_overflow_pass_silently(self, capsys, tmp_path, method, norm):
        # finite data whose differences overflow to inf; tier-1 turns a
        # NumPy RuntimeWarning into an error
        data = tmp_path / "overflow.csv"
        data.write_text(OVERFLOWING_CSV)
        code, out, err = run(capsys, "accelerate", str(data), "--method", method, "--norm", norm)
        assert code == 0
        assert err == ""
        assert "rows: 5" in out

    def test_norms_agree_on_one_column_of_tiny_values(self, capsys, tmp_path):
        # the squared differences, about 1e-384, underflow to 0
        data = tmp_path / "tiny.csv"
        data.write_text("a\n" + "".join(f"{1e-190 * (1 + 1 / (n + 1))!r}\n" for n in range(12)))
        lines = {}
        for norm in ("infinity", "euclidean"):
            code, out, err = run(capsys, "accelerate", str(data), "--method", "aitken",
                                 "--delta", "1e-300", "--norm", norm)
            assert code == 0 and err == ""
            lines[norm] = [line for line in out.splitlines() if "first agreement" in line]
        assert lines["euclidean"] == lines["infinity"] == ["first agreement at delta=1e-300: none"]

    def test_vector_stall_floor_does_not_underflow(self, capsys, tmp_path):
        # the square of 1e-200 underflows to 0; the zero difference of the
        # first column must still stall, not make element 1 0/0 = NaN
        data = tmp_path / "linear.csv"
        data.write_text("a,b\n0,0\n1,2\n2,4\n3,6\n")
        out_csv = tmp_path / "acc.csv"
        code, out, _ = run(capsys, "accelerate", str(data), "--method", "vea",
                           "--stall-tol", "1e-200", "--output", str(out_csv))
        assert code == 0
        assert "stalled elements: 1" in out
        assert "final element: 0, 0" in out
        assert out_csv.read_text().splitlines()[2] == "1,0,0,1"

    @pytest.mark.parametrize("row, message", [
        ("3,x", "line 5: non-numeric value in data column"),
        ("3", "line 5: expected 2 cells, found 1"),
    ])
    def test_error_names_the_line_in_the_file(self, capsys, tmp_path, row, message):
        # the comment and the blank line before the bad row count too
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n# comment\n\n1,2\n{row}\n")
        code, out, err = run(capsys, "accelerate", str(bad))
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("cell", ["\u0665", "1_0", "0.\u0665"])
    def test_exit_one_on_a_number_program_literals_reject(self, capsys, tmp_path, cell):
        # float() reads these as 5, 10 and 0.5; a program literal takes
        # ASCII digits only and no "_"
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n1,2\n3,{cell}\n4,5\n", encoding="utf-8")
        code, out, err = run(capsys, "accelerate", str(bad))
        assert code == 1
        assert out == ""
        assert "line 3: non-numeric value in data column" in err


def trace_csv_per_cell(trace):
    """The trace CSV as it was first written: every cell formatted on its
    own (``"%.17g"`` for a float, blank for a missing estimate) and the
    cells of each row joined by commas."""
    names = trace.variables
    header = ["index"]
    for n in names:
        header += [f"{n}_lo", f"{n}_hi"]
    for n in names:
        header += [f"accel_{n}_lo", f"accel_{n}_hi"]
    header.append("event")
    lines = [",".join(header)]

    def row(index, bounds, accel, event):
        cells = [str(index)]
        cells += ["%.17g" % v for v in bounds]
        if accel is None:
            cells += [""] * (2 * len(names))
        else:
            cells += ["" if v is None else "%.17g" % v for v in accel]
        cells.append(event)
        return ",".join(cells)

    lines.append(row(0, bound_row(trace.initial).tolist(), None, "initial"))
    for rec in trace.records:
        lines.append(row(rec.index, rec.row, rec.accel, rec.event))
    return "\n".join(lines) + "\n"


# signed zeros, infinities, subnormals and the ends of the float range
TRACE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3]


@st.composite
def traces(draw):
    """A trace of 1-40 variables whose iterations carry no estimate, a
    full one, or one with missing cells, and whose rows are tuples or, as
    a run on arrays leaves them, read-only float64 arrays, with the number
    of iterations drawn.  The iterations are appended to the columns, as
    the engine appends them.  Cells are picked from the special floats
    and a few drawn ones."""
    values = TRACE_FLOATS + draw(st.lists(st.floats(allow_nan=False), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cells(k):
        return [values[i] for i in rng.integers(len(values), size=k)]

    n = draw(st.integers(1, 40))
    names = tuple(f"v{i}" for i in range(n))
    pairs = []
    for _ in names:
        pairs += [math.inf, -math.inf] if rng.random() < 0.1 else sorted(cells(2))
    trace = IterationTrace(variables=names, initial=state_from_row(names, pairs))
    iterations = draw(st.integers(0, 6))
    for _ in range(iterations):
        bounds = tuple(cells(2 * n))
        if draw(st.booleans()):
            bounds = np.array(bounds)
            bounds.flags.writeable = False
        kind = draw(st.sampled_from(["none", "full", "partial"]))
        accel = None if kind == "none" else tuple(cells(2 * n))
        if kind == "partial":
            accel = tuple(None if rng.random() < 0.4 else v for v in accel)
        event = draw(st.sampled_from(["plain-step", "widen-step", "injection", "fallback-widen", "converged"]))
        trace.append(bounds, accel, event)
    return trace, iterations


@settings(max_examples=200, deadline=None)
@given(traces())
def test_trace_csv_formats_each_cell_like_the_per_cell_writer(drawn):
    # the writer reads the columns, the oracle the records built from them
    trace, iterations = drawn
    assert trace.iterations == len(trace.records) == iterations
    assert _trace_csv(trace).encode() == trace_csv_per_cell(trace).encode()


def test_trace_csv_of_a_program_without_states():
    # no bound and no estimate cell: the index and the event only
    trace = IterationTrace(variables=(), initial=fixaccel.AbstractState(()))
    trace.append((), None, "converged")
    trace.append((), (), "injection")
    assert _trace_csv(trace) == trace_csv_per_cell(trace) == "index,event\n0,initial\n1,converged\n2,injection\n"


class TestTraceReplay:
    def test_exported_trace_reproduces_engine_estimates(self, capsys, tmp_path):
        """Feeding the rows of an exported trace to an ``EstimateStream``
        yields the exact estimates the engine computed along the way."""
        trace = tmp_path / "trace.csv"
        run(capsys, "analyze", FILTER3, "--trace", str(trace))
        trows = list(csv.DictReader(trace.read_text().splitlines()))
        names = [f"{var}_{side}" for var in ("x1", "x2", "x3") for side in ("lo", "hi")]
        stream = EstimateStream("vector-epsilon")
        checked = 0
        for row in trows:
            if row["event"] == "injection":
                break
            stream.push([float(row[k]) for k in names])
            if row["accel_x1_lo"]:
                estimate = ["%.17g" % v for v in stream.estimate()]
                assert [row[f"accel_{k}"] for k in names] == estimate
                checked += 6
        assert checked >= 24

    def test_widen_trace_with_infinite_bounds_exits_one(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        run(capsys, "analyze", LOWPASS1, "--mode", "widen", "--trace", str(trace))
        assert ",inf," in trace.read_text()
        code, _, err = run(capsys, "accelerate", str(trace))
        assert code == 1
        assert "cannot read" in err
        assert "non-finite" in err

    def test_replay_skips_bookkeeping_columns(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        run(capsys, "analyze", FILTER3, "--trace", str(trace))
        code, out, _ = run(capsys, "accelerate", str(trace))
        assert code == 0
        assert "columns: x1_lo, x1_hi, x2_lo, x2_hi, x3_lo, x3_hi" in out


@pytest.mark.parametrize("argv", [["analyze", FILTER3], ["accelerate", ITERATES]])
def test_closed_stdout_exits_one_without_a_traceback(argv):
    # a pipe whose read end is closed before the command starts: its
    # first write to standard output fails, as under ``| head``
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(fixaccel.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "fixaccel.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""
