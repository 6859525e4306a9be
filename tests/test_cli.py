"""Command-line behavior: output formats, determinism, exit codes."""
import csv
import json
import math

import pytest

from fixaccel import bundled_path
from fixaccel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


FILTER3 = str(bundled_path("filter3.loop"))
LOWPASS1 = str(bundled_path("lowpass1.loop"))
ITERATES = str(bundled_path("lowpass2_iterates.csv"))


class TestAnalyze:
    def test_summary_and_exit_zero(self, capsys):
        code, out, err = run(capsys, "analyze", FILTER3)
        assert code == 0
        assert "iterations: 13" in out
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
        assert rows[-1]["event"] == "converged"
        assert any(r["event"] == "injection" for r in rows)
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

    def test_method_alias(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        run(capsys, "analyze", FILTER3, "--method", "vea", "--report", str(report))
        doc = json.loads(report.read_text())
        assert doc["config"]["method"] == "vector-epsilon"

    def test_exit_two_when_not_converged(self, capsys):
        code, out, _ = run(capsys, "analyze", FILTER3, "--mode", "kleene", "--max-iter", "10")
        assert code == 2
        assert "converged: false" in out

    def test_exit_one_on_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.loop")
        assert code == 1
        assert "cannot read" in err

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


class TestAccelerate:
    @pytest.mark.parametrize("flag, value", [("--stall-tol", "0"), ("--stall-tol", "-1")])
    def test_exit_one_on_out_of_range_value(self, capsys, flag, value):
        code, out, err = run(capsys, "accelerate", ITERATES, flag, value)
        assert code == 1
        assert err.startswith("error: ")
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


class TestTraceReplay:
    def test_exported_trace_reproduces_engine_estimates(self, capsys, tmp_path):
        """Feeding an exported trace back through the transform yields
        the exact estimates the engine computed along the way."""
        trace = tmp_path / "trace.csv"
        out_csv = tmp_path / "accel.csv"
        run(capsys, "analyze", FILTER3, "--trace", str(trace))
        run(capsys, "accelerate", str(trace), "--output", str(out_csv))
        trows = list(csv.DictReader(trace.read_text().splitlines()))
        arows = list(csv.DictReader(out_csv.read_text().splitlines()))
        checked = 0
        for row in trows:
            if row["event"] == "injection" or not row.get("accel_x1_lo"):
                continue
            depth = int(row["index"]) // 2
            for var in ("x1", "x2", "x3"):
                for side in ("lo", "hi"):
                    assert (
                        row[f"accel_{var}_{side}"] == arows[depth][f"{var}_{side}"]
                    )
                    checked += 1
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
