"""Loop-program parsing, printing, and the abstract transfer function."""
import math

import pytest

from fixaccel import (
    AbstractState,
    Interval,
    ParseError,
    load_bundled,
    parse,
    state_join,
    transfer,
    unparse,
)

SMALL = """
# a one-state decaying accumulator
state x in [0, 1];
input u in [-1, 1];
loop {
  x = 0.5*x + 0.25*u;
}
"""


class TestParsing:
    def test_declarations_and_body(self):
        p = parse(SMALL)
        assert p.state_names == ("x",)
        assert dict(p.state_vars)["x"] == Interval(0, 1)
        assert dict(p.input_vars)["u"] == Interval(-1, 1)
        (a,) = p.body
        assert a.target == "x"
        assert a.const == 0.0
        assert a.terms == ((0.5, "x"), (0.25, "u"))

    def test_initial_state_is_declared_intervals(self):
        p = parse(SMALL)
        assert p.initial_state() == AbstractState([("x", Interval(0, 1))])

    def test_comments_and_whitespace_ignored(self):
        p = parse("state x in [0,1];# trailing\nloop{x=x;}")
        assert p.state_names == ("x",)

    def test_bare_variable_has_unit_coefficient(self):
        p = parse("state x in [0, 1];\nloop { x = x + 1; }")
        (a,) = p.body
        assert a.terms == ((1.0, "x"),)
        assert a.const == 1.0

    def test_negated_variable(self):
        p = parse("state x in [-1, 1];\nloop { x = -x; }")
        (a,) = p.body
        assert a.terms == ((-1.0, "x"),)

    def test_signed_numbers_in_declarations(self):
        p = parse("state x in [-2.5, -1];\nloop { x = x; }")
        assert dict(p.state_vars)["x"] == Interval(-2.5, -1)

    def test_scientific_notation(self):
        p = parse("state x in [0, 1e2];\nloop { x = 1.5e-1*x; }")
        assert dict(p.state_vars)["x"] == Interval(0, 100)
        assert p.body[0].terms == ((0.15, "x"),)

    def test_temporaries_are_not_state(self):
        p = parse(
            "state x in [0, 1];\nloop { t = 0.5*x; x = t; }"
        )
        assert p.state_names == ("x",)
        assert [a.target for a in p.body] == ["t", "x"]


class TestParseErrors:
    def expect(self, text, fragment, line=None, col=None):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line
        if col is not None:
            assert exc.value.col == col

    def test_unexpected_character(self):
        self.expect("state x in [0, 1]!;", "unexpected character", line=1, col=18)

    def test_unexpected_character_inside_body(self):
        self.expect(
            "state x in [0, 1];\nloop {\n  x = 0.5*x @ 1;\n}",
            "unexpected character '@'",
            line=3,
            col=13,
        )

    def test_position_after_trailing_comment(self):
        self.expect(
            "state x in [0, 1]; # note\nloop { x = y; }",
            "not declared",
            line=2,
            col=12,
        )

    def test_position_after_comment_lines(self):
        self.expect(
            "# header\n  # indented comment\nstate x in [0, 1];\nloop { x = 2*x*x; }",
            "expected ';'",
            line=4,
            col=15,
        )

    def test_position_after_blank_lines(self):
        self.expect(
            "state x in [0, 1];\n\n\nloop { x = x }", "expected ';'", line=4, col=14
        )

    def test_tab_counts_as_one_column(self):
        self.expect(
            "state x in [0, 1];\nloop {\n\tx =\t0.5*y;\n}",
            "not declared",
            line=3,
            col=10,
        )

    def test_position_with_crlf_line_endings(self):
        self.expect(
            "state x in [0, 1];\r\ninput u in [0, 1];\r\nloop {\r\n  u = x;\r\n}\r\n",
            "cannot assign to input",
            line=4,
            col=3,
        )

    def test_unterminated_loop_at_end_of_input(self):
        self.expect("state x in [0, 1];\nloop {", "unterminated loop", line=2, col=7)
        self.expect(
            "state x in [0, 1];\r\nloop {\r\n  x = x;\r\n",
            "unterminated loop",
            line=4,
            col=1,
        )

    def test_keyword_as_name(self):
        self.expect("state loop in [0, 1];\nloop { }", "expected a variable name")

    def test_duplicate_declaration(self):
        self.expect(
            "state x in [0, 1];\ninput x in [0, 1];\nloop { x = x; }",
            "declared twice",
            line=2,
        )

    def test_assignment_to_input(self):
        self.expect(
            "state x in [0, 1];\ninput u in [0, 1];\nloop { u = x; }",
            "input",
            line=3,
        )

    def test_undeclared_variable_use(self):
        self.expect(
            "state x in [0, 1];\nloop { x = y; }",
            "not declared and not assigned earlier",
            line=2,
        )

    def test_temporary_read_before_write(self):
        self.expect(
            "state x in [0, 1];\nloop { x = t; t = x; }",
            "not declared and not assigned earlier",
        )

    def test_nonlinear_product_rejected(self):
        self.expect(
            "state x in [0, 1];\nloop { x = x*x; }", "non-affine"
        )

    def test_unterminated_loop(self):
        self.expect("state x in [0, 1];\nloop { x = x;", "unterminated loop")

    def test_empty_declared_interval(self):
        self.expect("state x in [2, 1];\nloop { x = x; }", "empty")

    def test_missing_semicolon(self):
        self.expect("state x in [0, 1]\nloop { x = x; }", "expected")

    def test_input_after_loop(self):
        self.expect(
            "state x in [0, 1];\nloop { x = x; }\ninput u in [0, 1];",
            "trailing input",
        )


class TestUnparse:
    def test_round_trip_small(self):
        p = parse(SMALL)
        assert parse(unparse(p)) == p

    @pytest.mark.parametrize("name", ["filter3", "lowpass1", "contraction2"])
    def test_round_trip_bundled(self, name):
        p = load_bundled(name)
        assert parse(unparse(p)) == p

    def test_round_trip_preserves_exact_floats(self):
        p = parse("state x in [0, 0.1];\nloop { x = 0.30000000000000004*x; }")
        q = parse(unparse(p))
        assert q.body[0].terms[0][0] == 0.30000000000000004


class TestTransfer:
    def test_one_step_of_three_state_filter(self):
        p = load_bundled("filter3")
        x0 = p.initial_state()
        x1 = state_join(x0, transfer(p, x0))
        assert x1["x1"].lo == pytest.approx(-0.4473, abs=1e-12)
        assert x1["x1"].hi == pytest.approx(5.7165, abs=1e-12)

    def test_assignments_are_sequential(self):
        p = parse(
            "state a in [0, 1];\nstate b in [2, 3];\n"
            "loop { a = b; b = a; }"
        )
        t = transfer(p, p.initial_state())
        # b reads the a written just above, not the pre-iteration a
        assert t["a"] == Interval(2, 3)
        assert t["b"] == Interval(2, 3)

    def test_temporaries_do_not_leak_into_state(self):
        p = parse("state x in [0, 1];\nloop { t = 2*x; x = 0.5*t; }")
        t = transfer(p, p.initial_state())
        assert t.names == ("x",)
        assert t["x"] == Interval(0, 1)

    def test_input_interval_feeds_every_iteration(self):
        p = parse(
            "state x in [0, 0];\ninput u in [1, 2];\nloop { x = 0.5*x + u; }"
        )
        t1 = transfer(p, p.initial_state())
        assert t1["x"] == Interval(1, 2)
        x0 = p.initial_state()
        t2 = transfer(p, state_join(x0, transfer(p, x0)))
        assert t2["x"] == Interval(1, 3)

    def test_transfer_requires_matching_variables(self):
        p = parse(SMALL)
        wrong = AbstractState([("y", Interval(0, 1))])
        with pytest.raises(ValueError):
            transfer(p, wrong)

    def test_transfer_monotone(self):
        import numpy as np

        p = load_bundled("contraction2")
        rng = np.random.default_rng(3)
        for _ in range(100):
            lo = rng.uniform(-5, 0, size=2)
            width = rng.uniform(0, 5, size=2)
            grow = rng.uniform(0, 2, size=2)
            small = AbstractState(
                [
                    ("a", Interval(lo[0], lo[0] + width[0])),
                    ("b", Interval(lo[1], lo[1] + width[1])),
                ]
            )
            big = AbstractState(
                [
                    ("a", Interval(lo[0] - grow[0], lo[0] + width[0] + grow[1])),
                    ("b", Interval(lo[1] - grow[1], lo[1] + width[1] + grow[0])),
                ]
            )
            from fixaccel import state_leq

            assert state_leq(transfer(p, small), transfer(p, big))
