"""Loop-program parsing, printing, and the abstract transfer function."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixaccel import (
    AbstractState,
    Interval,
    PROGRAM_NAMES,
    ParseError,
    bundled_source,
    load_bundled,
    parse,
    state_join,
    transfer,
    unparse,
)
from fixaccel import programs
from test_golden import gaussian_program

SMALL = """
# a one-state decaying accumulator
state x in [0, 1];
input u in [-1, 1];
loop {
  x = 0.5*x + 0.25*u;
}
"""


# Declarations and a first assignment as loops.render and unparse lay
# them out; the tests of errors that the fast chunks defer append the
# statement under test.
CANONICAL = (
    "state x in [0.0, 1.0];\nstate z in [-1.0, 1.0];\ninput u in [-1.0, 1.0];\n"
    "loop {\n  z = 0.25*x - 0.5*u;\n"
)


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

    def test_non_ascii_digit_inside_a_literal(self):
        # a literal takes ASCII digits only, after its first character
        # too; the fast chunks defer such text to the regex tokens
        with pytest.raises(ParseError, match="unexpected character '\u0665'") as exc:
            parse(CANONICAL + "  x = 0.\u0665*x;\n}\n")
        assert (exc.value.line, exc.value.col) == (6, 9)

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

    # Errors inside otherwise canonical statements, which the fast
    # chunks defer to the regex tokens; recorded before the chunks
    # existed.
    def test_undeclared_variable_in_canonical_term(self):
        self.expect(
            CANONICAL + "  x = 0.5*x + 0.5*y;\n}\n",
            "variable 'y' is not declared and not assigned earlier in the body",
            line=6,
            col=19,
        )

    def test_keyword_after_star(self):
        self.expect(
            CANONICAL + "  x = 0.5*in;\n}\n",
            "expected a variable name, found 'in'",
            line=6,
            col=11,
        )

    def test_two_signs_in_a_row(self):
        self.expect(
            CANONICAL + "  x = 0.5*x + -0.5*u;\n}\n", "expected a term, found '-'", line=6, col=15
        )
        self.expect(CANONICAL + "  x = - -x;\n}\n", "expected a term, found '-'", line=6, col=9)

    def test_missing_operator_between_canonical_terms(self):
        self.expect(CANONICAL + "  x = 0.5*x 0.25*u;\n}\n", "expected ';', found '0.25'", line=6, col=13)

    def test_trailing_sign(self):
        self.expect(CANONICAL + "  x = 0.5*x + ;\n}\n", "expected a term, found ';'", line=6, col=15)

    def test_keyword_as_canonical_target(self):
        self.expect(
            CANONICAL + "  in = 0.5*x;\n}\n", "expected an assignment target, found 'in'", line=6, col=3
        )

    @pytest.mark.parametrize("rhs, col", [("inf*x", 7), ("0.5*x + nan", 15)])
    def test_float_spellings_are_names(self, rhs, col):
        # float() reads "inf" and "nan", the language reads names
        self.expect(CANONICAL + f"  x = {rhs};\n}}\n", "is not declared", line=6, col=col)

    def test_duplicate_state_in_canonical_declarations(self):
        self.expect(
            CANONICAL.replace("loop {", "state x in [0.0, 1.0];\nloop {") + "}\n",
            "variable 'x' declared twice",
            line=4,
            col=7,
        )

    def test_declared_interval_from_inf_to_minus_inf(self):
        # (inf, -inf) is how Interval spells Bottom, which no declaration may be
        self.expect(
            CANONICAL.replace("loop {", "state w in [1e400, -1e400];\nloop {") + "}\n",
            "empty declared interval [inf, -inf]",
            line=4,
            col=27,
        )

    @pytest.mark.parametrize("rhs", ["1e400 + 0.5*x - 1e400", "1e400+0.5*x-1e400", "-1e999 + 1e999"])
    def test_constants_that_sum_to_nan(self, rhs):
        # inf + -inf: no literal spells the NaN, so unparse could not write it
        self.expect(CANONICAL + f"  y = {rhs};\n}}\n", "the constant terms sum to NaN", line=6, col=3)
        with pytest.raises(ValueError) as exc:
            _fast_parse(CANONICAL + f"  y = {rhs};\n}}\n")
        assert type(exc.value) is ValueError

    def test_underscore_in_literal(self):
        self.expect(CANONICAL + "  x = 1_0*x;\n}\n", "expected ';', found '_0'", line=6, col=8)

    def test_non_ascii_digit(self):
        self.expect(
            CANONICAL + "  x = \u0662*x;\n}\n", "unexpected character '\u0662'", line=6, col=7
        )

    @pytest.mark.parametrize(
        "statement, char, col",
        [
            ("x = 0.5*x +\xa00.5*z", "\xa0", 14),  # whitespace to str.split only
            ("x\x0c= 0.5*x", "\x0c", 4),
            ("\xe9 = 0.5*x", "\xe9", 3),  # a letter to str.isidentifier only
        ],
    )
    def test_characters_outside_the_token_grammar(self, statement, char, col):
        self.expect(
            CANONICAL + f"  {statement};\n}}\n", f"unexpected character {char!r}", line=6, col=col
        )

    def test_fractional_exponent(self):
        self.expect(CANONICAL + "  x = 1e5.5*x;\n}\n", "expected ';', found '.5'", line=6, col=10)

    def test_nonlinear_product_in_canonical_layout(self):
        self.expect(CANONICAL + "  x = 2*x*x;\n}\n", "expected ';', found '*'", line=6, col=10)

    def test_missing_semicolon_between_canonical_assignments(self):
        self.expect(
            CANONICAL.replace("0.5*u;", "0.5*u") + "  x = 0.5*x;\n}\n",
            "expected ';', found 'x'",
            line=6,
            col=3,
        )

    def test_empty_interval_after_canonical_declarations(self):
        self.expect(
            CANONICAL.replace("loop {", "state w in [2.0, 1.0];\nloop {") + "}\n",
            "empty declared interval [2, 1]",
            line=4,
            col=22,
        )


class TestUnparse:
    def test_round_trip_small(self):
        p = parse(SMALL)
        assert parse(unparse(p)) == p

    @pytest.mark.parametrize("name", ["filter3", "lowpass1", "contraction2"])
    def test_round_trip_bundled(self, name):
        p = load_bundled(name)
        assert parse(unparse(p)) == p

    @pytest.mark.parametrize(
        "text",
        [
            "state x in [0, 1e400]; loop { x = 0.5*x; }",
            "state x in [0, 1];\ninput u in [-1e400, 1]; loop { x = 0.5*x + u; }",
            "state x in [0, 1]; loop { x = 0.5*x + 1e400; }",
            "state x in [0, 1]; loop { x = 0.5*x - 1e400; }",
            "state x in [0, 1]; loop { x = -1e400*x; }",
        ],
    )
    def test_round_trip_of_infinite_values(self, text):
        # a literal past the float range reads as an infinity, which
        # unparse must write back as such a literal, not as "inf"
        p = parse(text)
        assert parse(unparse(p)) == p

    def test_round_trip_keeps_the_sign_of_a_zero_coefficient(self):
        p = parse("state x in [0, 1]; loop { x = -0.0*x + 0.5*x - 0.0*x; }")
        assert [c.hex() for c, _ in p.body[0].terms] == ["-0x0.0p+0", "0x1.0000000000000p-1", "-0x0.0p+0"]
        assert _key(parse(unparse(p))) == _key(p)

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


# ---- the grammar on fast chunks against the grammar on regex tokens ------

NAMES = ["x", "y1", "_t", "e1", "E", "inf", "nan", "loopy", "in_", "Input"]
TEMPS = ["t0", "t_1", "tmp"]
LITERALS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["0", "00", "0.0", "1.", ".5", "1e400", "1E-400", "2.5e+3", "5e-324", "1e-320",
         "0e0", "1.e5", "123456789012345678901234567890", "4.9406564584124654e-324"]
    ),
    st.builds(
        lambda m, e, s, exp: f"{m}{e}{s}{exp}",
        st.sampled_from(["1", "7.25", ".5", "3."]),
        st.sampled_from("eE"),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 400).map(str),
    ),
)
SIGNS = st.sampled_from(["", "+", "-"])
# between two tokens; an empty separator only where no name or number
# would run into the next token
SEPARATORS = [" ", " ", " ", "", "", "  ", "\t", "\n", "\r\n", " # note\n", "#;{}*=[\n", "\n# x = y;\r\n"]
# tokens an edit may put in place of another
VOCABULARY = [
    "state", "input", "loop", "in", "inf", "nan", "x", "y1", "q", "+", "-", "*", ";", "=",
    ",", "[", "]", "{", "}", "0.5", "-1", "1e400", "1_0", "2.",
]
CORRUPTIONS = [*";*+-+-[]{}=,x1.e_# \t\n@", "\u0663", "\x0b", "\x0c", "\x1c", "\xa0"]


@st.composite
def program_tokens(draw):
    """The tokens of a random well-formed program: signed literals with
    any exponent and magnitude, bare variables, constant-only right-hand
    sides and temporaries.  A constant that would make its right-hand
    side's constants sum to NaN (1e400 - 1e400) is drawn as a variable
    instead."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    n_states = draw(st.integers(1, len(names)))
    decls = [("state", name) for name in names[:n_states]]
    decls += [("input", name) for name in names[n_states:]]
    tokens = []
    for kw, name in draw(st.permutations(decls)):
        bounds = []
        for _ in range(2):
            sign, lit = draw(SIGNS), draw(LITERALS)
            bounds.append((-float(lit) if sign == "-" else float(lit), [sign, lit] if sign else [lit]))
        lo, hi = sorted(bounds, key=lambda b: b[0])
        tokens += [kw, name, "in", "[", *lo[1], ",", *hi[1], "]", ";"]
    tokens += ["loop", "{"]
    scope = list(names)
    for _ in range(draw(st.integers(0, 5))):
        target = draw(st.sampled_from(names[:n_states] + TEMPS))
        rhs = []
        const = 0.0  # summed as the parser sums it
        for k in range(draw(st.integers(1, 4))):
            sign = draw(SIGNS) if k == 0 else draw(st.sampled_from("+-"))
            rhs += [sign] if sign else []
            kind = draw(st.sampled_from(["product", "product", "variable", "constant"]))
            if kind == "constant":
                lit = draw(LITERALS)
                value = (-1.0 if sign == "-" else 1.0) * float(lit)
                if math.isnan(const + value):
                    kind = "variable"
                else:
                    const += value
                    rhs.append(lit)
            if kind == "product":
                rhs += [draw(LITERALS), "*", draw(st.sampled_from(scope))]
            elif kind == "variable":
                rhs.append(draw(st.sampled_from(scope)))
        tokens += [target, "=", *rhs, ";"]
        if target not in scope:
            scope.append(target)
    return tokens + ["}"]


def _wordy(ch):
    return ch.isalnum() or ch in "_."


def _render(tokens, rng):
    """``tokens`` as text, with random separators between them."""
    parts = [rng.choice(["", "\n", "# head\n", " \r\n"]), tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        sep = rng.choice(SEPARATORS)
        if not sep and _wordy(prev[-1]) and _wordy(tok[0]):
            sep = " "
        parts += [sep, tok]
    parts.append(rng.choice(["", "\n", "\r\n", "  # tail", "\n\n"]))
    return "".join(parts)


@st.composite
def layouts(draw):
    """A random program in a random layout."""
    tokens = draw(program_tokens())
    # one draw for the layout, not one per token
    return _render(tokens, random.Random(draw(st.integers(0, 2**32 - 1))))


def _key(p):
    """Every float of ``p`` by ``float.hex``: dataclass equality takes
    -0.0 for 0.0."""
    h = float.hex
    return (
        [(name, h(iv.lo), h(iv.hi)) for name, iv in p.state_vars],
        [(name, h(iv.lo), h(iv.hi)) for name, iv in p.input_vars],
        [(a.target, h(a.const), [(h(c), v) for c, v in a.terms]) for a in p.body],
    )


def _outcome(read, text):
    try:
        return ("program", _key(read(text)))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _token_parse(text):
    return programs._program(programs._tokenize(text), text)


def _fast_parse(text):
    """The program of the fast chunks of ``text``; ValueError where
    ``parse`` reads the regex tokens instead."""
    chunks = programs._chunks(text)
    if chunks is None:
        raise ValueError("not ASCII, or whitespace the tokenizer does not skip")
    return programs._program(chunks, None)


class TestReaderMatchesTokenParser:
    @pytest.mark.parametrize("text", [
        *(bundled_source(name) for name in PROGRAM_NAMES),
        *(unparse(load_bundled(name)) for name in PROGRAM_NAMES),
        *(gaussian_program(1, n, 0.97) for n in (3, 8, 16)),
    ], ids=[*(f"{name}-file" for name in PROGRAM_NAMES), *(f"{name}-unparse" for name in PROGRAM_NAMES),
            "gaussian3", "gaussian8", "gaussian16"])
    def test_fast_chunks_read_the_bundled_and_generated_texts(self, text):
        # laid out as the bundled files, unparse and the benchmark lay out
        # their texts: the fast chunks read them without deferring
        assert _key(_fast_parse(text)) == _key(_token_parse(text))

    @settings(max_examples=150, deadline=None)
    @given(layouts())
    def test_random_layouts(self, text):
        expected = _outcome(_token_parse, text)
        assert expected[0] == "program"
        assert _outcome(parse, text) == expected

    @settings(max_examples=100, deadline=None)
    @given(program_tokens())
    def test_unparse_output_takes_the_fast_path(self, tokens):
        p = _token_parse(" ".join(tokens))
        text = unparse(p)
        _fast_parse(text)  # does not raise
        assert _outcome(parse, text) == _outcome(_token_parse, text)

    @settings(max_examples=120, deadline=None)
    @given(layouts(), st.lists(st.tuples(
        st.integers(0, 10**6), st.sampled_from(CORRUPTIONS), st.sampled_from(["insert", "replace", "delete"])
    ), min_size=4, max_size=4))
    def test_single_character_corruptions(self, text, edits):
        # each edit is applied alone to the well-formed text
        for at, ch, edit in edits:
            at %= len(text) + 1
            if edit == "insert":
                bad = text[:at] + ch + text[at:]
            elif edit == "replace":
                bad = text[:at] + ch + text[at + 1 :]
            else:
                bad = text[:at] + text[at + 1 :]
            assert _outcome(parse, bad) == _outcome(_token_parse, bad)

    @settings(max_examples=120, deadline=None)
    @given(program_tokens(), st.integers(0, 2**32 - 1))
    def test_token_edits(self, tokens, seed):
        # a deleted, repeated or replaced token breaks one rule of the
        # grammar or of scope at a time, in a random layout
        rng = random.Random(seed)
        for _ in range(4):
            edited = list(tokens)
            at = rng.randrange(len(edited))
            edit = rng.choice(["delete", "repeat", "replace"])
            if edit == "delete":
                del edited[at]
            elif edit == "repeat":
                edited.insert(at, edited[at])
            else:
                edited[at] = rng.choice(VOCABULARY)
            text = _render(edited, rng)
            assert _outcome(parse, text) == _outcome(_token_parse, text)
