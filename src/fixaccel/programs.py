"""Affine loop programs: concrete syntax, parsing, and transfer function.

The input language describes a single unbounded loop over interval-
initialized state variables and interval-valued inputs::

    # comments run to end of line
    state x1 in [1, 2];
    input u1 in [1, 6];
    loop {
      xn1 = -0.4375*x1 + 0.1*u1;
      x1 = xn1;
    }

Assignments execute sequentially, so later right-hand sides see the
values written earlier in the same body pass.  Right-hand sides are
affine: an optional constant plus coefficient*variable terms.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .intervals import AbstractState, Interval, affine_eval

_KEYWORDS = {"state", "input", "loop", "in"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[;,\[\]{}=*+-])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax or scoping error, carrying source line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(raw)
        else:
            tokens.append(Token(kind, raw, line, col))
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class Assignment:
    """``target = const + sum(coeff * var)`` with sequential semantics."""

    target: str
    const: float
    terms: tuple[tuple[float, str], ...]


@dataclass(frozen=True)
class Program:
    """A parsed affine loop: declarations plus the loop body."""

    state_vars: tuple[tuple[str, Interval], ...]
    input_vars: tuple[tuple[str, Interval], ...]
    body: tuple[Assignment, ...]

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.state_vars)

    def initial_state(self) -> AbstractState:
        """The declared initial intervals, used as X_0 at the loop head."""
        return AbstractState(self.state_vars)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            shown = tok.text or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}", tok)
        return self.advance()

    def expect_name(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            shown = tok.text or "end of input"
            raise self.error(f"expected {what}, found {shown!r}", tok)
        return self.advance()

    def number(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.text in ("+", "-"):
            self.advance()
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.peek()
        if tok.kind != "num":
            shown = tok.text or "end of input"
            raise self.error(f"expected a number, found {shown!r}", tok)
        self.advance()
        return sign * float(tok.text)

    def interval(self) -> Interval:
        self.expect("[")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.expect("]")
        if lo > hi:
            raise self.error(f"empty declared interval [{lo:g}, {hi:g}]")
        return Interval(lo, hi)

    def program(self) -> Program:
        states: list[tuple[str, Interval]] = []
        inputs: list[tuple[str, Interval]] = []
        declared: set[str] = set()
        while self.peek().text in ("state", "input"):
            kw = self.advance()
            name_tok = self.expect_name("a variable name")
            if name_tok.text in declared:
                raise self.error(
                    f"variable {name_tok.text!r} declared twice", name_tok
                )
            declared.add(name_tok.text)
            self.expect("in")
            iv = self.interval()
            self.expect(";")
            (states if kw.text == "state" else inputs).append((name_tok.text, iv))
        if not states:
            raise self.error("program declares no state variables")
        body = self.loop_body({n for n, _ in states}, {n for n, _ in inputs})
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}", tok)
        return Program(tuple(states), tuple(inputs), tuple(body))

    def loop_body(self, states: set[str], inputs: set[str]) -> list[Assignment]:
        self.expect("loop")
        self.expect("{")
        in_scope = states | inputs
        body: list[Assignment] = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                raise self.error("unterminated loop body (missing '}')")
            target = self.expect_name("an assignment target")
            if target.text in inputs:
                raise self.error(
                    f"cannot assign to input variable {target.text!r}", target
                )
            self.expect("=")
            const, terms = self.affine_expr(in_scope)
            self.expect(";")
            body.append(Assignment(target.text, const, tuple(terms)))
            in_scope.add(target.text)
        self.advance()  # '}'
        return body

    def affine_expr(
        self, in_scope: set[str]
    ) -> tuple[float, list[tuple[float, str]]]:
        const = 0.0
        terms: list[tuple[float, str]] = []
        first = True
        while True:
            tok = self.peek()
            if first:
                sign = 1.0
                if tok.text in ("+", "-"):
                    self.advance()
                    sign = -1.0 if tok.text == "-" else 1.0
            else:
                if tok.text not in ("+", "-"):
                    break
                self.advance()
                sign = -1.0 if tok.text == "-" else 1.0
            first = False
            tok = self.peek()
            if tok.kind == "num":
                self.advance()
                value = sign * float(tok.text)
                if self.peek().text == "*":
                    self.advance()
                    var = self.expect_name("a variable name")
                    self.check_scope(var, in_scope)
                    terms.append((value, var.text))
                else:
                    const += value
            elif tok.kind == "name" and tok.text not in _KEYWORDS:
                self.advance()
                self.check_scope(tok, in_scope)
                if self.peek().text == "*":
                    raise self.error(
                        "non-affine expression: variable*... is not allowed"
                    )
                terms.append((sign, tok.text))
            else:
                shown = tok.text or "end of input"
                raise self.error(f"expected a term, found {shown!r}", tok)
        return const, terms

    def check_scope(self, tok: Token, in_scope: set[str]) -> None:
        if tok.text not in in_scope:
            raise self.error(
                f"variable {tok.text!r} is not declared and not assigned "
                "earlier in the body",
                tok,
            )


def parse(text: str) -> Program:
    """Parse program source text, raising ParseError with line/column."""
    return _Parser(text).program()


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _fmt_expr(const: float, terms: tuple[tuple[float, str], ...]) -> str:
    parts: list[str] = []
    for coeff, var in terms:
        mag = abs(coeff)
        body = var if mag == 1.0 else f"{_fmt_num(mag)}*{var}"
        if not parts:
            parts.append(body if coeff >= 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff >= 0 else '-'} {body}")
    if const != 0.0 or not parts:
        text = _fmt_num(abs(const))
        if not parts:
            parts.append(text if const >= 0 else f"-{text}")
        else:
            parts.append(f"{'+' if const >= 0 else '-'} {text}")
    return " ".join(parts)


def unparse(p: Program) -> str:
    """Render a Program back to source text; reparsing yields an equal
    Program (coefficients are written in round-trip-exact form)."""
    lines: list[str] = []
    for name, iv in p.state_vars:
        lines.append(f"state {name} in [{_fmt_num(iv.lo)}, {_fmt_num(iv.hi)}];")
    for name, iv in p.input_vars:
        lines.append(f"input {name} in [{_fmt_num(iv.lo)}, {_fmt_num(iv.hi)}];")
    lines.append("loop {")
    for a in p.body:
        lines.append(f"  {a.target} = {_fmt_expr(a.const, a.terms)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def transfer(p: Program, x: AbstractState) -> AbstractState:
    """One abstract execution of the loop body.

    Assignments run sequentially on a working environment seeded with
    the state intervals from ``x`` and the declared input ranges; the
    result is the final value of each state variable.
    """
    if x.names != p.state_names:
        raise ValueError(
            f"state variables {x.names} do not match program {p.state_names}"
        )
    env: dict[str, Interval] = dict(x)
    for name, rng in p.input_vars:
        env[name] = rng
    for a in p.body:
        env[a.target] = affine_eval(
            a.const, [(coeff, env[var]) for coeff, var in a.terms]
        )
    return AbstractState((name, env[name]) for name in p.state_names)
