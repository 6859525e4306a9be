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
affine: an optional constant plus coefficient*variable terms, where the
constants may not sum to NaN.
"""
from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import gt

import numpy as np

from .extraction import bound_row, state_from_row
from .intervals import INF, AbstractState, Interval

_KEYWORDS = {"state", "input", "loop", "in"}

# One anchored match per token: skip whitespace and comments, then
# capture a number, a name, a punctuation mark, or one unexpected
# character.  Only the matches that end the text capture nothing.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (
        (?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
      | [A-Za-z_][A-Za-z_0-9]*
      | [;,\[\]{}=*+-]
      | .
    )?
    """,
    re.VERBOSE,
)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUM_START = frozenset("0123456789.")
# the one-character texts a token may have; any other is an unexpected character
_SHORT_TOKENS = _NAME_START | frozenset("0123456789;,[]{}=*+-")


class ParseError(ValueError):
    """Syntax or scoping error, carrying source line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending with one ``""`` for the end of
    input.  A token's kind follows from its first character."""
    tokens = _TOKEN_RE.findall(text)
    while tokens and not tokens[-1]:
        tokens.pop()
    bad = {tok for tok in set(tokens) if len(tok) == 1} - _SHORT_TOKENS
    if bad:
        k = min(map(tokens.index, bad))
        raise _error(text, k, f"unexpected character {tokens[k]!r}")
    tokens.append("")
    return tokens


def _error(text: str, k: int, message: str) -> ParseError:
    """A ParseError at the ``k``-th token of ``text`` (one past the last:
    the end of the input).  The offset comes from matching the text
    again; line and column are worked out from it, a tab or CR counting
    as one column."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), k, None))
    offset = m.start(1) if m.group(1) else len(text)
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


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

    @cached_property
    def lowered(self) -> LoweredBody:
        """The body lowered to slot arithmetic, built on first use."""
        return LoweredBody(self)

    def row_of(self, x: AbstractState) -> list[float]:
        """The bound row of ``x``, which must hold this program's state
        variables in declaration order."""
        if x.names != self.state_names:
            raise ValueError(
                f"state variables {x.names} do not match program {self.state_names}"
            )
        return bound_row(x).tolist()


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


# (target, lo_slot, hi_slot, const, terms, reads); see LoweredBody
Step = tuple[int, int, int, float, tuple[tuple[float, int, int], ...], tuple[int, ...]]

# The fewest products (terms, plus one per step for its constant) the
# first run of a body must hold for the body to run as one ``_Batch``;
# a smaller body costs less as the per-step loop.
BATCH_MIN_PRODUCTS = 256

_NAN_MESSAGE = "NaN produced in affine interval evaluation"


class _Batch:
    """A loop body evaluated as one batch of array operations: every
    step is independent and writes one state variable, each once.

    ``slots`` is the layout of the bounds, the state's left as zeros,
    with an extra last pair of slots that hold 1.0.  Column ``2r + h``
    of ``coeff`` and ``src`` is bound ``h`` (0 for the lower, 1 for the
    upper) of state variable ``r``.  Row 0 holds its step's constant
    times the slot that holds 1.0, row ``k`` its ``k``-th term, and the
    rows past its last term ``-0.0`` times that slot.  ``src`` lists the
    slots the bound reads: the upper bound reads the other slot of each
    pair.  Since ``v + -0.0`` is ``v`` for every ``v``, ``-0.0``
    included, the last row of the running sums is the new bound row.
    """

    __slots__ = ("width", "slots", "coeff", "src")

    def __init__(self, steps: list[Step], width: int, tail: list[float]):
        self.width = width
        self.slots = np.array([0.0] * width + tail + [1.0, 1.0])
        one = len(self.slots) - 2
        steps = sorted(steps)  # by target, which is the state's order
        depth = 1 + max(len(step[4]) for step in steps)
        pad = depth - 1
        coeffs: list[float] = []
        srcs: list[int] = []
        for _, _, _, const, terms, _ in steps:
            coeff = [const, *(c for c, _, _ in terms)] + [-0.0] * (pad - len(terms))
            src = [one, *(lo for _, lo, _ in terms)] + [one] * (pad - len(terms))
            coeffs += coeff + coeff
            srcs += src + [k ^ 1 for k in src]
        self.coeff = np.array(coeffs).reshape(width, depth).T.copy()
        self.src = np.array(srcs, dtype=np.intp).reshape(width, depth).T.copy()

    def image(self, row: list[float]) -> list[float]:
        """``LoweredBody.image`` of a row without Bottom.  Each bound
        sums its products left to right from the constant, as the
        per-step loop does, so every value is bit-identical to it.  It
        enters no error state: overflow to inf is silent only under the
        caller's ``np.errstate``."""
        b = self.slots.copy()
        b[: self.width] = row
        acc = self.coeff * b.take(self.src)
        np.add.accumulate(acc, axis=0, out=acc)
        last = acc[-1]
        low = last.min()  # NaN if any value is NaN
        if low != low:
            raise ValueError(_NAN_MESSAGE)
        return last.tolist()


def _fold_copies(batch: list[Step], run: list[Step], reads: Counter, width: int,
                 one: int) -> list[Step] | None:
    """``batch`` with the unit copies of ``run`` folded in, or None
    unless every step of ``run`` is one.

    A unit copy is ``x = c + 1.0*t``, where ``t`` is a temporary that
    ``batch`` computes, no other step reads, and ``x`` is no target of
    ``batch``.  Its folded step computes what ``t``'s does, plus a term
    ``c`` times the slot that holds 1.0, and writes ``x``: ``S + c``
    rounds as ``c + S`` does, and ``1.0*S`` is ``S``.
    """
    sources = {step[0]: step for step in batch}
    folded = dict(sources)
    for target, lo, hi, const, terms, read in run:
        if len(read) != 1 or len(terms) != 1 or terms[0][0] != 1.0:
            return None
        t = read[0]
        if 2 * t < width or t not in sources or reads[t] != 1 or target in sources:
            return None
        _, _, _, t_const, t_terms, t_reads = folded.pop(t)
        folded[target] = (target, lo, hi, t_const, (*t_terms, (const, one, one)), t_reads)
    return list(folded.values())


def _batch(steps: tuple[Step, ...], width: int, tail: list[float]) -> _Batch | None:
    """The whole-body kernel of ``steps``, or None for the per-step loop.

    The body splits into runs of consecutive steps that read and write
    no variable an earlier step of the same run writes.  It is one batch
    when it is one such run, optionally followed by a second run of unit
    copies that ``_fold_copies`` folds into the first; the first run
    alone holds at least BATCH_MIN_PRODUCTS products; and the batch, the
    copies folded, writes every state variable exactly once.  A Jacobi
    body, temporaries and then the copies back into the states, is the
    traffic this serves; a Gauss-Seidel sweep starts a new run at nearly
    every step.
    """
    runs: list[list[Step]] = [[]]
    written: set[int] = set()
    for step in steps:
        if step[0] in written or not written.isdisjoint(step[5]):
            if len(runs) == 2:
                return None
            runs.append([])
            written = set()
        runs[-1].append(step)
        written.add(step[0])
    batch = runs[0]
    if sum(1 + len(step[4]) for step in batch) < BATCH_MIN_PRODUCTS:
        return None
    if len(runs) == 2:
        reads = Counter(k for step in steps for k in step[5])
        batch = _fold_copies(batch, runs[1], reads, width, width + len(tail))
        if batch is None:
            return None
    if sorted(step[0] for step in batch) != list(range(width // 2)):
        return None
    return _Batch(batch, width, tail)


class LoweredBody:
    """A loop body as slot arithmetic on a flat list of bounds.

    Variable ``k`` owns slots ``2k`` (lower bound) and ``2k + 1`` (upper
    bound): the state variables first, in declaration order, so the
    first ``width`` slots are laid out like ``extraction.bound_row``;
    then the inputs, whose declared bounds are constant slots (``tail``
    holds them, then a placeholder pair per temporary); then the
    temporaries.  A step ``(target, lo_slot, hi_slot, const, terms,
    reads)`` is one assignment.  Each term ``(coeff, src_for_lo,
    src_for_hi)`` has its source slots picked by the sign of ``coeff``,
    and zero coefficients are dropped.  ``reads`` lists every variable
    the right-hand side names, zero coefficients included, so that a
    Bottom read still makes the target Bottom.

    ``batch`` is the whole body as one ``_Batch`` of array operations
    (see ``_batch``), or None for the per-step loop, always so for a
    body with a Bottom input.  ``image`` runs exactly one of the two.
    """

    __slots__ = ("width", "tail", "steps", "bottom_inputs", "batch")

    def __init__(self, p: Program):
        """Lower ``p``.  Raises ValueError on a non-finite constant or
        coefficient or on an input that shares a state variable's name,
        and KeyError on a variable read before it has a value."""
        ids = {name: k for k, (name, _) in enumerate(p.state_vars)}
        tail: list[float] = []
        bottom_inputs: set[int] = set()
        for name, rng in p.input_vars:
            if name in ids:
                raise ValueError(f"input {name!r} is also a state variable")
            ids[name] = len(ids)
            tail += (rng.lo, rng.hi)
            if rng.is_bottom:
                bottom_inputs.add(ids[name])
        steps: list[Step] = []
        isfinite = math.isfinite
        for a in p.body:
            const = _finite(a.const, "constant term")
            terms: list[tuple[float, int, int]] = []
            reads: list[int] = []
            for coeff, var in a.terms:
                if type(coeff) is not float or not isfinite(coeff):
                    coeff = _finite(coeff, "coefficient")  # converts, or raises
                k = ids[var]
                reads.append(k)
                if coeff > 0.0:
                    terms.append((coeff, 2 * k, 2 * k + 1))
                elif coeff < 0.0:
                    terms.append((coeff, 2 * k + 1, 2 * k))
            if a.target not in ids:
                ids[a.target] = len(ids)
                tail += (0.0, 0.0)
            k = ids[a.target]
            steps.append((k, 2 * k, 2 * k + 1, const, tuple(terms), tuple(reads)))
        self.width = 2 * len(p.state_vars)
        self.tail = tuple(tail)
        self.steps = tuple(steps)
        self.bottom_inputs = frozenset(bottom_inputs)
        # a Bottom input makes the targets that read it Bottom: per-step loop
        self.batch = None if bottom_inputs else _batch(self.steps, self.width, tail)

    def image(self, row: list[float]) -> list[float]:
        """One pass of the body over a bound row of the state variables.

        Each assignment accumulates ``lo += coeff * b[src_for_lo]`` and
        ``hi += coeff * b[src_for_hi]`` in body order from ``const``:
        exactly the float operations of ``affine_eval``, so the new row
        is bit-identical to the interval evaluation.  A target that reads
        a Bottom variable becomes Bottom, ``(inf, -inf)``.  On a row
        without Bottom, a body with a ``batch`` runs as arrays instead,
        with the same operations in the same order.  No NumPy error state
        is entered here: a caller that lets a bound overflow holds one.
        """
        has_bottom = any(map(gt, row[::2], row[1::2]))
        if self.batch is not None and not has_bottom:
            return self.batch.image(row)
        b = [*row, *self.tail]
        bottom = set(self.bottom_inputs)
        if has_bottom:
            bottom.update(k for k in range(len(row) // 2) if row[2 * k] > row[2 * k + 1])
        for target, lo_slot, hi_slot, const, terms, reads in self.steps:
            if bottom:
                if not bottom.isdisjoint(reads):
                    bottom.add(target)
                    b[lo_slot] = INF
                    b[hi_slot] = -INF
                    continue
                bottom.discard(target)
            lo = hi = const
            for coeff, src_lo, src_hi in terms:
                lo += coeff * b[src_lo]
                hi += coeff * b[src_hi]
            if lo != lo or hi != hi:
                raise ValueError(_NAN_MESSAGE)
            b[lo_slot] = lo
            b[hi_slot] = hi
        return b[: self.width]


class _Parser:
    """Recursive descent over the token texts; ``pos`` indexes the next
    token, and errors are reported at a token index."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error(self, message: str, k: int | None = None) -> ParseError:
        return _error(self.text, self.pos if k is None else k, message)

    def expect(self, text: str) -> None:
        tok = self.peek()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok[:1] not in _NAME_START or tok in _KEYWORDS:
            raise self.error(f"expected {what}, found {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def number(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok in ("+", "-"):
            self.advance()
            sign = -1.0 if tok == "-" else 1.0
            tok = self.peek()
        if tok[:1] not in _NUM_START:
            raise self.error(f"expected a number, found {tok or 'end of input'!r}")
        self.advance()
        return sign * float(tok)

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
        while self.peek() in ("state", "input"):
            kw = self.advance()
            at = self.pos
            name = self.expect_name("a variable name")
            if name in declared:
                raise self.error(f"variable {name!r} declared twice", at)
            declared.add(name)
            self.expect("in")
            iv = self.interval()
            self.expect(";")
            (states if kw == "state" else inputs).append((name, iv))
        if not states:
            raise self.error("program declares no state variables")
        body = self.loop_body({n for n, _ in states}, {n for n, _ in inputs})
        tok = self.peek()
        if tok:
            raise self.error(f"unexpected trailing input {tok!r}")
        return Program(tuple(states), tuple(inputs), tuple(body))

    def loop_body(self, states: set[str], inputs: set[str]) -> list[Assignment]:
        self.expect("loop")
        self.expect("{")
        in_scope = states | inputs
        body: list[Assignment] = []
        while self.peek() != "}":
            if not self.peek():
                raise self.error("unterminated loop body (missing '}')")
            at = self.pos
            target = self.expect_name("an assignment target")
            if target in inputs:
                raise self.error(f"cannot assign to input variable {target!r}", at)
            self.expect("=")
            const, terms = self.affine_expr(in_scope)
            self.expect(";")
            if const != const:
                raise self.error("the constant terms sum to NaN", at)
            body.append(Assignment(target, const, tuple(terms)))
            in_scope.add(target)
        self.advance()  # '}'
        return body

    def affine_expr(
        self, in_scope: set[str]
    ) -> tuple[float, list[tuple[float, str]]]:
        """``[+|-] term {(+|-) term}``, a term being ``num``, ``num*var``
        or ``var``."""
        tokens = self.tokens
        const = 0.0
        terms: list[tuple[float, str]] = []
        sign = 1.0
        if tokens[self.pos] in ("+", "-"):
            sign = -1.0 if tokens[self.pos] == "-" else 1.0
            self.pos += 1
        while True:
            tok = tokens[self.pos]
            if tok[:1] in _NUM_START:
                self.pos += 1
                value = sign * float(tok)
                if tokens[self.pos] == "*":
                    self.pos += 1
                    at = self.pos
                    var = self.expect_name("a variable name")
                    self.check_scope(var, in_scope, at)
                    terms.append((value, var))
                else:
                    const += value
            elif tok[:1] in _NAME_START and tok not in _KEYWORDS:
                self.check_scope(tok, in_scope, self.pos)
                self.pos += 1
                if tokens[self.pos] == "*":
                    raise self.error("non-affine expression: variable*... is not allowed")
                terms.append((sign, tok))
            else:
                raise self.error(f"expected a term, found {tok or 'end of input'!r}")
            tok = tokens[self.pos]
            if tok not in ("+", "-"):
                return const, terms
            sign = -1.0 if tok == "-" else 1.0
            self.pos += 1

    def check_scope(self, name: str, in_scope: set[str], at: int) -> None:
        if name not in in_scope:
            raise self.error(
                f"variable {name!r} is not declared and not assigned "
                "earlier in the body",
                at,
            )


# ASCII characters str.split() breaks at that the tokenizer does not skip
_OTHER_SPACE = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _literal(tok: str) -> float:
    """The value of the number token ``tok`` (ASCII, without
    whitespace); ValueError if it is not one.

    Of the ASCII texts that start with a digit or ``.``, ``float``
    accepts the number tokens of ``_TOKEN_RE`` and, besides them, only
    the same with underscores (``1_0``); ``inf``, ``nan`` and signs
    cannot come first.  So a text that passes holds only ``0-9 . e E +
    -`` and is one number token.
    """
    if tok[:1] not in _NUM_START or "_" in tok:
        raise ValueError(tok)
    return float(tok)


def _signed(text: str) -> float:
    """The value of ``[+|-] literal``, with or without whitespace after
    the sign, as ``_Parser.number`` computes it; ValueError if ``text``
    is not that."""
    words = text.split()
    if not (len(words) == 1 or len(words) == 2 and words[0] in ("+", "-")):
        raise ValueError(text)
    tok = "".join(words)
    sign = 1.0
    if tok[0] in "+-":
        sign = -1.0 if tok[0] == "-" else 1.0
        tok = tok[1:]
    return sign * _literal(tok)


def _read(text: str) -> Program | None:
    """The program of ``text`` read with string methods, or None when a
    statement is not one this reader verifies.

    Comments go first (``#`` always starts one).  The text is then split
    at ``{``, ``}`` and ``;`` into statements, which always end a token,
    and each statement at whitespace into chunks.  A chunk is accepted
    only as a whole: a keyword, a name, a sign, ``[sign] literal``,
    ``[sign] literal*name`` or ``[sign] name``.  Every value is made by
    the float operations of ``_Parser``, and every scope, keyword,
    duplicate, input-target and empty-interval check that could raise
    makes this return None instead, so ``_Parser`` reports it; so does
    a right-hand side whose constants sum to NaN (``1e400 - 1e400``).  A
    chunk that must be a literal and is not one raises ValueError from
    ``_literal``, which means the same.
    """
    if "#" in text:
        text = "\n".join([line.partition("#")[0] for line in text.split("\n")])
    if not text.isascii() or any(c in text for c in _OTHER_SPACE):
        return None
    head, _, rest = text.partition("{")
    body, brace, tail = rest.partition("}")
    *decls, loop = head.split(";")
    if not brace or tail.strip() or loop.split() != ["loop"]:
        return None
    states: list[tuple[str, Interval]] = []
    inputs: list[tuple[str, Interval]] = []
    in_scope: set[str] = set()  # the declared names, then the targets too
    intervals: dict[str, Interval] = {}  # by the text after "[", read once per text
    for decl in decls:
        left, _, bounds = decl.partition("[")
        words = left.split()
        if len(words) != 3 or words[2] != "in":
            return None
        kw, name, _ = words
        if kw not in ("state", "input") or not name.isidentifier() or name in _KEYWORDS:
            return None
        if name in in_scope:
            return None
        iv = intervals.get(bounds)
        if iv is None:
            lo, _, hi = bounds.partition(",")
            hi, bracket, after = hi.partition("]")
            if not bracket or after.strip():
                return None
            lo, hi = _signed(lo), _signed(hi)
            if lo > hi:
                return None
            iv = intervals[bounds] = Interval(lo, hi)
        in_scope.add(name)
        (states if kw == "state" else inputs).append((name, iv))
    if not states:
        return None
    input_names = {name for name, _ in inputs}
    *statements, last = body.split(";")
    if last.strip():
        return None
    assignments: list[Assignment] = []
    for statement in statements:
        target, eq, rhs = statement.partition("=")
        words = target.split()
        if len(words) != 1 or not eq:
            return None
        (target,) = words
        if not target.isidentifier() or target in _KEYWORDS or target in input_names:
            return None
        const = 0.0
        terms: list[tuple[float, str]] = []
        op = ""  # the sign read since the last term, if any
        after_term = False
        for chunk in rhs.split():
            if chunk[0] in "+-":
                if op:
                    return None
                op = chunk[0]
                if len(chunk) == 1:
                    continue
                chunk = chunk[1:]
            elif after_term and not op:
                return None
            sign = -1.0 if op == "-" else 1.0
            num, star, var = chunk.partition("*")
            if star:
                if var not in in_scope:
                    return None
                terms.append((sign * _literal(num), var))
            elif chunk in in_scope:
                terms.append((sign, chunk))
            else:
                const += sign * _literal(chunk)
            op = ""
            after_term = True
        if op or not after_term or const != const:
            return None
        assignments.append(Assignment(target, const, tuple(terms)))
        in_scope.add(target)
    return Program(tuple(states), tuple(inputs), tuple(assignments))


def parse(text: str) -> Program:
    """Parse program source text, raising ParseError with line/column.

    ``_read`` reads well-formed text; any text it cannot verify, which
    includes every malformed text, goes whole to the token-level
    ``_Parser``, the one source of ParseError.
    """
    try:
        program = _read(text)
    except ValueError:
        program = None
    return program if program is not None else _Parser(text).program()


def _fmt_num(x: float) -> str:
    if math.isinf(x):
        # ``inf`` would read back as a name; a literal past the float
        # range reads back as the same infinity
        return "1e999" if x > 0 else "-1e999"
    return repr(float(x))


def _fmt_expr(const: float, terms: tuple[tuple[float, str], ...]) -> str:
    parts: list[str] = []
    for coeff, var in terms:
        mag = abs(coeff)
        body = var if mag == 1.0 else f"{_fmt_num(mag)}*{var}"
        # the sign bit, not ``coeff >= 0``, so that -0.0 reads back as -0.0
        negative = math.copysign(1.0, coeff) < 0
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"{'-' if negative else '+'} {body}")
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
    result is the final value of each state variable.  The work is done
    by the lowered body (``Program.lowered``) on ``x``'s bound row; a
    bound that overflows to inf does so silently.
    """
    row = p.row_of(x)
    with np.errstate(all="ignore"):
        return state_from_row(x.names, p.lowered.image(row))
