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

# A body is scheduled when it holds BATCH_MIN_PRODUCTS products (terms,
# plus one per step for its constant) and LEVEL_MIN_PRODUCTS per level:
# below either, the per-step loop costs less, lowering included.
BATCH_MIN_PRODUCTS = 256
LEVEL_MIN_PRODUCTS = 40

_NAN_MESSAGE = "NaN produced in affine interval evaluation"


def _schedule(body: tuple[Assignment, ...], ids: dict[str, int], width: int,
              inputs: list[float]) -> tuple | None:
    """The level schedule ``(slots, levels, final)`` of ``body`` over the
    state and input variables ``ids``, or None for the per-step loop.

    Each step writes its own slot pair, so only read-after-write orders
    the steps: a step's level is one more than the highest level of the
    values it reads.  Node ``k < n_vars`` is variable ``k``'s value on
    entry, node ``n_vars + s`` the value step ``s`` writes.  Each term is
    a cell that reads its variable's node, or a pad if its coefficient is
    zero.  A unit copy ``x = c + 1.0*t`` folds into the step that writes
    ``t`` if no other cell reads that value and no state ends with it;
    that step then adds ``c`` times 1.0 and writes ``x`` (``S + c`` is
    ``c + S``).  Raises like ``LoweredBody``.

    ``slots`` holds the state's bounds (zeros here), the inputs', a pair
    of 1.0 and the steps' level by level.  A level ``(src, coeff, start,
    stop)`` writes ``slots[start:stop]``: column ``2j + h`` is bound ``h``
    (0 lower, 1 upper) of its ``j``-th step, row 0 the step's constant
    times 1.0, row ``r`` its ``r``-th cell, and ``-0.0`` times 1.0 past
    its last cell; the upper bound reads the other slot of each pair.  As
    ``v + -0.0`` is ``v`` for every ``v``, the last row of the running
    sums is the new bounds.  ``final`` picks the state's.
    """
    n_vars, one = len(ids), width + len(inputs)
    size = [0] * n_vars + [len(a.terms) for a in body]  # cells by node
    products = len(body) + sum(size)
    if products < BATCH_MIN_PRODUCTS:
        return None
    node_of, level = dict(ids), [0] * n_vars  # each variable's node; by node
    coeffs, nodes = [], []  # by cell
    copies = []  # (node, cell) of each unit copy of a step's value
    for s, a in enumerate(body, n_vars):
        start = len(nodes)
        for c, var in a.terms:
            coeffs.append(c)
            nodes.append(node_of[var])
        level.append(1 + max(map(level.__getitem__, nodes[start:]), default=0))
        if len(a.terms) == 1 and c == 1.0 and nodes[start] >= n_vars:
            copies.append((s, start))
        node_of[a.target] = s
    consts = [0.0] * n_vars + [_finite(a.const, "constant term") for a in body]
    coeff = np.array(coeffs, dtype=float)
    if not np.isfinite(coeff).all():
        _finite(coeff[~np.isfinite(coeff)][0], "coefficient")  # raises
    node, count = np.array(nodes, dtype=np.intp), np.array(size)
    row = np.arange(len(nodes)) + 1 - (count.cumsum() - count).repeat(count)
    pad = coeff == 0.0
    readers = np.bincount(node[~pad], minlength=len(size)).tolist()
    final = list(node_of.values())[: width // 2]  # each state's last value
    finals = set(final)
    into = list(range(len(size)))  # the step whose cells a step's go to
    folds: list[tuple[int, int, float]] = []  # (cell, row, constant) of each folded copy
    for s, j in copies:
        t = nodes[j]
        if readers[t] == 1 and t not in finals:
            folds.append((j, size[t] + 1, consts[s]))
            into[t], size[s], consts[s], level[s] = s, size[t] + 1, consts[t], level[t]
    for j, _, _ in reversed(folds):
        into[nodes[j]] = into[into[nodes[j]]]
    kept = [s for s in range(n_vars, len(size)) if into[s] == s]
    kept.sort(key=level.__getitem__)  # level by level, each in body order
    if products < LEVEL_MIN_PRODUCTS * len({level[s] for s in kept}):
        return None
    # by kept step: where its row 0 lower bound goes among the cells, and its
    # row stride; by level: its first cell, depth, width and first slot
    col, stride, levels = [], [], []
    base, cells = one + 2, 0
    for _, group in itertools.groupby(range(len(kept)), key=lambda r: level[kept[r]]):
        group = list(group)
        d, w = 1 + max(size[kept[r]] for r in group), 2 * len(group)
        col += range(cells, cells + w, 2)
        stride += [w] * len(group)
        levels.append((cells, d, w, base + 2 * group[0]))
        cells += d * w
    rank = np.zeros(len(size), dtype=np.intp)
    rank[kept] = np.arange(len(kept))
    slot = np.arange(0, 2 * len(size), 2)
    slot[kept] = base + 2 * np.arange(len(kept))
    col, stride = np.array(col), np.array(stride)
    cell = [j for j, _, _ in folds]
    row[cell] = [r for _, r, _ in folds]
    owner = rank[np.array(into).repeat(count)]
    pos = col[owner] + row * stride[owner]
    src = slot[node] + (coeff < 0.0)
    coeff[pad] = -0.0
    src[pad] = src[cell] = one
    coeff[cell] = [c for _, _, c in folds]
    cb, sb = np.full(cells, -0.0), np.full(cells, one)
    cb[col] = cb[col + 1] = [consts[s] for s in kept]
    cb[pos] = cb[pos + 1] = coeff
    sb[pos], sb[pos + 1] = src, src ^ 1
    slots = np.ones(base + 2 * len(kept))
    slots[:width], slots[width:one] = 0.0, inputs
    levels = [(sb[o : o + d * w].reshape(d, w), cb[o : o + d * w].reshape(d, w), a, a + w)
              for o, d, w, a in levels]
    f = slot[final]  # a slice when the state's bounds are contiguous
    final = slice(f[0], f[-1] + 2) if (f[1:] - f[:-1] == 2).all() else np.ravel([f, f + 1], "F")
    return slots, levels, final


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

    ``schedule`` is the body's level schedule, or None for the per-step
    loop, always so for a body with a Bottom input.  A scheduled body
    builds ``tail`` and ``steps`` at its first row with Bottom.
    """

    __slots__ = ("width", "tail", "steps", "bottom_inputs", "schedule", "_source")

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
        self.width = 2 * len(p.state_vars)
        self.bottom_inputs = frozenset(bottom_inputs)
        self._source = (p.body, ids, tail)
        self.tail = self.steps = None
        # a Bottom input makes the targets that read it Bottom: per-step loop
        self.schedule = None if bottom_inputs else _schedule(p.body, ids, self.width, tail)
        if self.schedule is None:
            self._lower_steps()

    def _lower_steps(self) -> None:
        body, ids, tail = self._source  # extended here, once _schedule has read them
        steps: list[Step] = []
        isfinite = math.isfinite
        for a in body:
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
        self.tail = tuple(tail)
        self.steps = tuple(steps)

    def image(self, row: list[float] | np.ndarray) -> list[float] | np.ndarray:
        """One pass of the body over a bound row of the state variables,
        given as a list of floats or a float64 array; the image is of the
        same type.

        Each assignment accumulates ``lo += coeff * b[src_for_lo]`` and
        ``hi += coeff * b[src_for_hi]`` in body order from ``const``,
        as ``affine_eval`` does, so the row is bit-identical to interval
        evaluation; the schedule, run on a row without Bottom, makes the
        same operations in the same order, and an array row takes and
        gives arrays there without a conversion.  An array row that the
        schedule cannot take goes through the per-step loop as a list.
        A target that reads a Bottom variable becomes Bottom,
        ``(inf, -inf)``.  No NumPy error state is entered here: a caller
        that lets a bound overflow holds one.
        """
        if type(row) is not list:
            if self.schedule is not None and not (row[::2] > row[1::2]).any():
                return self._levels(row)
            return np.array(self.image(row.tolist()))
        has_bottom = any(map(gt, row[::2], row[1::2]))
        if self.schedule is not None and not has_bottom:
            return self._levels(row).tolist()
        if self.steps is None:
            self._lower_steps()
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

    def _levels(self, row: list[float] | np.ndarray) -> np.ndarray:
        """The schedule's image of a row without Bottom."""
        slots, levels, final = self.schedule
        b = slots.copy()
        b[: self.width] = row
        for src, coeff, start, stop in levels:
            acc = b.take(src)
            acc *= coeff
            np.add.accumulate(acc, axis=0, out=acc)
            b[start:stop] = acc[-1]
        low = b[levels[0][2] :].min()  # NaN if any step's bound is NaN
        if low != low:
            raise ValueError(_NAN_MESSAGE)
        return b[final]


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
