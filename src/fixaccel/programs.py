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

The grammar is stated once, in ``_program``, which reads one of two
token lists.  ``parse`` gives it the fast chunks of ``str.split`` first;
on any chunk that is not one token, and on any error, it gives it the
regex tokens of ``_tokenize``, which locate each ParseError.
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
from .intervals import BOTTOM, AbstractState, Interval, affine_eval

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
_SIGNS = frozenset("+-")
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


# (lo_slot, const, terms); see LoweredBody
Step = tuple[int, float, tuple[tuple[float, int, int], ...]]

# A body is scheduled when it holds BATCH_MIN_PRODUCTS products (terms,
# plus one per step for its constant) and LEVEL_MIN_PRODUCTS per level:
# below either, the per-step loop costs less, lowering included.
BATCH_MIN_PRODUCTS = 256
LEVEL_MIN_PRODUCTS = 40
# A level of at least REDUCE_MIN_WIDTH bounds (two per step) sums its
# columns with one np.add.reduce straight into its slots.  A narrower
# one, such as each of a dense Gauss-Seidel chain's, keeps its table in
# the work buffer and takes the running sums in place with
# np.add.accumulate, whose last row is then its slots: that costs less
# there.  From 4 to 10 bounds wide the two kernels cost about the same,
# and reduce wins from 16 on.
REDUCE_MIN_WIDTH = 8

_NAN_MESSAGE = "NaN produced in affine interval evaluation"
# the kernels' ufunc calls, looked up once
_multiply, _accumulate, _reduce, _minimum = np.multiply, np.add.accumulate, np.add.reduce, np.minimum.reduce


def _schedule(body: tuple[Assignment, ...], ids: dict[str, int], width: int,
              inputs: list[float]) -> tuple | None:
    """The level schedule ``(slots, levels, final, base)`` of ``body``
    over the state and input variables ``ids``, or None for the per-step
    loop.

    Each step writes its own slot pair, so only read-after-write orders
    the steps: a step's level is one more than the highest level of the
    values it reads.  Node ``k < n_vars`` is variable ``k``'s value on
    entry, node ``n_vars + s`` the value step ``s`` writes.  Each term is
    a cell that reads its variable's node, or a pad if its coefficient is
    zero.  A unit copy ``x = c + 1.0*t`` folds into the step that writes
    ``t`` if no other cell reads that value and no state ends with it;
    that step then adds ``c`` times 1.0 and writes ``x`` (``S + c`` is
    ``c + S``).  Raises like ``LoweredBody``.

    ``slots`` is the template of a kernel's work buffer: the state's
    bounds (zeros here), the inputs', a pair of 1.0, and from ``base`` on
    the steps' level by level.  A level ``(src, coeff, start, stop)``
    writes ``slots[start:stop]``: column ``2j + h`` is bound ``h`` (0
    lower, 1 upper) of its ``j``-th step, row 0 the step's constant times
    1.0, row ``r`` its ``r``-th cell, and ``-0.0`` times 1.0 past its
    last cell; the upper bound reads the other slot of each pair.  As
    ``v + -0.0`` is ``v`` for every ``v``, the sum of each column, added
    row by row from row 0, is the new bound.  A level narrower than
    ``REDUCE_MIN_WIDTH`` keeps its whole table in the buffer, ending at
    ``stop``, so that its running sums end in its slots.  ``final``
    indexes the state's bounds.
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
    coeff = np.fromiter(coeffs, float, len(coeffs))
    if not np.isfinite(coeff).all():
        _finite(coeff[~np.isfinite(coeff)][0], "coefficient")  # raises
    node, count = np.fromiter(nodes, np.intp, len(nodes)), np.array(size)
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
    # by kept step: where its row 0 lower bound goes among the cells, its
    # row stride and its slot; by level: where its cells end, its depth
    # and width, and where its slots end
    col, stride, slot_of, plan = [], [], [], []
    cells, stop = 0, one + 2
    for _, group in itertools.groupby(kept, key=level.__getitem__):
        group = list(group)
        d, w = 1 + max(map(size.__getitem__, group)), 2 * len(group)
        col += range(cells, cells + w, 2)
        stride += [w] * len(group)
        # a narrow level's table ends with its slots
        stop += w if w >= REDUCE_MIN_WIDTH else d * w
        slot_of += range(stop - w, stop, 2)
        cells += d * w
        plan.append((cells, d, w, stop))
    rank = np.zeros(len(size), dtype=np.intp)
    rank[kept] = np.arange(len(kept))
    slot = np.arange(0, 2 * len(size), 2)
    slot[kept] = slot_of
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
    slots = np.ones(stop)
    slots[:width], slots[width:one] = 0.0, inputs
    levels = [(sb[end - d * w : end].reshape(d, w), cb[end - d * w : end].reshape(d, w), stop - w, stop)
              for end, d, w, stop in plan]
    f = slot[final]
    return slots, levels, np.ravel([f, f + 1], "F"), one + 2


class LoweredBody:
    """A loop body as slot arithmetic on a flat list of bounds.

    Variable ``k`` owns slots ``2k`` (lower bound) and ``2k + 1`` (upper
    bound): the state variables first, in declaration order, so the
    first ``width`` slots are laid out like ``extraction.bound_row``;
    then the inputs, whose declared bounds are constant slots; then the
    temporaries.  A body runs one interpreter.  ``schedule`` is its level
    schedule, or None for the per-step loop: ``tail`` then holds the
    inputs' bounds and a placeholder pair per temporary, and ``steps``
    the assignments, each ``(lo_slot, const, terms)``, writing slots
    ``lo_slot`` and ``lo_slot + 1``.  Each term ``(coeff, src_for_lo,
    src_for_hi)`` has its source slots picked by the sign of ``coeff``,
    and zero coefficients are dropped.  A scheduled body has no ``tail``
    or ``steps``, and keeps the ``_Kernel`` objects that run its
    schedule, each on a work buffer of its own, in ``_kernels``: an image
    takes a free one, or builds one, and gives it back, so two images in
    flight never share a buffer.

    Neither interpreter knows Bottom: a row that holds it, and every row
    of a body with a Bottom input (which has neither interpreter), goes
    to ``_affine_eval``, which reads the state names, the inputs and the
    body held in ``_program``.  That is not the Program itself, which
    holds this body in ``Program.lowered``.
    """

    __slots__ = ("width", "tail", "steps", "schedule", "_program", "_kernels")

    def __init__(self, p: Program):
        """Lower ``p``.  Raises ValueError on a non-finite constant or
        coefficient or on an input that shares a state variable's name,
        and KeyError on a variable read before it has a value."""
        ids = {name: k for k, (name, _) in enumerate(p.state_vars)}
        tail: list[float] = []
        for name, rng in p.input_vars:
            if name in ids:
                raise ValueError(f"input {name!r} is also a state variable")
            ids[name] = len(ids)
            tail += (rng.lo, rng.hi)
        self.width = 2 * len(p.state_vars)
        self._program = (p.state_names, p.input_vars, p.body)
        self._kernels: list[_Kernel] = []
        self.schedule = _schedule(p.body, ids, self.width, tail)
        self.tail = self.steps = None
        if self.schedule is None:
            self._lower_steps(p.body, ids, tail)
        if any(rng.is_bottom for _, rng in p.input_vars):
            # lowered all the same, so that a bad body raises here; every
            # image then takes _affine_eval
            self.schedule = self.tail = self.steps = None

    def _lower_steps(self, body: tuple[Assignment, ...], ids: dict[str, int], tail: list[float]) -> None:
        steps: list[Step] = []
        isfinite = math.isfinite
        for a in body:
            const = _finite(a.const, "constant term")
            terms: list[tuple[float, int, int]] = []
            for coeff, var in a.terms:
                if type(coeff) is not float or not isfinite(coeff):
                    coeff = _finite(coeff, "coefficient")  # converts, or raises
                k = ids[var]
                if coeff > 0.0:
                    terms.append((coeff, 2 * k, 2 * k + 1))
                elif coeff < 0.0:
                    terms.append((coeff, 2 * k + 1, 2 * k))
            if a.target not in ids:
                ids[a.target] = len(ids)
                tail += (0.0, 0.0)
            steps.append((2 * ids[a.target], const, tuple(terms)))
        self.tail = tuple(tail)
        self.steps = tuple(steps)

    def image(self, row: list[float] | np.ndarray) -> list[float] | np.ndarray:
        """One pass of the body over a bound row of the state variables,
        given as a list of floats or a float64 array; the image is of the
        same type.

        Each assignment accumulates ``lo += coeff * b[src_for_lo]`` and
        ``hi += coeff * b[src_for_hi]`` in body order from ``const``,
        as ``affine_eval`` does, so the row is bit-identical to interval
        evaluation; the schedule makes the same operations in the same
        order, however a level sums (see ``_Kernel``), and an array row
        takes and gives arrays there without a conversion.  The image is
        always a new row, never a view of a kernel's buffer, so a caller
        may keep it.  An array row that the schedule cannot take goes
        through the list path.  A row with a pair ``lo > hi``, which
        counts as Bottom, and every row of a body with a Bottom input,
        takes ``_affine_eval``.  No NumPy error state is entered here: a
        caller that lets a bound overflow holds one.
        """
        if type(row) is not list:
            # count_nonzero costs less than any() on a short mask
            if self.schedule is not None and not np.count_nonzero(row[::2] > row[1::2]):
                return self._run(row)
            return np.array(self.image(row.tolist()))
        has_bottom = any(map(gt, row[::2], row[1::2]))
        if self.schedule is not None and not has_bottom:
            return self._run(row).tolist()
        if has_bottom or self.steps is None:
            return self._affine_eval(row)
        b = [*row, *self.tail]
        for lo_slot, const, terms in self.steps:
            lo = hi = const
            for coeff, src_lo, src_hi in terms:
                lo += coeff * b[src_lo]
                hi += coeff * b[src_hi]
            if lo != lo or hi != hi:
                raise ValueError(_NAN_MESSAGE)
            b[lo_slot] = lo
            b[lo_slot + 1] = hi
        return b[: self.width]

    def _affine_eval(self, row: list[float]) -> list[float]:
        """The image of a row through ``intervals.affine_eval``, folded
        over the body in order: a target that reads Bottom, through any
        coefficient, becomes Bottom, ``(inf, -inf)``."""
        names, inputs, body = self._program
        env = {name: BOTTOM if lo > hi else Interval(lo, hi)
               for name, lo, hi in zip(names, row[::2], row[1::2])}
        env.update(inputs)
        for a in body:
            env[a.target] = affine_eval(a.const, [(c, env[var]) for c, var in a.terms])
        return [bound for name in names for bound in (env[name].lo, env[name].hi)]

    def _run(self, row: list[float] | np.ndarray) -> np.ndarray:
        """The schedule's image of a row without Bottom, on a free kernel."""
        kernels = self._kernels
        try:
            kernel = kernels.pop()
        except IndexError:  # all in use, or none built yet
            kernel = _Kernel(self.schedule, self.width)
        try:
            return kernel(row)
        finally:
            kernels.append(kernel)


class _Kernel:
    """A level schedule's image, run on a work buffer of its own.

    The buffer starts as a copy of the schedule's ``slots``, and every
    view into it is built here, once.  Each level gathers its cells'
    bounds, multiplies them by the coefficients and sums each column row
    by row.  A level of at least ``REDUCE_MIN_WIDTH`` columns does so
    with ``np.add.reduce`` along axis 0, straight into its slots: on a
    C-ordered table that axis is not contiguous, so NumPy adds one whole
    row to the running sums at a time, in row order, and does not sum
    pairwise as it does along a contiguous axis.  The sums start from
    ``-0.0``, which keeps a column of ``-0.0`` as ``-0.0``; reduce's own
    start, ``+0.0``, would not.  A narrower level multiplies into its
    table in the buffer and takes the running sums there with
    ``np.add.accumulate``, in the same order: the last row, which later
    levels and ``final`` read, is the sums.  The ufuncs take their
    arguments by position, which costs less than by keyword.
    """

    __slots__ = ("b", "width", "levels", "final", "base")

    def __init__(self, schedule: tuple, width: int):
        slots, levels, self.final, self.base = schedule
        self.b = b = slots.copy()
        self.width = width
        # (src, coeff, where the sums go, whether that is a table): a
        # narrow level's table ends with its slots, as _schedule laid it out
        self.levels = [
            (src, coeff, b[stop - src.size : stop].reshape(src.shape), True)
            if stop - start < REDUCE_MIN_WIDTH else (src, coeff, b[start:stop], False)
            for src, coeff, start, stop in levels
        ]

    def __call__(self, row: list[float] | np.ndarray) -> np.ndarray:
        b = self.b
        b[: self.width] = row
        take = b.take
        for src, coeff, out, table in self.levels:
            if table:
                _multiply(take(src), coeff, out)
                _accumulate(out, 0, None, out)
            else:
                acc = take(src)
                acc *= coeff
                _reduce(acc, 0, None, out, False, -0.0)
        # NaN if any step's bound is NaN: a NaN in a table stays in its
        # column's running sums down to the last row
        low = _minimum(b[self.base :])
        if low != low:
            raise ValueError(_NAN_MESSAGE)
        return take(self.final)


# ASCII characters str.split() breaks at that the tokenizer does not skip
_OTHER_SPACE = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _chunks(text: str) -> list[str] | None:
    """The fast chunks of ``text``, ending with ``""`` like the regex
    tokens, or None for text that is not ASCII or holds whitespace the
    tokenizer does not skip.

    Comments go first (``#`` always starts one), then ``;,[]{}=*``,
    which always end a token, are set apart and the text is split at
    whitespace.  So a chunk is one token or a run of tokens that no
    whitespace or punctuation separates (``-0.5``, ``x+1``, ``0.5x``).
    """
    if "#" in text:
        text = "\n".join([line.partition("#")[0] for line in text.split("\n")])
    if not text.isascii() or any(c in text for c in _OTHER_SPACE):
        return None
    for mark in ";,[]{}=*":
        text = text.replace(mark, f" {mark} ")
    chunks = text.split()
    chunks.append("")
    return chunks


def _fail(text: str | None, k: int, message: str) -> ValueError:
    """The error ``message`` at the ``k``-th token: a ParseError at its
    place in ``text``, or a plain ValueError on fast chunks (``text``
    None)."""
    return ValueError(message) if text is None else _error(text, k, message)


def _expected(what: str, tok: str, k: int, text: str | None) -> ValueError:
    return _fail(text, k, f"expected {what}, found {tok or 'end of input'!r}")


def _unread(what: str, tok: str, k: int, text: str | None) -> ValueError:
    """The error at ``tok``, which is not a variable in scope."""
    if tok.isidentifier() and tok not in _KEYWORDS:
        return _fail(text, k, f"variable {tok!r} is not declared and not assigned earlier in the body")
    return _expected(what, tok, k, text)


def _sign(tokens: list[str], k: int) -> tuple[float, str, int]:
    """The optional sign at ``tokens[k]`` (1.0 without one), the term's
    token after it and that token's index.  A sign glued to its term
    (``-0.5``, ``-x``), on fast chunks only, shares the term's index."""
    tok = tokens[k]
    if tok[:1] not in _SIGNS:
        return 1.0, tok, k
    sign = -1.0 if tok[0] == "-" else 1.0
    return (sign, tokens[k + 1], k + 1) if len(tok) == 1 else (sign, tok[1:], k)


def _bound(tokens: list[str], k: int, text: str | None) -> tuple[float, int]:
    """The value of the ``[+|-] num`` at ``tokens[k]``, and the index
    past it."""
    sign, tok, k = _sign(tokens, k)
    if tok[:1] not in _NUM_START or "_" in tok:
        raise _expected("a number", tok, k, text)
    return sign * float(tok), k + 1


def _program(tokens: list[str], text: str | None) -> Program:
    """The program that ``tokens`` spell: the grammar of the language.

    ``tokens`` is either the regex tokens of ``_tokenize(text)``, where
    an error raises a ParseError at its token, or the fast chunks of
    ``_chunks`` with ``text`` None, where an error raises a plain
    ValueError.  A fast chunk is read only as exactly one token: a name
    must pass ``isidentifier``, and a number must start with a digit or
    ``.``, hold no ``_`` and pass ``float`` (which then reads one number
    token), so any other chunk is an error.  The one exception is a sign
    glued to a declared bound or to a right-hand side's first term
    (``-0.5``, ``-x``).  Every value comes from the same float
    operations on both lists.
    """
    states: list[tuple[str, Interval]] = []
    inputs: list[tuple[str, Interval]] = []
    in_scope: set[str] = set()  # the declared names, then the targets too
    intervals: dict[tuple[str, ...], Interval] = {}  # by the tokens `lo , hi ]`
    pos = 0
    while (kw := tokens[pos]) == "state" or kw == "input":
        pos += 1
        name = tokens[pos]
        if not name.isidentifier() or name in _KEYWORDS:
            raise _expected("a variable name", name, pos, text)
        if name in in_scope:
            raise _fail(text, pos, f"variable {name!r} declared twice")
        in_scope.add(name)
        if tokens[pos + 1] != "in":
            raise _expected("'in'", tokens[pos + 1], pos + 1, text)
        pos += 2
        if tokens[pos] != "[":
            raise _expected("'['", tokens[pos], pos, text)
        start, key = pos, tuple(tokens[pos + 1 : pos + 5])
        iv = intervals.get(key)
        if iv is not None:
            pos += 5
        else:
            lo, pos = _bound(tokens, pos + 1, text)
            if tokens[pos] != ",":
                raise _expected("','", tokens[pos], pos, text)
            hi, pos = _bound(tokens, pos + 1, text)
            if tokens[pos] != "]":
                raise _expected("']'", tokens[pos], pos, text)
            pos += 1
            if lo > hi:
                raise _fail(text, pos, f"empty declared interval [{lo:g}, {hi:g}]")
            iv = Interval(lo, hi)
            if pos == start + 5:
                intervals[key] = iv
        if tokens[pos] != ";":
            raise _expected("';'", tokens[pos], pos, text)
        pos += 1
        (states if kw == "state" else inputs).append((name, iv))
    if not states:
        raise _fail(text, pos, "program declares no state variables")
    for mark in ("loop", "{"):
        if tokens[pos] != mark:
            raise _expected(repr(mark), tokens[pos], pos, text)
        pos += 1
    input_names = {name for name, _ in inputs}
    body: list[Assignment] = []
    while (target := tokens[pos]) != "}":
        if not target:
            raise _fail(text, pos, "unterminated loop body (missing '}')")
        if not target.isidentifier() or target in _KEYWORDS:
            raise _expected("an assignment target", target, pos, text)
        if target in input_names:
            raise _fail(text, pos, f"cannot assign to input variable {target!r}")
        at = pos
        pos += 1
        if tokens[pos] != "=":
            raise _expected("'='", tokens[pos], pos, text)
        # [+|-] term {(+|-) term}, a term being num, num*var or var
        sign, tok, pos = _sign(tokens, pos + 1)
        const, terms = 0.0, []
        while True:
            if tok[:1] in _NUM_START and "_" not in tok:
                value = sign * float(tok)
                pos += 1
                if tokens[pos] == "*":
                    pos += 1
                    var = tokens[pos]
                    if var not in in_scope:
                        raise _unread("a variable name", var, pos, text)
                    pos += 1
                    terms.append((value, var))
                else:
                    const += value
            elif tok in in_scope:
                pos += 1
                if tokens[pos] == "*":
                    raise _fail(text, pos, "non-affine expression: variable*... is not allowed")
                terms.append((sign, tok))
            else:
                raise _unread("a term", tok, pos, text)
            tok = tokens[pos]
            if tok == "+":
                sign = 1.0
            elif tok == "-":
                sign = -1.0
            else:
                break
            pos += 1
            tok = tokens[pos]
        if tok != ";":
            raise _expected("';'", tok, pos, text)
        pos += 1
        if const != const:
            raise _fail(text, at, "the constant terms sum to NaN")
        body.append(Assignment(target, const, tuple(terms)))
        in_scope.add(target)
    if tokens[pos + 1]:
        raise _fail(text, pos + 1, f"unexpected trailing input {tokens[pos + 1]!r}")
    return Program(tuple(states), tuple(inputs), tuple(body))


def parse(text: str) -> Program:
    """Parse program source text, raising ParseError with line/column.

    ``_program`` reads the fast chunks of ``text`` first.  Where they
    raise, because a chunk is not one token or the program has an
    error, or where there are none, it reads the regex tokens of
    ``_tokenize``: the same grammar, whose errors then carry their line
    and column.
    """
    chunks = _chunks(text)
    if chunks is not None:
        try:
            return _program(chunks, None)
        except ValueError:
            pass
    return _program(_tokenize(text), text)


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
