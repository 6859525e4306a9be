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
affine: an optional constant plus coefficient*variable terms, where each
coefficient, and the sum of the constants, is finite.

The grammar is stated once, in ``_program``, which reads one of two
token lists.  ``parse`` gives it the fast chunks of ``str.split`` first;
on any chunk that is not one token, and on any error, it gives it the
regex tokens of ``_tokenize``, which locate each ParseError.

``_assign`` reads a Program's declarations and body once, states the
rules that every Program must keep to be lowered (``parse`` refuses the
text of each, and ``unparse`` adds only the rules of the text), and
lowers the body to single-assignment form, with unit copies folded; a
lowered body holds that form and the inputs' intervals, and nothing
else of the Program.  A body's exact image (``LoweredBody.image``) maps
a list of bounds to a list, through the per-step loop or, for a wide
body, a level schedule that sums each level's columns with one
``np.add.reduce``; both make the float operations of interval
evaluation in their order, and a row with Bottom folds ``affine_eval``
over the same form.  A body
without Bottom is also linear in the bounds, w -> M w + c with M >= 0 in
w = (-lo, hi) (``LoweredBody.linear``).  The engine loop's array rows,
which ``LoweredBody.loop_row`` makes, take ``linear_image``: the
schedule, or M where a body whose schedule costs more than one product
with it keeps M (``composed``), a few ulps off.
"""
from __future__ import annotations

import bisect
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

# the refusals that the grammar and ``_assign`` share
_DECLARED_TWICE = "variable {!r} declared twice"
_NOT_DECLARED = "variable {!r} is not declared and not assigned earlier in the body"
_NOT_FINITE = "assignment to {!r}: {} must be finite, got {}"


def _is_name(name: str) -> bool:
    """Whether ``name`` reads back as a variable name: an ASCII
    identifier that is no keyword."""
    return name.isascii() and name.isidentifier() and name not in _KEYWORDS


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
    """An affine loop: declarations plus the loop body.

    ``parse`` returns only Programs that lower.  One built through the
    API is checked by ``_assign``: where its body is lowered
    (``lowered``), which ``analyze`` does first, and in ``unparse``."""

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
        return bound_row(x)


# A body is scheduled when it holds BATCH_MIN_PRODUCTS products (terms,
# plus one per step for its constant) and LEVEL_MIN_PRODUCTS per level:
# below either, the per-step loop costs less, lowering included.
BATCH_MIN_PRODUCTS = 256
LEVEL_MIN_PRODUCTS = 40
# A scheduled body keeps its composed map (``LoweredBody.linear``) where
# W * W < COMPOSE_LEVEL_PRODUCTS * levels, W the row's width in bounds.
# Measured, the product's image costs as much as the schedule's at about
# 2,300 products per level, 0.66-0.9 of it at 1,024 and 0.15-0.18 at
# 192-256 (dense Gauss-Seidel sweeps of 48 and 64 states).  The map also
# costs its composition and an image per stop, and its rows are a few
# ulps off, so a one-level body of 16 states (1,024) keeps no map.
COMPOSE_LEVEL_PRODUCTS = 512

_NAN_MESSAGE = "NaN produced in affine interval evaluation"
# the kernels' ufunc calls, looked up once
_reduce, _minimum = np.add.reduce, np.minimum.reduce
_isfinite, _count = np.isfinite, np.count_nonzero


def _has_bottom(row: list[float]) -> bool:
    """Whether a bound row holds Bottom, a pair with ``lo > hi``."""
    return any(map(gt, row[::2], row[1::2]))


def _assign(p: Program) -> tuple[tuple, list[Interval]]:
    """``p``'s body in single-assignment form ``(coeffs, nodes, ends,
    steps, final)``, and its inputs' intervals in declaration order: the
    one reader of a Program's declarations and body, and the one place
    where a term's variable becomes the node it reads.

    The variables are numbered states first, then inputs.  Node ``k <
    one`` is variable ``k`` on entry, node ``one`` 1.0 and node ``one + 1
    + i`` the value step ``i`` writes, which later reads of its target
    take, an input's included.  Step ``i`` owns cells ``ends[i - 1]`` (0
    for step 0) to ``ends[i]``: its constant over 1.0, then its terms,
    zero ones too; cell ``j`` adds ``coeffs[j]`` times node ``nodes[j]``.
    ``final`` is each state's last node.  ``steps[i]`` is ``(root,
    extra)``, step ``root``'s cells then cells ``extra``, or None where a
    copy folds step ``i``: a copy ``x = c + 1.0*t`` of a value no other
    nonzero cell reads and no state ends with sums ``t``'s cells, then its
    constant (``S + c`` is ``c + S``).

    This is the one statement of the rules that a Program built through
    the API must keep to be lowered, and ``parse`` refuses the text of
    each with the same message: each name is declared once, across
    states and inputs; each term reads a name in scope, a declared one
    or an earlier step's target; and each constant and coefficient is
    finite.  A step may assign to an input, which only the API can
    build.  A Program that breaks a rule raises ValueError."""
    names = [name for name, _ in (*p.state_vars, *p.input_vars)]
    node_of = {name: k for k, name in enumerate(names)}
    if len(node_of) < len(names):
        raise ValueError(_DECLARED_TWICE.format(next(n for k, n in enumerate(names) if n in names[:k])))
    inputs = [rng for _, rng in p.input_vars]
    one = len(node_of)
    coeffs, nodes, ends, copies = [], [], [], []  # by cell, by cell, by step
    try:
        for i, a in enumerate(p.body):
            coeffs.append(a.const)
            nodes.append(one)
            for c, var in a.terms:
                coeffs.append(c)
                nodes.append(node_of[var])
            ends.append(len(nodes))
            if len(a.terms) == 1 and c == 1.0 and nodes[-1] > one:
                copies.append(i)
            node_of[a.target] = one + 1 + i
    except KeyError as exc:  # a read of a name out of scope
        raise ValueError(_NOT_DECLARED.format(exc.args[0])) from None
    if not all(map(math.isfinite, coeffs)):
        j = next(j for j, c in enumerate(coeffs) if not math.isfinite(c))
        what = "constant term" if nodes[j] == one else "coefficient"
        raise ValueError(_NOT_FINITE.format(p.body[bisect.bisect(ends, j)].target, what, float(coeffs[j])))
    final = list(node_of.values())[: len(p.state_vars)]
    steps: list = [(i, ()) for i in range(len(ends))]
    finals, readers = set(final), None  # readers: by node, nonzero cells
    for i in copies:
        t = nodes[ends[i] - 1]
        if t in finals:
            continue
        if readers is None:
            readers = [0] * (one + 1 + len(ends))
            for k in itertools.compress(nodes, coeffs):
                readers[k] += 1
        if readers[t] == 1:
            root, extra = steps[t - one - 1]
            steps[i] = (root, (*extra, ends[i] - 2))
            steps[t - one - 1] = None
    return (coeffs, nodes, ends, steps, final), inputs


def _per_step(form: tuple, width: int, inputs: list[float]) -> tuple:
    """The per-step loop's ``(tail, steps, row_twice)`` (see
    ``LoweredBody``) of the single-assignment form ``form``, inputs'
    bounds ``inputs``.  A folded step runs at its copy's place."""
    coeffs, nodes, ends, steps, final = form
    entry = width if None in steps else 0  # where the row is read
    one = entry + width + len(inputs)  # the slot of 1.0
    slot = list(range(entry, one + 2, 2))  # by node: each variable on entry, 1.0, each step
    own = dict(zip(final, range(0, width, 2)))  # each state's last value: its pair
    starts, loop, fresh = [0, *ends], [], one + 2
    for node, step in enumerate(steps, len(slot)):
        if step is None:  # its cells run in its copy's step
            slot.append(None)
            continue
        root, extra = step
        start, terms = starts[root], []
        for j in range(start + 1, ends[root]):
            c, k = float(coeffs[j]), slot[nodes[j]]
            if c > 0.0:
                terms.append((c, k, k + 1))
            elif c < 0.0:
                terms.append((c, k + 1, k))
        for j in extra:
            terms.append((float(coeffs[j]), one, one + 1))
        slot.append(own.get(node, fresh))
        fresh += 2 * (slot[-1] == fresh)  # a pair of its own if no state's last value
        loop.append((slot[-1], float(coeffs[start]), tuple(terms)))
    return (*inputs, 1.0, 1.0, *[0.0] * (fresh - one - 2)), tuple(loop), entry > 0


def _schedule(form: tuple, width: int, inputs: list[float]) -> tuple | None:
    """The level schedule ``(slots, levels, final, base)`` of the
    single-assignment form ``form``, inputs' bounds ``inputs``, or None.

    Only read-after-write orders the steps: a step's level is one more
    than the highest level of the nodes its cells read, and a step that
    folds copies takes its root's.  ``slots`` is the template of a
    kernel's work buffer: the state's bounds (zeros here), the inputs', a
    pair of 1.0, and from ``base`` on the steps' level by level.  A level
    ``(src, coeff, start, stop)`` writes ``slots[start:stop]``: column
    ``2j + h`` is bound ``h`` (0 lower, 1 upper) of its ``j``-th step, row
    ``r`` the step's ``r``-th cell, the upper bound reading the other
    slot of each pair.  A zero term, and each row past a step's last
    cell, is ``-0.0`` times 1.0; as ``v + -0.0`` is ``v``, each column's
    sum, added row by row, is the new bound.  ``final`` indexes the
    state's bounds.
    """
    coeffs, nodes, ends, steps, final = form
    products = len(nodes)
    if products < BATCH_MIN_PRODUCTS:
        return None
    one = width + len(inputs)  # the slot of 1.0, twice its node
    base = one // 2 + 1  # the node of step 0
    level, starts = [0] * base, [0, *ends]  # level by node
    for start, end in zip(starts, ends):
        level.append(1 + max(map(level.__getitem__, nodes[start:end])))
    kept = {i: level[base + step[0]] for i, step in enumerate(steps) if step is not None}
    if products < LEVEL_MIN_PRODUCTS * len(set(kept.values())):
        return None
    order = sorted(kept, key=kept.__getitem__)  # level by level, each in body order
    cells = [[*range(starts[root], ends[root]), *extra] for root, extra in map(steps.__getitem__, order)]
    count = list(map(len, cells))
    # by kept step: where its row 0 lower bound goes, its row stride and
    # its slot; by level: where its cells end, its depth, width and stop
    col, stride, slot_of, plan = [], [], [], []
    k, size, stop = 0, 0, one + 2
    for _, group in itertools.groupby(map(kept.__getitem__, order)):
        n = len(list(group))
        d, w = max(count[k : k + n]), 2 * n
        k += n
        col += range(size, size + w, 2)
        stride += [w] * n
        stop += w
        slot_of += range(stop - w, stop, 2)
        size += d * w
        plan.append((size, d, w, stop))
    slot = np.arange(0, 2 * (base + len(steps)), 2)  # by node
    slot[base + np.array(order, dtype=np.intp)] = slot_of
    count = np.array(count, dtype=np.intp)
    cell = np.fromiter(itertools.chain.from_iterable(cells), np.intp, count.sum())
    rank = np.arange(len(order)).repeat(count)  # by kept cell
    row = np.arange(len(cell)) - (count.cumsum() - count)[rank]
    pos = np.array(col)[rank] + row * np.array(stride)[rank]
    coeff = np.fromiter(coeffs, float, products)[cell]
    node = np.fromiter(nodes, np.intp, products)[cell]
    src = slot[node] + (coeff < 0.0)
    pad = (coeff == 0.0) & (node != base - 1)
    coeff[pad] = -0.0
    src[pad] = one
    cb, sb = np.full(size, -0.0), np.full(size, one)
    cb[pos] = cb[pos + 1] = coeff
    sb[pos], sb[pos + 1] = src, src ^ 1
    slots = np.ones(stop)
    slots[:width], slots[width:one] = 0.0, inputs
    levels = [(sb[end - d * w : end].reshape(d, w), cb[end - d * w : end].reshape(d, w), stop - w, stop)
              for end, d, w, stop in plan]
    f = slot[final]
    return slots, levels, np.ravel([f, f + 1], "F"), one + 2


class LoweredBody:
    """A loop body as slot arithmetic on a flat list of bounds; ``image``
    maps a list row to a list, ``linear_image`` an array row, which
    ``loop_row`` makes, to an array.

    ``_assign`` reads the Program: a lowered body holds its
    single-assignment form, in ``_form``, and its inputs' intervals, in
    ``_inputs``, and nothing else of it.  One interpreter runs the form
    on a flat list of bounds in which each node owns a pair of slots, its
    lower bound then its upper; the first ``width`` are laid out like
    ``extraction.bound_row``.  ``schedule`` is the level
    schedule, or None for the per-step loop on the row, the row again
    where ``row_twice`` (a copy folds, and so may run after a state's last
    value is written), and ``tail``: the inputs' bounds, 1.0, 1.0 and a
    zero pair per other step.  Entry values are read from the last copy
    of the row, and each state's last value is written to its pair in the
    first, which is the image.  ``steps`` are ``(lo_slot, const, terms)``
    writing slots ``lo_slot`` and ``lo_slot + 1``; a term ``(coeff,
    src_for_lo, src_for_hi)`` has its source slots picked by the sign of
    ``coeff``, and zero terms are dropped.  A scheduled body keeps the
    ``_Kernel`` objects that run its schedule, each on a work buffer of
    its own, in ``_kernels``: an image takes a free one, or builds one,
    and gives it back.  ``composed`` is None, or, for a scheduled body
    that costs more than one product with its composed map (see
    ``COMPOSE_LEVEL_PRODUCTS``), that map for ``linear_image``, ``(table,
    const)`` with ``table[k, j]`` bound ``k``'s coefficient in bound ``j``.

    Neither interpreter knows Bottom: a row that holds it, and every row
    of a body with a Bottom input (which has neither interpreter), goes
    to ``_affine_eval``, which folds ``affine_eval`` over the same form.
    """

    __slots__ = ("width", "tail", "steps", "row_twice", "schedule", "composed", "_form", "_inputs", "_kernels")

    def __init__(self, p: Program):
        """Lower ``p``, raising the errors of ``_assign``."""
        self._form, self._inputs = form, inputs = _assign(p)
        self.width = 2 * len(form[-1])  # a pair per state's last node
        self._kernels: list[_Kernel] = []
        self.schedule = self.tail = self.steps = self.row_twice = self.composed = None
        if any(rng.is_bottom for rng in inputs):
            return  # every image takes _affine_eval
        tail = [b for rng in inputs for b in (rng.lo, rng.hi)]
        self.schedule = _schedule(form, self.width, tail)
        if self.schedule is None:
            self.tail, self.steps, self.row_twice = _per_step(form, self.width, tail)
        elif (all(map(math.isfinite, tail))
              and self.width**2 < COMPOSE_LEVEL_PRODUCTS * len(self.schedule[1])):
            with np.errstate(all="ignore"):  # a map that overflows is not kept
                m, c = self.linear()
            if np.isfinite(m).all() and np.isfinite(c).all():
                sign = np.tile([-1.0, 1.0], self.width // 2)
                # the bound row is sign * w: the image's bound j is
                # sign_j * (c_j + sum over k of m[j, k] * sign_k * bound k)
                self.composed = ((m * sign).T * sign, c * sign)

    def linear(self) -> tuple[np.ndarray, np.ndarray]:
        """The body as ``w -> m @ w + c`` with ``m >= 0``, in the
        coordinates ``w = (-lo_1, hi_1, ..., -lo_v, hi_v)`` of a bound row
        without Bottom (ROADMAP F), for a body whose input bounds are
        finite.  Raises ValueError on an input with an infinite bound or
        Bottom.

        Each node of the single-assignment form ``_form`` has one form, a
        pair of rows, ``-lo`` and ``hi``, of coefficients over ``w`` and
        1.0.  A step's form sums those of its own cells, unfolded, each
        scaled by ``|coeff|`` with the pair swapped where ``coeff < 0``, in
        order, with ``np.add.reduce`` along axis 0: ``m`` and ``c`` depend
        on neither the NumPy version nor the BLAS build.  Rounding aside,
        the image of a row ``b`` is ``sign * (m @ (sign * b) + c)``,
        ``sign`` -1.0 at each lower bound, 1.0 at each upper one.
        """
        bounds = [b for rng in self._inputs for b in (-rng.lo, rng.hi)]
        if not all(map(math.isfinite, bounds)):
            raise ValueError("the composed map needs finite input bounds")
        coeffs, nodes, ends, _, final = self._form
        width = self.width
        one = (width + len(bounds)) // 2  # the node of 1.0
        forms = np.zeros((2 * (one + 1 + len(ends)), width + 1))
        forms[:width, :width] = np.eye(width)
        forms[width : 2 * one, width] = bounds
        forms[2 * one : 2 * one + 2, width] = -1.0, 1.0
        coeff = np.array(coeffs)
        src = 2 * np.array(nodes, dtype=np.intp) + (coeff < 0.0)
        pairs = np.stack([src, src ^ 1], 1)  # the rows each cell adds to -lo and to hi
        scale = np.abs(coeff)[:, None, None]
        start = 0
        for s, end in enumerate(ends, one + 1):
            table = forms[pairs[start:end]]
            table *= scale[start:end]
            _reduce(table, 0, None, forms[2 * s : 2 * s + 2])
            start = end
        rows = forms[[2 * f + h for f in final for h in (0, 1)]]
        return rows[:, :width], rows[:, width]


    def loop_row(self, row: list[float]) -> list[float] | np.ndarray:
        """The engine loop's first row as the evaluators take it: a
        float64 array, which ``linear_image`` takes, on a body with a
        level schedule and a row without Bottom, and the list ``row``
        otherwise.  This is the one statement of which rows the loop
        carries as arrays: it keeps its first row's type to the last, and
        no later array row holds Bottom either, since a join keeps ``lo
        <= hi``, widening only moves bounds outward, and a body with a
        Bottom input has no schedule.  Where NumPy's per-call cost is not
        paid back, on a body of a few dozen bounds, the list stays."""
        return np.array(row) if self.schedule is not None and not _has_bottom(row) else row

    def linear_image(self, row: np.ndarray) -> np.ndarray:
        """The image of an array row of the engine loop, which holds no
        Bottom (``loop_row``) and gets no Bottom test here, through the
        composed map where the body keeps one (``composed``), and through
        the level schedule otherwise, or where the row or its image is not
        finite.

        The image is ``const`` plus ``np.add.reduce(table.T * row, 1)``,
        not ``@``, whose order is the BLAS build's.  ``table.T`` is
        C-ordered, so each bound is a sum along the contiguous axis, which
        NumPy adds pairwise, not in row order; the same pairwise sums as
        along axis 0 of ``table * row[:, None]``.  It is a few ulps of the
        terms' magnitude off ``image``'s, so only the engine loop's
        ascending rows take it.  A row with an infinite bound takes the
        schedule before any product (``0 * inf`` is NaN), and one whose
        image overflows after it.
        """
        n = len(row)
        if self.composed is None or _count(_isfinite(row)) < n:
            return self._run(row)
        table, const = self.composed
        out = _reduce(table.T * row, 1)
        out += const
        if _count(_isfinite(out)) < n:
            return self._run(row)
        return out

    def image(self, row: list[float]) -> list[float]:
        """One pass of the body over a bound row of the state variables, a
        list of floats; the image is a new list.  (The engine loop's array
        rows, see ``loop_row``, take ``linear_image``.)

        Each step accumulates ``lo += coeff * b[src_for_lo]`` and ``hi +=
        coeff * b[src_for_hi]`` from ``const``, as ``affine_eval`` does (a
        folded copy adds its constant last), so the row is bit-identical
        to interval evaluation; the schedule makes the same operations in
        the same order (see ``_Kernel``).  A row with a pair ``lo > hi``
        (Bottom), and every row of a body with a Bottom input, takes
        ``_affine_eval``.  It enters no NumPy error state: one that lets a
        bound overflow is the caller's.
        """
        has_bottom = _has_bottom(row)
        if self.schedule is not None and not has_bottom:
            return self._run(row).tolist()
        if has_bottom or self.steps is None:
            return self._affine_eval(row)
        b = [*row, *row, *self.tail] if self.row_twice else [*row, *self.tail]
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
        over the steps of the single-assignment form ``_form`` in body
        order, by node: a step's first cell is its constant, its other
        cells its terms, zero coefficients included, and no copy folds.
        A target that reads Bottom, through any coefficient, becomes
        Bottom, ``(inf, -inf)``."""
        coeffs, nodes, ends, _, final = self._form
        env = [BOTTOM if lo > hi else Interval(lo, hi) for lo, hi in zip(row[::2], row[1::2])]
        env += [*self._inputs, Interval(1.0, 1.0)]  # the inputs' nodes, then 1.0's
        for start, end in zip([0, *ends], ends):
            env.append(affine_eval(coeffs[start], [(coeffs[j], env[nodes[j]]) for j in range(start + 1, end)]))
        return [bound for k in final for bound in (env[k].lo, env[k].hi)]

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
    view into it, and each level's gather buffer, is built here, once.
    Each level gathers its cells' bounds into its gather buffer
    (``take`` in ``"clip"`` mode, which writes ``out`` directly, where
    ``"raise"`` would gather into a temporary first; every index is in
    range), multiplies them by the coefficients in place and sums each
    column with ``np.add.reduce`` along axis 0, straight into its slots.
    On a C-ordered table at least two columns wide, as every level is,
    that axis is not contiguous, so NumPy adds one whole row at a time,
    in row order, not pairwise.  The sums start from ``-0.0``, which
    keeps a column of ``-0.0`` as ``-0.0``; reduce's own start, ``+0.0``,
    would not.  The ufuncs take their arguments by position, which costs
    less.  The image is a new array, never a view of either buffer.
    """

    __slots__ = ("b", "width", "levels", "step_bounds", "final")

    def __init__(self, schedule: tuple, width: int):
        slots, levels, self.final, base = schedule
        self.b = b = slots.copy()
        self.width = width
        self.step_bounds = b[base:]  # for the NaN check
        # (src, coeff, the gather buffer, the level's slots)
        self.levels = [(src, coeff, np.empty(src.shape), b[start:stop]) for src, coeff, start, stop in levels]

    def __call__(self, row: list[float] | np.ndarray) -> np.ndarray:
        b = self.b
        b[: self.width] = row
        take = b.take
        for src, coeff, acc, out in self.levels:
            take(src, None, acc, "clip")
            acc *= coeff
            _reduce(acc, 0, None, out, False, -0.0)
        # NaN if any step's bound is NaN
        low = _minimum(self.step_bounds)
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
    if _is_name(tok):
        return _fail(text, k, _NOT_DECLARED.format(tok))
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
        if not _is_name(name):
            raise _expected("a variable name", name, pos, text)
        if name in in_scope:
            raise _fail(text, pos, _DECLARED_TWICE.format(name))
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
        if not _is_name(target):
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
                    if value - value:  # inf - inf is NaN, which is true; a finite value gives 0.0
                        raise _fail(text, pos - 1, _NOT_FINITE.format(target, "coefficient", value))
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
        if const - const:  # true where the sum is +-inf or NaN, as above
            raise _fail(text, at, _NOT_FINITE.format(target, "constant term", const))
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
        # ``inf`` would read back as a name; a declared bound past the
        # float range reads back as the same infinity
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
    """Render a Program back to source text, which ``parse`` reads back
    to the same Program, bit for bit (each float is written in
    round-trip-exact form), or raise ValueError.

    A Program that ``_assign`` refuses raises its error.  Of those it
    lowers, ``unparse`` refuses, naming the variable or the target, the
    ones no text spells, which only the API builds: one that declares no
    state variable or a Bottom one, names a variable or a target by a
    keyword or by what is not an ASCII identifier, assigns to an input,
    or holds a ``-0.0`` constant (constants sum from 0.0).
    """
    _assign(p)
    if not p.state_vars:
        raise ValueError("cannot unparse a program that declares no state variables")
    lines: list[str] = []
    for kind, decls in (("state", p.state_vars), ("input", p.input_vars)):
        for name, iv in decls:
            if not _is_name(name):
                raise ValueError(f"cannot unparse {kind} {name!r}: it is not a variable name")
            if iv.is_bottom:
                raise ValueError(f"cannot unparse {kind} {name!r}: no declared interval is Bottom")
            lines.append(f"{kind} {name} in [{_fmt_num(iv.lo)}, {_fmt_num(iv.hi)}];")
    lines.append("loop {")
    inputs = dict(p.input_vars)
    for a in p.body:
        if not _is_name(a.target):
            raise ValueError(f"cannot unparse the assignment to {a.target!r}: it is not a variable name")
        if a.target in inputs:
            raise ValueError(f"cannot unparse the assignment to input {a.target!r}: inputs are read-only")
        if a.const == 0.0 and math.copysign(1.0, a.const) < 0.0:
            raise ValueError(f"cannot unparse the assignment to {a.target!r}: no constant sums to -0.0")
        lines.append(f"  {a.target} = {_fmt_expr(a.const, a.terms)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def transfer(p: Program, x: AbstractState) -> AbstractState:
    """One abstract execution of the loop body.

    Assignments run sequentially on a working environment seeded with
    the state intervals from ``x`` and the declared input ranges; the
    result is the final value of each state variable.  The work is done
    by the lowered body (``Program.lowered``) on ``x``'s bound row; a
    bound that overflows to inf does so silently.  The body is lowered
    before ``x`` is read, so a Program that breaks a rule of ``_assign``
    gets its message.
    """
    body = p.lowered
    row = p.row_of(x)
    with np.errstate(all="ignore"):
        return state_from_row(x.names, body.image(row))
