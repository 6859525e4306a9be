"""Affine loops as coefficient arrays, their program text, and the
independent NumPy reference for their interval invariants.

The benchmark describes every loop it analyses by a ``Loop``: the
declared intervals and the coefficient matrices.  The ``.loop`` text the
program under test receives is rendered from that description, and the
reference invariant is computed from the same arrays with NumPy alone,
so no result is ever checked against fixaccel itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Loop:
    """One loop: ``x_i <- sum_j A[i, j] x_j + sum_k B[i, k] u_k``.

    ``order is None`` is the Jacobi form: every update reads the state
    from before the pass (rendered as temporaries, then copies).
    Otherwise the updates run in place, one row after another in
    ``order`` (the Gauss-Seidel form), each reading the values written
    earlier in the same pass.
    """

    states: tuple[str, ...]
    init: np.ndarray  # (n, 2): declared [lo, hi] of each state
    inputs: tuple[str, ...]
    ranges: np.ndarray  # (m, 2): declared [lo, hi] of each input
    A: np.ndarray  # (n, n)
    B: np.ndarray  # (n, m)
    order: tuple[int, ...] | None = None
    temps: tuple[str, ...] = ()  # Jacobi temporaries, default t0..t{n-1}


def _num(v: float) -> str:
    return repr(float(v))


def _affine(coeffs: list[tuple[float, str]]) -> str:
    text = " + ".join(f"{_num(c)}*{name}" for c, name in coeffs)
    return text.replace("+ -", "- ")


def render(loop: Loop) -> str:
    """The loop as program text; coefficients round-trip exactly."""
    lines = [
        f"state {name} in [{_num(lo)}, {_num(hi)}];"
        for name, (lo, hi) in zip(loop.states, loop.init)
    ]
    lines += [
        f"input {name} in [{_num(lo)}, {_num(hi)}];"
        for name, (lo, hi) in zip(loop.inputs, loop.ranges)
    ]
    lines.append("loop {")
    n = len(loop.states)

    def rhs(i: int) -> str:
        terms = [(loop.A[i, j], loop.states[j]) for j in range(n) if loop.A[i, j] != 0]
        terms += [
            (loop.B[i, k], loop.inputs[k])
            for k in range(len(loop.inputs))
            if loop.B[i, k] != 0
        ]
        return _affine(terms)

    if loop.order is None:
        temps = loop.temps or tuple(f"t{i}" for i in range(n))
        lines += [f"  {temps[i]} = {rhs(i)};" for i in range(n)]
        lines += [f"  {loop.states[i]} = {temps[i]};" for i in range(n)]
    else:
        lines += [f"  {loop.states[i]} = {rhs(i)};" for i in loop.order]
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Image:
    """The interval image of one loop pass, with A and B split by sign."""

    def __init__(self, loop: Loop):
        self.loop = loop
        ap, an = np.maximum(loop.A, 0.0), np.minimum(loop.A, 0.0)
        bp, bn = np.maximum(loop.B, 0.0), np.minimum(loop.B, 0.0)
        ulo, uhi = loop.ranges[:, 0], loop.ranges[:, 1]
        self.ap, self.an = ap, an
        # input contributions are the same on every pass
        self.c_lo = bp @ ulo + bn @ uhi
        self.c_hi = bp @ uhi + bn @ ulo
        if loop.order is not None:
            self.rows = [
                (i, np.flatnonzero(ap[i]), ap[i][ap[i] != 0],
                 np.flatnonzero(an[i]), an[i][an[i] != 0])
                for i in loop.order
            ]

    def __call__(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.loop.order is None:
            return (self.ap @ lo + self.an @ hi + self.c_lo,
                    self.ap @ hi + self.an @ lo + self.c_hi)
        lo, hi = lo.copy(), hi.copy()
        for i, pj, pv, nj, nv in self.rows:
            new_lo = pv @ lo[pj] + nv @ hi[nj] + self.c_lo[i]
            new_hi = pv @ hi[pj] + nv @ lo[nj] + self.c_hi[i]
            lo[i], hi[i] = new_lo, new_hi
        return lo, hi


def reference_fixpoint(loop: Loop, max_iter: int = 200_000) -> np.ndarray:
    """Least fixpoint of X = X0 join F(X) as an (n, 2) array of bounds.

    Kleene iteration from the declared intervals until the bounds are
    bit-exactly stable.  Raises RuntimeError if they never stabilise
    within ``max_iter`` passes (a loop whose |A| is not contracting).
    """
    image = _Image(loop)
    lo, hi = loop.init[:, 0].astype(float), loop.init[:, 1].astype(float)
    for _ in range(max_iter):
        f_lo, f_hi = image(lo, hi)
        new_lo, new_hi = np.minimum(lo, f_lo), np.maximum(hi, f_hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return np.column_stack([lo, hi])
        if not (np.all(np.isfinite(new_lo)) and np.all(np.isfinite(new_hi))):
            break
        lo, hi = new_lo, new_hi
    raise RuntimeError("reference iteration did not stabilise")


# ---- generators -------------------------------------------------------

def _declared(n: int) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...], np.ndarray]:
    states = tuple(f"x{i}" for i in range(n))
    inputs = tuple(f"u{i}" for i in range(n))
    init = np.tile([0.0, 1.0], (n, 1))
    ranges = np.tile([-1.0, 1.0], (n, 1))
    return states, init, inputs, ranges


def row_normalised(
    rng: np.random.Generator, n: int, rho: float, nnz: int | None, gauss_seidel: bool
) -> Loop:
    """Random signs; each row of |A| sums to ``rho``, so rho(|A|) = rho.

    ``nnz`` nonzeros per row at random columns, or a dense row if None.
    The input enters as ``0.1*u_i``.
    """
    A = np.zeros((n, n))
    for i in range(n):
        cols = np.arange(n) if nnz is None else rng.choice(n, size=nnz, replace=False)
        mag = rng.uniform(0.1, 1.0, size=len(cols))
        A[i, cols] = mag * (rho / mag.sum()) * rng.choice([-1.0, 1.0], size=len(cols))
    states, init, inputs, ranges = _declared(n)
    order = tuple(range(n)) if gauss_seidel else None
    return Loop(states, init, inputs, ranges, A, 0.1 * np.eye(n), order)


def gaussian(rng: np.random.Generator, n: int, rho: float) -> Loop:
    """A ~ N(0, 1) scaled so that rho(|A|) = ``rho``; Jacobi form."""
    G = rng.standard_normal((n, n))
    A = G * (rho / spectral_radius(np.abs(G)))
    states, init, inputs, ranges = _declared(n)
    return Loop(states, init, inputs, ranges, A, 0.1 * np.eye(n))


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


# ---- bundled programs, transcribed from the package's data files -------

def _bundled() -> dict[str, Loop]:
    filter3 = Loop(
        states=("x1", "x2", "x3"),
        init=np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 20.0]]),
        inputs=("u1", "u2", "u3"),
        ranges=np.array([[1.0, 6.0], [1.0, 4.0], [1.0, 2.0]]),
        A=np.array([
            [-0.4375, 0.0625, 0.2652],
            [0.0625, 0.4375, 0.2652],
            [-0.2652, 0.2652, 0.375],
        ]),
        B=0.1 * np.eye(3),
        temps=("t1", "t2", "t3"),
    )
    lowpass1 = Loop(
        states=("x1", "y", "xn1"),
        init=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
        inputs=("u",),
        ranges=np.array([[1.0, 2.0]]),
        A=np.array([[0.0, 0.0, 1.0], [0.09524, 0.0, 0.0], [0.9048, 0.0, 0.0]]),
        B=np.array([[0.0], [0.04762], [0.9524]]),
        order=(2, 1, 0),
    )
    contraction2 = Loop(
        states=("a", "b"),
        init=np.array([[0.0, 1.0], [0.0, 1.0]]),
        inputs=("w",),
        ranges=np.array([[-1.0, 1.0]]),
        A=np.array([[0.5, 0.25], [0.25, 0.5]]),
        B=np.array([[0.1], [0.05]]),
        temps=("ta", "tb"),
    )
    return {"filter3": filter3, "lowpass1": lowpass1, "contraction2": contraction2}


BUNDLED = _bundled()

# lowpass2_iterates.csv: 41 iterates of x' = A x + B u with u = 2 from x = 0
LOWPASS2_A = np.array([[0.9858, -0.009929], [0.00929, 1.0]])
LOWPASS2_B = np.array([0.9929, 0.004965])
LOWPASS2_U = 2.0
LOWPASS2_ROWS = 41


def lowpass2_iterates() -> np.ndarray:
    rows = [np.zeros(2)]
    for _ in range(LOWPASS2_ROWS - 1):
        rows.append(LOWPASS2_A @ rows[-1] + LOWPASS2_U * LOWPASS2_B)
    return np.array(rows)


def lowpass2_limit() -> np.ndarray:
    return np.linalg.solve(np.eye(2) - LOWPASS2_A, LOWPASS2_U * LOWPASS2_B)


def lowpass2_csv() -> str:
    lines = ["x1,x2"] + ["%.17g,%.17g" % tuple(r) for r in lowpass2_iterates()]
    return "\n".join(lines) + "\n"
