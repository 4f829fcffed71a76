"""Twice-differentiable paths and small fixed-step ODE helpers.

Curves are maps s -> Vec3 with two derivatives.  Where a derivative callable
is not supplied it is obtained by 4th-order central differences of the next
lower derivative.  ``Curve.jet`` returns all three at once and remembers them
for the last s only, so a surface grid pays for each curve evaluation once
per s, not once per point.  Dense ODE tables integrate a state with classical
RK4 on a fixed node grid and answer point queries between nodes with a C^2
quintic Hermite dense output, so a query takes no integration step.  A table
runs from its seed point s0 toward an s1 on either side of it, and can wrap
RK4 nodes a caller has already taken.  Every table holds one layout: float64
arrays of its node states, of its node slopes, kept where the nodes are made
(the first RK4 stage of each step), and of its node y''.  ``state_at`` reads
them as floats and ``states_at`` answers a whole array of s at once, bit for
bit as ``state_at`` answers each: the Hermite is written once on components,
for floats and arrays.  ``rk4_batch`` and ``rk4_quadrature`` take the nodes
and slopes of many tables at once on float64 arrays, bit for bit as
``rk4_step`` takes them one table at a time.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .algebra import Vec3
from .errors import OutOfDomain

# Steps for the fallback difference quotients.  First derivatives from values
# tolerate a smaller step than second derivatives (roundoff grows like 1/h^2).
FD_H1 = 1e-4
FD_H2 = 1e-3


def fd1(f: Callable[[float], Vec3 | float], s: float, h: float = FD_H1) -> Vec3 | float:
    """4th-order central first derivative of a Vec3- or float-valued function."""
    return fd1_stencil(f(s - 2 * h), f(s - h), f(s + h), f(s + 2 * h), h)


def fd1_stencil(f_m2, f_m1, f_p1, f_p2, h: float = FD_H1):
    """fd1 from the values at s - 2h, s - h, s + h and s + 2h; elementwise on arrays too."""
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def fd2(f: Callable[[float], Vec3], s: float) -> Vec3:
    """4th-order central second derivative of a Vec3-valued function, step FD_H2."""
    h = FD_H2
    return (
        -f(s - 2 * h)
        + 16.0 * f(s - h)
        - 30.0 * f(s)
        + 16.0 * f(s + h)
        - f(s + 2 * h)
    ) / (12.0 * h * h)


def _same_arg(a: float, b: float) -> bool:
    """a and b are the same argument: equal, of one type, and of one sign at zero."""
    return (a == b and type(a) is type(b)
            and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b)))


def memo_last(f: Callable[[float], object]) -> Callable[[float], object]:
    """f that keeps its result for the last argument and returns it on a repeat.

    RK4 evaluates its right-hand side twice at the midpoint, and a two-substep
    march evaluates it at the shared substep boundary twice more; a pure f
    wrapped here is computed once per distinct argument in such runs.
    """
    last: list = []

    def wrapped(s: float):
        if last and _same_arg(last[0], s):
            return last[1]
        out = f(s)
        last[:] = (s, out)
        return out

    return wrapped


def memo_last_array(f: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """f that keeps its result for the last array argument, and returns it again
    for an array of the same shape and bits.

    Callers share the result, and none writes to it.
    """
    last: list = []

    def wrapped(S: np.ndarray):
        key = (S.shape, S.tobytes())
        if not (last and last[0] == key):
            last[:] = (key, f(S))
        return last[1]

    return wrapped


class Curve:
    """A path s -> Vec3 with value and two derivatives."""

    def __init__(self, value, d1=None, d2=None):
        self._value = value
        self._d1 = d1
        self._d2 = d2
        self._last: tuple[float, tuple[Vec3, Vec3, Vec3]] | None = None

    def jet(self, s: float) -> tuple[Vec3, Vec3, Vec3]:
        """(value, d1, d2) at s, kept for the next call with the same s."""
        # surfaces over a curve ask for its jet at each t of one s in turn
        if self._last is not None and _same_arg(self._last[0], s):
            return self._last[1]
        out = (self.value(s), self.d1(s), self.d2(s))
        self._last = (s, out)
        return out

    def value(self, s: float) -> Vec3:
        return self._value(s)

    def d1(self, s: float) -> Vec3:
        if self._d1 is not None:
            return self._d1(s)
        return fd1(self._value, s)

    def d2(self, s: float) -> Vec3:
        if self._d2 is not None:
            return self._d2(s)
        if self._d1 is not None:
            return fd1(self._d1, s)
        return fd2(self._value, s)

    def translated(self, offset: Vec3) -> "Curve":
        """The same curve shifted by a constant vector (derivatives unchanged)."""
        return Curve(lambda s: self._value(s) + offset, self.d1, self.d2)


def constant_curve(v: Vec3) -> Curve:
    zero = Vec3(0.0, 0.0, 0.0)
    return Curve(lambda s: v, lambda s: zero, lambda s: zero)


def line_curve(a: Vec3, b: Vec3) -> Curve:
    """The affine path s -> a*s + b."""
    zero = Vec3(0.0, 0.0, 0.0)
    return Curve(lambda s: a * s + b, lambda s: a, lambda s: zero)


def rk4_step(f, s: float, y: tuple, h: float, k1: tuple | None = None) -> tuple:
    """One classical Runge-Kutta step for a tuple-valued state.

    k1 is f(s, y) when the caller has it already: a table build keeps it as
    the slope of its node.
    """
    # tuple([...]) rather than tuple(generator): this is the innermost loop
    if k1 is None:
        k1 = f(s, y)
    half = 0.5 * h
    k2 = f(s + half, tuple([yi + half * ki for yi, ki in zip(y, k1)]))
    k3 = f(s + half, tuple([yi + half * ki for yi, ki in zip(y, k2)]))
    k4 = f(s + h, tuple([yi + h * ki for yi, ki in zip(y, k3)]))
    w = h / 6.0
    return tuple([
        yi + w * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ])


def rk4_stages(s0: float, s1: float, n_steps: int) -> tuple[float, np.ndarray]:
    """Step h and the s of each RK4 stage on the fixed grid from s0 toward s1.

    Row i is (s_i, s_i + h/2, s_i + h) with s_i = s0 + i h, each rounded as
    DenseODE and rk4_step round it.
    """
    h = (s1 - s0) / n_steps
    s = s0 + np.arange(n_steps) * h
    return h, np.stack([s, s + 0.5 * h, s + h], axis=1)


def rk4_batch(f, nodes: np.ndarray, slopes: np.ndarray, h) -> None:
    """Fill nodes[1:] with RK4 steps from nodes[0], for every column of a (d, B) state.

    nodes has shape (n_steps + 1, d, B).  f(i, stage, y) is the right-hand
    side for the (d, B) state y at stage 0, 1 or 2 of step i (see
    rk4_stages).  slopes[i] gets step i's first stage, f at node i, for i
    below n_steps; the slope of the last node is the caller's.  Column b
    steps with h[b], or with h for every column when h is a float.  Each
    column takes rk4_step's operations in rk4_step's order, so its nodes are
    those of DenseODE bit for bit.
    """
    y = nodes[0]
    half = 0.5 * h
    w = h / 6.0
    for i in range(len(nodes) - 1):
        k1 = slopes[i] = f(i, 0, y)
        k2 = f(i, 1, y + half * k1)
        k3 = f(i, 1, y + half * k2)
        k4 = f(i, 2, y + h * k3)
        y = nodes[i + 1] = y + w * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_quadrature(k: np.ndarray, nodes: np.ndarray, slopes: np.ndarray, h: float) -> None:
    """Fill nodes[1:] with RK4 steps from nodes[0] for y' = f(s), which does not read y.

    k[i, stage] is f at stage 0, 1 or 2 of step i (see rk4_stages), with the
    shape of nodes[0].  Node i + 1 is node i plus step i's RK4 increment,
    added in order, so the nodes are those of DenseODE bit for bit.  As in
    rk4_batch, slopes[i] gets f at node i, its stage 0, for every step i.
    """
    slopes[:len(k)] = k[:, 0]
    k2 = k[:, 1]  # RK4 evaluates f twice at the midpoint, at the same s
    nodes[1:] = (h / 6.0) * (k[:, 0] + 2.0 * (k2 + k2) + k[:, 2])
    np.add.accumulate(nodes, axis=0, out=nodes)


# Queries may reach this fraction of the range length past either end, so that
# difference stencils near the endpoints stay usable.
OVERHANG = 0.02

# 4th-order 5-point first-derivative stencils (times 1/(12 h)), by the position
# of the target node in the window: one-sided at the two nodes nearest each
# end, central elsewhere.
_D1_STENCILS = (
    (-25.0, 48.0, -36.0, 16.0, -3.0),
    (-3.0, -10.0, 18.0, -6.0, 1.0),
    (1.0, -8.0, 0.0, 8.0, -1.0),
    (-1.0, 6.0, -18.0, 10.0, 3.0),
    (3.0, -16.0, 36.0, -48.0, 25.0),
)


def _d1_stencil(slopes: np.ndarray, h: float) -> np.ndarray:
    """y'' at every node: the 4th-order difference of the (n + 1, d) node slopes.

    Node i takes the stencil of its position in its window of five nodes,
    (1/(12 h)) (c0 y'_0 + ... + c4 y'_4), one-sided next to either end.
    """
    n = len(slopes) - 1
    out = np.empty(slopes.shape)
    # stencil r serves the nodes i0 <= i < i1, each in the window that starts at i - r
    with np.errstate(all="ignore"):  # non-finite slopes give inf and nan, as floats do
        for r, (i0, i1) in enumerate(((0, 1), (1, 2), (2, n - 1), (n - 1, n), (n, n + 1))):
            c0, c1, c2, c3, c4 = _D1_STENCILS[r]
            a, b, m, d, e = (slopes[i0 - r + j:i1 - r + j] for j in range(5))
            out[i0:i1] = (1.0 / (12.0 * h)) * (c0 * a + c1 * b + c2 * m + c3 * d + c4 * e)
    return out


def _float_rows(rows) -> np.ndarray:
    """A float64 array of rows as it is, or one made from a sequence of equal-length states.

    np.fromiter reads a list of tuples about twice as fast as np.array does.
    """
    if isinstance(rows, np.ndarray):
        return rows.astype(float, copy=False)
    width = len(rows[0])
    return np.fromiter(chain.from_iterable(rows), float, len(rows) * width).reshape(-1, width)


def _hermite(t, h: float, y0, y1, f0, f1, a0, a1) -> list:
    """Quintic Hermite interpolant at s = s_i + t h between nodes i and i + 1.

    y, f and a are the node values, slopes and second derivatives at node i
    (0) and node i + 1 (1); the result has one entry per entry of y0.
    Elementwise: state_at passes a float t and lists of floats, states_at an
    array of t and one entry holding the (len(state), n) array of each, whose
    weights broadcast over its last axis; both take the same operations in
    the same order.
    """
    u = 1.0 - t
    t2, u2 = t * t, u * u
    t3 = t2 * t
    w_y = t3 * (10.0 - 15.0 * t + 6.0 * t2)
    w_f0 = h * t * u2 * u * (1.0 + 3.0 * t)
    w_f1 = -h * t3 * u * (4.0 - 3.0 * t)
    w_a0 = 0.5 * h * h * t2 * u2 * u
    w_a1 = 0.5 * h * h * t3 * u2
    return [
        p0 + w_y * (p1 - p0) + w_f0 * q0 + w_f1 * q1 + w_a0 * r0 + w_a1 * r1
        for p0, p1, q0, q1, r0, r1 in zip(y0, y1, f0, f1, a0, a1)
    ]


def _hermite_derivatives(t, h: float, y0, y1, f0, f1, a0, a1) -> tuple[list, list]:
    """First and second s-derivatives of _hermite at the same point, elementwise like it."""
    u = 1.0 - t
    tu = t * u
    # d/ds and d2/ds2 of each weight of _hermite, in the same order
    d_y = 30.0 * tu * tu / h
    d_f0 = u * u * (1.0 + 2.0 * t - 15.0 * t * t)
    d_f1 = t * t * (1.0 + 2.0 * u - 15.0 * u * u)
    d_a0 = 0.5 * h * tu * u * (2.0 - 5.0 * t)
    d_a1 = -0.5 * h * tu * t * (2.0 - 5.0 * u)
    dd_y = 60.0 * tu * (u - t) / (h * h)
    dd_f0 = 12.0 * tu * (5.0 * t - 3.0) / h
    dd_f1 = -12.0 * tu * (5.0 * u - 3.0) / h
    dd_a0 = u * (1.0 - 8.0 * t + 10.0 * t * t)
    dd_a1 = t * (1.0 - 8.0 * u + 10.0 * u * u)
    cells = [(p1 - p0, *rest) for p0, p1, *rest in zip(y0, y1, f0, f1, a0, a1)]
    return ([d_y * dy + d_f0 * q0 + d_f1 * q1 + d_a0 * r0 + d_a1 * r1
             for dy, q0, q1, r0, r1 in cells],
            [dd_y * dy + dd_f0 * q0 + dd_f1 * q1 + dd_a0 * r0 + dd_a1 * r1
             for dy, q0, q1, r0, r1 in cells])


class DenseODE:
    """Fixed-grid RK4 solution of y' = f(s, y) from s0 toward s1, on either side.

    Node states are computed once with the signed step (s1 - s0)/n_steps.
    Between nodes, state_at(s) is the quintic Hermite interpolant of y, y' and
    y'' at the two nodes around s (Hairer, Norsett & Wanner, Solving ODEs I,
    II.6), which is C^2 across nodes.  The table holds three float64 arrays
    of shape (n_steps + 1, len(state)): the node states ``nodes``, the node
    slopes ``slopes``, where row i is f(s0 + i h, y_i), and their 4th-order
    difference, y'' per node.  The build keeps each step's first RK4 stage as
    its node's slope and calls f once more for the last node, so it calls f
    4 n_steps + 1 times, and a query in range calls no f and takes no RK4
    step.  Queries in the overhang past either end restart from the end node
    and take two RK4 substeps.  jet_at(s) adds the interpolant's first two
    derivatives; states_at(S) is state_at at every s of an array; from_nodes
    wraps nodes and slopes taken elsewhere at the same fixed step.
    """

    def __init__(self, f, s0: float, s1: float, y0: Sequence[float], n_steps: int = 1024):
        self._set_grid(f, s0, s1, n_steps)
        y = tuple(float(v) for v in y0)
        nodes, slopes = [y], []
        for i in range(self.n_steps):
            s = self.s0 + i * self.h
            slopes.append(f(s, y))
            y = rk4_step(f, s, y, self.h, slopes[-1])
            nodes.append(y)
        slopes.append(f(self.s0 + self.n_steps * self.h, y))
        self._set_nodes(nodes, slopes)

    @classmethod
    def from_nodes(cls, f, s0: float, s1: float, nodes, slopes) -> "DenseODE":
        """The table over RK4 nodes of y' = f(s, y) already taken from s0 to s1.

        nodes[i] is the state at s0 + i h and slopes[i] is f(s0 + i h,
        nodes[i]), with h = (s1 - s0)/(len(nodes) - 1): two (n_steps + 1,
        len(state)) float64 arrays, or what converts to them.  Nothing is
        integrated again and f is not called.
        """
        table = cls.__new__(cls)
        table._set_grid(f, s0, s1, len(nodes) - 1)
        table._set_nodes(nodes, slopes)
        return table

    def _set_grid(self, f, s0: float, s1: float, n_steps: int) -> None:
        self.s0 = float(s0)
        self.s1 = float(s1)
        if not (math.isfinite(self.s0) and math.isfinite(self.s1)) or self.s1 == self.s0:
            raise ValueError("DenseODE needs finite s0 != s1")
        self.f = f
        self.n_steps = int(n_steps)
        if self.n_steps < 4:
            raise ValueError("DenseODE needs at least 4 steps for its 5-point node stencils")
        self.h = (self.s1 - self.s0) / self.n_steps

    def _set_nodes(self, nodes, slopes) -> None:
        self.nodes, self.slopes = _float_rows(nodes), _float_rows(slopes)
        if self.slopes.shape != self.nodes.shape:
            raise ValueError("DenseODE needs one slope per node state")
        self._y2 = _d1_stencil(self.slopes, self.h)
        # (s, state) at the low and at the high end of the range
        first, last = (tuple(self.nodes[k].tolist()) for k in (0, -1))
        ends = [(self.s0, first), (self.s1, last)]
        self._low, self._high = ends if self.h > 0.0 else ends[::-1]
        pad = OVERHANG * (self._high[0] - self._low[0])
        self._min_s, self._max_s = self._low[0] - pad, self._high[0] + pad
        self._last: tuple[float, tuple] | None = None

    def state_at(self, s: float) -> tuple:
        # callers typically ask for value and several derivatives at the same s
        if self._last is not None and self._last[0] == s:
            return self._last[1]
        out = self._state_at(s)
        self._last = (s, out)
        return out

    def _state_at(self, s: float) -> tuple:
        if s < self._min_s or s > self._max_s:
            raise OutOfDomain(f"s={s} outside [{self.s0}, {self.s1}] (+overhang)")
        # the ends compare s itself: node coordinates (s - s0)/h round differently there
        if s <= self._low[0]:
            return self._march(*self._low, s)
        if s >= self._high[0]:
            return self._march(*self._high, s)
        idx, s_node = self._cell(s)
        if s == s_node:
            return tuple(self.nodes[idx].tolist())
        return tuple(_hermite((s - s_node) / self.h, self.h, *self._cell_data(idx)))

    def states_at(self, S: np.ndarray) -> np.ndarray:
        """state_at(s) at every s of the float array S, bit for bit.

        The result has shape (len(state), *S.shape): entry [k, ...] is
        component k.  In range, _hermite runs on arrays over the node arrays.
        An s at or past an end, or one that state_at rejects, is read by
        state_at's own path, in the order of S.
        """
        S = np.asarray(S, dtype=float)
        flat = S.ravel()
        out = np.empty((self.nodes.shape[1], flat.size))
        inside = (flat > self._low[0]) & (flat < self._high[0])
        for k in np.flatnonzero(~inside).tolist():
            out[:, k] = self._state_at(float(flat[k]))
        if not inside.any():
            return out.reshape(len(out), *S.shape)
        s = flat[inside]
        with np.errstate(all="ignore"):  # floats give inf and nan without a warning too
            idx = np.minimum(((s - self.s0) / self.h).astype(np.intp), self.n_steps - 1)
            s_node = self.s0 + idx * self.h
            # node i and i + 1 of the states, slopes and y'' as (len(state), n) arrays
            y, = _hermite((s - s_node) / self.h, self.h,
                          *([x[j].T] for x in (self.nodes, self.slopes, self._y2)
                            for j in (idx, idx + 1)))
        out[:, inside] = np.where(s == s_node, self.nodes[idx].T, y)
        return out.reshape(len(out), *S.shape)

    def _cell(self, s: float) -> tuple[int, float]:
        """Index and s of the node that starts the step holding an in-range s."""
        idx = min(int((s - self.s0) / self.h), self.n_steps - 1)
        return idx, self.s0 + idx * self.h

    def _cell_data(self, i: int) -> list:
        """States, slopes and y'' at nodes i and i + 1 as lists of floats, in _hermite's order."""
        return [row for x in (self.nodes, self.slopes, self._y2) for row in x[i:i + 2].tolist()]

    def jet_at(self, s: float) -> tuple[tuple, tuple, tuple]:
        """(y, y', y'') at s, with y = state_at(s).

        In range, y' and y'' are the s-derivatives of the Hermite interpolant.
        At or past an end, y' is f at the (marched) state and y'' is the end
        node's.
        """
        y = self.state_at(s)
        at_low = s <= self._low[0]
        if at_low or s >= self._high[0]:
            # node 0 is the low end of a forward table and the high end of a backward one
            end = 0 if at_low == (self.h > 0.0) else self.n_steps
            return y, self.f(s, y), tuple(self._y2[end].tolist())
        idx, s_node = self._cell(s)
        d1, d2 = _hermite_derivatives((s - s_node) / self.h, self.h, *self._cell_data(idx))
        return y, tuple(d1), tuple(d2)

    def _march(self, s_from: float, y: tuple, s_to: float) -> tuple:
        ds = s_to - s_from
        if ds == 0.0:
            return y
        half = 0.5 * ds
        y = rk4_step(self.f, s_from, y, half)
        return rk4_step(self.f, s_from + half, y, half)


class CenteredODE:
    """Dense solution over [-half, half] seeded at s = 0.

    Integrating outward from the middle halves the growth of unstable modes
    compared to seeding at an endpoint, which keeps hyperbolically growing
    states (de Sitter frames) small over the whole range.
    """

    def __init__(self, f, half: float, y0: Sequence[float], n_steps: int = 1024):
        n = n_steps // 2
        self.fwd = DenseODE(f, 0.0, half, y0, n)
        self.bwd = DenseODE(f, 0.0, -half, y0, n)

    @classmethod
    def from_tables(cls, fwd: DenseODE, bwd: DenseODE) -> "CenteredODE":
        """The solution over two tables built from s = 0 toward +half and -half."""
        table = cls.__new__(cls)
        table.fwd, table.bwd = fwd, bwd
        return table

    def state_at(self, s: float) -> tuple:
        if s >= 0.0:
            return self.fwd.state_at(s)
        return self.bwd.state_at(s)

    def states_at(self, S: np.ndarray) -> np.ndarray:
        """state_at(s) at every s of S, bit for bit, as DenseODE.states_at lays it out."""
        S = np.asarray(S, dtype=float)
        fwd = S >= 0.0
        out = np.empty((self.fwd.nodes.shape[1], *S.shape))
        out[:, fwd] = self.fwd.states_at(S[fwd])
        out[:, ~fwd] = self.bwd.states_at(S[~fwd])
        return out


class FourierSeries:
    """Low-order real Fourier series c0 + sum_k (a_k cos(k w s) + b_k sin(k w s))."""

    def __init__(self, c0: float, cos_amps: Sequence[float], sin_amps: Sequence[float],
                 omega: float = 1.0):
        self.c0 = float(c0)
        self._terms = tuple(
            ((k + 1) * float(omega), float(a), float(b))
            for k, (a, b) in enumerate(zip(cos_amps, sin_amps, strict=True))
        )

    def __call__(self, s: float) -> float:
        out = self.c0
        for kw, a, b in self._terms:
            ks = kw * s
            out += a * math.cos(ks) + b * math.sin(ks)
        return out

    def deriv(self, s: float) -> float:
        out = 0.0
        for kw, a, b in self._terms:
            ks = kw * s
            out += kw * (b * math.cos(ks) - a * math.sin(ks))
        return out


def fourier_table(series: Sequence[FourierSeries], s: np.ndarray) -> np.ndarray:
    """Values of each series at every s, shape (*s.shape, len(series)).

    Entry [..., b] is series[b](s) bit for bit: the cos and sin of each k w s
    come from math once per s for all the series, and each series adds its
    terms in the order of FourierSeries.__call__.  The frequencies of every
    series must be the first ones of the series with the most terms.
    """
    freqs = [kw for kw, _, _ in max(series, key=lambda f: len(f._terms))._terms]
    if any([kw for kw, _, _ in f._terms] != freqs[:len(f._terms)] for f in series):
        raise ValueError("fourier_table needs series whose frequencies begin the same way")
    out = np.empty((*s.shape, len(series)))
    out[...] = [f.c0 for f in series]
    for k, kw in enumerate(freqs):
        ks = (kw * s).ravel().tolist()
        cos = np.fromiter(map(math.cos, ks), float, len(ks)).reshape(*s.shape, 1)
        sin = np.fromiter(map(math.sin, ks), float, len(ks)).reshape(*s.shape, 1)
        cols = [j for j, f in enumerate(series) if k < len(f._terms)]
        a = np.array([series[j]._terms[k][1] for j in cols])
        b = np.array([series[j]._terms[k][2] for j in cols])
        if len(cols) == len(series):
            out += a * cos + b * sin  # a batch build's case: no gather, about half the time
        else:
            out[..., cols] += a * cos + b * sin
    return out
