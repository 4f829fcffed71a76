"""Twice-differentiable paths and small fixed-step ODE helpers.

Curves are maps s -> Vec3 with two derivatives.  Where a derivative callable
is not supplied it is obtained by 4th-order central differences of the next
lower derivative.  ``Curve.jet`` returns all three at once and remembers them
for the last s only, so a surface grid pays for each curve evaluation once
per s, not once per point.  Dense ODE tables integrate a state with classical
RK4 on a fixed node grid and answer point queries between nodes with a C^2
quintic Hermite dense output, so a query takes no integration step.  A table
runs from its seed point s0 toward an s1 on either side of it, and can wrap
RK4 nodes a caller has already taken.  ``rk4_batch`` and ``rk4_quadrature``
take the nodes of many tables at once on float64 arrays, bit for bit as
``rk4_step`` takes them one table at a time.
"""
from __future__ import annotations

import math
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
    return (f(s - 2 * h) - 8.0 * f(s - h) + 8.0 * f(s + h) - f(s + 2 * h)) / (12.0 * h)


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


def rk4_step(f, s: float, y: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step for a tuple-valued state."""
    # tuple([...]) rather than tuple(generator): this is the innermost loop
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


def rk4_batch(f, nodes: np.ndarray, h) -> None:
    """Fill nodes[1:] with RK4 steps from nodes[0], for every column of a (d, B) state.

    nodes has shape (n_steps + 1, d, B).  f(i, stage, y) is the right-hand
    side for the (d, B) state y at stage 0, 1 or 2 of step i (see
    rk4_stages).  Column b steps with h[b], or with h for every column when h
    is a float.  Each column takes rk4_step's operations in rk4_step's order,
    so its nodes are those of DenseODE bit for bit.
    """
    y = nodes[0]
    half = 0.5 * h
    w = h / 6.0
    for i in range(len(nodes) - 1):
        k1 = f(i, 0, y)
        k2 = f(i, 1, y + half * k1)
        k3 = f(i, 1, y + half * k2)
        k4 = f(i, 2, y + h * k3)
        y = nodes[i + 1] = y + w * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_quadrature(k: np.ndarray, nodes: np.ndarray, h: float) -> None:
    """Fill nodes[1:] with RK4 steps from nodes[0] for y' = f(s), which does not read y.

    k[i, stage] is f at stage 0, 1 or 2 of step i (see rk4_stages), with the
    shape of nodes[0].  Node i + 1 is node i plus step i's RK4 increment,
    added in order, so the nodes are those of DenseODE bit for bit.
    """
    k2 = k[:, 1]  # RK4 evaluates f twice at the midpoint, at the same s
    nodes[1:] = (h / 6.0) * (k[:, 0] + 2.0 * (k2 + k2) + k[:, 2])
    np.add.accumulate(nodes, axis=0, out=nodes)


class ArrayNodes:
    """Node list over the rows of a float64 array: item i is row i as a tuple of floats.

    A batch build keeps every table's nodes in one array, and a tuple is made
    only for a node that a query reads, so a batch's tables take no more
    memory than that array.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> tuple:
        return tuple(self._rows[i].tolist())


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


class DenseODE:
    """Fixed-grid RK4 solution of y' = f(s, y) from s0 toward s1, on either side.

    Node states are precomputed once with the signed step (s1 - s0)/n_steps.
    Between nodes, state_at(s) is the quintic Hermite interpolant of y, y' and
    y'' at the two nodes around s (Hairer, Norsett & Wanner, Solving ODEs I,
    II.6), which is C^2 across nodes.  y' at node i is f(s0 + i h, y_i), the
    same call as the build's first RK4 stage of step i; y'' is the 4th-order
    difference of those node slopes.  Both are computed on first use and kept
    per node, so the build pays nothing for them and a query takes no RK4 step.
    Queries in the overhang past either end restart from the end node and take
    two RK4 substeps.  jet_at(s) adds the interpolant's first two derivatives;
    from_nodes wraps nodes taken elsewhere at the same fixed step.
    """

    def __init__(self, f, s0: float, s1: float, y0: Sequence[float], n_steps: int = 1024):
        self._set_grid(f, s0, s1, n_steps)
        nodes = [tuple(float(v) for v in y0)]
        y = nodes[0]
        for i in range(self.n_steps):
            y = rk4_step(f, self.s0 + i * self.h, y, self.h)
            nodes.append(y)
        self._set_nodes(nodes)

    @classmethod
    def from_nodes(cls, f, s0: float, s1: float, nodes: Sequence[Sequence[float]]) -> "DenseODE":
        """The table over RK4 nodes of y' = f(s, y) already taken from s0 to s1.

        The step is (s1 - s0)/(len(nodes) - 1); nothing is integrated again.
        nodes[i] is the state tuple at s0 + i h: a list of tuples, or the
        ArrayNodes of a batch build.
        """
        table = cls.__new__(cls)
        table._set_grid(f, s0, s1, len(nodes) - 1)
        table._set_nodes(nodes)
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

    def _set_nodes(self, nodes: list) -> None:
        self.nodes = nodes
        # y' and y'' per node, filled in by the queries that need them
        self._d1: list = [None] * len(nodes)
        self._d2: list = [None] * len(nodes)
        # (s, state) at the low and at the high end of the range
        ends = [(self.s0, nodes[0]), (self.s1, nodes[-1])]
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
            return self.nodes[idx]
        return self._hermite(idx, (s - s_node) / self.h)

    def _cell(self, s: float) -> tuple[int, float]:
        """Index and s of the node that starts the step holding an in-range s."""
        idx = min(int((s - self.s0) / self.h), self.n_steps - 1)
        return idx, self.s0 + idx * self.h

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
            return y, self.f(s, y), self._node_d2(end)
        idx, s_node = self._cell(s)
        return (y, *self._hermite_derivatives(idx, (s - s_node) / self.h))

    def _node_d1(self, i: int) -> tuple:
        d1 = self._d1[i]
        if d1 is None:
            d1 = self._d1[i] = self.f(self.s0 + i * self.h, self.nodes[i])
        return d1

    def _node_d2(self, i: int) -> tuple:
        d2 = self._d2[i]
        if d2 is None:
            lo = min(max(i - 2, 0), self.n_steps - 4)
            c0, c1, c2, c3, c4 = _D1_STENCILS[i - lo]
            scale = 1.0 / (12.0 * self.h)
            d2 = self._d2[i] = tuple([
                scale * (c0 * a + c1 * b + c2 * c + c3 * d + c4 * e)
                for a, b, c, d, e in zip(*[self._node_d1(j) for j in range(lo, lo + 5)])
            ])
        return d2

    def _hermite(self, i: int, t: float) -> tuple:
        """Quintic Hermite interpolant at s = s_i + t h between nodes i and i + 1."""
        u = 1.0 - t
        t2, u2 = t * t, u * u
        t3 = t2 * t
        h = self.h
        w_y = t3 * (10.0 - 15.0 * t + 6.0 * t2)
        w_f0 = h * t * u2 * u * (1.0 + 3.0 * t)
        w_f1 = -h * t3 * u * (4.0 - 3.0 * t)
        w_a0 = 0.5 * h * h * t2 * u2 * u
        w_a1 = 0.5 * h * h * t3 * u2
        return tuple([
            y0 + w_y * (y1 - y0) + w_f0 * f0 + w_f1 * f1 + w_a0 * a0 + w_a1 * a1
            for y0, y1, f0, f1, a0, a1 in zip(
                self.nodes[i], self.nodes[i + 1], self._node_d1(i), self._node_d1(i + 1),
                self._node_d2(i), self._node_d2(i + 1))
        ])

    def _hermite_derivatives(self, i: int, t: float) -> tuple[tuple, tuple]:
        """First and second s-derivatives of :meth:`_hermite` at the same point."""
        u = 1.0 - t
        tu = t * u
        h = self.h
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
        d1, d2 = [], []
        for y0, y1, f0, f1, a0, a1 in zip(
                self.nodes[i], self.nodes[i + 1], self._node_d1(i), self._node_d1(i + 1),
                self._node_d2(i), self._node_d2(i + 1)):
            dy = y1 - y0
            d1.append(d_y * dy + d_f0 * f0 + d_f1 * f1 + d_a0 * a0 + d_a1 * a1)
            d2.append(dd_y * dy + dd_f0 * f0 + dd_f1 * f1 + dd_a0 * a0 + dd_a1 * a1)
        return tuple(d1), tuple(d2)

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
    come from math once per s for all the series, and the terms are added in
    the order of FourierSeries.__call__.  The series must share frequencies.
    """
    freqs = [kw for kw, _, _ in series[0]._terms]
    if any([kw for kw, _, _ in f._terms] != freqs for f in series):
        raise ValueError("fourier_table needs series with the same frequencies")
    out = np.empty((*s.shape, len(series)))
    out[...] = [f.c0 for f in series]
    flat = s.ravel().tolist()
    for k, kw in enumerate(freqs):
        ks = [kw * x for x in flat]
        cos = np.array([math.cos(x) for x in ks]).reshape(*s.shape, 1)
        sin = np.array([math.sin(x) for x in ks]).reshape(*s.shape, 1)
        a = np.array([f._terms[k][1] for f in series])
        b = np.array([f._terms[k][2] for f in series])
        out += a * cos + b * sin
    return out
