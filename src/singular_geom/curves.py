"""Twice-differentiable paths and small fixed-step ODE helpers.

Curves are maps s -> Vec3 with two derivatives.  Where a derivative callable
is not supplied it is obtained by 4th-order central differences of the next
lower derivative.  ``Curve.jet`` returns all three at once and remembers them
for the last s only, so a surface grid pays for each curve evaluation once
per s, not once per point.  Dense ODE tables integrate a state with classical
RK4 on a fixed node grid and answer point queries between nodes with a C^2
quintic Hermite dense output, so a query takes no integration step.  A table
runs from its seed point s0 toward an s1 on either side of it, and can wrap
RK4 nodes a caller has already taken.  ``states_at`` answers a whole array of
s at once, bit for bit as ``state_at`` answers each: the Hermite is written
once on components, for floats and arrays, and the node slopes come from the
right-hand side applied to the node array.  ``rk4_batch`` and
``rk4_quadrature`` take the nodes of many tables at once on float64 arrays,
bit for bit as ``rk4_step`` takes them one table at a time.
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


def _d1_stencil(scale, c, window) -> list:
    """scale * (c0 y0 + ... + c4 y4) for the five node slopes y0..y4 in window.

    One entry per entry of the slopes.  Elementwise: a node's slopes are
    tuples of floats, and a whole table's are one entry holding an array, with
    c an array per node; both take the same operations in the same order.
    """
    c0, c1, c2, c3, c4 = c
    return [scale * (c0 * a + c1 * b + c2 * m + c3 * d + c4 * e)
            for a, b, m, d, e in zip(*window)]


def _hermite(t, h: float, y0, y1, f0, f1, a0, a1) -> list:
    """Quintic Hermite interpolant at s = s_i + t h between nodes i and i + 1.

    y, f and a are the node values, slopes and second derivatives at node i
    (0) and node i + 1 (1); the result has one entry per entry of y0.
    Elementwise: state_at passes a float t and tuples of floats, states_at an
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
    states_at(S) is state_at at every s of an array; from_nodes wraps nodes
    taken elsewhere at the same fixed step.
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
        self._arrays: tuple | None = None  # the same on arrays, for states_at
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
        return tuple(_hermite((s - s_node) / self.h, self.h, self.nodes[idx], self.nodes[idx + 1],
                              self._node_d1(idx), self._node_d1(idx + 1),
                              self._node_d2(idx), self._node_d2(idx + 1)))

    def states_at(self, S: np.ndarray) -> np.ndarray:
        """state_at(s) at every s of the float array S, bit for bit.

        The result has shape (len(state), *S.shape): entry [k, ...] is
        component k.  In range, _hermite runs on arrays, over node slopes that
        f gives on the whole node array at once, so f(s, y) must also take an
        array of s with a (len(state), n) array of states.  An s at or past an
        end, or one that state_at rejects, is read by state_at's own path, in
        the order of S.
        """
        S = np.asarray(S, dtype=float)
        flat = S.ravel()
        out = np.empty((len(self.nodes[0]), flat.size))
        inside = (flat > self._low[0]) & (flat < self._high[0])
        for k in np.flatnonzero(~inside).tolist():
            out[:, k] = self._state_at(float(flat[k]))
        if not inside.any():
            return out.reshape(len(out), *S.shape)
        Y, D1, D2 = self._node_arrays()
        s = flat[inside]
        with np.errstate(all="ignore"):  # floats give inf and nan without a warning too
            idx = np.minimum(((s - self.s0) / self.h).astype(np.intp), self.n_steps - 1)
            s_node = self.s0 + idx * self.h
            y, = _hermite((s - s_node) / self.h, self.h, [Y[:, idx]], [Y[:, idx + 1]],
                          [D1[:, idx]], [D1[:, idx + 1]], [D2[:, idx]], [D2[:, idx + 1]])
        out[:, inside] = np.where(s == s_node, Y[:, idx], y)
        return out.reshape(len(out), *S.shape)

    def _node_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node states, y' and y'' as (len(state), n_steps + 1) arrays, made on first use.

        Column i is nodes[i], _node_d1(i) and _node_d2(i) bit for bit.
        """
        if self._arrays is None:
            nodes = self.nodes
            Y = (nodes._rows if isinstance(nodes, ArrayNodes) else np.array(nodes, dtype=float)).T
            i = np.arange(self.n_steps + 1)
            D1 = np.empty_like(Y)
            with np.errstate(all="ignore"):
                for k, d1 in enumerate(self.f(self.s0 + i * self.h, Y)):
                    D1[k] = d1
                lo = np.clip(i - 2, 0, self.n_steps - 4)
                stencils = np.array(_D1_STENCILS)[i - lo].T
                D2, = _d1_stencil(1.0 / (12.0 * self.h), stencils,
                                  [[D1[:, lo + j]] for j in range(5)])
            self._arrays = (Y, D1, D2)
        return self._arrays

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
            d2 = self._d2[i] = tuple(_d1_stencil(1.0 / (12.0 * self.h), _D1_STENCILS[i - lo],
                                                 [self._node_d1(j) for j in range(lo, lo + 5)]))
        return d2

    def _hermite_derivatives(self, i: int, t: float) -> tuple[tuple, tuple]:
        """First and second s-derivatives of _hermite at the same point."""
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

    def states_at(self, S: np.ndarray) -> np.ndarray:
        """state_at(s) at every s of S, bit for bit, as DenseODE.states_at lays it out."""
        S = np.asarray(S, dtype=float)
        fwd = S >= 0.0
        out = np.empty((len(self.fwd.nodes[0]), *S.shape))
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
