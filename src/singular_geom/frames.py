"""Frame-ODE tables of generated ruled surfaces, and the curves that read them.

A generated normalized surface carries its director w, w' and base g as the
state (w, w', g) of an RK4 table (curves.DenseODE or CenteredODE) of its
frame ODE, whose right-hand side reads random Fourier profiles; a lightlike
surface tabulates its base alone.  _frame_curves and _lightlike_curves wrap
a table as the base and director curves of the surface, which also read
their whole frame on arrays (_FrameCurve.frame_at).  _frame_nodes_batch and
_lightlike_nodes step the tables of many draws at once, bit for bit the
scalar builds.  The draws (ruled._Draw: the series, the seed state y0 and
frame_signs()) and the choice of build live in ruled.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import Vec3
from .curves import (
    Curve,
    FourierSeries,
    fourier_table,
    line_curve,
    memo_last,
    memo_last_array,
    rk4_batch,
    rk4_quadrature,
    rk4_stages,
    series_at,
)
from .surface import _V, along

# (a, b) of the lightlike director w(s) = a s + b = (1, s, s), with w' = a lightlike
_LIGHTLIKE_LINE = (Vec3(0.0, 1.0, 1.0), Vec3(1.0, 0.0, 0.0))

# Steps of a batch build whose coefficient tables are held at one time.
_STEP_BLOCK = 128


def _tcross(a, b, zsign: float = 1.0):
    """Cross product of 3-tuples; zsign = -1.0 gives the Lorentzian x_L.

    The frame ODEs call this on every right-hand-side evaluation, so it stays
    on plain tuples instead of building (and finite-checking) Vec3s.
    """
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            zsign * (a[0] * b[1] - a[1] * b[0]))


class _FrameCurve(Curve):
    """The base or director of a frame table, whose whole frame also reads on arrays.

    frame_at(S), shared by the base and director of one table, gives (g, g',
    w, w', w'') at every s of S as _V component arrays, bit for bit the
    pointwise value(s) and d1(s) of the base and value(s), d1(s) and d2(s)
    of the director.  It keeps its last result, for an S of the same bits.
    A translated _FrameCurve reads the same frame with the offset added to g.
    """

    def __init__(self, value, d1, d2, frame_at):
        super().__init__(value, d1, d2)
        self.frame_at = frame_at

    def translated(self, offset: Vec3) -> "_FrameCurve":
        frame_at = self.frame_at

        def shifted(S: np.ndarray) -> tuple:
            g, *rest = frame_at(S)
            # as Vec3.__add__ adds the offset to a value
            return (_V(g.x + offset.x, g.y + offset.y, g.z + offset.z), *rest)

        return _FrameCurve(lambda s: self._value(s) + offset, self.d1, self.d2, shifted)


def _frame_curves(table, rhs, g_d2=None) -> tuple[Curve, Curve]:
    """Base and director curves of a frame-ODE table with state (w, w', g).

    w, w' and g are state slots 0:3, 3:6 and 6:9; w'' and g' are the same
    slots 3:6 and 6:9 of rhs(s, state).  g_d2(s, state) supplies a closed
    form for g''; without it, Curve falls back to the central difference of g'.
    rhs must also take arrays of s and states, for the curves' frame_at.
    """

    def read(k: int, f=None):
        # Vec3 from slots k:k+3 of the state at s, or of f(s, state)
        def value(s: float) -> Vec3:
            y = table.state_at(s)
            if f is not None:
                y = f(s, y)
            return Vec3(y[k], y[k + 1], y[k + 2])

        return value

    def slots(y, k: int) -> _V:
        return _V(y[k], y[k + 1], y[k + 2])

    @memo_last_array
    def frame_at(S: np.ndarray) -> tuple[_V, _V, _V, _V, _V]:
        y = table.states_at(S)
        f = rhs(S, y)
        return slots(y, 6), slots(f, 6), slots(y, 0), slots(y, 3), slots(f, 3)

    g_d2_of_s = None if g_d2 is None else (lambda s: g_d2(s, table.state_at(s)))
    base = _FrameCurve(read(6), read(6, rhs), g_d2_of_s, frame_at)
    director = _FrameCurve(read(0), read(3), read(3, rhs), frame_at)
    return base, director


def _lightlike_curves(table, mf: FourierSeries, rhs, g_d2) -> tuple[Curve, Curve]:
    """Base and director curves of a lightlike table, whose base g solves g' = rhs(s).

    The director is line_curve's a s + b with (a, b) = _LIGHTLIKE_LINE.
    frame_at reads g from the table, g' from _lightlike_gp over
    fourier_table, and w, w', w'' = a s + b, a, 0 in the line's closed form.
    """
    a, b = _LIGHTLIKE_LINE
    line = line_curve(a, b)

    @memo_last_array
    def frame_at(S: np.ndarray) -> tuple[_V, _V, _V, _V, _V]:
        zero = np.zeros(S.shape)
        return (_V(*table.states_at(S)),
                _V(*_lightlike_gp(S, fourier_table([mf], S)[..., 0])),
                along(b, S, a),
                _V(zero + a.x, zero + a.y, zero + a.z),
                _V(zero, zero, zero))

    base = _FrameCurve(lambda s: Vec3(*table.state_at(s)), lambda s: Vec3(*rhs(s, None)),
                       g_d2, frame_at)
    return base, _FrameCurve(line.value, line.d1, line.d2, frame_at)


def _fourier(rng: np.random.Generator, c0_range: tuple[float, float], amp: float,
             omega: float, signed: bool = True, sign: float = 1.0) -> FourierSeries:
    # sign = +-1 scales every coefficient exactly, so values and derivatives
    # are those of the unsigned series times sign, bit for bit
    c0 = rng.uniform(*c0_range)
    if signed and rng.uniform() < 0.5:
        c0 = -c0
    raw = rng.uniform(-1.0, 1.0, size=4)
    total = np.sum(np.abs(raw))
    scale = amp * abs(c0) / total if total > 0 else 0.0
    return FourierSeries(sign * c0, list(raw[:2] * scale * sign),
                         list(raw[2:] * scale * sign), omega)


# Rows of the state (w, w', g) such that a = y[_CROSS_ROWS] gives the
# components of w x w' as a[0:3] * a[3:6] - a[6:9] * a[9:12], each with the
# operands of _tcross in _tcross's order.
_CROSS_ROWS = np.array([1, 2, 0, 5, 3, 4, 2, 0, 1, 4, 5, 3])


def _frame_rhs_batch(y: np.ndarray, qp: np.ndarray, zsign: float, sigma: float) -> np.ndarray:
    """The right-hand side of _sweep_frame_ode for a (9, B) batch of states.

    qp[0] and qp[1] hold each column's Q and P; every column is the scalar
    rhs bit for bit, since each entry takes the same operations on the same
    operands.
    """
    a = y[_CROSS_ROWS]
    c = a[0:3] * a[3:6] - a[6:9] * a[9:12]
    c[2] *= zsign
    out = np.empty_like(y)
    out[0:3] = y[3:6]
    # rows 3:9 as (2, 3, B) take q c and p c in one product; q c + sigma w
    # then adds the same two terms as sigma w + q c, and IEEE sums commute
    np.multiply(qp[:, None], c, out=out[3:9].reshape(2, *c.shape))
    out[3:6] += sigma * y[0:3]
    return out


def _sweep_frame_ode(Q: FourierSeries, P: FourierSeries, zsign: float, sigma: float):
    """Right-hand side and g'' of the sweep frame ODE with state (w, w', g).

    w'' = sigma w + Q (w x_z w') and g' = P (w x_z w'), where x_z is the
    cross product with its third component times zsign (+1 Euclidean, -1
    Lorentzian).  On a normalized frame w x_z (w x_z w') = -zsign w', so
    (w x_z w')' = w x_z w'' = -zsign Q w' and g'' = P'(w x_z w') - zsign P Q w'.
    rhs takes an array of s with arrays of state components too, and
    _frame_rhs_batch is the same rhs on a batch of states stepped together.
    """
    coeffs = series_at(Q, P)

    def rhs(s: float, y: tuple) -> tuple:
        w = y[0:3]
        wp = y[3:6]
        c = _tcross(w, wp, zsign)
        q, p = coeffs(s)
        return (
            wp[0], wp[1], wp[2],
            sigma * w[0] + q * c[0], sigma * w[1] + q * c[1], sigma * w[2] + q * c[2],
            p * c[0], p * c[1], p * c[2],
        )

    rhs.tabulated = coeffs.tabulated  # for the scalar builds of _build_tables

    def g_d2(s: float, y: tuple) -> Vec3:
        c = _tcross(y[0:3], y[3:6], zsign)
        (q, p), pp = coeffs(s), P.deriv(s)
        zpq = zsign * p * q
        return Vec3(pp * c[0] - zpq * y[3], pp * c[1] - zpq * y[4], pp * c[2] - zpq * y[5])

    return rhs, g_d2


def _frame_nodes_batch(draws: Sequence, grids) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and node slopes of every draw's frame-ODE table on every grid, in one RK4 pass.

    grids holds (s0, s1, n_steps) per table half, all with one n_steps.  Both
    results have shape (n_steps + 1, 9, len(grids) * len(draws)); column
    g * len(draws) + b is draw b's table on grid g.  The slopes are the
    first stages of the steps, and the right-hand side at the last node,
    s0 + n_steps h as DenseODE rounds it.
    """
    n_draws = len(draws)
    n_steps = grids[0][2]
    zsign, sigma = draws[0].frame_signs()
    series = [d.series[0] for d in draws] + [d.series[1] for d in draws]
    steps, stages = zip(*[rk4_stages(s0, s1, n_steps) for s0, s1, _ in grids])
    h = steps[0] if len(grids) == 1 else np.repeat(steps, n_draws)
    # one block for nodes and slopes: once glibc frees it, its heap trim threshold is
    # twice the block, above all a chunk's tables free, so later chunks reuse the pages
    nodes, slopes = np.empty((2, n_steps + 1, 9, len(grids) * n_draws))
    nodes[0] = np.tile(np.array([d.y0 for d in draws]).T, len(grids))
    # Q and P are tabulated a block of steps at a time, which bounds the
    # memory besides the nodes: qp[i, stage] is (Q, P) of every column
    for i0 in range(0, n_steps, _STEP_BLOCK):
        block = [g[i0:i0 + _STEP_BLOCK] for g in stages]
        qp = np.concatenate([fourier_table(series, g).reshape(len(g), 3, 2, n_draws)
                             for g in block], axis=-1)
        rk4_batch(lambda i, stage, y: _frame_rhs_batch(y, qp[i, stage], zsign, sigma),
                  nodes[i0:i0 + len(qp) + 1], slopes[i0:i0 + len(qp)], h)
    qp = np.concatenate([fourier_table(series, np.array(s0 + n_steps * step)).reshape(2, n_draws)
                         for (s0, _, _), step in zip(grids, steps)], axis=-1)
    slopes[n_steps] = _frame_rhs_batch(nodes[n_steps], qp, zsign, sigma)
    return nodes, slopes


def _lightlike_gp(s, m):
    """The lightlike base tangent g' at s from the profile value m = m(s), on floats or arrays."""
    a = (s * s * m * m - 1.0) / m
    return (s * m, 0.5 * (a - m), 0.5 * (a + m))


def _lightlike_ode(mf: FourierSeries):
    """Right-hand side (the state is not read) and g''(s) of a lightlike base."""

    @memo_last
    def gp(s: float) -> tuple[float, float, float]:
        return _lightlike_gp(s, mf(s))

    def rhs(s: float, y) -> tuple:
        return gp(s)

    def g_d2(s: float) -> Vec3:
        mv = mf(s)
        mp = mf.deriv(s)
        ap = 2.0 * s * mv + s * s * mp + mp / (mv * mv)
        return Vec3(mv + s * mp, 0.5 * (ap - mp), 0.5 * (ap + mp))

    return rhs, g_d2


def _lightlike_nodes(draws: Sequence, s0: float, s1: float,
                     n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 nodes and slopes of every lightlike draw's base from s0 to s1.

    Both have shape (n_steps + 1, 3, draws).  g' does not read the state, so
    the nodes are RK4 sums of g' at the stages, taken a block of steps at a
    time like _frame_nodes_batch, and the slopes are g' at the node s.
    """
    h, stages = rk4_stages(s0, s1, n_steps)
    series = [d.series[0] for d in draws]
    nodes, slopes = np.empty((2, n_steps + 1, 3, len(draws)))  # as in _frame_nodes_batch
    nodes[0] = np.array([d.y0 for d in draws]).T
    for i0 in range(0, n_steps, _STEP_BLOCK):
        block = stages[i0:i0 + _STEP_BLOCK]
        # g' at each stage of the block's steps, shape (steps, 3, 3, draws)
        gp = np.stack(_lightlike_gp(block[..., None], fourier_table(series, block)), axis=2)
        rk4_quadrature(gp, nodes[i0:i0 + len(block) + 1], slopes[i0:i0 + len(block)], h)
    end = s0 + n_steps * h  # the last node's s, as DenseODE rounds it
    slopes[n_steps] = _lightlike_gp(end, fourier_table(series, np.array(end)))
    return nodes, slopes
