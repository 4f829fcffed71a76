"""Frame-ODE tables of generated ruled surfaces, and the curves that read them.

A generated normalized surface carries its director w, w' and base g as the
state (w, w', g) of an RK4 table (curves.DenseODE or CenteredODE) of its
frame ODE, whose right-hand side reads random Fourier profiles; a lightlike
surface tabulates its base alone.  The right-hand sides of the sweep frame
ODE and of the pre-normalization input are curves.InlineRHS kinds, whose
march builds their scalar tables.  _frame_curves and _lightlike_curves wrap
a table as the base and director curves of the surface, which also read
their whole frame on arrays (_FrameCurve.frame_at); the table keeps its last
such read, and a read at the same S, or a point query at an s of it, is
answered from it, not from the table (_KeptRead), the one frame memo of a
generated surface.
_frame_nodes_batch and _lightlike_nodes step the tables of many draws at
once, bit for bit the scalar builds; both take g as an RK4 quadrature
(rk4_quadrature).  _frame_stack_at and _lightlike_stack_at read the frames
of many draws' tables at once, bit for bit each table's frame_at.  The
draws (ruled._Draw: the series, the seed state y0 and frame_signs()) and
the choice of build live in ruled.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import Metric, Vec3, cross
from .curves import (
    Curve,
    FourierSeries,
    InlineRHS,
    fourier_table,
    line_curve,
    rk4_increment,
    rk4_quadrature,
    rk4_stages,
    series_at,
    stacked_states_at,
)
from .surface import _V, along

# (a, b) of the lightlike director w(s) = a s + b = (1, s, s), with w' = a lightlike
_LIGHTLIKE_LINE = (Vec3(0.0, 1.0, 1.0), Vec3(1.0, 0.0, 0.0))

# Steps of a batch build whose coefficients and stage values are held at one time.
_STEP_BLOCK = 64

# The same for a lightlike build, whose 3 rows cost less per step.  Measured
# against 64 and 256 steps and the whole table (2-core host, best of 5 builds,
# 7 alternating rounds): 128 took 1.57 -> 1.24 ms at 1 draw, 2.47 -> 2.11 at
# 10 and 4.42 -> 3.79 at 32, with 0.9 MiB of working memory at 32 draws; 256
# was 0.1-0.2 ms faster but held 1.7 MiB, and the whole table was slower from
# 10 draws on and held 4.5 MiB.
_LIGHTLIKE_STEP_BLOCK = 128


class _FrameCurve(Curve):
    """The base or director of a frame table, whose whole frame also reads on arrays.

    frame_at(S), shared by the base and director of one table, gives (g, g',
    w, w', w'') at every s of S as _V component arrays, bit for bit the
    pointwise value(s) and d1(s) of the base and value(s), d1(s) and d2(s)
    of the director.  The curves of _frame_curves and _lightlike_curves keep
    their last read (_KeptRead), and answer a call at its S with that frame,
    not a copy, and a point query at an s of it from it.  A translated
    _FrameCurve is a plain Curve (Curve.translated) with no frame_at, whose
    point reads are these curves' plus the offset.  table is the frame table
    both curves read, for the reads of many tables at once (_frame_stack_at,
    _lightlike_stack_at).
    """

    def __init__(self, value, d1, d2, frame_at, table=None):
        super().__init__(value, d1, d2)
        self.frame_at = frame_at
        self.table = table


def _one_table_read(base: Curve, director: Curve):
    """The frame_at that base and director share when both read one frame table, else None."""
    if (isinstance(base, _FrameCurve) and isinstance(director, _FrameCurve)
            and base.frame_at is director.frame_at):
        return base.frame_at
    return None


class _KeptRead:
    """The last frame_at read of one table, which also answers point queries at its s.

    keep(S, frame) holds a copy of S and the frame (g, g', w, w', w'') read
    there.  read(S, frame_of) is that frame when S has the shape and bytes
    of the kept S, so -0.0 is not 0.0 there, and else keeps frame_of(S).
    serve(i, pointwise) is the point function of frame entry i: at an s of S
    whose column (all 15 values at that s) is finite, the Vec3 of the read's
    entry i, which is pointwise(s) bit for bit; at any other s,
    pointwise(s), which raises what it raises.  0.0 is never served: 0.0 and
    -0.0 are one key, and a function of s may tell them apart.  The s ->
    column dict, in which a repeated s maps to its first flat column, is
    built at the first point query after a read, so a read that no point
    query follows builds none.
    """

    __slots__ = ("_S", "_frame", "_keys")

    def __init__(self):
        self._S, self._keys = None, {}  # no read yet: nothing is served

    def keep(self, S: np.ndarray, frame: tuple) -> tuple:
        self._S = np.array(S, dtype=float)  # a copy: the caller may reuse its S
        self._frame = frame
        self._keys = None
        return frame

    def read(self, S: np.ndarray, frame_of) -> tuple:
        S = np.asarray(S, dtype=float)
        if self._S is not None and S.shape == self._S.shape and S.tobytes() == self._S.tobytes():
            return self._frame
        return self.keep(S, frame_of(S))

    def serve(self, i: int, pointwise):
        def at(s: float) -> Vec3:
            j = self._column(s)
            if j is None:
                return pointwise(s)
            x, y, z = self._frame[i]
            return Vec3(x.item(j), y.item(j), z.item(j))

        return at

    def _column(self, s: float) -> int | None:
        """Flat index of s in the last read's S, or None if it is not served there."""
        if self._keys is None:
            served = self._S != 0.0
            for v in self._frame:
                for c in v:
                    served &= np.isfinite(c)
            cols = np.flatnonzero(served)[::-1]  # from the last back: a repeated s keeps its first
            self._keys = dict(zip(self._S.ravel()[cols].tolist(), cols.tolist()))
        return self._keys.get(s)


def _frame_curves(table, rhs, g_d2=None) -> tuple[Curve, Curve]:
    """Base and director curves of a frame-ODE table with state (w, w', g).

    w, w' and g are state slots 0:3, 3:6 and 6:9; w'' and g' are the same
    slots 3:6 and 6:9 of rhs(s, state).  g_d2(s, state) supplies a closed
    form for g''; without it, Curve falls back to the central difference of g'.
    rhs must also take arrays of s and states, for the curves' frame_at.
    The value and first derivatives answer an s of frame_at's last read
    from that read (_KeptRead); g'' is always read pointwise.
    """
    kept = _KeptRead()

    def read(k: int, f=None):
        # Vec3 from slots k:k+3 of the state at s, or of f(s, state)
        def value(s: float) -> Vec3:
            y = table.state_at(s)
            if f is not None:
                y = f(s, y)
            return Vec3(y[k], y[k + 1], y[k + 2])

        return value

    def frame_at(S: np.ndarray) -> tuple[_V, _V, _V, _V, _V]:
        return kept.read(S, lambda S: _table_frame(S, table.states_at(S), rhs))

    g_d2_of_s = None if g_d2 is None else (lambda s: g_d2(s, table.state_at(s)))
    base = _FrameCurve(kept.serve(0, read(6)), kept.serve(1, read(6, rhs)), g_d2_of_s, frame_at,
                       table)
    director = _FrameCurve(kept.serve(2, read(0)), kept.serve(3, read(3)),
                           kept.serve(4, read(3, rhs)), frame_at, table)
    return base, director


def _table_frame(S: np.ndarray, y, rhs) -> tuple[_V, _V, _V, _V, _V]:
    """(g, g', w, w', w'') at S from the states y = (w, w', g) of a frame table there."""
    f = rhs(S, y)
    return tuple(_V(*x[k:k + 3]) for x, k in ((y, 6), (f, 6), (y, 0), (y, 3), (f, 3)))


def _frame_stack_at(draws: Sequence, tables: Sequence, S: np.ndarray) -> tuple:
    """The frame_at(S) read of every draw's frame table at once, with a trailing draw axis.

    tables[b] is the table of draws[b], all on one grid (curves.stacked_states_at),
    and the right-hand side is taken once for every draw (InlineRHS.bind_stack);
    entry [..., b] of each component is that of tables[b]'s frame_at(S) bit for bit.
    """
    rhs = _SWEEP_FRAME_RHS.bind_stack([d.series for d in draws], *draws[0].frame_signs())
    return _table_frame(S, stacked_states_at(tables, S), rhs)


def _lightlike_curves(table, rhs, g_d2) -> tuple[Curve, Curve]:
    """Base and director curves of a lightlike table, whose base g solves g' = rhs(s).

    The director is line_curve's a s + b with (a, b) = _LIGHTLIKE_LINE.
    frame_at reads g from the table, g' from rhs(S, None) on arrays, as
    _frame_curves does, and w, w', w'' = a s + b, a, 0 in the line's closed
    form.  The base's g and g' answer an s of frame_at's last read from that
    read (_KeptRead); the director always takes the line's closed form.
    """
    line = line_curve(*_LIGHTLIKE_LINE)
    kept = _KeptRead()

    def frame_at(S: np.ndarray) -> tuple[_V, _V, _V, _V, _V]:
        return kept.read(S, lambda S: _lightlike_frame(S, table.states_at(S), rhs(S, None)))

    base = _FrameCurve(kept.serve(0, lambda s: Vec3(*table.state_at(s))),
                       kept.serve(1, lambda s: Vec3(*rhs(s, None))), g_d2, frame_at, table)
    return base, _FrameCurve(line.value, line.d1, line.d2, frame_at, table)


def _lightlike_frame(S: np.ndarray, g, gp) -> tuple[_V, _V, _V, _V, _V]:
    """(g, g', w, w', w'') at S of a lightlike surface from its g and g', with the director
    a s + b, a, 0 of (a, b) = _LIGHTLIKE_LINE in closed form, of the shape of S."""
    a, b = _LIGHTLIKE_LINE
    zero = np.zeros(S.shape)
    return (_V(*g), _V(*gp), along(b, S, a), _V(zero + a.x, zero + a.y, zero + a.z),
            _V(zero, zero, zero))


def _lightlike_stack_at(draws: Sequence, tables: Sequence, S: np.ndarray) -> tuple:
    """_lightlike_curves' frame_at(S) of every draw's table at once, with a trailing draw axis.

    As _frame_stack_at: g is read from every table at once, and g' from one
    fourier_table of every draw's profile.  The director, which every draw
    shares, has a trailing axis of length 1.
    """
    S1 = S[..., None]
    gp = _lightlike_gp(S1, fourier_table([d.series[0] for d in draws], S))
    return _lightlike_frame(S1, stacked_states_at(tables, S), gp)


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


# x0, x1, x2 = w x_z w' of a state (w, w', ...), with the operands of algebra.cross
_CROSS = ("x0 = {1} * {5} - {2} * {4}", "x1 = {2} * {3} - {0} * {5}",
          "x2 = zsign * ({0} * {4} - {1} * {3})")

# w'' = sigma w + Q (w x_z w') and g' = P (w x_z w'): _sweep_frame_ode's right-hand side
_SWEEP_FRAME_RHS = InlineRHS(
    "sweep_frame_rhs", ("q", "p"), ("zsign", "sigma"), _CROSS,
    ("{3}", "{4}", "{5}",
     "sigma * {0} + {q} * x0", "sigma * {1} + {q} * x1", "sigma * {2} + {q} * x2",
     "{p} * x0", "{p} * x1", "{p} * x2"))

# w'' = -d (w + Q (w x_L w')) and g1' = a w' + b (w x_L w'), with the series
# a, b read as ga, gb and zsign = -1: the right-hand side of
# ruled.random_prenormalization_input
_PRENORMALIZATION_RHS = InlineRHS(
    "prenormalization_rhs", ("q", "ga", "gb"), ("zsign", "d"), _CROSS,
    ("{3}", "{4}", "{5}",
     "-d * ({0} + {q} * x0)", "-d * ({1} + {q} * x1)", "-d * ({2} + {q} * x2)",
     "{ga} * {3} + {gb} * x0", "{ga} * {4} + {gb} * x1", "{ga} * {5} + {gb} * x2"))


def _sweep_frame_ode(Q: FourierSeries, P: FourierSeries, zsign: float, sigma: float):
    """Right-hand side and g'' of the sweep frame ODE with state (w, w', g).

    w'' = sigma w + Q (w x_z w') and g' = P (w x_z w'), where x_z is
    algebra.cross in the signature of zsign (+1 Euclidean, -1 Lorentzian),
    whose third component it multiplies.  On a normalized frame
    w x_z (w x_z w') = -zsign w', so (w x_z w')' = w x_z w'' = -zsign Q w'
    and g'' = P'(w x_z w') - zsign P Q w'.
    rhs takes an array of s with arrays of state components too, and
    carries the march that DenseODE builds its scalar tables with.
    """
    rhs = _SWEEP_FRAME_RHS.bind((Q, P), zsign, sigma)
    metric = Metric.EUCLIDEAN if zsign > 0.0 else Metric.LORENTZIAN

    def g_d2(s: float, y: tuple) -> Vec3:
        c = cross(metric, _V(*y[0:3]), _V(*y[3:6]))
        q, p, pp = Q(s), P(s), P.deriv(s)
        zpq = zsign * p * q
        return Vec3(pp * c.x - zpq * y[3], pp * c.y - zpq * y[4], pp * c.z - zpq * y[5])

    return rhs, g_d2


# an overflowing draw gives inf and nan without a warning, as the scalar floats do
@np.errstate(over="ignore", invalid="ignore")
def _frame_nodes_batch(draws: Sequence, grids) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and node slopes of every draw's frame-ODE table on every grid, in one RK4 pass.

    grids holds (s0, s1, n_steps) per table half, all with one n_steps.  Both
    results have shape (n_steps + 1, 9, len(grids) * len(draws)); column
    g * len(draws) + b is draw b's table on grid g.  The slopes are the
    first stages of the steps, and the right-hand side at the last node,
    s0 + n_steps h as DenseODE rounds it.

    Each column takes the operations of rk4_step on the rhs of
    _sweep_frame_ode in their order, so its nodes are the scalar ones bit for
    bit.  Only (w, w') is stepped, in buffers allocated once per build; g is
    the RK4 quadrature of P (w x_z w') at the cross products kept at the
    stages of a block of steps.  zsign rides in Q's third row and in that
    product's third row, an exact sign flip; sigma w is an add or a subtract.
    """
    n_draws = len(draws)
    n_steps = grids[0][2]
    zsign, sigma = draws[0].frame_signs()
    series = [d.series[0] for d in draws] + [d.series[1] for d in draws]
    steps, stages = zip(*[rk4_stages(s0, s1, n_steps) for s0, s1, _ in grids])
    width = len(grids) * n_draws
    h = np.repeat(steps, n_draws)
    # h/2, h and h/6 in the (6, width) shape of (w, w'): a broadcast operand
    # costs more per call than the arithmetic
    half, full, sixth = [np.tile(x, (6, 1)) for x in (0.5 * h, h, h / 6.0)]
    # one block for nodes and slopes: once glibc frees it, its heap trim threshold is
    # twice the block, above all a chunk's tables free, so later chunks reuse the pages
    nodes, slopes = np.empty((2, n_steps + 1, 9, width))
    nodes[0] = np.tile(np.array([d.y0 for d in draws]).T, len(grids))
    block = min(_STEP_BLOCK, n_steps)
    # per step of a block: (Q, Q, zsign Q) at its three stage s, and P and
    # w x w' (third component without zsign) at its four stages
    q_rows, p_row = np.empty((block, 3, 3, width)), np.empty((block, 4, 1, width))
    cross = np.empty((block, 4, 3, width))
    row_signs = np.array([[1.0], [1.0], [zsign]])
    # stages 1-3: the state in rows 0:6, its k = (w', w'') in rows 3:9
    (z1, z2, z3), (k2, k3, k4) = (z := np.empty((3, 9, width)))[:, :6], z[:, 3:]
    acc, t = np.empty((2, 6, width))
    t0, t1 = t[:3], t[3:]
    add_w = np.add if sigma > 0 else np.subtract
    # rows of (w, w') such that a = y[cross_rows] gives w x w' as
    # a[0:3] a[6:9] - a[3:6] a[9:12], each product with the operands of algebra.cross
    cross_rows = np.array([1, 2, 0, 2, 0, 1, 5, 3, 4, 4, 5, 3])

    def rhs(y, q, c, wpp):
        # w'' = q c + sigma w into wpp, with c = w x w' into c
        a = y[cross_rows]
        np.multiply(a[:6], a[6:], t)
        np.subtract(t0, t1, c)
        np.multiply(q, c, wpp)
        add_w(wpp, y[:3], wpp)

    for i0 in range(0, n_steps, block):
        n = min(block, n_steps - i0)
        for g, grid_stages in enumerate(stages):
            qp = fourier_table(series, grid_stages[i0:i0 + n]).reshape(n, 3, 2, 1, n_draws)
            cols = slice(g * n_draws, (g + 1) * n_draws)
            np.multiply(qp[:, :, 0], row_signs, q_rows[:n, :, :, cols])
            p_row[:n, :, :, cols] = qp[:, [0, 1, 1, 2], 1]
        for i, q, c in zip(range(i0, i0 + n), q_rows, cross):
            y, k1 = nodes[i, :6], slopes[i, :6]
            k1[:3] = y[3:]
            rhs(y, q[0], c[0], k1[3:])
            np.add(y, np.multiply(half, k1, acc), z1)
            rhs(z1, q[1], c[1], k2[3:])
            np.add(y, np.multiply(half, k2, acc), z2)
            rhs(z2, q[1], c[2], k3[3:])
            np.add(y, np.multiply(full, k3, acc), z3)
            rhs(z3, q[2], c[3], k4[3:])
            np.add(y, rk4_increment(k1, k2, k3, k4, sixth, acc), nodes[i + 1, :6])
        # g' = P c at the stages, formed in place, with zsign on the third row
        c = cross[:n]
        c *= p_row[:n]
        c[:, :, 2] *= zsign
        rk4_quadrature(c.swapaxes(0, 1), nodes[i0:i0 + n + 1, 6:], slopes[i0:i0 + n, 6:], h)
    qp = np.concatenate([fourier_table(series, np.array(s0 + n_steps * step)).reshape(2, 1, n_draws)
                         for (s0, _, _), step in zip(grids, steps)], axis=-1)
    slopes[n_steps, :3] = nodes[n_steps, 3:6]
    rhs(nodes[n_steps, :6], qp[0] * row_signs, slopes[n_steps, 6:], slopes[n_steps, 3:6])
    slopes[n_steps, 6:] *= qp[1] * row_signs
    return nodes, slopes


def _lightlike_gp(s, m):
    """The lightlike base tangent g' at s from the profile value m = m(s), on floats or arrays."""
    a = (s * s * m * m - 1.0) / m
    return (s * m, 0.5 * (a - m), 0.5 * (a + m))


def _lightlike_ode(mf: FourierSeries):
    """Right-hand side (of s alone, a float or an array) and g''(s) of a lightlike base."""
    profile = series_at(mf)

    def rhs(s: float, y) -> tuple:
        return _lightlike_gp(s, profile(s)[0])

    def g_d2(s: float) -> Vec3:
        mv = mf(s)
        mp = mf.deriv(s)
        ap = 2.0 * s * mv + s * s * mp + mp / (mv * mv)
        return Vec3(mv + s * mp, 0.5 * (ap - mp), 0.5 * (ap + mp))

    return rhs, g_d2


@np.errstate(over="ignore", invalid="ignore")  # as _frame_nodes_batch
def _lightlike_nodes(draws: Sequence, s0: float, s1: float,
                     n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 nodes and slopes of every lightlike draw's base from s0 to s1.

    Both have shape (n_steps + 1, 3, draws).  g' does not read the state, so
    the nodes are RK4 sums of g' at the stages, taken _LIGHTLIKE_STEP_BLOCK
    steps at a time, and the slopes are g' at the node s.
    """
    h, stages = rk4_stages(s0, s1, n_steps)
    series = [d.series[0] for d in draws]
    nodes, slopes = np.empty((2, n_steps + 1, 3, len(draws)))  # as in _frame_nodes_batch
    nodes[0] = np.array([d.y0 for d in draws]).T
    for i0 in range(0, n_steps, _LIGHTLIKE_STEP_BLOCK):
        block = stages[i0:i0 + _LIGHTLIKE_STEP_BLOCK]
        # g' at each stage of the block's steps, shape (steps, 3, 3, draws)
        gp = np.stack(_lightlike_gp(block[..., None], fourier_table(series, block)), axis=2)
        rk4_quadrature((gp[:, 0], gp[:, 1], gp[:, 1], gp[:, 2]),
                       nodes[i0:i0 + len(block) + 1], slopes[i0:i0 + len(block)], h)
    end = s0 + n_steps * h  # the last node's s, as DenseODE rounds it
    slopes[n_steps] = _lightlike_gp(end, fourier_table(series, np.array(end)))
    return nodes, slopes
