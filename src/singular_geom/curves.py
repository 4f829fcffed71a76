"""Twice-differentiable paths and small fixed-step ODE helpers.

Curves are maps s -> Vec3 with two derivatives.  Where a derivative callable
is not supplied it is obtained by 4th-order central differences of the next
lower derivative.  ``Curve.jet`` returns all three at once, and a curve that
reads them together overrides it (catenary.plane_curve takes one table jet
per s).  Dense ODE tables integrate a state with classical
RK4 on a fixed node grid and answer point queries between nodes with a C^2
quintic Hermite dense output, so a query takes no integration step.  A table
runs from its seed point s0 toward an s1 on either side of it, and can wrap
RK4 nodes a caller has already taken.  Every table holds one layout: float64
arrays of its node states, of its node slopes, kept where the nodes are made
(the first RK4 stage of each step), and of its node y''.  ``state_at`` reads
them as floats, and ``stacked_states_at``, the one array read, answers a
whole array of s for one table or many on one grid at once, with a trailing
table axis, bit for bit as ``state_at`` answers each: the Hermite is written
once on components, for floats and arrays.  ``rk4_quadrature`` takes the
nodes and slopes of many tables of y' = f(s) at once on float64 arrays from
f at the four stages of every step, and ``rk4_increment`` is its stage sum,
each bit for bit as ``rk4_step`` takes them one table at a time.  An ``InlineRHS`` is a kind
of right-hand side written once as source on the state's components; it
compiles to a pointwise f and to a march, one loop that takes a table's
whole RK4 build on local floats with f inlined into each stage, bit for bit
rk4_step's nodes; ``bind_stack`` runs the kind's f for many bindings at once
on arrays.  DenseODE builds with the march of an f that carries one,
and steps with rk4_step otherwise, or where the march declines.  A kind
may read no coefficients and may carry a guard, a condition on the state
where f is not defined: f raises there and the march stops there
(catenary.integrate's halfspace exit).
"""
from __future__ import annotations

import linecache
import math
import re
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .algebra import Vec3
from .errors import OutOfDomain

# Steps for the fallback difference quotients.  First derivatives from values
# tolerate a smaller step than second derivatives (roundoff grows like 1/h^2).
FD_H1 = 1e-4
FD_H2 = 1e-3


def fd1_points(s, h: float = FD_H1) -> tuple:
    """s - 2h, s - h, s, s + h and s + 2h, on floats or arrays: fd1 reads all but s.

    ruled._sweep_frames and surface._stencil_axis read on arrays at these
    points, so an array read holds, bit for bit, the points fd1 asks for.
    """
    return s - 2 * h, s - h, s, s + h, s + 2 * h


def fd1(f: Callable[[float], Vec3 | float], s: float, h: float = FD_H1) -> Vec3 | float:
    """4th-order central first derivative of a Vec3- or float-valued function."""
    m2, m1, _, p1, p2 = fd1_points(s, h)
    return fd1_stencil(f(m2), f(m1), f(p1), f(p2), h)


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
    """Floats a and b are the same argument: equal, and of one sign at zero."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


class Curve:
    """A path s -> Vec3 with value and two derivatives."""

    def __init__(self, value, d1=None, d2=None):
        self._value = value
        self._d1 = d1
        self._d2 = d2

    def jet(self, s: float) -> tuple[Vec3, Vec3, Vec3]:
        """(value, d1, d2) at s."""
        return self.value(s), self.d1(s), self.d2(s)

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
    the slope of its node.  The step runs a body unrolled for len(y)
    (``y0 + half * a0``, ...), generated from _RK4_TEMPLATE the first time
    that length is seen and cached: generic stage sums over zip cost more
    per step than a catenary right-hand side.  The body unpacks k1 and each
    stage's f result, so a k1 or an f result whose length is not len(y)
    raises ValueError.
    Every step of a table's overhang query, of the BVP shooter and of a
    table build without a march is a call of this function by its
    module-level name, so a counting or tracing wrapper bound to that name
    sees it.  The build of a table whose right-hand side carries an
    InlineRHS's march, and catenary.integrate, run that kind's march instead
    and call no rk4_step.
    """
    body = _rk4_bodies.get(len(y))
    if body is None:
        body = _rk4_bodies[len(y)] = _rk4_body(len(y))
    return body(f, s, y, h, k1)


# The stage sums of one RK4 step on component i, from the state y and the
# slopes a, b, c and d of its four stages: the states at which stages 2, 3
# and 4 take f, at s + half, s + half and s + h, and the next node.  rk4_step's
# body and InlineRHS's march are generated from these, and the batch builds
# of ruled's sweep tables take the same order of operations (rk4_increment),
# so every path gets the same node bits.
_STEP_SIZES = "half, w = 0.5 * h, h / 6.0"
_STAGE_STATES = ("y{i} + half * a{i}", "y{i} + half * b{i}", "y{i} + h * c{i}")
_NEXT_NODE = "y{i} + w * (a{i} + 2.0 * (b{i} + c{i}) + d{i})"

_RK4_TEMPLATE = """\
def rk4_step_{n}(f, s, y, h, k1):
    ({y}) = y
    if k1 is None:
        k1 = f(s, y)
    ({a}) = k1
    {sizes}
    ({b}) = f(s + half, ({y_a}))
    ({c}) = f(s + half, ({y_b}))
    ({d}) = f(s + h, ({y_c}))
    return ({out})
"""

_rk4_bodies: dict[int, Callable] = {}


def _tup(fmt: str, n: int) -> str:
    """fmt.format(i=i) for i < n as the items of a tuple display."""
    return ", ".join(fmt.format(i=i) for i in range(n)) + ("," if n == 1 else "")


def _compiled(source: str, filename: str, name: str, **names) -> Callable:
    """Function name of source, whose lines tracebacks show under filename (linecache).

    names are the globals the source reads.
    """
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _rk4_body(n: int) -> Callable:
    """rk4_step's body for states of length n, compiled from _RK4_TEMPLATE."""
    y_a, y_b, y_c = (_tup(e, n) for e in _STAGE_STATES)
    source = _RK4_TEMPLATE.format(
        n=n, y=_tup("y{i}", n), a=_tup("a{i}", n), b=_tup("b{i}", n), c=_tup("c{i}", n),
        d=_tup("d{i}", n), sizes=_STEP_SIZES, y_a=y_a, y_b=y_b, y_c=y_c,
        out=_tup(_NEXT_NODE, n))
    return _compiled(source, f"<{__name__}.rk4_step, state length {n}>", f"rk4_step_{n}")


_RHS_TEMPLATE = """\
def {name}(at, {params}):
    def rhs(s, y):
        ({y}) = y
{body}
        return ({out})

    return rhs
"""

_MARCH_TEMPLATE = """\
def {name}_march({args}):
    ({y}) = y
    {sizes}
    nodes, slopes = [y], []
    add_node, add_slope = nodes.append, slopes.append
    for {stage_coeffs} in table:
{step}
        add_node(({y}))
    return nodes, slopes
"""


class InlineRHS:
    """A kind of right-hand side f(s, y), written once as source on the components of y.

    body holds statements and out the expressions of f's n components, in which
    {0} ... {n-1} stand for the components of y, {c} for each name c of
    coeffs for the value at s of a coefficient the kind reads, and the names
    of params for constants of one right-hand side.  A coefficient named s
    is s itself, for a body that names the s it is taken at.  names are the
    functions and constants the source reads besides these.  The names body
    binds must not be those of the generated functions: s, h, half, w,
    nodes, slopes, add_node, add_slope, table, guard_error, nor a, b, c, d,
    y or z followed by digits.  A guard (condition, error) marks where f is
    not defined: condition is written on the components and params as body
    is, f raises error(s, y) where it holds, and a march ends there.

    bind_at(at, *params, rows=rows) is one right-hand side f(s, y), which
    reads its coefficients at s as at(s), on floats or on arrays as at
    answers.  Given rows, f.march(s0, s1, y0, n_steps) gives the node states
    (n_steps + 1) and slopes (n_steps) of DenseODE's loop of rk4_step over
    f, bit for bit, in one generated loop on local floats with body inlined
    into each stage.  rows(stages) gives its coefficients at the stage s of
    rk4_stages(s0, s1, n_steps), one list per step: the coefficients at
    stage s 0, 1 and 2 one after another, each in the order of coeffs.
    rows may give None instead, and f.march then gives None, so that
    DenseODE steps with rk4_step.  bind(series, *params) reads the
    coefficients of series from series_at(*series), and a march reads them
    at every stage from one fourier_table.  A kind that reads no
    coefficients marches with march(y0, h, n_steps, *params) instead, at
    the step h its caller gives.  A guarded march takes the guard at the
    states of stages b, c and d and at each new node, not at y0, and stops
    at the first state where it holds: it returns the nodes before that step
    and their slopes, so one slope per node.  A march computes the stage
    states of only the components that body, out or the guard read, and
    reads names and the list appends as locals.  Both functions are compiled
    once per kind, at its first bind or march, so binding a draw's series
    and signs compiles nothing.
    """

    def __init__(self, name: str, coeffs: Sequence[str], params: Sequence[str],
                 body: Sequence[str], out: Sequence[str],
                 guard: tuple[str, Callable] | None = None, names: dict | None = None):
        self.name, self.n = name, len(out)
        self._coeffs, self._params, self._body, self._out = coeffs, params, body, out
        self._guard, self._names = guard, names or {}
        self._functions: tuple[Callable, Callable] | None = None

    def bind(self, series: Sequence[FourierSeries], *params: float):
        def rows(stages: np.ndarray) -> list:
            # row i: the series at the three stage s of step i, one after another
            return fourier_table(series, stages).reshape(len(stages), -1).tolist()

        return self.bind_at(series_at(*series), *params, rows=rows if self._coeffs else None)

    def bind_at(self, at: Callable, *params: float, rows: Callable | None = None):
        make, march = self._functions or self._compile()
        f = make(at, *params)
        if rows is None:
            return f

        def f_march(s0: float, s1: float, y0: tuple, n_steps: int) -> tuple[list, list] | None:
            h, stages = rk4_stages(s0, s1, n_steps)
            table = rows(stages)
            return None if table is None else march(y0, h, table, *params)

        f.march = f_march
        return f

    def bind_stack(self, series: Sequence[Sequence[FourierSeries]], *params: float):
        """The right-hand sides bind(series[b], *params) of every b at once, on arrays.

        f(S, y) takes the components of y with a trailing axis of len(series)
        and gives f's with that axis too: column b is bind(series[b],
        *params)(S, y[..., b]) bit for bit, with every coefficient of every b
        read from one fourier_table.
        """
        width = len(series)
        flat = [f for coeff in zip(*series) for f in coeff]  # coefficient by coefficient

        def at(s):
            table = fourier_table(flat, s)
            return tuple(table[..., k:k + width] for k in range(0, len(flat), width))

        return (self._functions or self._compile())[0](at, *params)

    def march(self, y0: tuple, h: float, n_steps: int, *params: float) -> tuple[list, list]:
        """Nodes and slopes of up to n_steps RK4 steps of size h from y0, for a kind
        that reads no coefficients."""
        return (self._functions or self._compile())[1](y0, h, range(n_steps), *params)

    def _lines(self, state: str, stage: int | None) -> tuple[list[str], list[str]]:
        """body and out on the components state0, ..., and the coefficients of a stage.

        A coefficient is its bare name, or name_stage when a stage is given.
        """
        args = [f"{state}{i}" for i in range(self.n)]
        names = {c: c if stage is None else f"{c}_{stage}" for c in self._coeffs}
        return ([line.format(*args, **names) for line in self._body],
                [e.format(*args, **names) for e in self._out])

    def _guarded(self, state: str, action: str) -> list[str]:
        """The statement that takes action where the guard holds at state0, ..., if any."""
        if self._guard is None:
            return []
        return [f"if {self._guard[0].format(*(f'{state}{i}' for i in range(self.n)))}: {action}"]

    def _read_components(self) -> set[int]:
        """The components {i} that body, out or the guard read."""
        source = [*self._body, *self._out] + ([self._guard[0]] if self._guard else [])
        return {int(i) for line in source for i in re.findall(r"\{(\d+)\}", line)}

    def _compile(self) -> tuple[Callable, Callable]:
        n, params, y = self.n, ", ".join(self._params), _tup("y{i}", self.n)
        names = dict(self._names)
        if self._guard is not None:
            names["guard_error"] = self._guard[1]
        body, out = self._lines("y", None)
        head = self._guarded("y", "raise guard_error(s, y)")
        if self._coeffs:
            head.append(f"({', '.join(self._coeffs)},) = at(s)")
        make = _compiled(
            _RHS_TEMPLATE.format(name=self.name, params=params, y=y,
                                 body=_indented(head + body), out=", ".join(out)),
            f"<{__name__}.InlineRHS {self.name}>", self.name, **names)
        # stage a at the node y, stages b, c and d at the stage states z; b and
        # c share their s, so a step reads the coefficients at three s
        read, step = sorted(self._read_components()), []
        for k, stage, z in (("a", 0, None), ("b", 1, _STAGE_STATES[0]),
                            ("c", 1, _STAGE_STATES[1]), ("d", 2, _STAGE_STATES[2])):
            if z is not None:
                step += [f"z{i} = " + z.format(i=i) for i in read]
                step += self._guarded("z", "return nodes, slopes")
            body, out = self._lines("y" if z is None else "z", stage)
            step += body + [f"{k}{i} = {e}" for i, e in enumerate(out)]
            if z is None:
                step.append(f"add_slope(({_tup('a{i}', n)}))")
        step += [f"y{i} = " + _NEXT_NODE.format(i=i) for i in range(n)]
        step += self._guarded("y", "return nodes, slopes")
        stage_coeffs = ", ".join(f"{c}_{j}" for j in range(3) for c in self._coeffs)
        # the names as keyword defaults, which the loop reads as locals
        args = ", ".join(["y", "h", "table", *self._params]
                         + (["*"] + [f"{k}={k}" for k in names] if names else []))
        march = _compiled(
            _MARCH_TEMPLATE.format(name=self.name, args=args, y=y, sizes=_STEP_SIZES,
                                   stage_coeffs=stage_coeffs or "_", step=_indented(step)),
            f"<{__name__}.InlineRHS {self.name} march>", f"{self.name}_march", **names)
        self._functions = make, march
        return self._functions


def _indented(lines: list[str]) -> str:
    """lines as the statements of a loop body or of a nested function's body."""
    return "\n".join(" " * 8 + line for line in lines)


def rk4_stages(s0: float, s1: float, n_steps: int) -> tuple[float, np.ndarray]:
    """Step h and the s of each RK4 stage on the fixed grid from s0 toward s1.

    Row i is (s_i, s_i + h/2, s_i + h) with s_i = s0 + i h, each rounded as
    DenseODE and rk4_step round it.
    """
    h = (s1 - s0) / n_steps
    s = s0 + np.arange(n_steps) * h
    return h, np.stack([s, s + 0.5 * h, s + h], axis=1)


def rk4_increment(k1, k2, k3, k4, w, out: np.ndarray) -> np.ndarray:
    """w (k1 + 2 (k2 + k3) + k4), w = h/6, into out in rk4_step's order, on float64 arrays."""
    np.add(k2, k3, out)
    np.add(out, out, out)  # 2 x, exactly
    np.add(k1, out, out)
    np.add(out, k4, out)
    return np.multiply(w, out, out)


def rk4_quadrature(k, nodes: np.ndarray, slopes: np.ndarray, h) -> None:
    """Fill nodes[1:] with RK4 steps from nodes[0] for y' = f(s), which does not read y.

    k[j][i] is f at stage j of step i, shaped as nodes[0]; stages 1 and 2
    share their s (rk4_stages).  Node i + 1 is node i plus step i's
    rk4_increment, bit for bit DenseODE's node; slopes[i] gets stage 0 of
    step i.  h is a float, or one step per column of nodes[0].
    """
    k1, k2, k3, k4 = k
    slopes[:len(k1)] = k1
    rk4_increment(k1, k2, k3, k4, h / 6.0, nodes[1:])
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
    Elementwise: state_at passes a float t and lists of floats,
    stacked_states_at an (n, 1) array of t and one entry holding the
    (len(state), n, tables) array of each, over whose table axis the weights
    broadcast; both take the same operations in the same order.
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
    derivatives; stacked_states_at([table], S) is state_at at every s of an
    array; from_nodes wraps nodes and slopes taken elsewhere at the same
    fixed step.
    """

    def __init__(self, f, s0: float, s1: float, y0: Sequence[float], n_steps: int = 1024):
        self._set_grid(f, s0, s1, n_steps)
        y = tuple(float(v) for v in y0)
        march = getattr(f, "march", None)  # an InlineRHS's, which may give None
        built = None if march is None else march(self.s0, self.s1, y, self.n_steps)
        if built is not None:
            nodes, slopes = built
        else:
            nodes, slopes = [y], []
            for i in range(self.n_steps):
                s = self.s0 + i * self.h
                slopes.append(f(s, y))
                y = rk4_step(f, s, y, self.h, slopes[-1])
                nodes.append(y)
        slopes.append(f(self.s0 + self.n_steps * self.h, nodes[-1]))
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
        """The state at s as a tuple of floats, whatever the type of s.

        s is read as float(s) once, so the Hermite weights and the overhang
        march take float arithmetic, not numpy-scalar arithmetic, and an
        np.float64 or int s gives the bits of the equal float.  Callers
        typically ask for value and several derivatives at the same s, so the
        last s and its state are kept; -0.0 is not 0.0 there (_same_arg).
        """
        s = float(s)
        if self._last is not None and _same_arg(self._last[0], s):
            return self._last[1]
        out = self._state_at(s)
        self._last = (s, out)
        return out

    def _state_at(self, s: float) -> tuple:
        # written so that NaN, for which every comparison is false, is out too
        if not (self._min_s <= s <= self._max_s):
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

    def _cell(self, s: float) -> tuple[int, float]:
        """Index and s of the node that starts the step holding an in-range s."""
        idx = min(int((s - self.s0) / self.h), self.n_steps - 1)
        return idx, self.s0 + idx * self.h

    def _cell_data(self, i: int) -> list:
        """States, slopes and y'' at nodes i and i + 1 as lists of floats, in _hermite's order."""
        return [row for x in (self.nodes, self.slopes, self._y2) for row in x[i:i + 2].tolist()]

    def jet_at(self, s: float) -> tuple[tuple, tuple, tuple]:
        """(y, y', y'') at s, with y = state_at(s), read at float(s) as state_at reads it.

        In range, y' and y'' are the s-derivatives of the Hermite interpolant.
        At or past an end, y' is f at the (marched) state and y'' is the end
        node's.
        """
        s = float(s)
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


def stacked_states_at(tables: Sequence, S: np.ndarray) -> np.ndarray:
    """state_at(s) of many tables on one grid at every s of the float array S, bit for bit.

    tables are DenseODEs on one grid, or CenteredODEs whose forward halves
    share one grid and whose backward halves share another; one table is a
    stack of one.  The result has shape (len(state), *S.shape, len(tables)),
    and entry [k, ..., b] is component k of tables[b].state_at(s).  In range,
    one _hermite runs on arrays over the node rows of every table; an s at or
    past an end, or one that state_at rejects, is read by each table's
    state_at path, in the order of S.
    """
    S = np.asarray(S, dtype=float)
    if isinstance(tables[0], CenteredODE):
        ahead = S >= 0.0
        head = stacked_states_at([t.fwd for t in tables], S[ahead])
        tail = stacked_states_at([t.bwd for t in tables], S[~ahead])
        out = np.empty((len(head), *S.shape, len(tables)))
        out[:, ahead], out[:, ~ahead] = head, tail
        return out
    grid = tables[0]
    if any((t.s0, t.h, t.n_steps) != (grid.s0, grid.h, grid.n_steps) for t in tables):
        raise ValueError("stacked_states_at needs tables on one grid")
    flat = S.ravel()
    out = np.empty((grid.nodes.shape[1], flat.size, len(tables)))
    inside = (flat > grid._low[0]) & (flat < grid._high[0])
    for k in np.flatnonzero(~inside).tolist():
        out[:, k] = np.stack([table._state_at(float(flat[k])) for table in tables], axis=-1)
    if inside.any():
        s = flat[inside]
        with np.errstate(all="ignore"):  # floats give inf and nan without a warning too
            idx = np.minimum(((s - grid.s0) / grid.h).astype(np.intp), grid.n_steps - 1)
            s_node = grid.s0 + idx * grid.h
            # node i and i + 1 of the states, slopes and y'' as (len(state), 2 n, tables)
            # arrays, over whose table axis the weights of each s broadcast
            n = len(s)
            j = np.concatenate((idx, idx + 1))
            cells = [np.stack([x[j] for x in xs], axis=-1).swapaxes(0, 1)
                     for xs in zip(*[(table.nodes, table.slopes, table._y2) for table in tables])]
            t = ((s - s_node) / grid.h)[:, None]
            y, = _hermite(t, grid.h, *([x[:, k:k + n]] for x in cells for k in (0, n)))
        out[:, inside] = np.where((s == s_node)[:, None], cells[0][:, :n], y)
    return out.reshape(len(out), *S.shape, len(tables))


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
        # float(s): an np.float64 s gives the bits of the equal float, on float arithmetic
        s = float(s)
        out = self.c0
        for kw, a, b in self._terms:
            ks = kw * s
            out += a * math.cos(ks) + b * math.sin(ks)
        return out

    def deriv(self, s: float) -> float:
        s = float(s)
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


def series_at(*series: FourierSeries):
    """s -> the series' values at s.

    A float s gives floats.  An array of s gives one array per series, bit
    for bit those floats at each s (fourier_table), so a right-hand side
    that reads its coefficients here runs on floats and on arrays alike.
    """
    def at(s):
        if isinstance(s, np.ndarray):
            return tuple(np.moveaxis(fourier_table(series, s), -1, 0))
        return tuple([f(s) for f in series])

    return at
