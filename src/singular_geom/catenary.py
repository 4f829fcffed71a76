"""Planar alpha-catenary integration and catenary cylinders.

The planar problem is posed in the upper half plane with the reference
direction (0, 1): a unit-speed curve (u(s), y(s)) with tangent angle theta
satisfies theta' = alpha * cos(theta) / y.  alpha = 1 recovers the classical
catenary y = cosh(u).  The right-hand side is a ``curves.InlineRHS`` with
alpha as its parameter and the halfspace floor y <= Y_FLOOR as its guard:
integrate checks that its arguments are finite, and length and step
positive, and then takes all of a path's steps, at most MAX_STEPS, in the
kind's march, one generated RK4 loop that ends at the floor.  Cylinders
over such curves, with rulings orthogonal to the reference direction, solve the
singular-minimal equation with the same alpha; they are exposed as exact-jet
surfaces through a ``curves.DenseODE`` over the integrated path's own states,
whose quintic Hermite dense output gives the curve and its two derivatives.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .algebra import Metric, Vec3, cross, inner, norm
from .curves import Curve, DenseODE, InlineRHS, rk4_step
from .errors import HalfspaceViolation, NoSolution, NotOrthogonal
from .surface import Jet2, ParamSurface, along, stack_rows

Y_FLOOR = 1e-12
# integrate keeps every state, so a path is capped well above the 8000 steps
# the acceptance runs take rather than left to grow until memory runs out; a
# whole solve_bvp, all of its shots, is capped alike, so that no solve runs unbounded
MAX_STEPS = 10**6
_BVP_SCAN = 64
_THETA_GUARD = 0.5 * math.pi - 1e-9


@dataclass(frozen=True, slots=True)
class CatenaryState:
    """Planar state: position (u, y), tangent angle theta, arclength s."""

    u: float
    y: float
    theta: float
    s: float = 0.0


class CatenaryPath:
    """Integrated polyline, the alpha it solves, and a flag marking a halfspace exit.

    The path holds its node arclengths in ``s``, its RK4 nodes as (u, y, theta)
    tuples in ``nodes`` and the slope (u', y', theta') at every node in
    ``slopes``, as :func:`integrate` collects them; ``states`` builds the
    CatenaryState list on each read.
    """

    def __init__(self, s: list[float], nodes: list[tuple], slopes: list[tuple],
                 alpha: float, exited_halfspace: bool = False):
        self.s, self.nodes, self.slopes = s, nodes, slopes
        self.alpha, self.exited_halfspace = alpha, exited_halfspace

    @classmethod
    def from_states(cls, states: list[CatenaryState], alpha: float,
                    exited_halfspace: bool = False) -> "CatenaryPath":
        """The path through the given states; f is taken at each state when the path
        is made, so a state at or below Y_FLOOR raises HalfspaceViolation."""
        f = _rhs(alpha)
        s = [st.s for st in states]
        nodes = [(st.u, st.y, st.theta) for st in states]
        return cls(s, nodes, [f(*row) for row in zip(s, nodes)], alpha, exited_halfspace)

    @property
    def states(self) -> list[CatenaryState]:
        return [CatenaryState(*node, s) for node, s in zip(self.nodes, self.s)]

    @property
    def endpoint(self) -> CatenaryState:
        return CatenaryState(*self.nodes[-1], self.s[-1])

    def to_csv(self) -> str:
        buf = io.StringIO()
        rows = zip(self.s, self.nodes)
        if self.exited_halfspace:
            buf.write("s,u,y,theta,exited\n")
            last = len(self.nodes) - 1
            for k, (s, (u, y, theta)) in enumerate(rows):
                buf.write(f"{s!r},{u!r},{y!r},{theta!r},{int(k == last)}\n")
        else:
            buf.write("s,u,y,theta\n")
            for s, (u, y, theta) in rows:
                buf.write(f"{s!r},{u!r},{y!r},{theta!r}\n")
        return buf.getvalue()


def _floor_error(s: float, state: tuple[float, float, float]) -> HalfspaceViolation:
    return HalfspaceViolation(f"y = {state[1]} at s = {s} reached the halfspace floor")


# theta' = alpha cos(theta) / y, defined above the halfspace floor
_CATENARY_RHS = InlineRHS(
    "catenary_rhs", (), ("alpha",), ("c = cos({2})",), ("c", "sin({2})", "alpha * c / {1}"),
    guard=("{1} <= Y_FLOOR", _floor_error),
    names={"cos": math.cos, "sin": math.sin, "Y_FLOOR": Y_FLOOR})


def _rhs(alpha: float):
    """The right-hand side s, (u, y, theta) -> (u', y', theta') of the alpha-catenary.

    It raises HalfspaceViolation at a state with y at or below Y_FLOOR.
    """
    return _CATENARY_RHS.bind((), alpha)


def catenary_rhs(s: float, state: tuple[float, float, float],
                 alpha: float) -> tuple[float, float, float]:
    """Arclength derivatives (u', y', theta') of the planar alpha-catenary at (u, y, theta)."""
    return _rhs(alpha)(s, state)


def integrate(start: CatenaryState, alpha: float, length: float, step: float) -> CatenaryPath:
    """Fixed-step RK4 integration of the alpha-catenary over the given arclength.

    The path takes n = max(1, round(length / step)) steps of h = length / n,
    with s accumulated by s += h.  Before any step, raises ValueError when
    length or step is not finite and positive, when alpha or a field of start
    is not finite, or when length / step is above MAX_STEPS, and
    HalfspaceViolation when start.y is at or below Y_FLOOR.  The steps run as
    the march of the right-hand side's InlineRHS, bit for bit a loop of
    rk4_step over it.  A halfspace exit (y at the floor at a stage or at a
    new node) stops the integration; the partial polyline up to the last node
    above the floor is returned with ``exited_halfspace`` set instead of
    raising, and keeps the slope of the failed step's first stage.
    """
    for name, value in (("length", length), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    _require_finite(("alpha", alpha), ("start.u", start.u), ("start.y", start.y),
                    ("start.theta", start.theta), ("start.s", start.s))
    if start.y <= Y_FLOOR:
        raise HalfspaceViolation(f"start height y = {start.y} is not in the open halfplane")
    ratio = length / step
    if not ratio <= MAX_STEPS:
        raise ValueError(f"length / step = {ratio} exceeds MAX_STEPS = {MAX_STEPS}")
    n = max(1, int(round(ratio)))
    h = length / n

    nodes, slopes = _CATENARY_RHS.march((start.u, start.y, start.theta), h, n, alpha)
    s = list(accumulate(repeat(h, len(nodes) - 1), initial=start.s))
    # a march that stops at the floor keeps the slope of its last node
    exited = len(slopes) == len(nodes)
    if not exited:
        slopes.append(_rhs(alpha)(s[-1], nodes[-1]))
    return CatenaryPath(s, nodes, slopes, alpha, exited)


def _require_finite(*named: tuple[str, float]) -> None:
    """Raise ValueError naming the first (name, value) whose value is not finite."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def classical_catenary(s: float) -> tuple[float, float]:
    """Closed-form arclength parametrization of y = cosh(u) from (0, 1)."""
    return (math.asinh(s), math.sqrt(1.0 + s * s))


def _shoot_height(theta0: float, u0: float, y0: float, u1: float, alpha: float) -> float:
    """Height reached at u = u1 when shooting with initial angle theta0.

    Integrates in u (dy/du = tan theta, dtheta/du = alpha/y).  Shots whose
    tangent turns vertical before u1 never arrive: a dive to the halfspace
    floor reads as -inf, a blow-up in height as +inf, which keeps the scan
    sign-consistent for bracketing.  More than MAX_STEPS steps raise ValueError.
    """
    n = _shot_steps(u0, u1)
    h = (u1 - u0) / n
    y, th = y0, theta0

    def f(u: float, state: tuple[float, float]) -> tuple[float, float]:
        return (math.tan(state[1]), alpha / state[0])

    for i in range(n):
        if abs(th) >= _THETA_GUARD or y <= 1e-9:
            break
        y, th = rk4_step(f, u0 + i * h, (y, th), h)
        if not (math.isfinite(y) and math.isfinite(th)):
            break
    else:
        return y
    # never reached u1
    return math.inf if th > 0.0 else -math.inf


def _shot_steps(u0: float, u1: float) -> int:
    """The RK4 steps of a shot from u0 to u1; ValueError when they exceed MAX_STEPS."""
    ratio = (u1 - u0) / 0.002
    if not ratio <= MAX_STEPS:
        raise ValueError(f"(u1 - u0) / 0.002 = {ratio} steps exceed MAX_STEPS = {MAX_STEPS}")
    return max(256, int(math.ceil(ratio)))


def solve_bvp(p0: tuple[float, float], p1: tuple[float, float], alpha: float,
              tol: float = 1e-8) -> float:
    """Initial angle theta0 for the two-point alpha-catenary problem.

    Scans 64 initial angles in (-pi/2, pi/2) for sign changes of the terminal
    height error at u = p1[0] and bisects the bracket nearest theta = 0.
    A whole solve takes at most MAX_STEPS RK4 steps: a shot takes at most
    n = _shot_steps(u0, u1) steps, and a solve at most MAX_STEPS // n shots.
    Raises ValueError before any step for an alpha or endpoint coordinate
    that is not finite, an endpoint outside the open upper halfplane, p0.u
    >= p1.u, or a 64-shot scan that could take more than MAX_STEPS steps;
    raises NoSolution when the scan finds no bracketing pair, or when the
    next bisection shot could take the solve past MAX_STEPS.
    """
    u0, y0 = p0
    u1, y1 = p1
    _require_finite(("p0.u", u0), ("p0.y", y0), ("p1.u", u1), ("p1.y", y1), ("alpha", alpha))
    if y0 <= 0.0 or y1 <= 0.0:
        raise ValueError("both endpoints must lie in the open upper halfplane")
    if not u0 < u1:
        raise ValueError("endpoints must satisfy p0.u < p1.u")

    n = _shot_steps(u0, u1)
    if MAX_STEPS // n < _BVP_SCAN:
        raise ValueError(f"{_BVP_SCAN} scan shots of {n} steps exceed MAX_STEPS = {MAX_STEPS}")
    shots = iter(range(MAX_STEPS // n))  # one item per shot that the solve may take

    def miss(theta0: float) -> float:
        if next(shots, None) is None:
            raise NoSolution(f"bisection stopped: a shot more would pass MAX_STEPS = {MAX_STEPS}")
        return _shoot_height(theta0, u0, y0, u1, alpha) - y1

    eps = 1e-6
    grid = np.linspace(-0.5 * math.pi + eps, 0.5 * math.pi - eps, _BVP_SCAN)
    values = [miss(th) for th in grid]
    brackets = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            brackets.append((a, a, fa, fa))
        elif (fa < 0.0 < fb) or (fb < 0.0 < fa):
            brackets.append((a, b, fa, fb))
    if not brackets:
        raise NoSolution(f"no sign change across {_BVP_SCAN} initial angles")
    brackets.sort(key=lambda br: abs(0.5 * (br[0] + br[1])))

    for a, b, fa, fb in brackets:
        if fa == 0.0:
            return a
        lo, hi, flo = a, b, fa
        # halving ends this loop, and the solve's shot budget bounds it besides
        while hi - lo >= 1e-15:
            mid = 0.5 * (lo + hi)
            fm = miss(mid)
            if math.isfinite(fm) and abs(fm) <= tol:
                return mid
            if (flo < 0.0) == (fm < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
    raise NoSolution("brackets collapsed without meeting the terminal tolerance")


def _embedding_frame(v: Vec3, ruling: Vec3) -> Vec3:
    m = Metric.EUCLIDEAN
    if abs(norm(m, ruling) - 1.0) > 1e-9:
        raise ValueError("ruling must be a unit vector")
    if abs(norm(m, v) - 1.0) > 1e-9:
        raise ValueError("reference direction must be a unit vector")
    if abs(inner(m, ruling, v)) > 1e-10:
        raise NotOrthogonal(f"<ruling, v> = {inner(m, ruling, v)}")
    return cross(m, ruling, v)


def plane_curve(path: CatenaryPath, v: Vec3, ruling: Vec3) -> Curve:
    """Embed an integrated planar path into the plane spanned by v and ruling x v.

    The curve reads a dense table over the path's own nodes and slopes, handed
    over as they are, so nothing is integrated again.  Its value and two
    derivatives come only from the quintic Hermite interpolant of (u, y) and
    the node slopes (cos theta, sin theta), never from theta' = alpha
    cos(theta) / y, which would satisfy the curvature equation by
    construction.  Its jet(s) is one jet_at read of the table; value, d1 and
    d2 each take that read and keep one entry.
    """
    d = _embedding_frame(v, ruling)
    table = DenseODE.from_nodes(_rhs(path.alpha), path.s[0], path.s[-1], path.nodes, path.slopes)

    def jet(s: float) -> tuple[Vec3, Vec3, Vec3]:
        (u, y, _), (u1, y1, _), (u2, y2, _) = table.jet_at(s)
        return d * u + v * y, d * u1 + v * y1, d * u2 + v * y2

    curve = Curve(lambda s: jet(s)[0], lambda s: jet(s)[1], lambda s: jet(s)[2])
    curve.jet = jet
    return curve


def catenary_cylinder(path: CatenaryPath, v: Vec3, ruling: Vec3) -> ParamSurface:
    """Euclidean cylinder over an integrated planar path with rulings orthogonal to v.

    The path is embedded in the plane spanned by (cross(ruling, v), v) by
    :func:`plane_curve` and extruded along the ruling over the ruling window
    t in [-1, 1]; second derivatives are continuous in s, from the table's C^2
    quintic Hermite interpolant, and exactly zero in t.  The path needs at
    least 5 states.  The construction is Euclidean only: v and the ruling must
    be orthogonal Euclidean unit vectors.
    """
    profile = plane_curve(path, v, ruling)
    zero = Vec3(0.0, 0.0, 0.0)

    def jet_fn(ss: float, tt: float) -> Jet2:
        c, c1, c2 = profile.jet(ss)
        return Jet2(c + ruling * tt, c1, ruling, c2, zero, zero)

    def grid_fn(S: np.ndarray, T: np.ndarray) -> Jet2:
        c, c1, c2 = (stack_rows(col) for col in zip(*(profile.jet(ss) for ss in S.tolist())))
        return Jet2(along(c, T, ruling), c1, ruling, c2, zero, zero)

    return ParamSurface.exact((path.s[0], path.s[-1], -1.0, 1.0), jet_fn, grid_fn)
