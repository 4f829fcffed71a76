"""Planar alpha-catenary integration and catenary cylinders.

The planar problem is posed in the upper half plane with the reference
direction (0, 1): a unit-speed curve (u(s), y(s)) with tangent angle theta
satisfies theta' = alpha * cos(theta) / y.  alpha = 1 recovers the classical
catenary y = cosh(u).  The state (u, y, theta) is stepped with the shared
``curves.rk4_step``.  Cylinders over such curves, with rulings orthogonal to
the reference direction, solve the singular-minimal equation with the same
alpha; they are exposed as exact-jet surfaces via cubic splines of an
integrated path, clamped at both ends to its tangent (cos theta, sin theta).
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Metric, Vec3, cross, inner, norm
from .curves import Curve, rk4_step
from .errors import HalfspaceViolation, NoSolution, NotOrthogonal
from .surface import Jet2, ParamSurface

Y_FLOOR = 1e-12
_BVP_SCAN = 64
_THETA_GUARD = 0.5 * math.pi - 1e-9


@dataclass(frozen=True, slots=True)
class CatenaryState:
    """Planar state: position (u, y), tangent angle theta, arclength s."""

    u: float
    y: float
    theta: float
    s: float = 0.0


@dataclass
class CatenaryPath:
    """Integrated polyline with a flag marking a halfspace exit."""

    states: list[CatenaryState]
    exited_halfspace: bool = False

    @property
    def endpoint(self) -> CatenaryState:
        return self.states[-1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        s = np.array([st.s for st in self.states])
        u = np.array([st.u for st in self.states])
        y = np.array([st.y for st in self.states])
        th = np.array([st.theta for st in self.states])
        return s, u, y, th

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.exited_halfspace:
            buf.write("s,u,y,theta,exited\n")
            last = len(self.states) - 1
            for k, st in enumerate(self.states):
                buf.write(f"{st.s!r},{st.u!r},{st.y!r},{st.theta!r},{int(k == last)}\n")
        else:
            buf.write("s,u,y,theta\n")
            for st in self.states:
                buf.write(f"{st.s!r},{st.u!r},{st.y!r},{st.theta!r}\n")
        return buf.getvalue()


def catenary_rhs(s: float, state: tuple[float, float, float],
                 alpha: float) -> tuple[float, float, float]:
    """Arclength derivatives (u', y', theta') of the planar alpha-catenary at (u, y, theta)."""
    _, y, theta = state
    if y <= Y_FLOOR:
        raise HalfspaceViolation(f"y = {y} at s = {s} reached the halfspace floor")
    c = math.cos(theta)
    return (c, math.sin(theta), alpha * c / y)


def integrate(start: CatenaryState, alpha: float, length: float, step: float) -> CatenaryPath:
    """Fixed-step RK4 integration of the alpha-catenary over the given arclength.

    A halfspace exit (y at the floor) stops the integration; the partial
    polyline is returned with ``exited_halfspace`` set instead of raising.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if start.y <= Y_FLOOR:
        raise HalfspaceViolation(f"start height y = {start.y} is not in the open halfplane")
    ratio = length / step
    if not math.isfinite(ratio):
        raise ValueError(f"length / step = {ratio} is not a finite step count")
    n = max(1, int(round(ratio)))
    h = length / n

    def f(s: float, state: tuple) -> tuple:
        return catenary_rhs(s, state, alpha)

    states = [start]
    s, state = start.s, (start.u, start.y, start.theta)
    exited = False
    for _ in range(n):
        try:
            state = rk4_step(f, s, state, h)
        except HalfspaceViolation:
            exited = True
            break
        if state[1] <= Y_FLOOR:
            exited = True
            break
        s += h
        states.append(CatenaryState(*state, s))
    return CatenaryPath(states, exited)


def classical_catenary(s: float) -> tuple[float, float]:
    """Closed-form arclength parametrization of y = cosh(u) from (0, 1)."""
    return (math.asinh(s), math.sqrt(1.0 + s * s))


def _shoot_height(theta0: float, u0: float, y0: float, u1: float, alpha: float) -> float:
    """Height reached at u = u1 when shooting with initial angle theta0.

    Integrates in u (dy/du = tan theta, dtheta/du = alpha/y).  Shots whose
    tangent turns vertical before u1 never arrive: a dive to the halfspace
    floor reads as -inf, a blow-up in height as +inf, which keeps the scan
    sign-consistent for bracketing.
    """
    n = max(256, int(math.ceil((u1 - u0) / 0.002)))
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


def solve_bvp(p0: tuple[float, float], p1: tuple[float, float], alpha: float,
              tol: float = 1e-8) -> float:
    """Initial angle theta0 for the two-point alpha-catenary problem.

    Scans 64 initial angles in (-pi/2, pi/2) for sign changes of the terminal
    height error at u = p1[0] and bisects the bracket nearest theta = 0.
    Raises NoSolution when the scan finds no bracketing pair.
    """
    u0, y0 = p0
    u1, y1 = p1
    if y0 <= 0.0 or y1 <= 0.0:
        raise ValueError("both endpoints must lie in the open upper halfplane")
    if not u0 < u1:
        raise ValueError("endpoints must satisfy p0.u < p1.u")

    def miss(theta0: float) -> float:
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
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = miss(mid)
            if math.isfinite(fm) and abs(fm) <= tol:
                return mid
            if (flo < 0.0) == (fm < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
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


def _spline_embedding(path: CatenaryPath, v: Vec3, ruling: Vec3) -> tuple[Curve, float, float]:
    """Cubic-spline embedding of an integrated path and its arclength range.

    Both splines are clamped to the integrated unit tangent (cos theta,
    sin theta) at the first and last state; not-a-knot ends lose about an
    order of magnitude of curvature accuracy at the end nodes.
    """
    # scipy.interpolate costs most of the package import time, and the sweep
    # and catenary commands never build a spline
    from scipy.interpolate import CubicSpline

    d = _embedding_frame(v, ruling)
    s, u, y, _ = path.arrays()
    th0, th1 = path.states[0].theta, path.endpoint.theta
    su = CubicSpline(s, u, bc_type=((1, math.cos(th0)), (1, math.cos(th1))))
    sy = CubicSpline(s, y, bc_type=((1, math.sin(th0)), (1, math.sin(th1))))
    su1, sy1 = su.derivative(1), sy.derivative(1)
    su2, sy2 = su.derivative(2), sy.derivative(2)
    embedded = Curve(
        lambda t: d * float(su(t)) + v * float(sy(t)),
        lambda t: d * float(su1(t)) + v * float(sy1(t)),
        lambda t: d * float(su2(t)) + v * float(sy2(t)),
    )
    return embedded, float(s[0]), float(s[-1])


def plane_curve(path: CatenaryPath, v: Vec3, ruling: Vec3) -> Curve:
    """Embed an integrated planar path into the plane spanned by v and ruling x v."""
    return _spline_embedding(path, v, ruling)[0]


def catenary_cylinder(path: CatenaryPath, v: Vec3, ruling: Vec3) -> ParamSurface:
    """Euclidean cylinder over an integrated planar path with rulings orthogonal to v.

    The path is embedded in the plane spanned by (cross(ruling, v), v) and
    extruded along the ruling over the ruling window t in [-1, 1]; jets come
    from cubic splines of its (u, y) polyline, clamped at both ends to the
    integrated tangent (cos theta, sin theta), so second derivatives are
    piecewise linear in s and exactly zero in t.  The construction is
    Euclidean only: v and the ruling must be orthogonal Euclidean unit vectors.
    """
    profile, s0, s1 = _spline_embedding(path, v, ruling)
    zero = Vec3(0.0, 0.0, 0.0)

    def jet_fn(ss: float, tt: float) -> Jet2:
        c, c1, c2 = profile.jet(ss)
        return Jet2(c + ruling * tt, c1, ruling, c2, zero, zero)

    return ParamSurface.exact((s0, s1, -1.0, 1.0), jet_fn)
