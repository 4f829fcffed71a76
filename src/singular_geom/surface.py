"""Second-order jets of parametric immersions and the curvature residuals.

A surface is handed around as a jet evaluator over a rectangle.  Jets are
either exact (analytic derivatives supplied by the caller) or produced by
4th-order central finite differences of a point evaluator.  On top of the
jets this module computes fundamental forms, the unit normal, the mean
curvature, the pointwise defining residual of singular minimal (Euclidean)
and singular maximal (Lorentzian, spacelike) surfaces, the potential energy
of a surface relative to a direction, and a numeric first variation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .algebra import CausalCharacter, Metric, Vec3, causal_character, cross, inner, triple
from .errors import DegenerateMetric, HalfspaceViolation, NotSpacelike, OutOfDomain

# |EG - F^2| below this multiple of the form magnitudes counts as degenerate.
REGULARITY_FLOOR = 1e-14

# Relative tolerance for "v is a unit (timelike) direction" checks.
UNIT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and derivatives of an immersion at one parameter point."""

    X: Vec3
    Xs: Vec3
    Xt: Vec3
    Xss: Vec3
    Xst: Vec3
    Xtt: Vec3


@dataclass(frozen=True, slots=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    W2: float  # EG - F^2, signed
    eps: int  # sign of <N,N>: +1 Euclidean; -1 spacelike, +1 timelike in L^3


Rect = tuple[float, float, float, float]  # (s0, s1, t0, t1)

# weights of the 4th-order central stencils at offsets (-2, -1, +1, +2) / (-2..+2)
_C1 = (1.0, -8.0, 8.0, -1.0)
_OFF1 = (-2.0, -1.0, 1.0, 2.0)
_C2 = (-1.0, 16.0, -30.0, 16.0, -1.0)


class ParamSurface:
    """Immersion over a rectangle with a jet evaluator.

    Construct with :meth:`exact` when analytic jets are available, or with
    :meth:`finite_difference` to differentiate a point evaluator numerically.
    """

    def __init__(self, domain: Rect, jet_fn=None, point_fn=None, fd_step=None,
                 allow_overhang: bool = False):
        s0, s1, t0, t1 = domain
        if not (s1 > s0 and t1 > t0):
            raise ValueError(f"bad domain rectangle {domain}")
        self.domain: Rect = (float(s0), float(s1), float(t0), float(t1))
        self._jet_fn = jet_fn
        self._point_fn = point_fn
        if point_fn is not None and fd_step is None:
            fd_step = 1e-4 * math.hypot(s1 - s0, t1 - t0)
        self.fd_step = fd_step
        self.allow_overhang = allow_overhang

    @classmethod
    def exact(cls, domain: Rect, jet_fn: Callable[[float, float], Jet2]) -> "ParamSurface":
        return cls(domain, jet_fn=jet_fn)

    @classmethod
    def finite_difference(cls, domain: Rect, point_fn: Callable[[float, float], Vec3],
                          h: float | None = None, allow_overhang: bool = False) -> "ParamSurface":
        return cls(domain, point_fn=point_fn, fd_step=h, allow_overhang=allow_overhang)

    def _check_domain(self, s: float, t: float) -> None:
        s0, s1, t0, t1 = self.domain
        slack = 1e-12 * (1.0 + abs(s1 - s0) + abs(t1 - t0))
        if not (s0 - slack <= s <= s1 + slack and t0 - slack <= t <= t1 + slack):
            raise OutOfDomain(f"(s,t)=({s},{t}) outside {self.domain}")
        if self._jet_fn is None and not self.allow_overhang:
            m = 2.0 * self.fd_step
            if not (s0 + m - slack <= s <= s1 - m + slack and t0 + m - slack <= t <= t1 - m + slack):
                raise OutOfDomain(
                    f"finite-difference jets need an interior margin of 2h={m}; got (s,t)=({s},{t})"
                )

    def jet(self, s: float, t: float) -> Jet2:
        self._check_domain(s, t)
        if self._jet_fn is not None:
            return self._jet_fn(s, t)
        return self._fd_jet(s, t)

    def jet_unchecked(self, s: float, t: float) -> Jet2:
        """Jet without the domain check, for stencils that overhang the rectangle."""
        if self._jet_fn is not None:
            return self._jet_fn(s, t)
        return self._fd_jet(s, t)

    def _fd_jet(self, s: float, t: float) -> Jet2:
        p = self._point_fn
        h = self.fd_step
        # the 25 stencil points are taken one s offset at a time, so a point
        # function that keeps its s-only work for the last s recomputes it 5 times
        X = p(s, t)
        col = [p(s, t + o * h) for o in _OFF1]
        row, cross_pts = [], []
        for o in _OFF1:
            so = s + o * h
            row.append(p(so, t))
            cross_pts.append([p(so, t + oj * h) for oj in _OFF1])
        Xs = (_C1[0] * row[0] + _C1[1] * row[1] + _C1[2] * row[2] + _C1[3] * row[3]) / (12.0 * h)
        Xt = (_C1[0] * col[0] + _C1[1] * col[1] + _C1[2] * col[2] + _C1[3] * col[3]) / (12.0 * h)
        row2 = [row[0], row[1], X, row[2], row[3]]
        col2 = [col[0], col[1], X, col[2], col[3]]
        hh = 12.0 * h * h
        Xss = sum((_C2[k] * row2[k] for k in range(5)), Vec3(0, 0, 0)) / hh
        Xtt = sum((_C2[k] * col2[k] for k in range(5)), Vec3(0, 0, 0)) / hh
        acc = Vec3(0.0, 0.0, 0.0)
        for i in range(4):
            for j in range(4):
                acc = acc + (_C1[i] * _C1[j]) * cross_pts[i][j]
        Xst = acc / (144.0 * h * h)
        return Jet2(X, Xs, Xt, Xss, Xst, Xtt)


def jet(surf: ParamSurface, s: float, t: float) -> Jet2:
    """Jet of the surface at (s, t); OutOfDomain outside the rectangle."""
    return surf.jet(s, t)


def _first_form(m: Metric, j: Jet2) -> tuple[float, float, float, float]:
    """E, F, G and W2 = EG - F^2 at a jet; DegenerateMetric below the regularity floor."""
    E = inner(m, j.Xs, j.Xs)
    F = inner(m, j.Xs, j.Xt)
    G = inner(m, j.Xt, j.Xt)
    W2 = E * G - F * F
    floor = REGULARITY_FLOOR * (E * E + G * G + 1.0)
    if abs(W2) < floor:
        raise DegenerateMetric(f"|EG - F^2| = {abs(W2)} below floor {floor}")
    return E, F, G, W2


def fundamental_forms(m: Metric, j: Jet2) -> FundamentalForms:
    """First and second fundamental form coefficients at a jet."""
    E, F, G, W2 = _first_form(m, j)
    root = math.sqrt(abs(W2))
    e = triple(j.Xs, j.Xt, j.Xss) / root
    f = triple(j.Xs, j.Xt, j.Xst) / root
    g = triple(j.Xs, j.Xt, j.Xtt) / root
    if m is Metric.EUCLIDEAN:
        eps = 1
    else:
        # <N,N>_L = (F^2 - EG)/|EG - F^2| = -sign(W2)
        eps = -1 if W2 > 0.0 else 1
    return FundamentalForms(E, F, G, e, f, g, W2, eps)


def curvature_bracket(forms: FundamentalForms, j: Jet2) -> float:
    """G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) + E(Xs,Xt,Xtt), the numerator of the mean curvature."""
    return (
        forms.G * triple(j.Xs, j.Xt, j.Xss)
        - 2.0 * forms.F * triple(j.Xs, j.Xt, j.Xst)
        + forms.E * triple(j.Xs, j.Xt, j.Xtt)
    )


def unit_normal(m: Metric, j: Jet2) -> Vec3:
    """Unit normal Xs x Xt / |Xs x Xt| in the given signature."""
    c = cross(m, j.Xs, j.Xt)
    n2 = abs(inner(m, c, c))
    E = inner(m, j.Xs, j.Xs)
    G = inner(m, j.Xt, j.Xt)
    if n2 < REGULARITY_FLOOR * (E * E + G * G + 1.0):
        raise DegenerateMetric("normal direction degenerates")
    return c / math.sqrt(n2)


def mean_curvature(m: Metric, j: Jet2) -> float:
    """Mean curvature relative to the normal of :func:`unit_normal`.

    Sign convention: under this orientation the unit sphere parametrized as
    (cos s cos t, sin s cos t, sin t) has H = -1 in Euclidean space, and the
    upper unit hyperboloid graph z = sqrt(1 + s^2 + t^2) has H = -1 in
    Lorentzian space.  The Lorentzian branch requires a spacelike point.
    """
    forms = fundamental_forms(m, j)
    if m is Metric.EUCLIDEAN:
        return (forms.G * forms.e - 2.0 * forms.F * forms.f + forms.E * forms.g) / (2.0 * forms.W2)
    if forms.eps != -1:
        raise NotSpacelike("mean curvature of a non-spacelike Lorentzian point")
    return -0.5 * curvature_bracket(forms, j) / abs(forms.W2) ** 1.5


def require_unit_direction(m: Metric, v: Vec3) -> None:
    """Reject v unless it is unit (Euclidean) or unit timelike (Lorentzian)."""
    q = inner(m, v, v)
    if m is Metric.EUCLIDEAN:
        if abs(q - 1.0) > UNIT_TOL:
            raise ValueError(f"direction must be a unit vector, got |v|^2 = {q}")
    else:
        if causal_character(v) is not CausalCharacter.TIMELIKE or abs(q + 1.0) > UNIT_TOL:
            raise ValueError(f"direction must be unit timelike, got <v,v>_L = {q}")


def _position_inner(m: Metric, X: Vec3, v: Vec3) -> float:
    q = inner(m, X, v)
    if m is Metric.EUCLIDEAN:
        if q <= 0.0:
            raise HalfspaceViolation(f"<X, v> = {q} <= 0")
    else:
        if abs(q) <= 1e-12 * (1.0 + X.max_abs()):
            raise HalfspaceViolation(f"<X, v>_L = {q} is numerically zero")
    return q


def singular_residual(m: Metric, surf: ParamSurface, s: float, t: float, v: Vec3,
                      alpha: float) -> float:
    """Defining residual of the singular minimal/maximal equation at (s, t).

    Returns

        [G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) + E(Xs,Xt,Xtt)]
            - eps * alpha * (EG - F^2)/<X,v> * (Xs,Xt,v),

    with eps = 1 in the Euclidean signature and eps = <N,N>_L = -1 on
    spacelike Lorentzian points.  The residual vanishes exactly where the
    surface satisfies the defining curvature condition; it flips sign, but
    keeps its magnitude, under reversal of orientation.
    """
    require_unit_direction(m, v)
    j = surf.jet(s, t)
    q = _position_inner(m, j.X, v)
    forms = fundamental_forms(m, j)
    if m is Metric.LORENTZIAN and forms.eps != -1:
        raise NotSpacelike(f"surface not spacelike at (s,t)=({s},{t})")
    eps_hat = 1.0 if m is Metric.EUCLIDEAN else -1.0
    return curvature_bracket(forms, j) - eps_hat * alpha * (forms.W2 / q) * triple(j.Xs, j.Xt, v)


def _trapezoid_nodes(a: float, b: float, n: int) -> tuple[list[float], list[float]]:
    if n < 2:
        raise ValueError("need at least 2 quadrature nodes per axis")
    h = (b - a) / (n - 1)
    xs = [a + i * h for i in range(n)]
    ws = [h] * n
    ws[0] = 0.5 * h
    ws[-1] = 0.5 * h
    return xs, ws


def potential_energy(m: Metric, surf: ParamSurface, v: Vec3, alpha: float,
                     grid: tuple[int, int] = (64, 64)) -> float:
    """Trapezoid quadrature of <X,v>^alpha * sqrt|EG - F^2| over the domain.

    In the Lorentzian signature the surface must be spacelike on the grid and
    |<X,v>_L|^alpha is integrated (the position inner product may be of either
    sign away from zero).
    """
    require_unit_direction(m, v)
    s0, s1, t0, t1 = surf.domain
    ns, nt = grid
    s_nodes, s_w = _trapezoid_nodes(s0, s1, ns)
    t_nodes, t_w = _trapezoid_nodes(t0, t1, nt)
    total = 0.0
    for si, swi in zip(s_nodes, s_w):
        for tj, twj in zip(t_nodes, t_w):
            j = surf.jet(si, tj)
            q = _position_inner(m, j.X, v)
            W2 = _first_form(m, j)[3]
            if m is Metric.LORENTZIAN:
                if W2 < 0.0:
                    raise NotSpacelike(f"surface not spacelike at ({si},{tj})")
                base = abs(q)
            else:
                base = q
            total += swi * twj * base ** alpha * math.sqrt(abs(W2))
    return total


def first_variation(m: Metric, surf: ParamSurface, v: Vec3, alpha: float,
                    bump: Callable[[float, float], float], h: float = 1e-4,
                    grid: tuple[int, int] = (64, 64)) -> float:
    """Central difference of the potential energy under a normal perturbation.

    Evaluates (E(X + h*bump*N) - E(X - h*bump*N)) / (2h) with the perturbed
    surfaces differentiated by finite differences.  The base surface must be
    evaluable slightly outside its rectangle (analytic and spline evaluators
    are); for variations that keep the boundary fixed use a bump vanishing at
    the boundary.
    """

    def perturbed(sign: float):
        def point(s: float, t: float) -> Vec3:
            j = surf.jet_unchecked(s, t)
            n = unit_normal(m, j)
            return j.X + (sign * h * bump(s, t)) * n

        return ParamSurface.finite_difference(surf.domain, point, allow_overhang=True)

    e_plus = potential_energy(m, perturbed(+1.0), v, alpha, grid=grid)
    e_minus = potential_energy(m, perturbed(-1.0), v, alpha, grid=grid)
    return (e_plus - e_minus) / (2.0 * h)
