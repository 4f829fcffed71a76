"""Ruled surfaces X(s,t) = base(s) + t * director(s) and their invariants.

A normalized non-cylindrical ruled surface carries the frame functions P, Q
of its director class:

* Euclidean standard:  <g',w> = <g',w'> = 0, |w| = |w'| = 1; then
  g' = P (w x w') and w'' = -w + Q (w x w').
* Lorentz nondegenerate (delta = <w',w'>_L = +-1):  the same orthogonality
  relations with g' = -delta P (w x_L w') and w'' = -delta (w + Q w x_L w').
* Lorentz lightlike director:  <g',g'>_L = 1, <g',w>_L = 0, |w|_L = 1,
  <w',w'>_L = 0 with w' != 0; then Q = <g',w'>_L never vanishes and
  w x_L w' = -w'.

Substituting the ruled form into the singular minimal/maximal equation and
clearing denominators yields a polynomial in the ruling parameter t whose
coefficients are evaluated by :func:`coefficients`;
:func:`residual_polynomial_consistency` replays that polynomial against the
raw-jet residual as an independent oracle, and :func:`falsification_sweep`
searches randomized normalized surfaces for a vanishing coefficient vector.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import Metric, Vec3, cross, inner, norm, triple
from .curves import (
    CenteredODE,
    Curve,
    DenseODE,
    FourierSeries,
    InlineRHS,
    constant_curve,
    fd1,
    fd1_points,
    fd1_stencil,
    line_curve,
)
from .errors import (
    ConfigError,
    CylindricalInput,
    NonSpacelikeInput,
    NotNormalized,
    ODEBreakdown,
    ZeroDirection,
    ZeroQ,
)
from .frames import (
    _LIGHTLIKE_LINE,
    _PRENORMALIZATION_RHS,
    _fourier,
    _frame_curves,
    _frame_nodes_batch,
    _frame_stack_at,
    _lightlike_curves,
    _lightlike_nodes,
    _lightlike_ode,
    _lightlike_stack_at,
    _one_table_read,
    _sweep_frame_ode,
)
from .surface import (
    Jet2,
    ParamSurface,
    _CELL_ERRORS,
    _V,
    along,
    cleared_residual,
    cleared_residual_cells,
    power_each,
    require_unit_direction,
    stack_rows,
)

# |Q| floor for the lightlike class; valid data always has Q bounded away from 0.
ZERO_Q_FLOOR = 1e-10

# The sweep's alarm: a surface whose scaled coefficient maximum stays at or
# below this value at every sample is a counterexample candidate.
ALARM_THRESHOLD = 1e-6

# Smallest |alpha| the sweep draws; alpha = 0 annihilates every coefficient.
MIN_ABS_ALPHA = 0.25

# Parameter length and RK4 steps of the random sweep surfaces.
SWEEP_S_LEN = 2.0
SWEEP_STEPS = 1024

_NORMALIZATION_TOL = {
    "euclid": 1e-9,
    "lorentz": 1e-8,
}


class DirectorClass(Enum):
    EUCLID_STANDARD = "euclid_standard"
    LORENTZ_NONDEGENERATE = "lorentz_nondegenerate"
    LORENTZ_LIGHTLIKE = "lorentz_lightlike"


@dataclass(frozen=True, slots=True)
class RuledFrame:
    """Per-s frame data of a normalized ruled surface."""

    w: Vec3
    wp: Vec3
    P: float
    Q: float


@dataclass(frozen=True, slots=True)
class CoefficientVector:
    """Values of the residual polynomial coefficients at one s."""

    A: tuple[float, ...]

    def poly(self, t: float) -> float:
        """sum A_n t^n by Horner's rule, at a float t or at every entry of an array."""
        out = 0.0
        for a in reversed(self.A):
            out = out * t + a
        return out

    def max_abs(self) -> float:
        return max(abs(a) for a in self.A)


# Overall sign relating sum A_n t^n to the cleared-denominator residual
# D = <X,v> * LHS - eps * alpha * (EG - F^2) * (Xs, Xt, v).  Per class,
# tests/test_symbolic.py expands ORACLE_SIGN * sum A_n t^n - D to 0 on a
# symbolic frame, and not with the opposite sign; only the common vanishing
# locus carries geometric meaning.
ORACLE_SIGN = {
    DirectorClass.EUCLID_STANDARD: -1.0,
    DirectorClass.LORENTZ_NONDEGENERATE: 1.0,
    DirectorClass.LORENTZ_LIGHTLIKE: 1.0,
}


class RuledSurface:
    """Ruled surface with twice-differentiable base and director curves."""

    def __init__(self, base: Curve, director: Curve, s_range: tuple[float, float],
                 metric: Metric, director_class: DirectorClass, delta: int = 1,
                 normalized: bool = False, label: str = ""):
        self.base = base
        self.director = director
        self.s_range = (float(s_range[0]), float(s_range[1]))
        self.metric = metric
        self.director_class = director_class
        self.delta = int(delta)
        self.normalized = normalized
        self.label = label

    @classmethod
    def build(cls, base: Curve, director: Curve, s_range, metric: Metric,
              director_class: DirectorClass, delta: int = 1, label: str = "") -> "RuledSurface":
        """Construct and mark the surface normalized iff its class relations hold.

        Generators whose construction enforces the relations exactly call the
        constructor with ``normalized=True`` instead.
        """
        rs = cls(base, director, s_range, metric, director_class, delta, False, label)
        tol = _NORMALIZATION_TOL["euclid" if metric is Metric.EUCLIDEAN else "lorentz"]
        rs.normalized = verify_normalization(rs) <= tol
        return rs

    def point(self, s: float, t: float) -> Vec3:
        return self.base.value(s) + t * self.director.value(s)

    def jet(self, s: float, t: float) -> Jet2:
        g, gp, gpp = self.base.jet(s)
        w, wp, wpp = self.director.jet(s)
        zero = Vec3(0.0, 0.0, 0.0)
        return Jet2(g + t * w, gp + t * wp, w, gpp + t * wpp, wp, zero)

    def grid_jet(self, S: np.ndarray, T: np.ndarray) -> Jet2:
        """:meth:`jet` on the product grid of S and T: one curve jet per s, affine in t."""
        rows = [self.base.jet(s) + self.director.jet(s) for s in S.tolist()]
        g, gp, gpp, w, wp, wpp = (stack_rows(col) for col in zip(*rows))
        return Jet2(along(g, T, w), along(gp, T, wp), w, along(gpp, T, wpp), wp,
                    Vec3(0.0, 0.0, 0.0))

    def as_param_surface(self, t_window: tuple[float, float]) -> ParamSurface:
        s0, s1 = self.s_range
        return ParamSurface.exact((s0, s1, float(t_window[0]), float(t_window[1])), self.jet,
                                  self.grid_jet)

    def s_samples(self, n: int, inset: float = 0.03) -> np.ndarray:
        s0, s1 = self.s_range
        pad = inset * (s1 - s0)
        return np.linspace(s0 + pad, s1 - pad, n)


def verify_normalization(rs: RuledSurface) -> float:
    """Largest violation of the class normalization relations over a sample grid."""
    m = rs.metric
    worst = 0.0
    for s in rs.s_samples(33, inset=0.0):
        gp = rs.base.d1(s)
        w = rs.director.value(s)
        wp = rs.director.d1(s)
        if rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE:
            if wp.max_abs() < 1e-8:
                return math.inf
            rels = (
                inner(m, gp, gp) - 1.0,
                inner(m, gp, w),
                inner(m, w, w) - 1.0,
                inner(m, wp, wp),
            )
        else:
            wp2 = 1.0 if rs.director_class is DirectorClass.EUCLID_STANDARD else rs.delta
            rels = (
                inner(m, gp, w),
                inner(m, gp, wp),
                inner(m, w, w) - 1.0,
                inner(m, wp, wp) - wp2,
            )
        # max() passes over a NaN, so a relation that is not finite ends the check
        if not all(map(math.isfinite, rels)):
            return math.inf
        worst = max(worst, max(abs(r) for r in rels))
    return worst


def make_cylinder(base: Curve, direction: Vec3, m: Metric,
                  s_range: tuple[float, float] = (0.0, 1.0)) -> RuledSurface:
    """Cylinder over a base curve: the director is constant, so w' = 0."""
    if direction.max_abs() < 1e-12:
        raise ZeroDirection("cylinder direction is numerically zero")
    n = norm(m, direction)
    w = direction / n if n > 1e-12 * direction.max_abs() else direction
    klass = (DirectorClass.EUCLID_STANDARD if m is Metric.EUCLIDEAN
             else DirectorClass.LORENTZ_NONDEGENERATE)
    return RuledSurface(base, constant_curve(w), s_range, m, klass, delta=1,
                        normalized=False, label="cylinder")


def helicoid(pitch: float = 1.0) -> RuledSurface:
    """Normalized Euclidean helicoid: vertical axis base, rotating director."""
    c = float(pitch)
    base = Curve(
        lambda s: Vec3(0.0, 0.0, c * s),
        lambda s: Vec3(0.0, 0.0, c),
        lambda s: Vec3(0.0, 0.0, 0.0),
    )
    director = Curve(
        lambda s: Vec3(math.cos(s), math.sin(s), 0.0),
        lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
        lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0),
    )
    return RuledSurface.build(base, director, (0.3, 2.3), Metric.EUCLIDEAN,
                              DirectorClass.EUCLID_STANDARD, label=f"helicoid(c={c})")


def lightlike_reference() -> RuledSurface:
    """Canonical lightlike-director surface with w(s) = (1, s, s) and Q = -1.

    The base is the cubic through (0, 0, -2) with g'(s) = (s, s^2/2 - 1, s^2/2),
    which is unit spacelike and orthogonal to w for every s.
    """
    base = Curve(
        lambda s: Vec3(0.5 * s * s, s ** 3 / 6.0 - s, s ** 3 / 6.0 - 2.0),
        lambda s: Vec3(s, 0.5 * s * s - 1.0, 0.5 * s * s),
        lambda s: Vec3(1.0, s, s),
    )
    return RuledSurface.build(base, line_curve(*_LIGHTLIKE_LINE), (-1.0, 1.0), Metric.LORENTZIAN,
                              DirectorClass.LORENTZ_LIGHTLIKE, delta=0,
                              label="lightlike_reference")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_euclidean(base: Curve, director: Curve,
                        s_range: tuple[float, float]) -> RuledSurface:
    """Reparametrize a raw non-cylindrical ruled surface to the standard form.

    The director (which must already be unit length) is reparametrized by its
    arclength; the base is slid along the rulings to the curve orthogonal to
    the director derivative.  The four standard relations are then verified;
    inputs that do not admit the normalization raise NotNormalized.
    """
    a, b = float(s_range[0]), float(s_range[1])
    samples = np.linspace(a, b, 33)
    for u in samples:
        if abs(norm(Metric.EUCLIDEAN, director.value(u)) - 1.0) > 1e-9:
            raise ValueError("director must be unit length before normalization")
    speeds = [norm(Metric.EUCLIDEAN, director.d1(u)) for u in samples]
    if min(speeds) < 1e-8:
        raise CylindricalInput(f"min |w'| = {min(speeds)}; surface is cylindrical")

    def speed(u: float) -> float:
        return norm(Metric.EUCLIDEAN, director.d1(u))

    length_table = DenseODE(lambda u, y: (speed(u),), a, b, (0.0,), 2048)
    total = float(length_table.nodes[-1, 0])  # a float, so no np.float64 repr reaches a label
    u_of_s = DenseODE(lambda s, y: (1.0 / speed(y[0]),), 0.0, total, (a,), 2048)

    def chain(s: float):
        u = u_of_s.state_at(s)[0]
        wu = director.d1(u)
        wuu = director.d2(u)
        g = norm(Metric.EUCLIDEAN, wu)
        u1 = 1.0 / g
        u2 = -inner(Metric.EUCLIDEAN, wu, wuu) / g ** 4
        return u, wu, wuu, u1, u2

    def d_value(s: float) -> Vec3:
        u = u_of_s.state_at(s)[0]
        return director.value(u)

    def d_d1(s: float) -> Vec3:
        u, wu, _, u1, _ = chain(s)
        return wu * u1

    def d_d2(s: float) -> Vec3:
        u, wu, wuu, u1, u2 = chain(s)
        return wuu * (u1 * u1) + wu * u2

    new_director = Curve(d_value, d_d1, d_d2)

    def _slide(u: float) -> tuple[float, float]:
        """Ruling slide mu(u) = -<g1_u, w_u>/<w_u, w_u> and its u-derivative."""
        wu = director.d1(u)
        wuu = director.d2(u)
        g1u = base.d1(u)
        g1uu = base.d2(u)
        m = Metric.EUCLIDEAN
        wu2 = inner(m, wu, wu)
        num = inner(m, g1u, wu)
        mu = -num / wu2
        mup = (-(inner(m, g1uu, wu) + inner(m, g1u, wuu)) / wu2
               + num * 2.0 * inner(m, wu, wuu) / (wu2 * wu2))
        return mu, mup

    def g_value(s: float) -> Vec3:
        u = u_of_s.state_at(s)[0]
        mu, _ = _slide(u)
        return base.value(u) + mu * director.value(u)

    def g_d1(s: float) -> Vec3:
        u, wu, _, u1, _ = chain(s)
        mu, mup = _slide(u)
        return base.d1(u) * u1 + (mup * u1) * director.value(u) + mu * (wu * u1)

    new_base = Curve(g_value, g_d1)

    rs = RuledSurface.build(new_base, new_director, (0.0, total), Metric.EUCLIDEAN,
                            DirectorClass.EUCLID_STANDARD, label="normalized_euclid")
    if not rs.normalized:
        raise NotNormalized(
            "input does not admit the standard normalization "
            f"(violation {verify_normalization(rs):.3e}); its striction curve is "
            "not orthogonal to the rulings"
        )
    return rs


def normalize_lorentz(base: Curve, director: Curve, delta: int,
                      s_range: tuple[float, float]) -> RuledSurface:
    """Reparametrize a spacelike ruled surface so the base is orthogonal to w and w'.

    The input must satisfy <g1', w>_L = 0, <w, w>_L = 1, <w', w'>_L = delta
    with spacelike g1', checked pointwise at 33 points of the range.  The new
    base y1(s) g1(s) + y2(s) w(s) is obtained by integrating  f1 y1' + y2' = 0,
    f2 y1 + f3 y1' + delta y2 = 0  (with f1 = <g1,w>_L, f2 = <g1',w'>_L,
    f3 = <g1,w'>_L) from (y1, y2) = (1, 0) with a 4th-order scheme; the sign
    on y2 is tied to delta and is validated after the solve.

    y1' = -(f2 y1 + delta y2)/f3 and y2' = -f1 y1' are the kind
    _REPARAMETRIZATION_RHS, which reads its coefficients pointwise.  When
    both curves come from one frame-ODE table (random_prenormalization_input
    and the random generators make them), the table's march reads f1, f2
    and f3 at every RK4 stage s of the 512-step grid from one array read
    (_reparametrization_rows); any other pair, and a read that _on_arrays
    rejects, steps with rk4_step.  Both give the same bits and raise the
    same errors at the same s.
    """
    if delta not in (-1, 1):
        raise ConfigError("delta must be +1 or -1")
    a, b = float(s_range[0]), float(s_range[1])
    m = Metric.LORENTZIAN
    for u in np.linspace(a, b, 33):
        gp = base.d1(u)
        w = director.value(u)
        wp = director.d1(u)
        if abs(inner(m, w, w) - 1.0) > 1e-8 or abs(inner(m, wp, wp) - delta) > 1e-8:
            raise NonSpacelikeInput("director fails <w,w>_L = 1, <w',w'>_L = delta")
        if abs(inner(m, gp, w)) > 1e-8:
            raise NonSpacelikeInput("base fails <g1',w>_L = 0")
        if inner(m, gp, gp) <= 0.0:
            raise NonSpacelikeInput("base curve is not spacelike")

    def inputs(s: float) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        # g, g', w, w', read in the order g, g', w', w
        g = base.value(s)
        gp = base.d1(s)
        wp = director.d1(s)
        return g, gp, director.value(s), wp

    d = float(delta)
    rhs = _REPARAMETRIZATION_RHS.bind_at(
        lambda s: (*_reparametrization_coefficients(*inputs(s)), s), d,
        rows=_reparametrization_rows(base, director))
    # the kind's f at coefficients already read: its at is the identity, so its
    # first argument is (f1, f2, f3, s)
    slope_at = _REPARAMETRIZATION_RHS.bind_at(lambda coefficients: coefficients, d)
    table = DenseODE(rhs, a, b, (1.0, 0.0), 512)
    if not (np.isfinite(table.nodes).all() and (np.abs(table.nodes[:, 0]) <= 1e6).all()):
        raise ODEBreakdown("reparametrization state blew up")

    def g_value(s: float) -> Vec3:
        y1, y2 = table.state_at(s)
        return y1 * base.value(s) + y2 * director.value(s)

    def g_d1(s: float) -> Vec3:
        y = table.state_at(s)
        g, gp, w, wp = inputs(s)
        y1p, y2p = slope_at((*_reparametrization_coefficients(g, gp, w, wp), s), y)
        return y1p * g + y[0] * gp + y2p * w + y[1] * wp

    new_base = Curve(g_value, g_d1)
    rs = RuledSurface.build(new_base, director, (a, b), m,
                            DirectorClass.LORENTZ_NONDEGENERATE, delta=delta,
                            label=f"normalized_lorentz(delta={delta})")
    if not rs.normalized:
        raise NotNormalized(
            f"post-solve relations violated by {verify_normalization(rs):.3e}"
        )
    return rs


def _reparametrization_coefficients(g, gp, w, wp):
    """f1 = <g,w>_L, f2 = <g',w'>_L and f3 = <g,w'>_L of normalize_lorentz.

    Written on components: Vec3s at one s, or _V component arrays at many.
    """
    m = Metric.LORENTZIAN
    return inner(m, g, w), inner(m, gp, wp), inner(m, g, wp)


def _f3_vanishes(num: float, y1: float, y2: float, s: float) -> float:
    """y1' of normalize_lorentz where f3 is too small to divide by: 0.0 where the
    state is consistent, f2 y1 + delta y2 = num = 0 up to rounding, else ODEBreakdown."""
    if abs(num) <= 1e-9 * (1.0 + abs(y1) + abs(y2)):
        return 0.0
    raise ODEBreakdown(f"f3 vanishes at s = {s} with inconsistent state")


# normalize_lorentz's y1' = -(f2 y1 + delta y2)/f3 and y2' = -f1 y1' on (y1, y2),
# with the s of its coefficients for the message of a vanishing f3
_REPARAMETRIZATION_RHS = InlineRHS(
    "reparametrization_rhs", ("f1", "f2", "f3", "s"), ("delta",),
    ("num = {f2} * {0} + delta * {1}",
     "if abs({f3}) < 1e-9 * (1.0 + abs({f1}) + abs({f2})): dy1 = f3_vanishes(num, {0}, {1}, {s})",
     "else: dy1 = -num / {f3}"),
    ("dy1", "-{f1} * dy1"), names={"f3_vanishes": _f3_vanishes})


def _on_arrays(read):
    """The result of read() = (checked, result) on arrays, or None to read pointwise.

    read runs under np.errstate(all="ignore").  None when it raises what a
    failed array read raises (surface._CELL_ERRORS), or when a value of
    checked is not finite, as a Vec3 of the pointwise read would not be: the
    caller then reads pointwise, and raises what it reaches, where it
    reaches it, as it would have anyway.
    """
    try:
        with np.errstate(all="ignore"):
            checked, result = read()
    except _CELL_ERRORS:
        return None
    return result if np.isfinite(checked).all() else None


def _reparametrization_rows(base: Curve, director: Curve):
    """rows(stages) of normalize_lorentz's march, or None for a pair that reads pointwise.

    Only a base and director of one frame-ODE table (_frame_curves) give
    rows.  rows(stages) reads that table once at every distinct stage s
    (InlineRHS.bind_at) and gives, per step, (f1, f2, f3, s) at its three
    stage s by index, those of the pointwise reads bit for bit; None when the
    read fails (_on_arrays), so that the build reads f1, f2, f3 pointwise.
    """
    frame_at = _one_table_read(base, director)
    if frame_at is None:
        return None

    def rows(stages: np.ndarray) -> list | None:
        # each distinct s once: stage 2 of a step is mostly stage 0 of the next.  A
        # zero stage s is never of both signs, so each s keeps its own bits
        S, index = np.unique(stages.ravel(), return_inverse=True)

        def read():
            g, gp, w, wp, _ = frame_at(S)
            return [g, gp, w, wp], _reparametrization_coefficients(g, gp, w, wp)

        values = _on_arrays(read)
        if values is None:
            return None
        return np.stack([*values, S], axis=-1)[index].reshape(len(stages), -1).tolist()

    return rows


# ---------------------------------------------------------------------------
# frame and coefficient polynomials
# ---------------------------------------------------------------------------

def _require_normalized(rs: RuledSurface) -> None:
    if not rs.normalized:
        raise NotNormalized(
            f"surface '{rs.label or rs.director_class.value}' is not a normalized "
            "non-cylindrical ruled surface"
        )


def frame(rs: RuledSurface, s: float) -> RuledFrame:
    """Frame data (w, w', P, Q) of a normalized surface at s.

    P and Q come from _frame_functions, the one definition of them per
    director class; this is the one definition of the lightlike |Q| floor.
    A P or Q that is not finite raises ValueError.  A generated surface's
    curves answer an s of their table's last array read from it (_KeptRead).
    """
    _require_normalized(rs)
    w = rs.director.value(s)
    wp = rs.director.d1(s)
    lightlike = rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE
    wpp = None if lightlike else rs.director.d2(s)
    P, Q = _frame_functions(rs.director_class, w, wp, wpp, rs.base.d1(s))
    if not (math.isfinite(P) and math.isfinite(Q)):
        raise ValueError(f"frame functions must be finite, got P = {P}, Q = {Q} at s = {s}")
    if lightlike and abs(Q) < ZERO_Q_FLOOR:
        raise ZeroQ(f"|Q| = {abs(Q)} at s = {s}")
    return RuledFrame(w, wp, P, Q)


def _frame_functions(director_class: DirectorClass, w, wp, wpp, gp):
    """P and Q of a director class from w, w', w'' and g'; the lightlike class has P = 0.

    Written on components: Vec3s at one s, or _V component arrays at many.
    """
    if director_class is DirectorClass.LORENTZ_LIGHTLIKE:
        return 0.0, inner(Metric.LORENTZIAN, gp, wp)
    Q = triple(w, wp, wpp)
    if director_class is DirectorClass.EUCLID_STANDARD:
        return triple(w, wp, gp), Q
    return triple(gp, w, wp), Q


def coefficients(rs: RuledSurface, s: float, v: Vec3, alpha: float) -> CoefficientVector:
    """Coefficient vector of the residual polynomial in t at one s.

    The derivative P'(s) (and Q'(s) in the lightlike class) is taken by a
    4th-order central difference with the step ``curves.FD_H1`` = 1e-4,
    since only values of the frame functions are available numerically.
    """
    fr = frame(rs, s)  # checks first that rs is normalized
    require_unit_direction(rs.metric, v)
    gam = rs.base.value(s)
    if rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE:
        dref = fd1(lambda u: frame(rs, u).Q, s)
        gp = rs.base.d1(s)
    else:
        dref = fd1(lambda u: frame(rs, u).P, s)
        gp = None
    return CoefficientVector(_coefficient_values(rs, v, alpha, fr.w, fr.wp, fr.P, fr.Q, dref,
                                                 gam, gp))


def _coefficient_values(rs: RuledSurface, v: Vec3, alpha: float, w, wp, P, Q, dref, gam, gp):
    """The coefficients A_n of :func:`coefficients` from the frame at s.

    dref is P'(s), or Q'(s) in the lightlike class, gam is g(s) and gp is
    g'(s), which only the lightlike class reads.  Written on components:
    Vec3s and floats at one s, or _V component arrays and arrays at many;
    rs gives the metric, class and delta.  A sweep pass scores surfaces of
    one class together, with a trailing surface axis on the frame arrays,
    and v and alpha with one entry per surface on that axis.
    """
    m = rs.metric
    cls = rs.director_class
    if cls is DirectorClass.LORENTZ_LIGHTLIKE:
        Qp = dref
        gv = inner(m, gam, v)
        wv = inner(m, w, v)
        gpv = inner(m, gp, v)
        trip = triple(gp, w, v)
        a0 = (Qp / Q) * gv + alpha * trip
        a1 = (Qp / Q) * wv + Qp * gv + alpha * Q * (gpv + 3.0 * trip)
        a2 = Qp * wv + 2.0 * alpha * Q * Q * (gpv + trip)
        return (a0, a1, a2)

    Pp = dref
    wv = inner(m, w, v)
    wpv = inner(m, wp, v)
    gv = inner(m, gam, v)
    dv = triple(w, wp, v)

    # the class signs as exact factors: e = -1 and d = delta in the Lorentz class
    e, d = (1.0, 1.0) if cls is DirectorClass.EUCLID_STANDARD else (-1.0, float(rs.delta))
    a0 = e * alpha * _cube(P) * wpv + P * P * Q * gv
    a1 = -e * alpha * d * P * P * dv + P * P * Q * wv + e * Pp * gv
    a2 = alpha * P * wpv + e * Q * gv + e * Pp * wv
    a3 = -alpha * d * dv + e * Q * wv
    return (a0, a1, a2, a3)


def _cube(x):
    """x ** 3 of a float, or of every entry of an array, by the float power.

    numpy's ** rounds some cubes of an array apart from Python's float
    power (the C library's pow), which the pointwise path takes, so an
    array is cubed entry by entry as floats.  A cube too large for a float
    raises OverflowError, as the float power does.
    """
    if isinstance(x, np.ndarray):
        return power_each(x, 3)
    return x ** 3


def _nondegenerate_window(delta: int, p: float) -> tuple[float, float]:
    """Ruling window inside the spacelike part |t| < p (delta = -1) or |t| > p (+1)."""
    if delta == -1:
        return (-0.8 * p, 0.8 * p)
    return (p + 0.15, p + 1.15)


def default_t_samples(rs: RuledSurface, s: float, n: int = 8) -> list[float]:
    """Ruling-parameter samples inside the class-appropriate admissible window.

    Lorentzian surfaces are only spacelike on part of each ruling (|t| < |P|
    when the director derivative is timelike, |t| > |P| when it is spacelike,
    and 1 + 2Qt > 0 in the lightlike class), so the sample window adapts to
    the frame at s.
    """
    _require_normalized(rs)
    if rs.director_class is DirectorClass.EUCLID_STANDARD:
        lo, hi = -1.0, 1.0
    elif rs.director_class is DirectorClass.LORENTZ_NONDEGENERATE:
        lo, hi = _nondegenerate_window(rs.delta, abs(frame(rs, s).P))
    else:
        q = frame(rs, s).Q
        bound = 0.45 / abs(q)
        if q > 0:
            lo, hi = max(-1.0, -bound), 1.0
        else:
            lo, hi = -1.0, min(1.0, bound)
    return list(np.linspace(lo, hi, n))


def residual_polynomial_consistency(rs: RuledSurface, s: float, v: Vec3, alpha: float,
                                    t_samples: Sequence[float]) -> float:
    """Max over t of |sum A_n t^n - D(s,t)| against the raw-jet oracle.

    D is computed entirely by the surface module from the jets of the ruled
    parametrization: D = <X,v> * [G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) + E(Xs,Xt,Xtt)]
    - eps * alpha * (EG-F^2) * (Xs,Xt,v), up to the documented per-class sign.
    Samples outside the admissible window (halfspace or spacelike violations)
    are skipped, and so is a cell whose D or difference is not finite (a
    first form that overflows); at least 4 must survive.

    The coefficients are read pointwise.  When alpha and every t is a float
    or np.float64, all t-samples are then evaluated at once on arrays from
    one jet of each curve at s (_oracle_cells).  Any failure there, and any
    value that is not finite, runs the pointwise loop below instead
    (_on_arrays).  Both give the same value, of the same type, and raise
    the same errors.
    """
    cv = coefficients(rs, s, v, alpha)
    sign = ORACLE_SIGN[rs.director_class]
    t_samples = list(t_samples)
    cells = None
    if t_samples and all(type(x) in (float, np.float64) for x in (alpha, *t_samples)):
        cells = _on_arrays(lambda: _oracle_cells(rs, s, v, alpha, t_samples, cv, sign))
    if cells is None:
        worst, valid = 0.0, 0
        for t in t_samples:
            D = cleared_residual(rs.metric, rs.jet(s, t), v, alpha)
            diff = math.inf if D is None else abs(sign * cv.poly(t) - D)
            if math.isfinite(diff):  # a NaN D, from a first form that overflows, checks nothing
                worst, valid = max(worst, diff), valid + 1
    else:
        worst, valid = cells
    if valid < 4:
        raise ConfigError(f"only {valid} admissible t samples at s = {s}; need >= 4")
    return worst


def _oracle_cells(rs: RuledSurface, s: float, v: Vec3, alpha: float, t_samples: list,
                  cv: CoefficientVector, sign: float):
    """(checked, (worst, valid)) of residual_polynomial_consistency's loop, every t at once.

    X, Xs and Xss are affine in t, summed as RuledSurface.jet sums them.
    checked holds them at every t, where the loop makes Vec3s of them, and
    the differences at the cells the loop takes.
    """
    T = np.array(t_samples)
    (g, gp, gpp), (w, wp, wpp) = rs.base.jet(s), rs.director.jet(s)
    X, Xs, Xss = (along(a, T, b) for a, b in ((g, w), (gp, wp), (gpp, wpp)))
    taken, D = cleared_residual_cells(rs.metric, Jet2(X, Xs, w, Xss, wp, Vec3(0.0, 0.0, 0.0)),
                                      v, alpha)
    diff = np.where(taken, abs(sign * cv.poly(T) - D), 0.0)
    k = int(np.argmax(diff))  # the first largest, which max() keeps
    # taken again at its t as the loop takes it, for its type: np.float64 when t or alpha is
    worst = abs(sign * cv.poly(t_samples[k]) - float(D[k])) if diff[k] > 0.0 else 0.0
    return [*X, *Xs, *Xss, diff], (worst, int(taken.sum()))


# ---------------------------------------------------------------------------
# randomized surface generation (normalized by construction)
# ---------------------------------------------------------------------------

def random_unit_vector(rng: np.random.Generator) -> Vec3:
    """Uniform unit vector of R^3."""
    while True:
        g = rng.normal(size=3)
        n = float(np.linalg.norm(g))
        if n > 1e-6:
            return Vec3(g[0] / n, g[1] / n, g[2] / n)


def random_unit_timelike(rng: np.random.Generator, rapidity: float = 1.2) -> Vec3:
    """Unit timelike vector in the future cone with bounded rapidity."""
    r = rng.uniform(0.0, rapidity)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return Vec3(math.sinh(r) * math.cos(phi), math.sinh(r) * math.sin(phi), math.cosh(r))


def _lorentz_triad(rng: np.random.Generator) -> tuple[Vec3, Vec3, Vec3]:
    """Orthonormal triad (T, S1, S2) with T unit timelike, S1, S2 unit spacelike."""
    m = Metric.LORENTZIAN
    T = random_unit_timelike(rng, rapidity=0.8)
    while True:
        raw = random_unit_vector(rng)
        s1 = raw + inner(m, raw, T) * T  # projection off T since <T,T> = -1
        q = inner(m, s1, s1)
        if q > 1e-3:
            S1 = s1 / math.sqrt(q)
            break
    S2 = cross(m, T, S1)
    return T, S1, S2


# Most draws a sweep takes before it builds their tables: a batch bounds the
# sweep's memory whatever n_surfaces is.
SWEEP_CHUNK = 32

# Fewest draws of a class whose tables are stepped as one batch: the first
# width where the batch beat scalar builds of the same draws by 10% at the
# median and in 19 of 21 alternating pairs.  The scalar builds run the march
# of the frame ODE (frames._SWEEP_FRAME_RHS).  2-core host, 2 to 5 runs per
# width: batch/scalar 0.90-0.92 at Euclidean width 7 and 0.80-0.82 at 8 (ahead
# in 20 of 21); 0.86-1.05 at Lorentz (delta = +1) width 4 and 0.65-0.72 at 5.
_MIN_BATCH = {DirectorClass.EUCLID_STANDARD: 8, DirectorClass.LORENTZ_NONDEGENERATE: 5}


@dataclass(frozen=True)
class _Draw:
    """The random choices of one generated surface, taken before its table is built.

    series is (Q, P) with the class sign folded in, or (m,) in the lightlike
    class; y0 is the seed state (w, w', g), or g alone in the lightlike class.
    """

    director_class: DirectorClass
    delta: int
    series: tuple[FourierSeries, ...]
    y0: tuple[float, ...]

    def frame_signs(self) -> tuple[float, float]:
        """zsign and sigma of the draw's frame ODE (see _sweep_frame_ode)."""
        if self.director_class is DirectorClass.EUCLID_STANDARD:
            return 1.0, -1.0
        return -1.0, -float(self.delta)

    def ode(self):
        """Right-hand side and g'' of the draw's table."""
        if self.director_class is DirectorClass.LORENTZ_LIGHTLIKE:
            return _lightlike_ode(self.series[0])
        return _sweep_frame_ode(*self.series, *self.frame_signs())


def _draw_euclidean(rng: np.random.Generator) -> _Draw:
    omega = 2.0 * math.pi / SWEEP_S_LEN
    Q = _fourier(rng, (0.1, 1.0), 0.9, omega)
    P = _fourier(rng, (0.8, 1.5), 0.4, omega)
    w0 = random_unit_vector(rng)
    raw = random_unit_vector(rng)
    proj = raw - inner(Metric.EUCLIDEAN, raw, w0) * w0
    wp0 = proj / norm(Metric.EUCLIDEAN, proj)
    g0 = rng.normal(scale=0.5, size=3)
    return _Draw(DirectorClass.EUCLID_STANDARD, 1, (Q, P),
                 (*w0.as_tuple(), *wp0.as_tuple(), *g0.tolist()))


def _draw_lorentz(rng: np.random.Generator, delta: int) -> _Draw:
    if delta not in (-1, 1):
        raise ConfigError("delta must be +1 or -1")
    omega = 2.0 * math.pi / SWEEP_S_LEN
    # the class sign -delta of w'' and g' rides in the drawn series -delta Q, -delta P
    sign = -float(delta)
    Q = _fourier(rng, (0.1, 0.45), 0.7, omega, sign=sign)
    P = _fourier(rng, (0.8, 1.5), 0.4, omega, sign=sign)
    T, S1, S2 = _lorentz_triad(rng)
    w0 = S1
    wp0 = S2 if delta == 1 else T
    g0 = rng.normal(scale=0.5, size=3)
    return _Draw(DirectorClass.LORENTZ_NONDEGENERATE, delta, (Q, P),
                 (*w0.as_tuple(), *wp0.as_tuple(), *g0.tolist()))


def _draw_lightlike(rng: np.random.Generator) -> _Draw:
    omega = 2.0 * math.pi / SWEEP_S_LEN
    mf = _fourier(rng, (0.7, 1.2), 0.35, omega)
    g0 = rng.normal(scale=0.5, size=3)
    return _Draw(DirectorClass.LORENTZ_LIGHTLIKE, 0, (mf,), tuple(g0.tolist()))


def _build_tables(draws: Sequence[_Draw], rhss, n_steps: int) -> list:
    """The table of y' = rhss[b](s, y) from draws[b].y0 for draws of one class and delta.

    Lightlike tables are RK4 sums (_lightlike_nodes) at any batch size.
    Euclidean and Lorentz tables are stepped together by _frame_nodes_batch
    from _MIN_BATCH[class] draws on, and one at a time below that, by the
    scalar DenseODE, which runs the march of their right-hand side
    (frames._SWEEP_FRAME_RHS).  Every path gives the same node bits.
    """
    klass = draws[0].director_class
    half = 0.5 * SWEEP_S_LEN
    if klass is DirectorClass.LORENTZ_LIGHTLIKE:
        nodes, slopes = _lightlike_nodes(draws, -half, half, n_steps)
        return [DenseODE.from_nodes(rhs, -half, half, nodes[:, :, b], slopes[:, :, b])
                for b, rhs in enumerate(rhss)]
    euclid = klass is DirectorClass.EUCLID_STANDARD
    if len(draws) < _MIN_BATCH[klass]:
        if euclid:
            return [DenseODE(rhs, 0.0, SWEEP_S_LEN, d.y0, n_steps) for d, rhs in zip(draws, rhss)]
        return [CenteredODE(rhs, half, d.y0, n_steps) for d, rhs in zip(draws, rhss)]
    grids = ([(0.0, SWEEP_S_LEN, n_steps)] if euclid
             else [(0.0, half, n_steps // 2), (0.0, -half, n_steps // 2)])
    nodes, slopes = _frame_nodes_batch(draws, grids)
    n = len(draws)
    halves = [[DenseODE.from_nodes(rhs, s0, s1, nodes[:, :, g * n + b], slopes[:, :, g * n + b])
               for b, rhs in enumerate(rhss)]
              for g, (s0, s1, _) in enumerate(grids)]
    return halves[0] if euclid else [CenteredODE.from_tables(*pair) for pair in zip(*halves)]


def _build_surfaces(draws: Sequence[_Draw], n_steps: int = SWEEP_STEPS) -> list[RuledSurface]:
    """The normalized surfaces of draws of one class and delta, their tables built together.

    The tables share one grid, and each surface's curves carry theirs
    (frames._FrameCurve.table), so that a sweep pass reads them all at once.
    """
    odes = [d.ode() for d in draws]
    tables = _build_tables(draws, [rhs for rhs, _ in odes], n_steps)
    return [_surface(d, table, rhs, g_d2) for d, table, (rhs, g_d2) in zip(draws, tables, odes)]


def _surface(d: _Draw, table, rhs, g_d2) -> RuledSurface:
    half = 0.5 * SWEEP_S_LEN
    if d.director_class is DirectorClass.LORENTZ_LIGHTLIKE:
        base, director = _lightlike_curves(table, rhs, g_d2)
        return RuledSurface(base, director, (-half, half), Metric.LORENTZIAN,
                            DirectorClass.LORENTZ_LIGHTLIKE, delta=0, normalized=True,
                            label="random_lightlike")
    base, director = _frame_curves(table, rhs, g_d2=g_d2)
    if d.director_class is DirectorClass.EUCLID_STANDARD:
        return RuledSurface(base, director, (0.0, SWEEP_S_LEN), Metric.EUCLIDEAN,
                            DirectorClass.EUCLID_STANDARD, normalized=True, label="random_euclid")
    return RuledSurface(base, director, (-half, half), Metric.LORENTZIAN,
                        DirectorClass.LORENTZ_NONDEGENERATE, delta=d.delta, normalized=True,
                        label=f"random_lorentz(delta={d.delta})")


def random_euclidean_ruled(rng: np.random.Generator, n_steps: int = SWEEP_STEPS) -> RuledSurface:
    """Random normalized non-cylindrical Euclidean ruled surface.

    The director solves w'' = -w + Q(s) (w x w') on the unit sphere from a
    random orthonormal frame with a random low-order Fourier geodesic
    curvature Q, which keeps the normalization relations exact up to
    integrator drift; the base integrates g' = P(s) (w x w') with a random
    nonvanishing Fourier profile P.
    """
    return _build_surfaces([_draw_euclidean(rng)], n_steps)[0]


def random_lorentz_ruled(rng: np.random.Generator, delta: int,
                         n_steps: int = SWEEP_STEPS) -> RuledSurface:
    """Random normalized nondegenerate Lorentzian ruled surface for delta = +-1.

    Same construction as the Euclidean generator, on the unit de Sitter
    surface: w'' = -delta (w + Q w x_L w') and g' = -delta P (w x_L w').
    """
    return _build_surfaces([_draw_lorentz(rng, delta)], n_steps)[0]


def random_lightlike_ruled(rng: np.random.Generator) -> RuledSurface:
    """Random normalized lightlike-director surface with w(s) = (1, s, s).

    The base tangent is solved in closed form from a random nonvanishing
    profile m(s):  g' = (s m, (s^2 m^2 - 1)/(2m) - m/2, (s^2 m^2 - 1)/(2m) + m/2)
    is unit spacelike, orthogonal to w, and has Q = <g', w'>_L = -m(s).
    """
    return _build_surfaces([_draw_lightlike(rng)])[0]


def random_prenormalization_input(rng: np.random.Generator, delta: int):
    """Random admissible (base, director) input for :func:`normalize_lorentz`.

    The director is a de Sitter frame-ODE solution; the base tangent
    a(s) w' + b(s) (w x_L w') is orthogonal to w but not to w', so the
    normalization has actual work to do.  Draws are retried until
    <g1, w'>_L stays away from zero (the solvability condition).
    """
    if delta not in (-1, 1):
        raise ConfigError("delta must be +1 or -1")
    m = Metric.LORENTZIAN
    # s runs over [-0.75, 0.75], and the series take its length 1.5 as period
    half = 0.75
    omega = 2.0 * math.pi / 1.5
    d = float(delta)
    for _ in range(60):
        Q = _fourier(rng, (0.1, 0.45), 0.7, omega)
        fa = _fourier(rng, (1.0, 1.3), 0.25, omega, signed=False)
        fb = FourierSeries(0.0, [0.35 * rng.uniform(-1, 1)], [0.35 * rng.uniform(-1, 1)], omega)
        if delta == 1:
            av, bv = fa, fb  # |a| > |b| keeps g1' spacelike
        else:
            av, bv = fb, fa  # |b| > |a| does, since <w x w', w x w'> = -delta

        T, S1, S2 = _lorentz_triad(rng)
        w0 = S1
        wp0 = S2 if delta == 1 else T
        # seed the base so f3 = <g1, w'>_L starts well away from zero: the
        # reparametrization ODE divides by f3, so small values make it stiff
        boost = (1.6 + 0.4 * rng.uniform()) * (1.0 if rng.uniform() < 0.5 else -1.0)
        x, y = rng.normal(scale=0.35, size=2)
        if delta == 1:
            g0v = x * T + y * S1 + boost * S2
        else:
            g0v = (-boost) * T + x * S1 + y * S2
        g0 = g0v.as_tuple()

        rhs = _PRENORMALIZATION_RHS.bind((Q, av, bv), -1.0, d)
        table = CenteredODE(rhs, half, (*w0.as_tuple(), *wp0.as_tuple(), *g0), 512)

        # solvability: f3 = <g1, w'>_L must stay away from zero at every node,
        # taken fwd then bwd; the first node that fails raises if it is not finite
        nodes = np.concatenate([table.fwd.nodes, table.bwd.nodes])
        with np.errstate(all="ignore"):
            f3 = inner(m, _V(*nodes[:, 6:9].T), _V(*nodes[:, 3:6].T))
        bad = ~np.isfinite(nodes[:, 3:9]).all(axis=1) | (np.abs(f3) < 0.45)
        if bad.any():
            node = nodes[np.argmax(bad)].tolist()
            Vec3(*node[6:9])  # raises as the Vec3s of g1 and w' did, if not finite
            Vec3(*node[3:6])
            continue

        base, director = _frame_curves(table, rhs)
        return base, director, (-half, half)
    raise ODEBreakdown("could not draw an admissible pre-normalization input")


# ---------------------------------------------------------------------------
# falsification sweep
# ---------------------------------------------------------------------------

# Most s-samples a sweep scores per surface.  A batch of a sweep scores at most
# MAX_SWEEP_SAMPLES // n_s_samples surfaces together, so it holds no more
# samples than one surface at this cap: at its peak, a Euclidean batch holds
# about 3.4 KB per surface and sample, about 340 MB at the cap, and one
# Euclidean surface scored alone about 4.6 KB a sample (tracemalloc, 20000
# samples; the Lorentz classes hold less).
MAX_SWEEP_SAMPLES = 100_000


@dataclass
class SweepConfig:
    n_surfaces: int
    n_s_samples: int = 10
    seed: int = 0
    metric: Metric = Metric.EUCLIDEAN
    director_class: DirectorClass = DirectorClass.EUCLID_STANDARD
    delta: int = 1
    alpha_range: tuple[float, float] = (-3.0, 3.0)

    def validate(self) -> None:
        if self.n_surfaces < 1:
            raise ConfigError("n_surfaces must be >= 1")
        if self.n_s_samples < 1:
            raise ConfigError("n_s_samples must be >= 1")
        if self.n_s_samples > MAX_SWEEP_SAMPLES:
            raise ConfigError(f"n_s_samples must be <= {MAX_SWEEP_SAMPLES}")
        lo, hi = self.alpha_range
        if not lo <= hi:
            raise ConfigError("alpha_range must be ordered")
        # an infinite end or width would reach numpy's uniform draw, which refuses it
        if not math.isfinite(hi - lo):
            raise ConfigError(f"alpha_range must have finite ends and a finite width, "
                              f"got ({lo!r}, {hi!r})")
        if max(abs(lo), abs(hi)) < MIN_ABS_ALPHA:
            raise ConfigError(f"alpha_range excludes every |alpha| >= {MIN_ABS_ALPHA}")
        if self.metric is Metric.EUCLIDEAN:
            if self.director_class is not DirectorClass.EUCLID_STANDARD:
                raise ConfigError("Euclidean sweeps use the standard director class")
        elif self.director_class is DirectorClass.EUCLID_STANDARD:
            raise ConfigError("Lorentzian sweeps need a Lorentzian director class")
        if self.director_class is DirectorClass.LORENTZ_NONDEGENERATE and self.delta not in (-1, 1):
            raise ConfigError("delta must be +1 or -1")

    def to_dict(self) -> dict:
        return {**asdict(self), "seed": int(self.seed), "metric": self.metric.value,
                "director_class": self.director_class.value,
                "threshold": ALARM_THRESHOLD, "s_len": SWEEP_S_LEN}


@dataclass
class SweepReport:
    config: dict
    per_surface: list[dict] = field(default_factory=list)
    counterexamples: list[int] = field(default_factory=list)
    min_max_abs_coeff: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _is_cylindrical(rs: RuledSurface) -> bool:
    return min(norm(Metric.EUCLIDEAN, rs.director.d1(s))
               for s in rs.s_samples(17, inset=0.0)) < 1e-8


class _SweepFrames(NamedTuple):
    """A surface's frame at n s-samples, with P and Q at fd1's stencil points too.

    g, g', w and w' are _V arrays of shape (n,) at the samples.  P and Q
    have shape (5, n): row k is at point k of curves.fd1_points(s) for
    every sample s, so row 2 is at the samples themselves.  The frames of
    the surfaces of a sweep pass have a trailing surface axis besides.
    """

    g: _V
    gp: _V
    w: _V
    wp: _V
    P: np.ndarray
    Q: np.ndarray


def _sweep_frames(rs: RuledSurface, s_values: Sequence[float]) -> _SweepFrames | None:
    """The frames of a normalized rs at s_values and at fd1's stencil points, from one read.

    Only a base and director of one frame table (_one_table_read) read on
    arrays, at curves.fd1_points.  None for any other surface, when there is
    nothing to read, or when the read fails (_on_arrays, _frame_values).
    _halfspace_window and translate_into_halfspace each take these arrays
    when they are there and read pointwise when they are not, so a surface
    whose read fails is replayed pointwise, and raises what the pointwise
    path raises where it raises it.  Both read at the same points, which the
    table answers from its last read (_KeptRead), so it is read once; its
    curves answer a point query at one of these s from that read too, so
    sweep_surface and the coefficient oracle at these s read the table point
    by point only for g''.  A sweep scores its generated surfaces a pass at
    a time instead (_score_pass), from one read of all their tables.
    """
    s = np.asarray(s_values, dtype=float)
    frame_at = _one_table_read(rs.base, rs.director)
    if not (rs.normalized and frame_at is not None and s.ndim == 1 and s.size):
        return None
    return _on_arrays(lambda: _frame_values(rs.director_class, frame_at(np.stack(fd1_points(s)))))


def _frame_values(director_class: DirectorClass, frame) -> tuple[list, _SweepFrames]:
    """(checked, frames) of _on_arrays from (g, g', w, w', w'') read at fd1's stencil points.

    P and Q are formed once (_frame_functions); a lightlike |Q| below
    ZERO_Q_FLOOR raises ZeroQ.  checked holds every value that frame()
    computes at these s, whose Vec3s must be finite.
    """
    g, gp, w, wp, wpp = frame
    lightlike = director_class is DirectorClass.LORENTZ_LIGHTLIKE
    P, Q = _frame_functions(director_class, w, wp, None if lightlike else wpp, gp)
    if lightlike and (np.abs(Q) < ZERO_Q_FLOOR).any():
        raise ZeroQ(f"|Q| < {ZERO_Q_FLOOR}")
    at_samples = [_V(x.x[2], x.y[2], x.z[2]) for x in (g, gp, w, wp)]
    checked = [*g, *gp, *w, *wp, Q, *(() if lightlike else (*wpp, P))]
    return checked, _SweepFrames(*at_samples, np.zeros_like(Q) if lightlike else P, Q)


def _window(rs: RuledSurface, ref) -> tuple:
    """The ruling window of _halfspace_window from |P| (nondegenerate) or |Q| (lightlike).

    ref holds the values at the s-samples: shape (n,) for one surface, with
    float bounds, or (n, width) for a sweep pass, with one bound per
    surface.  The Euclidean window (-1, 1) reads no ref.
    """
    if rs.director_class is DirectorClass.EUCLID_STANDARD:
        return (-1.0, 1.0)
    if rs.director_class is DirectorClass.LORENTZ_NONDEGENERATE:
        return _nondegenerate_window(rs.delta, ref.min(axis=0) if rs.delta == -1
                                     else ref.max(axis=0))
    bound = np.minimum(1.0, 0.45 / ref.max(axis=0))
    return (-bound, bound)


def _require_s_samples(name: str, s_values: Sequence[float]) -> None:
    """ConfigError unless s_values holds an s: no s gives no window, height or score."""
    if not len(s_values):
        raise ConfigError(f"{name} needs at least one s-sample")


def _halfspace_window(rs: RuledSurface, s_values: Sequence[float]) -> tuple[float, float]:
    """Class-appropriate ruling window used for the halfspace translation."""
    _require_s_samples("_halfspace_window", s_values)
    if rs.director_class is DirectorClass.EUCLID_STANDARD:
        return _window(rs, None)
    frames = _sweep_frames(rs, s_values)
    lightlike = rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE
    if frames is None:
        ref = np.array([abs(frame(rs, s).Q if lightlike else frame(rs, s).P) for s in s_values])
    else:
        ref = np.abs((frames.Q if lightlike else frames.P)[2])
    return tuple(float(x) for x in _window(rs, ref))


def _heights(m: Metric, g, w, v, t_window) -> tuple[list, np.ndarray]:
    """<X, v> at X = g + t w, as RuledSurface.point adds it, at each t of t_window; their min.

    One array per t, of the shape of g's components: g and w at the
    s-samples of one surface with float t, or of a sweep pass with one t
    per surface, whose min is then one per surface.
    """
    heights = [inner(m, along(g, t, w), v) for t in t_window]
    return heights, np.minimum.reduce([h.min(axis=0) for h in heights])


def _offset(m: Metric, lo, v):
    """The translation along v that lifts the lowest height lo to 0.5.

    <v, v>_L = -1, so a Lorentzian surface moves along -v.  A float lo and a
    Vec3 v give a Vec3, which raises if it is not finite; arrays with one
    entry per surface and a _V give a _V.
    """
    shift = 0.5 - lo
    k = shift if m is Metric.EUCLIDEAN else -shift
    return type(v)(v.x * k, v.y * k, v.z * k)


def translate_into_halfspace(rs: RuledSurface, v: Vec3, s_values: Sequence[float],
                             t_window: tuple[float, float]) -> RuledSurface:
    """Shift the base along +-v until <X, v> >= 0.5 over the sampled box.

    The min of <X, v> is taken on arrays when the frames read on arrays
    (_sweep_frames), and pointwise, raising where a Vec3 does, when they do
    not or a height is not finite.  The translated surface's base is a plain
    Curve (Curve.translated), which reads pointwise.
    """
    _require_s_samples("translate_into_halfspace", s_values)
    m = rs.metric
    frames = _sweep_frames(rs, s_values)

    def heights():
        out, lo = _heights(m, frames.g, frames.w, v, t_window)
        return out, float(lo)

    lo = None if frames is None else _on_arrays(heights)
    if lo is None:
        lo = min(inner(m, rs.point(s, t), v) for s in s_values for t in t_window)
    if lo >= 0.5:
        return rs
    return RuledSurface(rs.base.translated(_offset(m, lo, v)), rs.director, rs.s_range, rs.metric,
                        rs.director_class, rs.delta, rs.normalized, rs.label)


def sweep_surface(rs: RuledSurface, v: Vec3, alpha: float, s_values: Sequence[float]) -> dict:
    """Row of the sweep report for one surface.

    max_abs_coeff is max over s of max_i |A_i| scaled by max(1, |P|^3)
    (max(1, |Q|^3) in the lightlike class) so the flag is scale invariant.
    The s are scored one at a time through frame() and coefficients(); a
    generated surface's curves answer them from its table's last read
    (_KeptRead), which _halfspace_window and translate_into_halfspace leave
    at these s.  No s, or a scaled maximum that is not finite, raises rather
    than flag.
    """
    _require_s_samples("sweep_surface", s_values)
    lightlike = rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE
    worst = 0.0
    for s in s_values:
        fr = frame(rs, s)
        x = _scaled_max_abs(coefficients(rs, s, v, alpha).A, fr.Q if lightlike else fr.P)
        if not math.isfinite(x):
            raise ValueError(f"scaled coefficient maximum {x} at s = {s}")
        worst = max(worst, x)
    return _row(rs.director_class, alpha, worst)


def _scaled_max_abs(A, ref):
    """max_i |A_i| / max(1, |ref|^3): at one s from floats, or at every s from arrays."""
    if isinstance(ref, np.ndarray):
        return np.maximum.reduce(np.abs(A)) / np.maximum(1.0, _cube(np.abs(ref)))
    return max(abs(a) for a in A) / max(1.0, _cube(abs(ref)))


def _row(director_class: DirectorClass, alpha: float, worst: float) -> dict:
    """A sweep report row, its id still to be set, from the largest scaled maximum."""
    return {
        "id": -1,
        "class": director_class.value,
        "alpha": alpha,
        "max_abs_coeff": worst,
        "flagged": bool(worst <= ALARM_THRESHOLD),
        "excluded": False,
    }


def _score_pass(draws: Sequence[_Draw], surfaces: Sequence[RuledSurface], vs: Sequence[Vec3],
                alphas: Sequence[float], s_values: np.ndarray) -> list[dict] | None:
    """The report rows of a sweep batch's surfaces, scored together on arrays in one pass.

    surfaces[b] was built from draws[b], and is scored with vs[b] and
    alphas[b] at s_values, which every surface of the batch shares.  One read
    of all their tables gives the frames with a trailing surface axis
    (_frame_stack_at, _lightlike_stack_at), P and Q are formed once on them,
    and the window, the translation and the scaled maxima of every surface
    follow on the same arrays, from the helpers of _halfspace_window,
    translate_into_halfspace and sweep_surface, with P' (or Q') from fd1's
    stencil: each row is the one those give the surface pointwise, byte for
    byte.  None when any of it fails (_on_arrays):
    a lightlike |Q| under the floor, a value that is not finite, or a raised
    error; the caller then scores the surfaces one by one.
    """
    rs = surfaces[0]  # the metric, class and delta of them all
    m = rs.metric
    lightlike = rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE

    def read():
        stack_at = _lightlike_stack_at if lightlike else _frame_stack_at
        frame = stack_at(draws, [x.base.table for x in surfaces], np.stack(fd1_points(s_values)))
        checked, (g, gp, w, wp, P, Q) = _frame_values(rs.director_class, frame)
        ref = Q if lightlike else P
        for v in vs:
            require_unit_direction(m, v)
        v = _V(*np.array([v.as_tuple() for v in vs]).T)
        heights, lo = _heights(m, g, w, v, _window(rs, np.abs(ref[2])))
        offset = _offset(m, lo, v)
        # g + offset as Curve.translated shifts it, where the lowest height is below 0.5
        g = _V(*np.where(lo < 0.5, [g.x + offset.x, g.y + offset.y, g.z + offset.z], g))
        A = _coefficient_values(rs, v, np.array(alphas), w, wp, P[2], Q[2],
                                fd1_stencil(ref[0], ref[1], ref[3], ref[4]), g, gp)
        scaled = _scaled_max_abs(A, ref[2])
        # the arrays differ in shape, so they are checked as one flat array
        checked = np.concatenate([x.ravel() for x in (*checked, *heights, *offset, *g, *A, scaled)])
        return checked, scaled.max(axis=0).tolist()

    worst = _on_arrays(read)
    if worst is None:
        return None
    return [_row(rs.director_class, alpha, x) for alpha, x in zip(alphas, worst)]


def _draw_alpha(rng: np.random.Generator, lo: float, hi: float) -> float:
    for _ in range(256):
        a = float(rng.uniform(lo, hi))
        if abs(a) >= MIN_ABS_ALPHA:
            return a
    raise ConfigError("alpha_range too close to zero to exclude alpha = 0")


def falsification_sweep(cfg: SweepConfig, planted: Sequence[RuledSurface] = ()) -> SweepReport:
    """Randomized search for a normalized ruled surface with vanishing coefficients.

    Generates cfg.n_surfaces random normalized non-cylindrical surfaces of the
    configured class, draws a random direction and alpha (|alpha| >=
    MIN_ABS_ALPHA) per surface, translates the surface into the admissible
    halfspace over its sampled box, and records the scaled coefficient maxima.
    Surfaces whose maxima stay at or below ALARM_THRESHOLD at every sample are
    counterexample candidates.  ``planted`` surfaces join the report but cylindrical ones are
    excluded by the w' filter rather than flagged.  Generated surfaces are
    drawn, built and scored in batches of max(1, min(SWEEP_CHUNK,
    MAX_SWEEP_SAMPLES // n_s_samples)): a batch's tables are built together,
    read all at once and its surfaces scored on arrays with a trailing
    surface axis (_score_pass), so a batch holds the arrays of at most one
    surface at the sample cap, and its surfaces are dropped before the next
    batch is built.  A batch whose pass fails scores its surfaces one by
    one, as planted surfaces are scored: the window and the translation read
    the surface's table once on arrays where it has one (_sweep_frames), and
    sweep_surface scores it pointwise.  The report is the one that building
    and scoring each surface alone, pointwise, would give, byte for byte,
    and so is the error it raises.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    report = SweepReport(config=cfg.to_dict())
    rows = report.per_surface
    draw = {
        DirectorClass.EUCLID_STANDARD: _draw_euclidean,
        DirectorClass.LORENTZ_NONDEGENERATE: lambda rng: _draw_lorentz(rng, cfg.delta),
        DirectorClass.LORENTZ_LIGHTLIKE: _draw_lightlike,
    }[cfg.director_class]

    def draw_v_alpha(metric: Metric) -> tuple[Vec3, float]:
        v = random_unit_vector(rng) if metric is Metric.EUCLIDEAN else random_unit_timelike(rng)
        return v, _draw_alpha(rng, *cfg.alpha_range)

    def add(row: dict) -> None:
        row["id"] = len(rows)
        rows.append(row)
        if row["flagged"]:
            report.counterexamples.append(row["id"])

    def score(rs: RuledSurface, v: Vec3, alpha: float) -> None:
        s_values = rs.s_samples(cfg.n_s_samples)
        window = _halfspace_window(rs, s_values)
        rs = translate_into_halfspace(rs, v, s_values, window)
        add(sweep_surface(rs, v, alpha, s_values))

    for rs in planted:
        if _is_cylindrical(rs):
            rows.append({"id": len(rows), "class": rs.director_class.value, "alpha": 0.0,
                         "max_abs_coeff": None, "flagged": False, "excluded": True})
            continue
        score(rs, *draw_v_alpha(rs.metric))

    # the surfaces of a batch; the sample cap bounds what one surface holds
    width = max(1, min(SWEEP_CHUNK, MAX_SWEEP_SAMPLES // cfg.n_s_samples))
    # Scoring draws no random numbers, so a batch takes all of its draws (each
    # surface, then its v and alpha) before its tables are built together.
    for start in range(0, cfg.n_surfaces, width):
        draws, vs, alphas = zip(*[(draw(rng), *draw_v_alpha(cfg.metric))
                                  for _ in range(min(width, cfg.n_surfaces - start))])
        surfaces = _build_surfaces(draws)
        s_values = surfaces[0].s_samples(cfg.n_s_samples)
        scored = _score_pass(draws, surfaces, vs, alphas, s_values)
        # the batch's surfaces, the loop's last rs among them, go before the next
        # batch is built, and their tables and frame reads with them
        if scored is None:
            for rs, v, alpha in zip(surfaces, vs, alphas):
                score(rs, v, alpha)
            del rs
        else:
            for row in scored:
                add(row)
        del surfaces

    maxima = [r["max_abs_coeff"] for r in rows if r["max_abs_coeff"] is not None]
    report.min_max_abs_coeff = min(maxima) if maxima else None
    return report
