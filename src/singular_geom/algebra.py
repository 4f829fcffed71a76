"""Signature-generic 3-vector algebra for Euclidean and Lorentz-Minkowski space.

The Lorentzian scalar product used throughout is

    <u, v>_L = ux*vx + uy*vy - uz*vz,

i.e. the third coordinate is the timelike one.  The cross product in either
signature is the metric adjoint of the determinant: it is the unique vector
``u x v`` with ``<u x v, w> = det(u, v, w)`` for every ``w``.  With this
convention ``det(e1, e2, e3) = +1`` in both signatures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DifferentCones, NotTimelike


_isfinite = math.isfinite


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    LORENTZIAN = "lorentzian"


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


@dataclass(frozen=True, slots=True)
class Vec3:
    """Point or vector with three finite real components."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        # nearly every Vec3 is built from floats; skip the frozen-field writes then
        if type(x) is not float or type(y) is not float or type(z) is not float:
            x, y, z = float(x), float(y), float(z)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "z", z)
        if not (_isfinite(x) and _isfinite(y) and _isfinite(z)):
            raise ValueError(f"Vec3 components must be finite, got ({x}, {y}, {z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, a: float) -> "Vec3":
        return Vec3(self.x * a, self.y * a, self.z * a)

    __rmul__ = __mul__

    def __truediv__(self, a: float) -> "Vec3":
        return Vec3(self.x / a, self.y / a, self.z / a)

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def max_abs(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


def inner(m: Metric, u: Vec3, v: Vec3) -> float:
    """Scalar product of u and v in the given signature."""
    s = u.x * v.x + u.y * v.y
    if m is Metric.EUCLIDEAN:
        return s + u.z * v.z
    return s - u.z * v.z


def triple(u: Vec3, v: Vec3, w: Vec3) -> float:
    """Determinant of the 3x3 matrix with rows u, v, w (signature independent)."""
    return (
        u.x * (v.y * w.z - v.z * w.y)
        - u.y * (v.x * w.z - v.z * w.x)
        + u.z * (v.x * w.y - v.y * w.x)
    )


def cross(m: Metric, u: Vec3, v: Vec3) -> Vec3:
    """Cross product: the unique vector with <cross(u,v), w> = det(u,v,w) for all w.

    In the Lorentzian signature this flips the sign of the z-component of the
    Euclidean cross product, e.g. cross(L, e1, e2) = (0, 0, -1).  Written on
    components, as inner and triple are: two Vec3s give a Vec3, whose
    components are checked finite, and two surface._V of floats or component
    arrays give a _V.
    """
    cz = u.x * v.y - u.y * v.x
    return type(u)(u.y * v.z - u.z * v.y, u.z * v.x - u.x * v.z,
                   cz if m is Metric.EUCLIDEAN else -cz)


def norm(m: Metric, v: Vec3) -> float:
    """sqrt(|<v, v>|) in the given signature."""
    return math.sqrt(abs(inner(m, v, v)))


def causal_character(v: Vec3) -> CausalCharacter:
    """Lorentzian causal character of v, by exact comparison with zero.

    The zero vector is spacelike.  Use :func:`causal_character_tol` for
    vectors produced by floating-point computation.
    """
    q = inner(Metric.LORENTZIAN, v, v)
    if q > 0.0:
        return CausalCharacter.SPACELIKE
    if q < 0.0:
        return CausalCharacter.TIMELIKE
    if v.x == 0.0 and v.y == 0.0 and v.z == 0.0:
        return CausalCharacter.SPACELIKE
    return CausalCharacter.LIGHTLIKE


def causal_character_tol(v: Vec3) -> CausalCharacter:
    """Causal character with a relative tolerance around the light cone.

    Declares lightlike when |<v,v>_L| <= 1e-10 * max(|vx|,|vy|,|vz|)^2, so
    that cross products of lightlike data classify as lightlike despite
    roundoff.
    """
    if v.x == 0.0 and v.y == 0.0 and v.z == 0.0:
        return CausalCharacter.SPACELIKE
    q = inner(Metric.LORENTZIAN, v, v)
    if abs(q) <= 1e-10 * v.max_abs() ** 2:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if q > 0.0 else CausalCharacter.TIMELIKE


def same_timelike_cone(u: Vec3, v: Vec3) -> bool:
    """True iff the timelike vectors u, v lie in the same timelike cone."""
    if causal_character(u) is not CausalCharacter.TIMELIKE:
        raise NotTimelike(f"first argument is not timelike: {u}")
    if causal_character(v) is not CausalCharacter.TIMELIKE:
        raise NotTimelike(f"second argument is not timelike: {v}")
    return inner(Metric.LORENTZIAN, u, v) < 0.0


def hyperbolic_angle(u: Vec3, v: Vec3) -> float:
    """Hyperbolic angle theta >= 0 between timelike u, v in the same cone.

    Defined by <u, v>_L = -|u|_L |v|_L cosh(theta).
    """
    if not same_timelike_cone(u, v):
        raise DifferentCones(f"{u} and {v} lie in different timelike cones")
    c = -inner(Metric.LORENTZIAN, u, v) / (norm(Metric.LORENTZIAN, u) * norm(Metric.LORENTZIAN, v))
    # roundoff can put the cosh argument marginally below 1 for parallel vectors
    return math.acosh(max(1.0, c))
