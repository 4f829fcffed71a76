"""Second-order jets of parametric immersions and the curvature residuals.

A surface is handed around as a jet evaluator over a rectangle.  Jets are
either exact (analytic derivatives supplied by the caller) or produced by
4th-order central finite differences of a point evaluator.  On top of the
jets this module computes fundamental forms, the unit normal, the mean
curvature, the pointwise defining residual of singular minimal (Euclidean)
and singular maximal (Lorentzian, spacelike) surfaces, the cleared-denominator
residual that the ruled module's coefficient oracle compares with, the
potential energy of a surface relative to a direction, and a numeric first
variation.

Grids of points are evaluated on numpy arrays.  The one array layout of a
vector is ``_V``, its three component arrays: ``ParamSurface.grid_jets``
gives the jets of a product grid as a Jet2 of ``_V``s whose components
broadcast to (ns, nt), and a field that does not vary may be a Vec3 or a
``_V`` of floats.  Only :func:`grid_points` stacks components, for the mesh
writer.  The first form, the curvature bracket, the unit normal, the
residual, the cleared residual, the energy integrand and the ruling point
a + t b (:func:`along`) are each written once on vector components, so one
body runs on the Vec3 floats of the pointwise API and on the ``_V`` arrays
of the grid API.  numpy's elementwise +, -, *, / and sqrt round as Python
floats do, and every sum keeps its order, so a grid value is bitwise the
pointwise value.  A grid is evaluated in blocks of at most ``GRID_BLOCK``
points, and a block that holds a cell the pointwise API would reject, or
whose arithmetic raises, is evaluated again by the pointwise API from its
first cell, so the grid raises the exact exception of the row-major
pointwise loop.  The finite-difference stencil and the normal
perturbation of the first variation are each written once, on arrays: the
pointwise jet of a finite-difference surface is its stencil grid of one point.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import CausalCharacter, Metric, Vec3, causal_character, cross, inner, triple
from .curves import fd1_points, fd1_stencil
from .errors import (
    DegenerateMetric,
    GeometryError,
    HalfspaceViolation,
    NotSpacelike,
    OutOfDomain,
)

# |EG - F^2| below this multiple of the form magnitudes counts as degenerate.
REGULARITY_FLOOR = 1e-14

# Relative tolerance for "v is a unit (timelike) direction" checks.
UNIT_TOL = 1e-9

# Most grid points per evaluation block: the grid functions hold the arrays of
# one block at a time, whole s rows or a chunk of one longer row, not of the
# whole grid, and a failed block replays at most this many cells pointwise.
GRID_BLOCK = 4096


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and derivatives of an immersion at one parameter point.

    The grid API fills the same fields with _V component arrays that
    broadcast to (ns, nt), or with a Vec3 where a field does not vary.
    """

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
_C2 = (-1.0, 16.0, -30.0, 16.0, -1.0)
# positions of the offsets -2, -1, +1, +2 among the five stencil points -2h..2h (curves.fd1_points)
_AT1 = (0, 1, 3, 4)


class _V(NamedTuple):
    """Components of a grid of vectors; the shared formulas read .x, .y, .z as of a Vec3."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


def _fields(J: Jet2) -> tuple:
    return (J.X, J.Xs, J.Xt, J.Xss, J.Xst, J.Xtt)


def along(a, t, b) -> _V:
    """a + t b on components, rounded as Vec3's a + t * b: a point on the ruling through a."""
    return _V(a.x + t * b.x, a.y + t * b.y, a.z + t * b.z)


def stack_rows(vectors) -> _V:
    """_V of n Vec3, one per s row, with components of shape (n, 1) to broadcast over t."""
    return _V(*np.array([v.as_tuple() for v in vectors]).T.reshape(3, -1, 1))


def power_each(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent taken per element as a Python float.

    np.power does not always round as float.__pow__ does (the C library's
    pow), and it does not raise OverflowError; this keeps both.
    """
    return np.fromiter((b ** exponent for b in base.ravel().tolist()), float,
                       base.size).reshape(base.shape)


def abs_max(values: np.ndarray) -> float:
    """max(|value|) as a running builtin max from 0.0 gives it: NaN entries are skipped."""
    return max(0.0, float(np.fmax.reduce(np.abs(values), axis=None)))


class ParamSurface:
    """Immersion over a rectangle with a jet evaluator.

    Construct with :meth:`exact` when analytic jets are available, or with
    :meth:`finite_difference` to differentiate a point evaluator numerically.
    An exact surface gives ``jet_fn(s, t)``, or ``grid_fn(S, T)``, its jets on
    the product grid of 1-D arrays S and T, or both, bitwise equal at every
    point.  A grid_fn returns a Jet2 of _V whose component arrays broadcast
    to (ns, nt), with a Vec3 or floats for what does not vary.  Without a
    grid_fn, :meth:`grid_jets` packs the pointwise jets into _V arrays;
    without a jet_fn, :meth:`jet` reads a grid of one point, as it does for a
    finite-difference surface, whose grid jets are :func:`_fd_stencils` sums.
    """

    def __init__(self, domain: Rect, jet_fn=None, point_fn=None, fd_step=None,
                 allow_overhang: bool = False, grid_fn=None):
        s0, s1, t0, t1 = domain
        if not (s1 > s0 and t1 > t0):
            raise ValueError(f"bad domain rectangle {domain}")
        self.domain: Rect = (float(s0), float(s1), float(t0), float(t1))
        self._jet_fn = jet_fn if jet_fn is not None else self._grid_jet
        self._point_fn = point_fn
        self._grid_fn = grid_fn
        if point_fn is not None and fd_step is None:
            fd_step = _fd_step(self.domain)
        self.fd_step = fd_step
        self.allow_overhang = allow_overhang

    @classmethod
    def exact(cls, domain: Rect, jet_fn: Callable[[float, float], Jet2] | None = None,
              grid_fn: Callable[[np.ndarray, np.ndarray], Jet2] | None = None) -> "ParamSurface":
        if jet_fn is None and grid_fn is None:
            raise ValueError("an exact surface needs a jet_fn or a grid_fn")
        return cls(domain, jet_fn=jet_fn, grid_fn=grid_fn)

    @classmethod
    def finite_difference(cls, domain: Rect, point_fn: Callable[[float, float], Vec3],
                          h: float | None = None, allow_overhang: bool = False) -> "ParamSurface":
        return cls(domain, point_fn=point_fn, fd_step=h, allow_overhang=allow_overhang)

    def _bounds(self) -> tuple[tuple[float, float, float, float], tuple | None]:
        """The rectangle grown by the check slack, and shrunk by the FD margin if one applies."""
        s0, s1, t0, t1 = self.domain
        slack = 1e-12 * (1.0 + abs(s1 - s0) + abs(t1 - t0))
        outer = (s0 - slack, s1 + slack, t0 - slack, t1 + slack)
        if self._point_fn is None or self.allow_overhang:
            return outer, None
        m = 2.0 * self.fd_step
        return outer, (s0 + m - slack, s1 - m + slack, t0 + m - slack, t1 - m + slack)

    def _check_domain(self, s: float, t: float) -> None:
        (a0, a1, b0, b1), inner_box = self._bounds()
        if not (a0 <= s <= a1 and b0 <= t <= b1):
            raise OutOfDomain(f"(s,t)=({s},{t}) outside {self.domain}")
        if inner_box is not None:
            c0, c1, d0, d1 = inner_box
            if not (c0 <= s <= c1 and d0 <= t <= d1):
                raise OutOfDomain(
                    f"finite-difference jets need an interior margin of 2h={2.0 * self.fd_step}; "
                    f"got (s,t)=({s},{t})"
                )

    def jet(self, s: float, t: float) -> Jet2:
        self._check_domain(s, t)
        return self._jet_fn(s, t)

    def jet_unchecked(self, s: float, t: float) -> Jet2:
        """Jet without the domain check, for stencils that overhang the rectangle."""
        return self._jet_fn(s, t)

    def grid_jets(self, S: np.ndarray, T: np.ndarray) -> Jet2:
        """Jets on the product grid of 1-D arrays S and T, as _V that broadcast to (ns, nt).

        Bitwise equal to :meth:`jet` at every point.  The domain check is
        :meth:`jet`'s, and a point outside raises its OutOfDomain; so does a
        non-finite jet component, which :meth:`jet` rejects through Vec3.
        """
        S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
        (a0, a1, b0, b1), inner_box = self._bounds()
        bad_s = ~((a0 <= S) & (S <= a1))
        bad_t = ~((b0 <= T) & (T <= b1))
        if inner_box is not None:
            c0, c1, d0, d1 = inner_box
            bad_s |= ~((c0 <= S) & (S <= c1))
            bad_t |= ~((d0 <= T) & (T <= d1))
        if bad_s.any() or bad_t.any():
            for s in S.tolist():
                for t in T.tolist():
                    self._check_domain(s, t)
        with np.errstate(all="ignore"):
            J = self._grid_jets(S, T)
        finite = np.ones((len(S), len(T)), dtype=bool)
        for a in _fields(J):
            for c in a:
                finite &= np.isfinite(c)
        if not finite.all():
            i, j = np.unravel_index(np.argmin(finite), finite.shape)
            self.jet(float(S[i]), float(T[j]))
            raise ValueError(f"non-finite jet at (s,t)=({S[i]},{T[j]})")
        return J

    def _grid_jet(self, s: float, t: float) -> Jet2:
        """The jet at (s, t) read from a grid of that one point; non-finite raises through Vec3."""
        with np.errstate(all="ignore"):
            J = self._grid_jets(np.array([s], dtype=float), np.array([t], dtype=float))
        return Jet2(*(Vec3(*(np.ravel(c)[0] for c in a)) for a in _fields(J)))

    def _grid_jets(self, S: np.ndarray, T: np.ndarray) -> Jet2:
        """:meth:`grid_jets` without its checks, like :meth:`jet_unchecked`."""
        if self._grid_fn is not None:
            return self._grid_fn(S, T)
        if self._point_fn is not None:
            # s outer, so a point function's s-only work is done once per s
            h, p = self.fd_step, self._point_fn
            S5, T5 = _stencil_axis(S, h).tolist(), _stencil_axis(T, h).tolist()
            P = np.array([p(s, t).as_tuple() for s in S5 for t in T5])
            return _fd_stencils(P.T.reshape(3, len(S5), len(T5)), h)
        jets = [_fields(self._jet_fn(s, t)) for s in S.tolist() for t in T.tolist()]
        A = np.array([[f.as_tuple() for f in j] for j in jets]).T.reshape(3, 6, len(S), len(T))
        return Jet2(*(_V(*A[:, k]) for k in range(6)))


def _fd_step(domain: Rect) -> float:
    """The default finite-difference step on a rectangle: 1e-4 of its diagonal."""
    s0, s1, t0, t1 = domain
    return 1e-4 * math.hypot(s1 - s0, t1 - t0)


def _stencil_axis(S: np.ndarray, h: float) -> np.ndarray:
    """fd1's five points around each s in turn (curves.fd1_points), as one flat axis."""
    return np.stack(fd1_points(S, h), axis=-1).ravel()


def _fd_stencils(P: np.ndarray, h: float) -> Jet2:
    """4th-order central finite-difference jets on a product grid of stencil points.

    P is (3, 5 ns, 5 nt), the components over the :func:`_stencil_axis` of the
    nodes' s and t: P[:, 5i + a, 5j + b] is the point at offset (a - 2, b - 2) h
    from node (i, j).
    """
    P = P.reshape(3, P.shape[1] // 5, 5, P.shape[2] // 5, 5)
    X = P[:, :, 2, :, 2]
    row = [P[:, :, a, :, 2] for a in _AT1]
    col = [P[:, :, 2, :, b] for b in _AT1]
    Xs, Xt = (fd1_stencil(*d, h) for d in (row, col))
    hh = 12.0 * h * h
    second = []
    for line in ([row[0], row[1], X, row[2], row[3]], [col[0], col[1], X, col[2], col[3]]):
        acc = 0.0  # a sum from +0.0, so a -0.0 first term gives +0.0
        for k in range(5):
            acc = acc + _C2[k] * line[k]
        second.append(acc / hh)
    acc = 0.0
    for i, a in enumerate(_AT1):
        for j, b in enumerate(_AT1):
            acc = acc + (_C1[i] * _C1[j]) * P[:, :, a, :, b]
    return Jet2(*(_V(*a) for a in (X, Xs, Xt, second[0], acc / (144.0 * h * h), second[1])))


def jet(surf: ParamSurface, s: float, t: float) -> Jet2:
    """Jet of the surface at (s, t); OutOfDomain outside the rectangle."""
    return surf.jet(s, t)


# ---------------------------------------------------------------------------
# formulas on vector components: Vec3 floats or _V arrays alike
# ---------------------------------------------------------------------------

def _first_form(m: Metric, Xs, Xt):
    """E, F, G and W2 = EG - F^2."""
    E = inner(m, Xs, Xs)
    F = inner(m, Xs, Xt)
    G = inner(m, Xt, Xt)
    return E, F, G, E * G - F * F


def _form_floor(E, G):
    """The regularity floor of |EG - F^2| and of |Xs x Xt|^2."""
    return REGULARITY_FLOOR * (E * E + G * G + 1.0)


def _clears_floor(x, floor):
    """Where x is finite and not below floor, so that NaN and inf, unlike for x < floor, fail."""
    return (floor <= x) & (x < math.inf)


def _bracket(E, F, G, j: Jet2):
    """G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) + E(Xs,Xt,Xtt)."""
    return (
        G * triple(j.Xs, j.Xt, j.Xss)
        - 2.0 * F * triple(j.Xs, j.Xt, j.Xst)
        + E * triple(j.Xs, j.Xt, j.Xtt)
    )


def _normal_parts(m: Metric, Xs, Xt):
    """Xs x Xt as a _V, its |<c, c>| and the floor that must not exceed it.

    The product is taken on _Vs, whose components are not checked finite, so
    one that overflows fails the floor (DegenerateMetric), not Vec3 (ValueError).
    """
    c = cross(m, _V(*Xs), _V(*Xt))
    return c, abs(inner(m, c, c)), _form_floor(inner(m, Xs, Xs), inner(m, Xt, Xt))


def _max_abs(X):
    if isinstance(X, Vec3):
        return X.max_abs()
    return np.maximum(np.maximum(abs(X.x), abs(X.y)), abs(X.z))


def _off_halfspace(m: Metric, q, X):
    """Where <X, v> = q leaves the admissible region: q <= 0, or numerically lightlike in L^3."""
    if m is Metric.EUCLIDEAN:
        return q <= 0.0
    return abs(q) <= 1e-12 * (1.0 + _max_abs(X))


def _residual(m: Metric, alpha: float, q, E, F, G, W2, j: Jet2, v: Vec3):
    eps_hat = 1.0 if m is Metric.EUCLIDEAN else -1.0
    return _bracket(E, F, G, j) - eps_hat * alpha * (W2 / q) * triple(j.Xs, j.Xt, v)


def _cleared(m: Metric, alpha: float, q, E, F, G, W2, j: Jet2, v: Vec3):
    """The cleared-denominator residual D: the residual times <X,v>, unchecked."""
    eps_hat = 1.0 if m is Metric.EUCLIDEAN else -1.0
    return q * _bracket(E, F, G, j) - eps_hat * alpha * W2 * triple(j.Xs, j.Xt, v)


def _energy_term(m: Metric, weight, q, W2, alpha: float, power, sqrt):
    """weight * <X,v>^alpha * sqrt|EG - F^2|, with |<X,v>_L| in L^3."""
    base = abs(q) if m is Metric.LORENTZIAN else q
    return weight * power(base, alpha) * sqrt(abs(W2))


# ---------------------------------------------------------------------------
# pointwise API
# ---------------------------------------------------------------------------

def _regular_first_form(m: Metric, j: Jet2) -> tuple[float, float, float, float]:
    """E, F, G and W2 at a jet; DegenerateMetric unless |W2| clears the regularity floor."""
    E, F, G, W2 = _first_form(m, j.Xs, j.Xt)
    floor = _form_floor(E, G)
    if not _clears_floor(abs(W2), floor):
        raise DegenerateMetric(f"|EG - F^2| = {abs(W2)} below floor {floor}")
    return E, F, G, W2


def fundamental_forms(m: Metric, j: Jet2) -> FundamentalForms:
    """First and second fundamental form coefficients at a jet."""
    E, F, G, W2 = _regular_first_form(m, j)
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
    return _bracket(forms.E, forms.F, forms.G, j)


def unit_normal(m: Metric, j: Jet2) -> Vec3:
    """Unit normal Xs x Xt / |Xs x Xt| in the given signature."""
    c, n2, floor = _normal_parts(m, j.Xs, j.Xt)
    if not _clears_floor(n2, floor):
        raise DegenerateMetric("normal direction degenerates")
    r = math.sqrt(n2)
    return Vec3(c.x / r, c.y / r, c.z / r)


def mean_curvature(m: Metric, j: Jet2) -> float:
    """Mean curvature relative to the normal of :func:`unit_normal`.

    H = 0.5 eps B / |EG - F^2|^1.5 in both signatures, with B the
    :func:`curvature_bracket` and eps = <N, N>.  Sign convention: under this orientation the unit sphere parametrized as
    (cos s cos t, sin s cos t, sin t) has H = -1 in Euclidean space, and the
    upper unit hyperboloid graph z = sqrt(1 + s^2 + t^2) has H = -1 in
    Lorentzian space.  The Lorentzian branch requires a spacelike point.
    """
    forms = fundamental_forms(m, j)
    if m is Metric.LORENTZIAN and forms.eps != -1:
        raise NotSpacelike("mean curvature of a non-spacelike Lorentzian point")
    return 0.5 * forms.eps * curvature_bracket(forms, j) / abs(forms.W2) ** 1.5


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
    if _off_halfspace(m, q, X):
        if m is Metric.EUCLIDEAN:
            raise HalfspaceViolation(f"<X, v> = {q} <= 0")
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
    E, F, G, W2 = _regular_first_form(m, j)
    # not (W2 > 0) is eps = <N,N>_L != -1, NaN included
    if m is Metric.LORENTZIAN and not W2 > 0.0:
        raise NotSpacelike(f"surface not spacelike at (s,t)=({s},{t})")
    return _residual(m, alpha, q, E, F, G, W2, j, v)


def _energy_cell(m: Metric, surf: ParamSurface, s: float, t: float, v: Vec3,
                 alpha: float) -> float:
    """One term of :func:`potential_energy` at unit weight, with its pointwise checks."""
    j = surf.jet(s, t)
    q = _position_inner(m, j.X, v)
    W2 = _regular_first_form(m, j)[3]
    if m is Metric.LORENTZIAN and W2 < 0.0:
        raise NotSpacelike(f"surface not spacelike at ({s},{t})")
    return _energy_term(m, 1.0, q, W2, alpha, operator.pow, math.sqrt)


# ---------------------------------------------------------------------------
# grid API
# ---------------------------------------------------------------------------

# what a failed array read raises where the pointwise API raises (a grid
# block here, a frame read in ruled): a domain failure, a Vec3 of non-finite
# components, an overflowing power
_CELL_ERRORS = (GeometryError, ValueError, ArithmeticError)


class _Masked(Exception):
    """A grid block holds a cell that the pointwise API rejects."""


def _replay(cell, S: np.ndarray, T: np.ndarray, exc: Exception):
    """Evaluate the block S x T pointwise in row-major order, to raise its first failure.

    The exception is the pointwise API's own, with ``cell = (s, t)`` added;
    if every cell passes, the block's own exception is raised again.
    """
    t_list = T.tolist()
    for s in S.tolist():
        for t in t_list:
            try:
                cell(s, t)
            except _CELL_ERRORS as err:
                err.cell = (s, t)
                raise
    raise exc


def _blocks(S: np.ndarray, T: np.ndarray, evaluate, cell):
    """((rows, cols), evaluate(rows, cols)) for the blocks of the grid S x T, in order.

    A block holds at most GRID_BLOCK points: whole rows, or column chunks of
    one row when a row is longer, visited in row-major order.  A block whose
    evaluation raises, whatever failed, is evaluated again pointwise through
    cell(s, t) from its first cell, so the grid fails where and as the
    row-major pointwise loop fails.  A grid with no cells has no blocks.
    """
    if not len(T):
        return
    width = min(len(T), GRID_BLOCK)
    step = GRID_BLOCK // width
    for i in range(0, len(S), step):
        rows = slice(i, i + step)
        for j in range(0, len(T), width):
            cols = slice(j, j + width)
            try:
                # cells that the masks reject may overflow or divide by zero
                with np.errstate(all="ignore"):
                    out = evaluate(rows, cols)
            except (_Masked, *_CELL_ERRORS) as exc:
                _replay(cell, S[rows], T[cols], exc)
            yield (rows, cols), out


def _admitted_block(m: Metric, j: Jet2, v: Vec3):
    """<X, v> and E, F, G, W2 of a block; _Masked if the pointwise API rejects a cell.

    The cells of both singular_residual and _energy_cell: on the halfspace,
    |W2| clearing the regularity floor and, in L^3, spacelike.  Where the
    floor passes W2 is finite and nonzero, so not W2 > 0 is W2 < 0 there.
    """
    q = inner(m, j.X, v)
    E, F, G, W2 = _first_form(m, j.Xs, j.Xt)
    bad = np.logical_or(_off_halfspace(m, q, j.X),
                        np.logical_not(_clears_floor(abs(W2), _form_floor(E, G))))
    if m is Metric.LORENTZIAN:
        bad = np.logical_or(bad, np.logical_not(W2 > 0.0))
    if np.any(bad):
        raise _Masked
    return q, E, F, G, W2


def _residual_block(m: Metric, j: Jet2, v: Vec3, alpha: float,
                    shape: tuple[int, int]) -> np.ndarray:
    q, E, F, G, W2 = _admitted_block(m, j, v)
    return np.broadcast_to(_residual(m, alpha, q, E, F, G, W2, j, v), shape)


def singular_residual_grid(m: Metric, surf: ParamSurface, S: np.ndarray, T: np.ndarray,
                           v: Vec3, alpha: float) -> np.ndarray:
    """:func:`singular_residual` on the product grid of S and T, as an (ns, nt) array.

    Bitwise equal to the pointwise residual at every cell.  The first cell in
    row-major order that the pointwise residual rejects raises its exception,
    with ``cell = (s, t)`` set on it.
    """
    require_unit_direction(m, v)
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
    out = np.empty((len(S), len(T)))
    for block, R in _blocks(
            S, T, lambda rows, cols: _residual_block(m, surf.grid_jets(S[rows], T[cols]), v,
                                                     alpha, out[rows, cols].shape),
            lambda s, t: singular_residual(m, surf, s, t, v, alpha)):
        out[block] = R
    return out


# The coefficient oracle's cleared-denominator residual
#   D = <X,v> [G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) + E(Xs,Xt,Xtt)] - eps alpha (EG - F^2) (Xs,Xt,v)
# is taken where <X,v> > 0 (Euclidean), or |<X,v>_L| > 1e-9 (1 + max|X|) at a
# spacelike point (Lorentzian), and |EG - F^2| is not below the regularity floor.

def cleared_residual(m: Metric, j: Jet2, v: Vec3, alpha: float) -> float | None:
    """D at one jet of Vec3s, or None where it is not taken."""
    taken, D = cleared_residual_cells(m, j, v, alpha)
    return D if taken else None


def cleared_residual_cells(m: Metric, j: Jet2, v: Vec3, alpha: float):
    """(taken, D) at every cell of a jet: of Vec3s at one cell, or of _V arrays at many.

    Fields that do not vary over the cells may be Vec3s.  taken is False
    where D is not taken; D is not used there.  The masks are np.logical_*,
    since ~ of a Python bool is an int.
    """
    q = inner(m, j.X, v)
    E, F, G, W2 = _first_form(m, j.Xs, j.Xt)
    if m is Metric.EUCLIDEAN:
        skip = q <= 0.0
    else:
        # not (W2 > 0) is <N,N>_L != -1, NaN included
        skip = np.logical_or(abs(q) <= 1e-9 * (1.0 + _max_abs(j.X)), np.logical_not(W2 > 0.0))
    return (np.logical_and(np.logical_not(skip), _clears_floor(abs(W2), _form_floor(E, G))),
            _cleared(m, alpha, q, E, F, G, W2, j, v))


def grid_points(surf: ParamSurface, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Surface points on the product grid of S and T, stacked as an (ns, nt, 3) array."""
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
    out = np.empty((len(S), len(T), 3))
    for (rows, cols), X in _blocks(S, T, lambda rows, cols: surf.grid_jets(S[rows], T[cols]).X,
                                   lambda s, t: surf.jet(s, t)):
        for k, c in enumerate(X):
            out[rows, cols, k] = c
    return out


def _trapezoid_nodes(a: float, b: float, n: int) -> tuple[list[float], list[float]]:
    if n < 2:
        raise ValueError("need at least 2 quadrature nodes per axis")
    h = (b - a) / (n - 1)
    xs = [a + i * h for i in range(n)]
    ws = [h] * n
    ws[0] = 0.5 * h
    ws[-1] = 0.5 * h
    return xs, ws


def _quadrature(surf: ParamSurface, grid: tuple[int, int]):
    """Trapezoid nodes S, T and the weight of each (s, t) node pair."""
    s0, s1, t0, t1 = surf.domain
    s_nodes, s_w = _trapezoid_nodes(s0, s1, grid[0])
    t_nodes, t_w = _trapezoid_nodes(t0, t1, grid[1])
    return np.array(s_nodes), np.array(t_nodes), np.array(s_w)[:, None] * np.array(t_w)


def _energy_block(m: Metric, j: Jet2, v: Vec3, alpha: float, W: np.ndarray) -> np.ndarray:
    """Energy terms of a block, in row-major order."""
    q, _, _, _, W2 = _admitted_block(m, j, v)
    q, W2 = np.broadcast_to(q, W.shape), np.broadcast_to(W2, W.shape)
    return _energy_term(m, W, q, W2, alpha, power_each, np.sqrt).ravel()


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., left to right (np.sum would sum pairwise)."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def potential_energy(m: Metric, surf: ParamSurface, v: Vec3, alpha: float,
                     grid: tuple[int, int] = (64, 64)) -> float:
    """Trapezoid quadrature of <X,v>^alpha * sqrt|EG - F^2| over the domain.

    In the Lorentzian signature the surface must be spacelike on the grid and
    |<X,v>_L|^alpha is integrated (the position inner product may be of either
    sign away from zero).  Terms are added in row-major node order.
    """
    require_unit_direction(m, v)
    S, T, W = _quadrature(surf, grid)
    total = 0.0
    for _, terms in _blocks(
            S, T, lambda rows, cols: _energy_block(m, surf.grid_jets(S[rows], T[cols]), v, alpha,
                                                   W[rows, cols]),
            lambda s, t: _energy_cell(m, surf, s, t, v, alpha)):
        total = _add_in_order(total, terms)
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

    Both energies are taken on one array pass over the stencil points, which
    shares the base jets, normals and bump values.  If that pass meets any
    cell the pointwise definition rejects, the two energies are taken again
    on two surfaces whose grid evaluator is the same perturbation, and the
    first rejected cell raises as it would there.
    """
    require_unit_direction(m, v)
    fd_h = _fd_step(surf.domain)
    try:
        with np.errstate(all="ignore"):
            e_plus, e_minus = _variation_energies(m, surf, v, alpha, bump, h, grid, fd_h)
    except (_Masked, *_CELL_ERRORS):
        def perturbed(scale: float) -> ParamSurface:
            return ParamSurface.exact(surf.domain, grid_fn=lambda S, T: _fd_stencils(
                _normal_perturbation(m, surf, bump, S, T, fd_h)(scale), fd_h))

        e_plus, e_minus = (potential_energy(m, perturbed(sign * h), v, alpha, grid=grid)
                           for sign in (1.0, -1.0))
    return (e_plus - e_minus) / (2.0 * h)


def _normal_perturbation(m: Metric, surf: ParamSurface, bump, S: np.ndarray, T: np.ndarray,
                         fd_h: float):
    """scale -> the points X + scale*bump*N on the stencil grid of the nodes S x T, as (3, 5ns, 5nt).

    Base jets, unit normals and bump values are evaluated once for every scale;
    as in :func:`unit_normal`, only |Xs x Xt|^2 below its floor raises DegenerateMetric.
    """
    S5, T5 = _stencil_axis(S, fd_h), _stencil_axis(T, fd_h)
    base = surf._grid_jets(S5, T5)
    c, n2, floor = _normal_parts(m, base.Xs, base.Xt)
    if not np.all(_clears_floor(n2, floor)):
        raise DegenerateMetric("normal direction degenerates")
    r = np.sqrt(n2)
    B = np.array([[bump(s, t) for t in T5.tolist()] for s in S5.tolist()], dtype=float)

    def points(scale: float) -> np.ndarray:
        a = scale * B
        return np.stack([x + (n / r) * a for x, n in zip(base.X, c)])

    return points


def _variation_energies(m: Metric, surf: ParamSurface, v: Vec3, alpha: float, bump,
                        h: float, grid: tuple[int, int], fd_h: float) -> list[float]:
    """E(X + h bump N) and E(X - h bump N) on arrays; raises on any rejected cell."""
    S, T, W = _quadrature(surf, grid)
    totals = [0.0, 0.0]
    step = max(1, GRID_BLOCK // (25 * len(T)))
    for i in range(0, len(S), step):
        points = _normal_perturbation(m, surf, bump, S[i:i + step], T, fd_h)
        for k, sign in enumerate((1.0, -1.0)):
            P = points(sign * h)
            if not np.isfinite(P).all():
                raise ValueError("non-finite perturbed point")
            terms = _energy_block(m, _fd_stencils(P, fd_h), v, alpha, W[i:i + step])
            totals[k] = _add_in_order(totals[k], terms)
    return totals
