"""Jets, fundamental forms, curvature, residuals, energy, first variation."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from singular_geom import catenary as cat
from singular_geom.algebra import Metric, Vec3, inner
from singular_geom.errors import DegenerateMetric, HalfspaceViolation, NotSpacelike, OutOfDomain
from singular_geom.surface import (
    Jet2,
    ParamSurface,
    _V,
    cleared_residual,
    cleared_residual_cells,
    first_variation,
    fundamental_forms,
    jet,
    mean_curvature,
    potential_energy,
    singular_residual,
    unit_normal,
)

E = Metric.EUCLIDEAN
L = Metric.LORENTZIAN
EZ = Vec3(0, 0, 1)

ZERO = Vec3(0, 0, 0)


def plane_jet(s, t):
    return Jet2(Vec3(s, t, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), ZERO, ZERO, ZERO)


def sphere_jet(s, t):
    cs, ss, ct, st = math.cos(s), math.sin(s), math.cos(t), math.sin(t)
    return Jet2(
        Vec3(cs * ct, ss * ct, st),
        Vec3(-ss * ct, cs * ct, 0.0),
        Vec3(-cs * st, -ss * st, ct),
        Vec3(-cs * ct, -ss * ct, 0.0),
        Vec3(ss * st, -cs * st, 0.0),
        Vec3(-cs * ct, -ss * ct, -st),
    )


def hyperboloid_jet(s, t):
    r = math.sqrt(1.0 + s * s + t * t)
    r3 = r ** 3
    return Jet2(
        Vec3(s, t, r),
        Vec3(1, 0, s / r),
        Vec3(0, 1, t / r),
        Vec3(0, 0, (1 + t * t) / r3),
        Vec3(0, 0, -s * t / r3),
        Vec3(0, 0, (1 + s * s) / r3),
    )


SPHERE = ParamSurface.exact((0.0, 2 * math.pi, 0.15, 1.35), sphere_jet)
HYPERBOLOID = ParamSurface.exact((-1.0, 1.0, -1.0, 1.0), hyperboloid_jet)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_exact_jet_passthrough():
    surf = ParamSurface.exact((-1, 1, -1, 1), plane_jet)
    j = jet(surf, 0.3, -0.2)
    assert j.Xss == ZERO and j.Xst == ZERO and j.Xtt == ZERO


def test_graph_jet_values():
    surf = ParamSurface.exact(
        (-2, 2, -2, 2),
        lambda s, t: Jet2(Vec3(s, t, s * s), Vec3(1, 0, 2 * s), Vec3(0, 1, 0),
                          Vec3(0, 0, 2), ZERO, ZERO),
    )
    j = jet(surf, 1.0, 0.0)
    assert j.Xss == Vec3(0, 0, 2)
    assert j.Xs == Vec3(1, 0, 2)


def test_fd_jet_matches_analytic():
    surf = ParamSurface.finite_difference(
        (-0.5, 0.5, -0.5, 0.5), lambda s, t: Vec3(s, t, math.sin(s)), h=1e-3
    )
    j = jet(surf, 0.0, 0.0)
    assert j.Xss.max_abs() <= 1e-8
    assert (j.Xs - Vec3(1, 0, 1)).max_abs() <= 1e-8


def test_jet_out_of_domain():
    surf = ParamSurface.exact((0, 1, 0, 1), plane_jet)
    with pytest.raises(OutOfDomain):
        jet(surf, 1.5, 0.5)
    fd = ParamSurface.finite_difference((0, 1, 0, 1), lambda s, t: Vec3(s, t, 0), h=0.01)
    with pytest.raises(OutOfDomain):
        jet(fd, 0.005, 0.5)  # inside the rectangle but within the 2h stencil margin
    jet(fd, 0.5, 0.5)


def test_fd_jet_overflow_raises_value_error_without_warning():
    # the pointwise jet is read from a one-point stencil grid: the stencil sums
    # overflow on numpy arrays, and the non-finite jet raises through Vec3; a
    # direct grid_jets call raises the same
    surf = ParamSurface.finite_difference(
        (0, 1, 0, 1), lambda s, t: Vec3(s, t, 1e307 * (1 + 30 * s * s)), h=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for get in (surf.jet, surf.jet_unchecked,
                    lambda s, t: surf.grid_jets(np.array([s]), np.array([t]))):
            with pytest.raises(ValueError, match="must be finite"):
                get(0.5, 0.5)


def test_fd_jets_fourth_order_convergence():
    # frequencies chosen so truncation dominates roundoff over the h range
    def point(s, t):
        return Vec3(s, t, math.sin(3.0 * s) * math.cos(2.0 * t))

    def exact(s, t):
        z = lambda a, b: math.sin(3.0 * a) * math.cos(2.0 * b)
        return Jet2(
            point(s, t),
            Vec3(1, 0, 3.0 * math.cos(3.0 * s) * math.cos(2.0 * t)),
            Vec3(0, 1, -2.0 * math.sin(3.0 * s) * math.sin(2.0 * t)),
            Vec3(0, 0, -9.0 * z(s, t)),
            Vec3(0, 0, -6.0 * math.cos(3.0 * s) * math.sin(2.0 * t)),
            Vec3(0, 0, -4.0 * z(s, t)),
        )

    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        surf = ParamSurface.finite_difference((-1, 1, -1, 1), point, h=h)
        worst = 0.0
        for s, t in [(0.2, 0.3), (-0.4, 0.1), (0.0, -0.5)]:
            je, jf = exact(s, t), surf.jet(s, t)
            for f in ("Xs", "Xt", "Xss", "Xst", "Xtt"):
                worst = max(worst, (getattr(je, f) - getattr(jf, f)).max_abs())
        errs.append(worst)
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 3.7


# ---------------------------------------------------------------------------
# forms, normal, curvature
# ---------------------------------------------------------------------------

def test_forms_plane():
    f = fundamental_forms(E, plane_jet(0.1, 0.7))
    assert (f.E, f.F, f.G) == (1.0, 0.0, 1.0)
    assert (f.e, f.f, f.g) == (0.0, 0.0, 0.0)


def test_forms_sphere_equator():
    f = fundamental_forms(E, sphere_jet(0.7, 0.0))
    assert abs(f.E - 1) < 1e-12 and abs(f.F) < 1e-12 and abs(f.G - 1) < 1e-12


def test_forms_spacelike_plane_lorentz():
    f = fundamental_forms(L, plane_jet(0.0, 0.0))
    assert f.eps == -1


def test_forms_degenerate():
    j = Jet2(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(2, 0, 0), ZERO, ZERO, ZERO)
    with pytest.raises(DegenerateMetric):
        fundamental_forms(E, j)


def test_unit_normal_examples():
    assert unit_normal(E, plane_jet(0, 0)) == Vec3(0, 0, 1)
    assert unit_normal(L, plane_jet(0, 0)) == Vec3(0, 0, -1)
    n = unit_normal(E, sphere_jet(0.0, 0.0))
    assert abs(abs(n.x) - 1) < 1e-12
    j = sphere_jet(0.4, 0.8)
    n = unit_normal(E, j)
    assert abs(inner(E, n, j.Xs)) < 1e-12 and abs(inner(E, n, j.Xt)) < 1e-12


def test_unit_normal_normalization_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s, t = rng.uniform(0.3, 1.2, size=2)
        n = unit_normal(E, sphere_jet(s, t))
        assert abs(inner(E, n, n) - 1.0) <= 1e-12
        nh = unit_normal(L, hyperboloid_jet(*(rng.uniform(-0.9, 0.9, size=2))))
        assert abs(inner(L, nh, nh) + 1.0) <= 1e-12


def test_mean_curvature_plane():
    assert mean_curvature(E, plane_jet(0.2, 0.4)) == 0.0


def test_mean_curvature_sphere():
    # |H| = 1; the sign is -1 under the Xs x Xt orientation (documented)
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0.2, 1.3)
        assert abs(abs(mean_curvature(E, sphere_jet(s, t))) - 1.0) < 1e-10


def test_mean_curvature_hyperboloid():
    rng = np.random.default_rng(5)
    fd = ParamSurface.finite_difference(
        (-1, 1, -1, 1), lambda s, t: Vec3(s, t, math.sqrt(1 + s * s + t * t))
    )
    for _ in range(20):
        s, t = rng.uniform(-0.8, 0.8, size=2)
        h_exact = mean_curvature(L, hyperboloid_jet(s, t))
        assert abs(abs(h_exact) - 1.0) < 1e-10
        h_fd = mean_curvature(L, fd.jet(s, t))
        assert abs(h_exact - h_fd) < 1e-7


def test_mean_curvature_rejects_timelike_surface():
    # the s-axis cylinder over a timelike direction: Xs = e3 makes E < 0
    j = Jet2(Vec3(0, 0, 1), Vec3(0, 0, 1), Vec3(1, 0, 0), ZERO, ZERO, ZERO)
    with pytest.raises(NotSpacelike):
        mean_curvature(L, j)


# ---------------------------------------------------------------------------
# singular residual
# ---------------------------------------------------------------------------

def test_residual_vertical_plane():
    # plane containing the reference direction: H = 0 and <N, v> = 0
    surf = ParamSurface.exact((0, 1, 0.5, 1.5),
                              lambda s, t: Jet2(Vec3(s, 1, t), Vec3(1, 0, 0), Vec3(0, 0, 1),
                                                ZERO, ZERO, ZERO))
    for alpha in (-2.0, 0.0, 1.0, 3.5):
        assert singular_residual(E, surf, 0.3, 1.0, EZ, alpha) == 0.0


def test_residual_catenary_cylinder():
    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 1.0, 2.0, 5e-4)
    surf = cat.catenary_cylinder(path, EZ, Vec3(0, 1, 0))
    s0, s1, t0, t1 = surf.domain
    worst = max(
        abs(singular_residual(E, surf, s, t, EZ, 1.0))
        for s in np.linspace(s0, s1, 50)
        for t in np.linspace(t0, t1, 50)
    )
    assert worst <= 1e-6


def test_residual_sphere_with_matched_alpha():
    # N = +-X on the sphere makes alpha* = 2H<X,v>/<N,v> a constant
    v = EZ
    alphas = []
    for (s, t) in [(0.3, 0.5), (1.1, 0.9), (2.0, 0.4)]:
        j = sphere_jet(s, t)
        h = mean_curvature(E, j)
        n = unit_normal(E, j)
        alphas.append(2 * h * inner(E, j.X, v) / inner(E, n, v))
    assert max(alphas) - min(alphas) < 1e-12
    astar = alphas[0]
    for (s, t) in [(0.5, 0.7), (1.7, 1.1), (4.0, 0.3)]:
        assert abs(singular_residual(E, SPHERE, s, t, v, astar)) < 1e-12


def test_residual_requires_halfspace():
    surf = ParamSurface.exact((-1, 1, -1, 1), plane_jet)  # <X, e3> = 0
    with pytest.raises(HalfspaceViolation):
        singular_residual(E, surf, 0.0, 0.0, EZ, 1.0)


def test_residual_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        singular_residual(E, SPHERE, 0.3, 0.5, Vec3(0, 0, 2), 1.0)
    with pytest.raises(ValueError):
        singular_residual(L, HYPERBOLOID, 0.0, 0.0, Vec3(0, 0, 2), 1.0)


def test_residual_lorentz_requires_spacelike():
    with pytest.raises(NotSpacelike):
        singular_residual(L, SPHERE, 0.0, 0.3, EZ, 1.0)


# ---------------------------------------------------------------------------
# potential energy and first variation
# ---------------------------------------------------------------------------

def test_energy_flat_square():
    surf = ParamSurface.exact((0, 1, 0, 1),
                              lambda s, t: Jet2(Vec3(s, t, 1), Vec3(1, 0, 0), Vec3(0, 1, 0),
                                                ZERO, ZERO, ZERO))
    assert abs(potential_energy(E, surf, EZ, 2.7) - 1.0) < 1e-12
    surf_c = ParamSurface.exact((0, 1, 0, 1),
                                lambda s, t: Jet2(Vec3(s, t, 3.2), Vec3(1, 0, 0), Vec3(0, 1, 0),
                                                  ZERO, ZERO, ZERO))
    assert abs(potential_energy(E, surf_c, EZ, 1.4) - 3.2 ** 1.4) < 1e-12


def test_energy_linear_graph():
    surf = ParamSurface.exact((0, 1, 0, 1),
                              lambda s, t: Jet2(Vec3(s, t, s + 2), Vec3(1, 0, 1), Vec3(0, 1, 0),
                                                ZERO, ZERO, ZERO))
    assert abs(potential_energy(E, surf, EZ, 1.0) - 2.5 * math.sqrt(2)) < 1e-8


def test_energy_halfspace_violation():
    surf = ParamSurface.exact((-1, 1, -1, 1), plane_jet)
    with pytest.raises(HalfspaceViolation):
        potential_energy(E, surf, EZ, 1.0)


def test_energy_lorentz_requires_spacelike_grid():
    assert potential_energy(L, HYPERBOLOID, EZ, 1.0, grid=(16, 16)) > 0.0
    with pytest.raises(NotSpacelike):
        potential_energy(L, SPHERE, EZ, 1.0, grid=(8, 8))


def test_unit_normal_timelike_surface_has_spacelike_normal():
    # vertical plane spanned by e1, e3 is timelike; its normal is spacelike
    j = Jet2(Vec3(0, 1, 0), Vec3(1, 0, 0), Vec3(0, 0, 1), ZERO, ZERO, ZERO)
    n = unit_normal(L, j)
    assert abs(inner(L, n, n) - 1.0) <= 1e-12
    assert fundamental_forms(L, j).eps == 1


def _window_bump(s0, s1, t0, t1):
    def bump(s, t):
        return (math.sin(math.pi * (s - s0) / (s1 - s0)) ** 2
                * math.sin(math.pi * (t - t0) / (t1 - t0)) ** 2)

    return bump


def test_first_variation_plane_is_zero():
    surf = ParamSurface.exact((0, 1, 0.5, 1.5),
                              lambda s, t: Jet2(Vec3(s, 1, t), Vec3(1, 0, 0), Vec3(0, 0, 1),
                                                ZERO, ZERO, ZERO))
    bump = _window_bump(*surf.domain)
    for alpha in (1.0, 2.5):
        dE = first_variation(E, surf, EZ, alpha, bump, h=1e-3, grid=(24, 24))
        assert abs(dE) <= 1e-6


def test_first_variation_catenary_cylinder():
    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 1.0, 2.0, 1e-3)
    surf = cat.catenary_cylinder(path, EZ, Vec3(0, 1, 0))
    bump = _window_bump(*surf.domain)
    dE = first_variation(E, surf, EZ, 1.0, bump, h=1e-3, grid=(48, 48))
    assert abs(dE) <= 1e-5


def _variation_formula(surf, v, alpha, bump, grid):
    """Quadrature of bump * <X,v>^(alpha-1) (alpha <N,v> - 2 H <X,v>) dM."""
    s0, s1, t0, t1 = surf.domain
    ns, nt = grid
    sw = np.full(ns, (s1 - s0) / (ns - 1))
    sw[0] *= 0.5
    sw[-1] *= 0.5
    tw = np.full(nt, (t1 - t0) / (nt - 1))
    tw[0] *= 0.5
    tw[-1] *= 0.5
    total = 0.0
    for s, wi in zip(np.linspace(s0, s1, ns), sw):
        for t, wj in zip(np.linspace(t0, t1, nt), tw):
            j = surf.jet(float(s), float(t))
            q = inner(E, j.X, v)
            n = unit_normal(E, j)
            h = mean_curvature(E, j)
            Ef = inner(E, j.Xs, j.Xs)
            Ff = inner(E, j.Xs, j.Xt)
            Gf = inner(E, j.Xt, j.Xt)
            dM = math.sqrt(Ef * Gf - Ff * Ff)
            total += wi * wj * bump(s, t) * q ** (alpha - 1) * (
                alpha * inner(E, n, v) - 2.0 * h * q) * dM
    return total


def test_first_variation_matches_formula_on_nonsolution():
    surf = ParamSurface.exact((0, 1, 0, 1),
                              lambda s, t: Jet2(Vec3(s, t, 1 + t / 2), Vec3(1, 0, 0),
                                                Vec3(0, 1, 0.5), ZERO, ZERO, ZERO))
    bump = _window_bump(*surf.domain)
    grid = (64, 64)
    dE = first_variation(E, surf, EZ, 1.0, bump, h=1e-4, grid=grid)
    oracle = _variation_formula(surf, EZ, 1.0, bump, grid)
    assert abs(dE) > 1e-3
    assert abs(dE - oracle) <= 1e-5 * abs(oracle)


def test_first_variation_formula_link_random_graphs():
    # numeric variation agrees with the curvature integrand to 1e-4 relative
    rng = np.random.default_rng(9)
    for _ in range(3):
        a, b, c = rng.uniform(-0.3, 0.3, size=3)

        def point_jet(s, t, a=a, b=b, c=c):
            z = 1.5 + a * s + b * t + c * s * t
            return Jet2(Vec3(s, t, z), Vec3(1, 0, a + c * t), Vec3(0, 1, b + c * s),
                        ZERO, Vec3(0, 0, c), ZERO)

        surf = ParamSurface.exact((0, 1, 0, 1), point_jet)
        bump = _window_bump(*surf.domain)
        alpha = float(rng.uniform(0.5, 2.0))
        grid = (48, 48)
        dE = first_variation(E, surf, EZ, alpha, bump, h=1e-4, grid=grid)
        oracle = _variation_formula(surf, EZ, alpha, bump, grid)
        assert abs(dE - oracle) <= 1e-4 * max(abs(oracle), 1e-6)


def _hand_jet(X=(0.5, 0.25, 2.0), Xs=(1.0, 0.0, 0.25), Xt=(0.0, 1.0, 0.125)):
    """A jet of dyadic components, whose cleared residual floats compute exactly."""
    return Jet2(Vec3(*X), Vec3(*Xs), Vec3(*Xt), Vec3(0.0, 0.0, 0.5), Vec3(0.0, 0.0, 0.125),
                Vec3(0.0, 0.0, -0.25))


def _exact_cleared_residual(m, j, v, alpha):
    """D = <X,v> [G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) + E(Xs,Xt,Xtt)] - eps alpha W2 (Xs,Xt,v), in Fractions."""
    def fr(u):
        return [Fraction(c) for c in u.as_tuple()]

    def dot(u, w):
        return u[0] * w[0] + u[1] * w[1] + (u[2] * w[2] if m is E else -u[2] * w[2])

    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    X, Xs, Xt, Xss, Xst, Xtt, w = map(fr, (j.X, j.Xs, j.Xt, j.Xss, j.Xst, j.Xtt, v))
    e, f, g = dot(Xs, Xs), dot(Xs, Xt), dot(Xt, Xt)
    bracket = g * det(Xs, Xt, Xss) - 2 * f * det(Xs, Xt, Xst) + e * det(Xs, Xt, Xtt)
    eps = 1 if m is E else -1
    return dot(X, w) * bracket - eps * Fraction(alpha) * (e * g - f * f) * det(Xs, Xt, w)


# (metric, jet, taken): each reason D is not taken, and cells just inside
_CLEARED_CASES = [
    (E, _hand_jet(), True),
    (L, _hand_jet(), True),
    (E, _hand_jet(X=(0.5, 0.25, 0.0)), False),  # <X,v> = 0
    (E, _hand_jet(X=(0.5, 0.25, -1.0)), False),  # <X,v> < 0
    (L, _hand_jet(X=(0.5, 0.25, 1e-9)), False),  # |<X,v>_L| below 1e-9 (1 + max|X|)
    (L, _hand_jet(X=(0.5, 0.25, 2e-9)), True),  # and above it
    (E, _hand_jet(Xt=(1.0, 0.0, 0.25)), False),  # Xt = Xs: |EG - F^2| = 0
    (L, _hand_jet(Xt=(1.0, 0.0, 0.25)), False),
    (L, _hand_jet(Xt=(0.0, 1.0, 2.0)), False),  # timelike Xt: W2 < 0
    (E, _hand_jet(Xt=(0.0, 1.0, 2.0)), True),
    (L, _hand_jet(Xs=(1e200, 0.0, 0.0), Xt=(1e200, 1.0, 0.0)), False),  # W2 = inf - inf
]


def test_cleared_residual_takes_d_where_and_only_where_it_applies():
    alpha = 1.5
    for m, j, taken in _CLEARED_CASES:
        D = cleared_residual(m, j, EZ, alpha)
        assert (D is not None) is taken, (m, j)
        if taken and j.X.z >= 1.0:
            assert D == _exact_cleared_residual(m, j, EZ, alpha), (m, j)
    # the same cells on _V arrays: the same mask, and the same bits where taken
    for metric in (E, L):
        jets = [j for m, j, _ in _CLEARED_CASES if m is metric]
        fields = [[getattr(j, f).as_tuple() for j in jets]
                  for f in ("X", "Xs", "Xt", "Xss", "Xst", "Xtt")]
        with np.errstate(all="ignore"):
            taken, D = cleared_residual_cells(metric, Jet2(*(_V(*np.array(f).T) for f in fields)),
                                              EZ, alpha)
        for k, j in enumerate(jets):
            one = cleared_residual(metric, j, EZ, alpha)
            assert bool(taken[k]) is (one is not None)
            if one is not None:
                assert repr(float(D[k])) == repr(one)
