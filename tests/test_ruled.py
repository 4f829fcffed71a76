"""Ruled surfaces: frames, coefficient polynomials, normalization, sweep."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from singular_geom import catenary as cat
from singular_geom import curves, frames, ruled
from singular_geom.algebra import Metric, Vec3, cross, inner, triple
from singular_geom.curves import Curve, fd1, line_curve
from singular_geom.errors import (
    ConfigError,
    CylindricalInput,
    NonSpacelikeInput,
    NotNormalized,
    ZeroDirection,
    ZeroQ,
)
from singular_geom.ruled import (
    DirectorClass,
    RuledSurface,
    SweepConfig,
    coefficients,
    default_t_samples,
    falsification_sweep,
    frame,
    helicoid,
    lightlike_reference,
    make_cylinder,
    normalize_euclidean,
    normalize_lorentz,
    random_euclidean_ruled,
    random_lightlike_ruled,
    random_lorentz_ruled,
    random_prenormalization_input,
    random_unit_timelike,
    random_unit_vector,
    residual_polynomial_consistency,
    sweep_surface,
    translate_into_halfspace,
    verify_normalization,
)
from singular_geom.ruled import _halfspace_window
from singular_geom.surface import _V, require_unit_direction, singular_residual

E = Metric.EUCLIDEAN
L = Metric.LORENTZIAN
EZ = Vec3(0, 0, 1)

HELIX_DIRECTOR = Curve(
    lambda s: Vec3(math.cos(s), math.sin(s), 0.0),
    lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
    lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0),
)


# ---------------------------------------------------------------------------
# helicoid frame and coefficients
# ---------------------------------------------------------------------------

def test_helicoid_frame_values():
    h = helicoid(0.7)
    for s in (0.5, 1.0, 2.0):
        fr = frame(h, s)
        assert abs(fr.P - 0.7) < 1e-12
        assert abs(fr.Q) < 1e-12


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_helicoid_coefficients_hand_values(c, alpha):
    h = helicoid(c)
    for s in (0.4, 1.3):
        cv = coefficients(h, s, EZ, alpha)
        expected = (0.0, -alpha * c * c, 0.0, -alpha)
        assert max(abs(a - e) for a, e in zip(cv.A, expected)) <= 1e-9


def test_helicoid_alpha_zero_coefficients_vanish():
    cv = coefficients(helicoid(1.0), 1.0, EZ, 0.0)
    assert cv.max_abs() <= 1e-9


def test_coefficients_linear_in_direction():
    rng = np.random.default_rng(0)
    rs = random_euclidean_ruled(rng)
    v = random_unit_vector(rng)
    a = coefficients(rs, 1.0, v, 1.7).A
    b = coefficients(rs, 1.0, -1.0 * v, 1.7).A
    assert max(abs(x + y) for x, y in zip(a, b)) <= 1e-12


def test_frame_of_cylinder_raises():
    base = cat.plane_curve(cat.integrate(cat.CatenaryState(0, 1, 0, 0), 1.0, 1.0, 1e-3),
                           EZ, Vec3(0, 1, 0))
    cyl = make_cylinder(base, Vec3(0, 1, 0), E)
    with pytest.raises(NotNormalized):
        frame(cyl, 0.5)


def test_make_cylinder_zero_direction():
    with pytest.raises(ZeroDirection):
        make_cylinder(line_curve(Vec3(1, 0, 0), Vec3(0, 0, 1)), Vec3(0, 0, 0), E)


def test_circular_cylinder_not_singular_minimal():
    circle = Curve(
        lambda s: Vec3(math.sin(s), 0.0, 2.0 + math.cos(s)),
        lambda s: Vec3(math.cos(s), 0.0, -math.sin(s)),
        lambda s: Vec3(-math.sin(s), 0.0, -math.cos(s)),
    )
    cyl = make_cylinder(circle, Vec3(0, 1, 0), E)
    surf = cyl.as_param_surface((-1.0, 1.0))
    vals = [abs(singular_residual(E, surf, s, 0.2, EZ, 1.0)) for s in (0.1, 0.5, 0.9)]
    assert max(vals) > 1e-2


def test_make_cylinder_line_base_is_plane():
    line = line_curve(Vec3(0, 0, 1), Vec3(0.2, 0, 1.0))
    plane = make_cylinder(line, Vec3(0, 1, 0), E)
    surf = plane.as_param_surface((-1.0, 1.0))
    for alpha in (0.0, 1.0, 2.0):
        assert abs(singular_residual(E, surf, 0.3, 0.4, EZ, alpha)) < 1e-12


def test_catenary_cylinder_two_representations_agree():
    path = cat.integrate(cat.CatenaryState(0, 1, 0, 0), 1.0, 2.0, 5e-4)
    base = cat.plane_curve(path, EZ, Vec3(0, 1, 0))
    cyl = make_cylinder(base, Vec3(0, 1, 0), E, s_range=(0.0, 2.0))
    ruled_rep = cyl.as_param_surface((-1.0, 1.0))
    direct_rep = cat.catenary_cylinder(path, EZ, Vec3(0, 1, 0))
    for s in np.linspace(0.1, 1.9, 9):
        for t in (-0.7, 0.2, 0.9):
            r1 = singular_residual(E, ruled_rep, s, t, EZ, 1.0)
            r2 = singular_residual(E, direct_rep, s, t, EZ, 1.0)
            assert abs(r1 - r2) <= 1e-12
            assert abs(r1) <= 1e-5  # D vanishes for the exact solution


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_euclidean_helicoid_identity():
    axis = Curve(lambda s: Vec3(0, 0, s), lambda s: Vec3(0, 0, 1), lambda s: Vec3(0, 0, 0))
    rs = normalize_euclidean(axis, HELIX_DIRECTOR, (0.0, 2.0))
    assert rs.normalized
    # the slide is identically zero: the base comes back unchanged
    for s in (0.2, 1.0, 1.8):
        assert (rs.base.value(s) - Vec3(0, 0, s)).max_abs() < 1e-12


def test_normalize_euclidean_shifted_base():
    shifted = Curve(
        lambda s: Vec3(math.cos(s), math.sin(s), s),
        lambda s: Vec3(-math.sin(s), math.cos(s), 1.0),
        lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0),
    )
    rs = normalize_euclidean(shifted, HELIX_DIRECTOR, (0.0, 2.0))
    assert verify_normalization(rs) <= 1e-9


def test_normalize_euclidean_value_only_input():
    shifted = Curve(lambda s: Vec3(math.cos(s), math.sin(s), s))
    rs = normalize_euclidean(shifted, HELIX_DIRECTOR, (0.0, 2.0))
    assert verify_normalization(rs) <= 1e-9


def test_normalize_euclidean_rejects_cylinder():
    axis = Curve(lambda s: Vec3(0, 0, s), lambda s: Vec3(0, 0, 1), lambda s: Vec3(0, 0, 0))
    const_w = Curve(lambda s: Vec3(1, 0, 0), lambda s: Vec3(0, 0, 0), lambda s: Vec3(0, 0, 0))
    with pytest.raises(CylindricalInput):
        normalize_euclidean(axis, const_w, (0.0, 2.0))


def test_normalize_euclidean_rejects_conoid():
    # a ruled surface whose striction curve is not orthogonal to the rulings
    conoid_base = Curve(lambda s: Vec3(math.cos(s), 0.0, s))
    with pytest.raises(NotNormalized):
        normalize_euclidean(conoid_base, HELIX_DIRECTOR, (0.0, 2.0))


def test_normalize_lorentz_fixed_point_on_normalized_input():
    rng = np.random.default_rng(21)
    rs = random_lorentz_ruled(rng, -1)
    out = normalize_lorentz(rs.base, rs.director, -1, rs.s_range)
    for s in out.s_samples(9):
        assert (out.base.value(s) - rs.base.value(s)).max_abs() <= 1e-8


@pytest.mark.parametrize("delta", [1, -1])
def test_normalize_lorentz_random_inputs(delta):
    from singular_geom.curves import fd1

    rng = np.random.default_rng(100 + delta)
    for _ in range(4):
        base, director, s_range = random_prenormalization_input(rng, delta)
        rs = normalize_lorentz(base, director, delta, s_range)
        for s in rs.s_samples(20):
            gp = fd1(rs.base.value, s, 1e-4)
            assert abs(inner(L, gp, rs.director.value(s))) <= 1e-8
            assert abs(inner(L, gp, rs.director.d1(s))) <= 1e-8


def test_normalize_lorentz_rejects_bad_director():
    axis = Curve(lambda s: Vec3(s, 0, 0), lambda s: Vec3(1, 0, 0), lambda s: Vec3(0, 0, 0))
    wrong = Curve(lambda s: Vec3(0, 2, 0), lambda s: Vec3(0, 0, 0), lambda s: Vec3(0, 0, 0))
    with pytest.raises(NonSpacelikeInput):
        normalize_lorentz(axis, wrong, 1, (0.0, 1.0))


def test_normalize_lorentz_singular_system_breaks_down():
    from singular_geom.errors import ODEBreakdown

    # g1' = w' makes f3 = <g1, w'>_L vanish identically while f2 = 1, so the
    # algebraic equation for y1' has no solution
    director = Curve(
        lambda s: Vec3(math.cos(s), math.sin(s), 0.0),
        lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
        lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0),
    )
    base = Curve(
        lambda s: Vec3(math.cos(s), math.sin(s), 2.0),
        lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
        lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0),
    )
    with pytest.raises(ODEBreakdown):
        normalize_lorentz(base, director, 1, (0.0, 1.0))


def test_verify_normalization_reports_a_nan_relation():
    # <w,w>_L = 1e400 - 1e400 overflows to inf - inf = NaN, which max() alone passes over
    zero = Vec3(0.0, 0.0, 0.0)
    director = Curve(lambda s: Vec3(1e200, 0.0, 1e200), lambda s: Vec3(0.0, 1.0, 0.0),
                     lambda s: zero)
    base = Curve(lambda s: zero, lambda s: zero, lambda s: zero)
    rs = RuledSurface.build(base, director, (0.0, 1.0), L, DirectorClass.LORENTZ_NONDEGENERATE,
                            delta=1)
    assert verify_normalization(rs) == math.inf
    assert not rs.normalized


# ---------------------------------------------------------------------------
# frame identities on random surfaces
# ---------------------------------------------------------------------------

def test_frame_identities_euclid():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rs = random_euclidean_ruled(rng)
        for s in rs.s_samples(40):
            fr = frame(rs, s)
            gp = rs.base.d1(s)
            wpp = rs.director.d2(s)
            wxwp = cross(E, fr.w, fr.wp)
            assert (gp - fr.P * wxwp).max_abs() <= 1e-8
            assert (wpp + fr.w - fr.Q * wxwp).max_abs() <= 1e-8
            assert (cross(E, gp, fr.w) - fr.P * fr.wp).max_abs() <= 1e-8


def _curves_of(rs):
    return rs.base, rs.director, rs.s_range


@pytest.mark.parametrize("make", [
    pytest.param(lambda rng: _curves_of(random_euclidean_ruled(rng)), id="euclid"),
    pytest.param(lambda rng: _curves_of(random_lorentz_ruled(rng, 1)), id="lorentz+1"),
    pytest.param(lambda rng: _curves_of(random_lorentz_ruled(rng, -1)), id="lorentz-1"),
    pytest.param(lambda rng: random_prenormalization_input(rng, 1), id="prenorm+1"),
    pytest.param(lambda rng: random_prenormalization_input(rng, -1), id="prenorm-1"),
])
def test_frame_ode_curve_derivatives_match_differences(make):
    """Each derivative read off a frame-ODE table is the derivative of the one below."""
    rng = np.random.default_rng(17)
    for _ in range(2):
        base, director, (a, b) = make(rng)
        for s in np.linspace(a, b, 11)[1:-1]:
            for curve in (base, director):
                assert (curve.d1(s) - fd1(curve.value, s)).max_abs() <= 1e-7
                assert (curve.d2(s) - fd1(curve.d1, s)).max_abs() <= 1e-7


def _reference_euclidean_ruled(rng, s_len=2.0, n_steps=1024):
    """random_euclidean_ruled with its own frame ODE, as before the generators shared one."""
    omega = 2.0 * math.pi / s_len
    Q = ruled._fourier(rng, (0.1, 1.0), 0.9, omega)
    P = ruled._fourier(rng, (0.8, 1.5), 0.4, omega)
    coeffs = curves.series_at(Q, P)
    w0 = random_unit_vector(rng)
    raw = random_unit_vector(rng)
    proj = raw - inner(E, raw, w0) * w0
    wp0 = proj / math.sqrt(inner(E, proj, proj))
    g0 = rng.normal(scale=0.5, size=3)

    def rhs(s, y):
        w, wp = y[0:3], y[3:6]
        c = cross(E, _V(*w), _V(*wp))
        q, p = coeffs(s)
        return (wp[0], wp[1], wp[2],
                -w[0] + q * c[0], -w[1] + q * c[1], -w[2] + q * c[2],
                p * c[0], p * c[1], p * c[2])

    def g_d2(s, y):
        c = cross(E, _V(*y[0:3]), _V(*y[3:6]))
        (q, p), pp = coeffs(s), P.deriv(s)
        return Vec3(pp * c[0] - p * q * y[3], pp * c[1] - p * q * y[4],
                    pp * c[2] - p * q * y[5])

    table = curves.DenseODE(rhs, 0.0, s_len, (*w0.as_tuple(), *wp0.as_tuple(), *g0), n_steps)
    base, director = ruled._frame_curves(table, rhs, g_d2=g_d2)
    return RuledSurface(base, director, (0.0, s_len), E, DirectorClass.EUCLID_STANDARD,
                        normalized=True)


def _reference_lorentz_ruled(rng, delta, s_len=2.0, n_steps=1024):
    """random_lorentz_ruled with its own frame ODE, as before the generators shared one."""
    half = 0.5 * s_len
    omega = 2.0 * math.pi / s_len
    Q = ruled._fourier(rng, (0.1, 0.45), 0.7, omega)
    P = ruled._fourier(rng, (0.8, 1.5), 0.4, omega)
    coeffs = curves.series_at(Q, P)
    T, S1, S2 = ruled._lorentz_triad(rng)
    w0, wp0 = S1, (S2 if delta == 1 else T)
    g0 = rng.normal(scale=0.5, size=3)
    d = float(delta)

    def rhs(s, y):
        w, wp = y[0:3], y[3:6]
        c = cross(L, _V(*w), _V(*wp))
        q, p = coeffs(s)
        return (wp[0], wp[1], wp[2],
                -d * (w[0] + q * c[0]), -d * (w[1] + q * c[1]), -d * (w[2] + q * c[2]),
                -d * p * c[0], -d * p * c[1], -d * p * c[2])

    def g_d2(s, y):
        c = cross(L, _V(*y[0:3]), _V(*y[3:6]))
        (q, p), pp = coeffs(s), P.deriv(s)
        return Vec3(-d * pp * c[0] + p * q * y[3], -d * pp * c[1] + p * q * y[4],
                    -d * pp * c[2] + p * q * y[5])

    table = curves.CenteredODE(rhs, half, (*w0.as_tuple(), *wp0.as_tuple(), *g0), n_steps)
    base, director = ruled._frame_curves(table, rhs, g_d2=g_d2)
    return RuledSurface(base, director, (-half, half), L,
                        DirectorClass.LORENTZ_NONDEGENERATE, delta=delta, normalized=True)


@pytest.mark.parametrize("make,reference", [
    pytest.param(random_euclidean_ruled, _reference_euclidean_ruled, id="euclid"),
    pytest.param(lambda rng: random_lorentz_ruled(rng, 1),
                 lambda rng: _reference_lorentz_ruled(rng, 1), id="lorentz+1"),
    pytest.param(lambda rng: random_lorentz_ruled(rng, -1),
                 lambda rng: _reference_lorentz_ruled(rng, -1), id="lorentz-1"),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_frame_ode_matches_separate_generators_bitwise(make, reference, seed,
                                                               monkeypatch):
    """Folding the class signs into Q and P changes no bit of a sweep surface."""
    built = []

    class RecordingODE(curves.DenseODE):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # CenteredODE builds its halves through curves.DenseODE
    monkeypatch.setattr(curves, "DenseODE", RecordingODE)
    monkeypatch.setattr(ruled, "DenseODE", RecordingODE)

    def fingerprint(rs):
        rng = np.random.default_rng(100 + seed)
        v = random_unit_vector(rng) if rs.metric is E else random_unit_timelike(rng)
        alpha = rng.uniform(-3.0, 3.0)
        return [repr((frame(rs, s), coefficients(rs, s, v, alpha),
                      rs.base.jet(s), rs.director.jet(s))) for s in rs.s_samples(16)]

    rs = make(np.random.default_rng(seed))
    nodes, built[:] = [t.nodes.tobytes() for t in built], []
    ref = reference(np.random.default_rng(seed))
    ref_nodes = [t.nodes.tobytes() for t in built]
    assert len(nodes) == len(ref_nodes) >= 1
    assert nodes == ref_nodes
    assert fingerprint(rs) == fingerprint(ref)


_DRAWS = {
    "euclid": ruled._draw_euclidean,
    "lorentz+1": lambda rng: ruled._draw_lorentz(rng, 1),
    "lorentz-1": lambda rng: ruled._draw_lorentz(rng, -1),
    "lightlike": ruled._draw_lightlike,
}


def _scalar_table(d, rhs, n_steps=ruled.SWEEP_STEPS):
    """A draw's table stepped one scalar RK4 step at a time, as before batch builds."""
    half = 0.5 * ruled.SWEEP_S_LEN
    if d.director_class is DirectorClass.EUCLID_STANDARD:
        return curves.DenseODE(rhs, 0.0, ruled.SWEEP_S_LEN, d.y0, n_steps)
    if d.director_class is DirectorClass.LORENTZ_NONDEGENERATE:
        return curves.CenteredODE(rhs, half, d.y0, n_steps)
    return curves.DenseODE(rhs, -half, half, d.y0, n_steps)


def _scalar_surface(d):
    rhs, g_d2 = d.ode()
    return ruled._surface(d, _scalar_table(d, rhs), rhs, g_d2)


def _halves(table):
    return (table.fwd, table.bwd) if isinstance(table, curves.CenteredODE) else (table,)


def _bits(values):
    return np.array(list(values), dtype=float).tobytes()


@pytest.mark.parametrize("size", sorted({1, 2, 3, 4, 8, *ruled._MIN_BATCH.values(),
                                         ruled.SWEEP_CHUNK, ruled.SWEEP_CHUNK + 1}))
@pytest.mark.parametrize("klass", list(_DRAWS))
def test_batch_build_matches_scalar_tables_bitwise(klass, size):
    rng = np.random.default_rng(1000 + size)
    draws = [_DRAWS[klass](rng) for _ in range(size)]
    odes = [d.ode() for d in draws]
    tables = ruled._build_tables(draws, [rhs for rhs, _ in odes], ruled.SWEEP_STEPS)
    assert len(tables) == size
    for d, table, (rhs, g_d2) in zip(draws, tables, odes):
        ref_rhs, ref_g_d2 = d.ode()
        ref_table = _scalar_table(d, ref_rhs)
        for row, ref in zip(_halves(table), _halves(ref_table)):
            assert (row.s0, row.s1, row.h) == (ref.s0, ref.s1, ref.h)
            assert _bits(row.nodes) == _bits(ref.nodes)
            lo, hi = sorted((ref.s0, ref.s1))
            pad = curves.OVERHANG * (hi - lo)
            # nodes, between nodes, both ends and both overhangs
            for s in [lo, hi, 0.5 * (lo + hi), lo + 7 * abs(ref.h), lo + 0.3 * (hi - lo) / 7,
                      hi - 0.25 * abs(ref.h), lo - 0.5 * pad, hi + pad]:
                assert _bits(row.state_at(s)) == _bits(ref.state_at(s)), s
                assert _bits(row.jet_at(s)) == _bits(ref.jet_at(s)), s
        batched = ruled._surface(d, table, rhs, g_d2)
        scalar = ruled._surface(d, ref_table, ref_rhs, ref_g_d2)
        v = random_unit_vector(rng) if batched.metric is E else random_unit_timelike(rng)
        for s in batched.s_samples(3):
            assert repr(frame(batched, s)) == repr(frame(scalar, s))
            assert repr(coefficients(batched, s, v, 1.5)) == repr(coefficients(scalar, s, v, 1.5))


@pytest.mark.parametrize("kind, n_series, params", [
    (frames._SWEEP_FRAME_RHS, 2, (-1.0, 1.0)), (frames._PRENORMALIZATION_RHS, 3, (-1.0, -1.0))])
def test_a_stacked_right_hand_side_is_each_bound_one_bitwise(kind, n_series, params):
    rng = np.random.default_rng(4100)
    series = [tuple(frames._fourier(rng, (0.1, 1.0), 0.7, math.pi) for _ in range(n_series))
              for _ in range(6)]
    S = rng.uniform(-1.0, 1.0, (5, 4))
    y = rng.normal(size=(9, 5, 4, len(series)))
    got = kind.bind_stack(series, *params)(S, y)
    for b, draw in enumerate(series):
        expected = kind.bind(draw, *params)(S, y[..., b])
        assert _bits(x[..., b].ravel() for x in got) == _bits(x.ravel() for x in expected)


def _assert_slopes_are_f_at_nodes(table):
    """Every stored node slope is f(s0 + i h, node i) bit for bit, the last node's too."""
    for half in _halves(table):
        expected = [half.f(half.s0 + i * half.h, tuple(node))
                    for i, node in enumerate(half.nodes.tolist())]
        assert half.slopes.tobytes() == np.array(expected, dtype=float).tobytes()


@pytest.mark.parametrize("size", sorted({1, 3, 4, 8, *ruled._MIN_BATCH.values(),
                                         ruled.SWEEP_CHUNK + 1}))
@pytest.mark.parametrize("klass", list(_DRAWS))
def test_tables_keep_the_slope_of_f_at_every_node(klass, size):
    rng = np.random.default_rng(2000 + size)
    draws = [_DRAWS[klass](rng) for _ in range(size)]
    tables = ruled._build_tables(draws, [d.ode()[0] for d in draws], ruled.SWEEP_STEPS)
    for table in tables:
        _assert_slopes_are_f_at_nodes(table)


# Bytes a batch build of 32 draws may hold besides its nodes/slopes block.  The
# build holds its Fourier coefficients, and the cross products that g's
# quadrature reads, for one _STEP_BLOCK of steps at a time: about 0.95 MiB
# (Euclidean) and 1.35 MiB (Lorentz, whose two table halves double the columns)
# at 64 steps.  Blocks of 128 steps would take 1.8 and 2.6 MiB.  The lightlike
# build holds g' at the stages of _LIGHTLIKE_STEP_BLOCK = 128 steps: about 0.9 MiB.
_BUILD_WORKING_BYTES = 1.5 * 2**20


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_batch_build_working_memory_stays_bounded(klass, monkeypatch):
    name = "_lightlike_nodes" if klass == "lightlike" else "_frame_nodes_batch"
    build, extra = getattr(frames, name), []

    def measured(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        nodes, slopes = build(*args)
        extra.append(tracemalloc.get_traced_memory()[1] - start - nodes.nbytes - slopes.nbytes)
        return nodes, slopes

    monkeypatch.setattr(ruled, name, measured)
    rng = np.random.default_rng(4000)
    draws = [_DRAWS[klass](rng) for _ in range(32)]
    tracemalloc.start()
    try:
        ruled._build_tables(draws, [d.ode()[0] for d in draws], ruled.SWEEP_STEPS)
    finally:
        tracemalloc.stop()
    assert len(extra) == 1
    assert 0 < extra[0] < _BUILD_WORKING_BYTES


def test_scalar_and_catenary_tables_keep_the_slope_of_f_at_every_node(monkeypatch):
    rhs, _ = _DRAWS["lorentz+1"](np.random.default_rng(5)).ode()
    y0 = (0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.3, -0.2, 0.5)
    # the backward table's h = -1.2/32 is not a power of two, and its s0 + 32 h rounds
    # apart from its last stage's s, s0 + 31 h + h
    tables = [curves.DenseODE(rhs, 0.0, 0.9, y0, 24), curves.DenseODE(rhs, 0.9, -0.3, y0, 32),
              curves.CenteredODE(rhs, 0.9, y0, 48)]
    back = tables[1]
    assert back.s0 + 32 * back.h != back.s0 + 31 * back.h + back.h
    built = []

    class Recording(curves.DenseODE):
        def _set_nodes(self, nodes, slopes):
            super()._set_nodes(nodes, slopes)
            built.append(self)

    monkeypatch.setattr(cat, "DenseODE", Recording)
    # an integrated path, and one that leaves the halfplane, keep the slopes of their
    # steps: plane_curve applies no f to them
    paths = [cat.integrate(cat.CatenaryState(0.0, 1.0, 0.2, 0.0), 3.0, 1.3, 1e-3),
             cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), -2.0, 2.0, 1e-3)]
    assert paths[1].exited_halfspace
    rhs = cat._rhs
    monkeypatch.setattr(cat, "_rhs", lambda alpha: lambda s, y: _fail())
    for path in paths:
        cat.plane_curve(path, EZ, Vec3(0, 1, 0))
    monkeypatch.setattr(cat, "_rhs", rhs)
    # a path made from states, with no RK4 step taken, takes f at its states when it is made
    line = cat.CatenaryPath.from_states([cat.CatenaryState(0.3, 1.0 + s, 1.2, s)
                                         for s in np.linspace(0.0, 1.0, 37).tolist()], -1.5)
    cat.plane_curve(line, EZ, Vec3(0, 1, 0))
    assert len(built) == 3
    # the recorded tables' f is the patched one; check their slopes with the real f
    for table, path in zip(built, [*paths, line]):
        table.f = rhs(path.alpha)
    for table in tables + built:
        _assert_slopes_are_f_at_nodes(table)


def _direct_frame_rhs(d):
    """The right-hand side of a draw's frame ODE, calling its Fourier series at every stage."""
    Q, P = d.series
    zsign, sigma = d.frame_signs()

    def rhs(s, y):
        w, wp = y[0:3], y[3:6]
        c = cross(E if zsign > 0.0 else L, _V(*w), _V(*wp))
        q, p = Q(s), P(s)
        return (wp[0], wp[1], wp[2],
                sigma * w[0] + q * c[0], sigma * w[1] + q * c[1], sigma * w[2] + q * c[2],
                p * c[0], p * c[1], p * c[2])

    return rhs


def _assert_same_tables(tables, refs):
    assert len(tables) == len(refs) >= 1
    for table, ref in zip(tables, refs):
        for half, ref_half in zip(_halves(table), _halves(ref), strict=True):
            assert half.nodes.tobytes() == ref_half.nodes.tobytes()
            assert half.slopes.tobytes() == ref_half.slopes.tobytes()


def _count_rk4_steps(monkeypatch) -> list:
    """curves.rk4_step replaced by a wrapper that appends 1 per step taken."""
    calls, step = [], curves.rk4_step
    monkeypatch.setattr(curves, "rk4_step", lambda *args: calls.append(1) or step(*args))
    return calls


@pytest.mark.parametrize("klass", ["euclid", "lorentz+1", "lorentz-1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_builds_read_their_stage_values_bitwise(klass, seed, monkeypatch):
    d = _DRAWS[klass](np.random.default_rng(3000 + seed))
    rhs = d.ode()[0]
    # the generic loop of rk4_step: over a right-hand side that calls its series at
    # every stage, and over the same right-hand side without its march
    refs = [_scalar_table(d, _direct_frame_rhs(d)), _scalar_table(d, lambda s, y: rhs(s, y))]
    calls = []
    call = curves.FourierSeries.__call__
    monkeypatch.setattr(curves.FourierSeries, "__call__",
                        lambda f, s: calls.append(s) or call(f, s))
    steps = _count_rk4_steps(monkeypatch)
    tables = ruled._build_tables([d], [rhs], ruled.SWEEP_STEPS)
    for ref in refs:
        _assert_same_tables(tables, [ref])
    if klass != "euclid":
        assert tables[0].bwd.h < 0.0 < tables[0].fwd.h
    # the march reads every stage from one fourier_table and takes no rk4_step;
    # per half, each series is called at the last node alone, whose s may
    # round apart from the last stage's
    assert steps == []
    assert len(calls) == 2 * len(_halves(refs[0]))


class _DirectPrenormalizationRHS:
    """The pre-normalization right-hand side as written before it had a march."""

    @staticmethod
    def bind(series, zsign, d):
        def rhs(s, y):
            w, wp = y[0:3], y[3:6]
            c = cross(E if zsign > 0.0 else L, _V(*w), _V(*wp))
            q, a, b = (f(s) for f in series)
            return (wp[0], wp[1], wp[2],
                    -d * (w[0] + q * c[0]), -d * (w[1] + q * c[1]), -d * (w[2] + q * c[2]),
                    a * wp[0] + b * c[0], a * wp[1] + b * c[1], a * wp[2] + b * c[2])

        return rhs


def _recorded_centered_tables(monkeypatch) -> list:
    """ruled.CenteredODE replaced by a subclass that appends every table built."""
    built = []

    class Recording(curves.CenteredODE):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(ruled, "CenteredODE", Recording)
    return built


def _without_march(monkeypatch) -> None:
    """Every InlineRHS bound from now on has no march: DenseODE steps with rk4_step."""
    bind = curves.InlineRHS.bind

    def bind_without_march(kind, *args):
        f = bind(kind, *args)
        del f.march
        return f

    monkeypatch.setattr(curves.InlineRHS, "bind", bind_without_march)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prenormalization_tables_read_their_stage_values_bitwise(delta, seed, monkeypatch):
    def draw():
        """rk4_steps the input's builds take, and its curves' jets at 7 points."""
        steps.clear()
        base, director, s_range = random_prenormalization_input(
            np.random.default_rng(40 + 10 * seed + delta), delta)
        return len(steps), [repr((base.jet(s), director.jet(s)))
                            for s in np.linspace(*s_range, 7)]

    built = _recorded_centered_tables(monkeypatch)
    steps = _count_rk4_steps(monkeypatch)
    taken, marched = draw()
    tables, built[:] = list(built), []
    assert taken == 0
    # the generic loop over a right-hand side written by hand, and over the
    # kind's own right-hand side without its march
    for reference in (lambda m: m.setattr(ruled, "_PRENORMALIZATION_RHS",
                                          _DirectPrenormalizationRHS), _without_march):
        with monkeypatch.context() as m:
            reference(m)
            assert draw()[1] == marched
        _assert_same_tables(tables, built)
        built[:] = []


def _scaled_fourier(scale: float):
    """ruled._fourier with every coefficient of the series it draws times scale."""
    draw = ruled._fourier

    def scaled(*args, **kwargs):
        f = draw(*args, **kwargs)
        return curves.FourierSeries(scale * f.c0, [scale * a for _, a, _ in f._terms],
                                    [scale * b for _, _, b in f._terms], f._terms[0][0])

    return scaled


def test_an_overflowing_march_gives_the_generic_loop_non_finite_nodes(monkeypatch):
    for seed in range(3):
        d = _DRAWS["euclid"](np.random.default_rng(3300 + seed))
        rhs = d.ode()[0]
        y0 = tuple(1e100 * v for v in d.y0)
        marched = curves.DenseODE(rhs, 0.0, ruled.SWEEP_S_LEN, y0, 64)
        generic = curves.DenseODE(lambda s, y: rhs(s, y), 0.0, ruled.SWEEP_S_LEN, y0, 64)
        assert np.isinf(marched.nodes).any() and np.isnan(marched.nodes).any()
        _assert_same_tables([marched], [generic])
    # a pre-normalization draw whose nodes overflow raises as the generic loop's does
    monkeypatch.setattr(ruled, "_fourier", _scaled_fourier(1e200))
    built = _recorded_centered_tables(monkeypatch)
    for delta in (1, -1):
        with pytest.raises(ValueError, match="Vec3 components must be finite") as marched:
            random_prenormalization_input(np.random.default_rng(3400 + delta), delta)
        tables, built[:] = list(built), []
        with monkeypatch.context() as m:
            _without_march(m)
            with pytest.raises(ValueError) as generic:
                random_prenormalization_input(np.random.default_rng(3400 + delta), delta)
        assert str(generic.value) == str(marched.value)
        assert not np.isfinite(tables[-1].fwd.nodes).all()
        _assert_same_tables(tables, built)
        built[:] = []


@pytest.mark.parametrize("kind, read", [
    (frames._SWEEP_FRAME_RHS, range(6)),  # g, in slots 6:9, is read by no stage
    (frames._PRENORMALIZATION_RHS, range(6)),
    (cat._CATENARY_RHS, (1, 2)),  # u is read by no stage
    (ruled._REPARAMETRIZATION_RHS, (0, 1)),
], ids=["sweep_frame", "prenormalization", "catenary", "reparametrization"])
def test_a_march_assigns_the_stage_states_of_read_components_alone(kind, read, monkeypatch):
    sources = []
    compile_source = curves._compiled
    monkeypatch.setattr(curves, "_compiled", lambda source, filename, name, **names:
                        sources.append(source) or compile_source(source, filename, name, **names))
    monkeypatch.setattr(kind, "_functions", None)
    kind._compile()
    march = sources[-1].splitlines()
    assigned = [line.split("=")[0].strip() for line in march if line.lstrip().startswith("z")]
    # three stages, each assigning its stage state once per read component
    assert sorted(assigned) == sorted(f"z{i}" for i in read for _ in range(3))
    # every component is still stepped
    assert [f"y{i} = y{i} + w" in sources[-1] for i in range(kind.n)] == [True] * kind.n
    # the names and the appends are locals of the march
    assert all(f"{k}={k}" in march[0] for k in kind._names)
    assert ".append((" not in sources[-1]
    assert "add_slope((" in sources[-1] and "add_node((" in sources[-1]


def test_a_kind_of_right_hand_side_compiles_once(monkeypatch):
    compiled, compile_source = [], curves._compiled
    monkeypatch.setattr(curves, "_compiled",
                        lambda source, filename, name: compiled.append(name)
                        or compile_source(source, filename, name))
    for kind in (frames._SWEEP_FRAME_RHS, frames._PRENORMALIZATION_RHS):
        monkeypatch.setattr(kind, "_functions", None)
    rng = np.random.default_rng(3500)
    # every class and sign of a sweep frame ODE is one kind, bound to its own signs
    for klass in ("euclid", "lorentz+1", "lorentz-1", "euclid", "lorentz-1"):
        d = _DRAWS[klass](rng)
        rhs = d.ode()[0]
        ruled._build_tables([d], [rhs], ruled.SWEEP_STEPS)
        # a bound right-hand side keeps no table of its build
        for f in (rhs, rhs.march):
            assert not [c for c in f.__closure__
                        if isinstance(c.cell_contents, (list, dict, np.ndarray))]
    for delta in (1, -1, 1):
        random_prenormalization_input(rng, delta)
    assert sorted(compiled) == ["prenormalization_rhs", "prenormalization_rhs_march",
                                "sweep_frame_rhs", "sweep_frame_rhs_march"]


# The pointwise frame, coefficients, halfspace window, translation and
# sweep_surface as they were before sweeps scored on arrays, kept here so the
# reference sweep does not run the library's own scoring code.

def _ref_fd1(f, s, h=curves.FD_H1):
    return (f(s - 2 * h) - 8.0 * f(s - h) + 8.0 * f(s + h) - f(s + 2 * h)) / (12.0 * h)


def _ref_frame(rs, s):
    if not rs.normalized:
        raise NotNormalized(f"surface '{rs.label or rs.director_class.value}' is not a normalized "
                            "non-cylindrical ruled surface")
    w = rs.director.value(s)
    wp = rs.director.d1(s)
    if rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE:
        Q = inner(L, rs.base.d1(s), wp)
        if abs(Q) < ruled.ZERO_Q_FLOOR:
            raise ZeroQ(f"|Q| = {abs(Q)} at s = {s}")
        return ruled.RuledFrame(w, wp, 0.0, Q)
    wpp = rs.director.d2(s)
    gp = rs.base.d1(s)
    Q = triple(w, wp, wpp)
    if rs.director_class is DirectorClass.EUCLID_STANDARD:
        return ruled.RuledFrame(w, wp, triple(w, wp, gp), Q)
    return ruled.RuledFrame(w, wp, triple(gp, w, wp), Q)


def _ref_coefficients(rs, s, v, alpha):
    fr = _ref_frame(rs, s)
    require_unit_direction(rs.metric, v)
    m = rs.metric
    cls = rs.director_class
    gam = rs.base.value(s)
    P, Q = fr.P, fr.Q
    if cls is DirectorClass.LORENTZ_LIGHTLIKE:
        Qp = _ref_fd1(lambda u: _ref_frame(rs, u).Q, s)
        gp = rs.base.d1(s)
        gv = inner(m, gam, v)
        wv = inner(m, fr.w, v)
        gpv = inner(m, gp, v)
        trip = triple(gp, fr.w, v)
        a0 = (Qp / Q) * gv + alpha * trip
        a1 = (Qp / Q) * wv + Qp * gv + alpha * Q * (gpv + 3.0 * trip)
        a2 = Qp * wv + 2.0 * alpha * Q * Q * (gpv + trip)
        return (a0, a1, a2)
    Pp = _ref_fd1(lambda u: _ref_frame(rs, u).P, s)
    wv = inner(m, fr.w, v)
    wpv = inner(m, fr.wp, v)
    gv = inner(m, gam, v)
    dv = triple(fr.w, fr.wp, v)
    e, d = (1.0, 1.0) if cls is DirectorClass.EUCLID_STANDARD else (-1.0, float(rs.delta))
    a0 = e * alpha * P ** 3 * wpv + P * P * Q * gv
    a1 = -e * alpha * d * P * P * dv + P * P * Q * wv + e * Pp * gv
    a2 = alpha * P * wpv + e * Q * gv + e * Pp * wv
    a3 = -alpha * d * dv + e * Q * wv
    return (a0, a1, a2, a3)


def _ref_window(rs, s_values):
    if rs.director_class is DirectorClass.EUCLID_STANDARD:
        return (-1.0, 1.0)
    if rs.director_class is DirectorClass.LORENTZ_NONDEGENERATE:
        ps = [abs(_ref_frame(rs, s).P) for s in s_values]
        p = min(ps) if rs.delta == -1 else max(ps)
        return (-0.8 * p, 0.8 * p) if rs.delta == -1 else (p + 0.15, p + 1.15)
    qs = [abs(_ref_frame(rs, s).Q) for s in s_values]
    bound = min(1.0, 0.45 / max(qs))
    return (-bound, bound)


def _ref_translate(rs, v, s_values, t_window):
    m = rs.metric
    lo = min(inner(m, rs.point(s, t), v) for s in s_values for t in t_window)
    if lo >= 0.5:
        return rs
    shift = 0.5 - lo
    offset = shift * v if m is E else (-shift) * v
    # a plain Curve: the translated base reads pointwise only
    return RuledSurface(Curve.translated(rs.base, offset), rs.director, rs.s_range, rs.metric,
                        rs.director_class, rs.delta, rs.normalized, rs.label)


def _ref_sweep_surface(rs, v, alpha, s_values):
    worst = 0.0
    for s in s_values:
        A = _ref_coefficients(rs, s, v, alpha)
        fr = _ref_frame(rs, s)
        ref = fr.Q if rs.director_class is DirectorClass.LORENTZ_LIGHTLIKE else fr.P
        scale = max(1.0, abs(ref) ** 3)
        worst = max(worst, max(abs(a) for a in A) / scale)
    return {"id": -1, "class": rs.director_class.value, "alpha": alpha, "max_abs_coeff": worst,
            "flagged": bool(worst <= ruled.ALARM_THRESHOLD), "excluded": False}


def _reference_sweep(cfg, planted, draw=None):
    """falsification_sweep as before batch builds and array scoring: each generated
    surface gets its scalar table and is scored pointwise before the next is drawn."""
    rng = np.random.default_rng(cfg.seed)
    report = ruled.SweepReport(config=cfg.to_dict())
    draw = draw or {"euclid_standard": _DRAWS["euclid"],
                    "lorentz_nondegenerate": lambda rng: ruled._draw_lorentz(rng, cfg.delta),
                    "lorentz_lightlike": _DRAWS["lightlike"]}[cfg.director_class.value]

    def surfaces():
        yield from planted
        for _ in range(cfg.n_surfaces):
            yield _scalar_surface(draw(rng))

    for idx, rs in enumerate(surfaces()):
        if idx < len(planted) and ruled._is_cylindrical(rs):
            report.per_surface.append({"id": idx, "class": rs.director_class.value,
                                       "alpha": 0.0, "max_abs_coeff": None, "flagged": False,
                                       "excluded": True})
            continue
        v = random_unit_vector(rng) if rs.metric is E else random_unit_timelike(rng)
        alpha = ruled._draw_alpha(rng, *cfg.alpha_range)
        s_values = rs.s_samples(cfg.n_s_samples)
        rs = _ref_translate(rs, v, s_values, _ref_window(rs, s_values))
        row = _ref_sweep_surface(rs, v, alpha, s_values)
        row["id"] = idx
        report.per_surface.append(row)
        if row["flagged"]:
            report.counterexamples.append(idx)
    report.min_max_abs_coeff = min(r["max_abs_coeff"] for r in report.per_surface
                                   if r["max_abs_coeff"] is not None)
    return report


_SWEEP_CLASSES = [
    (E, DirectorClass.EUCLID_STANDARD, 1),
    (L, DirectorClass.LORENTZ_NONDEGENERATE, 1),
    (L, DirectorClass.LORENTZ_NONDEGENERATE, -1),
    (L, DirectorClass.LORENTZ_LIGHTLIKE, 1),
]


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_sweep_report_matches_scalar_reference_sweep(metric, klass, delta):
    # a chunk and one more surface, behind a planted helicoid and a planted cylinder
    path = cat.integrate(cat.CatenaryState(0, 1, 0, 0), 1.0, 1.0, 1e-3)
    cylinder = make_cylinder(cat.plane_curve(path, EZ, Vec3(0, 1, 0)), Vec3(0, 1, 0), E)
    planted = [helicoid(1.0), cylinder]
    cfg = SweepConfig(n_surfaces=ruled.SWEEP_CHUNK + 1, n_s_samples=3, seed=8, metric=metric,
                      director_class=klass, delta=delta)
    got = falsification_sweep(cfg, planted=planted).to_json()
    assert got == _reference_sweep(cfg, planted).to_json()
    assert [r["excluded"] for r in json.loads(got)["per_surface"][:3]] == [False, True, False]


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_sweep_report_at_17_samples_matches_scalar_reference_sweep(metric, klass, delta):
    # 17 samples put the middle of the range among them, s = 0 where a Lorentz
    # table joins its halves, and one sample scores a (5, 1) stencil; a chunk
    # and two more surfaces leave a remainder below _MIN_BATCH, whose tables
    # are scalar builds
    n = ruled.SWEEP_CHUNK + 2
    assert n % ruled.SWEEP_CHUNK < min(ruled._MIN_BATCH.values())
    planted = [helicoid(0.7), lightlike_reference()]
    for samples in (17, 1):
        cfg = SweepConfig(n_surfaces=n, n_s_samples=samples, seed=21, metric=metric,
                          director_class=klass, delta=delta)
        assert falsification_sweep(cfg, planted=planted).to_json() == \
            _reference_sweep(cfg, planted).to_json()


def _fail(*args, **kwargs):
    raise AssertionError("read pointwise")


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_generated_surfaces_are_scored_from_one_table_read(metric, klass, delta, monkeypatch):
    # a chunk is one pass at 5 samples: one read of all of its tables at once, and
    # no read of one table, on arrays (frames._KeptRead.keep) or point by point
    reads, kept = [], []
    name = ("_lightlike_stack_at" if klass is DirectorClass.LORENTZ_LIGHTLIKE
            else "_frame_stack_at")
    stack_at = getattr(ruled, name)
    monkeypatch.setattr(ruled, name, lambda draws, tables, S:
                        reads.append((len(draws), len(tables), S.shape))
                        or stack_at(draws, tables, S))
    monkeypatch.setattr(frames._KeptRead, "keep", lambda self, S, frame: kept.append(S.shape))
    for owner, attr in ((ruled, "frame"), (ruled, "coefficients"),
                        (curves.DenseODE, "state_at"), (curves.CenteredODE, "state_at")):
        monkeypatch.setattr(owner, attr, _fail)
    n = ruled.SWEEP_CHUNK + 1
    cfg = SweepConfig(n_surfaces=n, n_s_samples=5, seed=2, metric=metric, director_class=klass,
                      delta=delta)
    report = falsification_sweep(cfg).to_json()
    # the samples and fd1's four stencil points around each
    assert reads == [(ruled.SWEEP_CHUNK, ruled.SWEEP_CHUNK, (5, 5)), (1, 1, (5, 5))]
    assert kept == []
    monkeypatch.undo()
    assert report == _reference_sweep(cfg, ()).to_json()


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_a_base_and_director_of_two_tables_are_scored_pointwise(metric, klass, delta):
    # only a base and director that share one frame_at read on arrays; each curve
    # here reads its own draw's table, so the surface is scored pointwise
    draw = {DirectorClass.EUCLID_STANDARD: _DRAWS["euclid"],
            DirectorClass.LORENTZ_NONDEGENERATE: _DRAWS[f"lorentz{delta:+d}"],
            DirectorClass.LORENTZ_LIGHTLIKE: _DRAWS["lightlike"]}[klass]
    a, b = (ruled._build_surfaces([draw(np.random.default_rng(seed))])[0] for seed in (12, 13))
    rs = RuledSurface(a.base, b.director, a.s_range, metric, klass, a.delta, normalized=True)
    assert isinstance(rs.base, frames._FrameCurve) and isinstance(rs.director, frames._FrameCurve)
    s_values = rs.s_samples(5)
    assert ruled._sweep_frames(rs, s_values) is None
    rng = np.random.default_rng(14)
    v = random_unit_vector(rng) if metric is E else random_unit_timelike(rng)
    assert repr(sweep_surface(rs, v, 1.3, s_values)) == \
        repr(_ref_sweep_surface(rs, v, 1.3, s_values))


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_sweep_forms_p_and_q_once_per_pass(metric, klass, delta, monkeypatch):
    # the window, the translation and the scaled maxima of every surface of a pass
    # share one evaluation of P and Q; a chunk and one more surface are two passes
    calls, original = [], ruled._frame_functions
    monkeypatch.setattr(ruled, "_frame_functions",
                        lambda *args: calls.append(args[0]) or original(*args))
    n = ruled.SWEEP_CHUNK + 1
    cfg = SweepConfig(n_surfaces=n, n_s_samples=7, seed=5, metric=metric, director_class=klass,
                      delta=delta)
    report = falsification_sweep(cfg).to_json()
    assert calls == [klass] * 2
    monkeypatch.setattr(ruled, "_frame_functions", original)
    assert report == _reference_sweep(cfg, ()).to_json()


def test_array_cube_is_the_float_power_bitwise():
    x = np.random.default_rng(0).uniform(-3.0, 3.0, 10**5)
    for a in (x, np.abs(x), x.reshape(1000, 100)):
        expected = np.array([c ** 3 for c in a.ravel().tolist()]).reshape(a.shape)
        assert ruled._cube(a).tobytes() == expected.tobytes()
    assert ruled._cube(-1.5) == (-1.5) ** 3
    with pytest.raises(OverflowError):
        ruled._cube(np.array([1.0, 1e200]))


def _sweep_outcomes(cfg, planted):
    """The exception falsification_sweep raises, and the one the pointwise reference raises."""
    with pytest.raises(Exception) as ref:
        _reference_sweep(cfg, planted)
    with pytest.raises(type(ref.value)) as got:
        falsification_sweep(cfg, planted=planted)
    return got.value, ref.value


@pytest.mark.parametrize("row", [0, 2])
def test_sweep_raises_like_the_pointwise_reference_when_lightlike_q_dips_under_the_floor(row):
    # g' = (1, 0, -q) against w' = (0, 1, 1) gives Q = q: 1 but for one s, a sample
    # (row 2) or the point 2h below one (row 0) of the P' stencil; the curves read
    # on arrays too, so the array scoring meets the dip before the pointwise replay
    cfg = SweepConfig(n_surfaces=1, n_s_samples=5, seed=4, metric=L,
                      director_class=DirectorClass.LORENTZ_LIGHTLIKE)

    def q(s):
        if isinstance(s, np.ndarray):
            return np.where(s == s_dip, 5e-11, 1.0)
        return 5e-11 if s == s_dip else 1.0

    def frame_at(S):
        zero, one = np.zeros(S.shape), np.ones(S.shape)
        return (_V(S, zero, -S), _V(one, zero, -q(S)), _V(one, S, S), _V(zero, one, one),
                _V(zero, zero, zero))

    line = line_curve(Vec3(0, 1, 1), Vec3(1, 0, 0))
    base = frames._FrameCurve(lambda s: Vec3(s, 0.0, -s), lambda s: Vec3(1.0, 0.0, -q(s)), None,
                              frame_at)
    director = frames._FrameCurve(line.value, line.d1, line.d2, frame_at)
    rs = RuledSurface(base, director, (-1.0, 1.0), L, DirectorClass.LORENTZ_LIGHTLIKE, delta=0,
                      normalized=True)
    s_dip = rs.s_samples(cfg.n_s_samples)[3] + (row - 2) * curves.FD_H1
    got, ref = _sweep_outcomes(cfg, [rs])
    assert isinstance(ref, ZeroQ)
    assert str(got) == str(ref)


def test_sweep_raises_like_the_pointwise_reference_on_a_non_finite_frame_value():
    # a frame table whose w'' is NaN at s + h for the second sample s, on floats and
    # arrays alike; the array scoring reads no w'' there, the pointwise frame does
    d = ruled._draw_euclidean(np.random.default_rng(6))
    rhs, _ = d.ode()
    table = _scalar_table(d, rhs)
    cfg = SweepConfig(n_surfaces=1, n_s_samples=5, seed=4)

    def poisoned(s, y):
        out = rhs(s, y)
        if isinstance(s, np.ndarray):
            wpp = [np.where(s == s_nan, math.nan, x) for x in out[3:6]]
        else:
            wpp = [math.nan] * 3 if s == s_nan else out[3:6]
        return (*out[:3], *wpp, *out[6:])

    base, director = ruled._frame_curves(table, poisoned)
    rs = RuledSurface(base, director, (0.0, ruled.SWEEP_S_LEN), E,
                      DirectorClass.EUCLID_STANDARD, normalized=True)
    s_nan = rs.s_samples(cfg.n_s_samples)[1] + curves.FD_H1
    got, ref = _sweep_outcomes(cfg, [rs])
    assert isinstance(ref, ValueError) and "finite" in str(ref)
    assert str(got) == str(ref)


_DRAW_NAMES = {DirectorClass.EUCLID_STANDARD: "_draw_euclidean",
               DirectorClass.LORENTZ_NONDEGENERATE: "_draw_lorentz",
               DirectorClass.LORENTZ_LIGHTLIKE: "_draw_lightlike"}


def _altered_draws(monkeypatch, klass, delta, alter):
    """Make draw k of every sweep of klass alter(k, draw); return the same draws for
    _reference_sweep."""
    name = _DRAW_NAMES[klass]
    original = getattr(ruled, name)

    def draws():
        count = itertools.count()
        return lambda rng, *args: alter(next(count), original(rng, *args))

    monkeypatch.setattr(ruled, name, draws())
    twin = draws()
    if klass is DirectorClass.LORENTZ_NONDEGENERATE:
        return lambda rng: twin(rng, delta)
    return twin


def _scaled_series(f, scale: float):
    """The Fourier series f with every coefficient times scale."""
    return curves.FourierSeries(scale * f.c0, [scale * a for _, a, _ in f._terms],
                                [scale * b for _, _, b in f._terms], f._terms[0][0])


def _outcome(run):
    """The report JSON that run() returns, or the type and message of what it raises."""
    try:
        return run().to_json()
    except Exception as err:
        return type(err), str(err)


def _passes_that_fall_back(monkeypatch) -> list:
    """Record, per sweep pass, whether it failed and left its surfaces to be scored one by one."""
    fell, score = [], ruled._score_pass

    def recorded(*args):
        rows = score(*args)
        fell.append(rows is None)
        return rows

    monkeypatch.setattr(ruled, "_score_pass", recorded)
    return fell


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_a_pass_with_an_overflowing_draw_raises_like_the_pointwise_reference(metric, klass, delta,
                                                                            monkeypatch):
    # draw 3 of a chunk of 10 has its series scaled up: the frame tables overflow
    # (1e200), or the lightlike Q, whose cube scales the coefficients, does (1e105)
    scale = 1e105 if klass is DirectorClass.LORENTZ_LIGHTLIKE else 1e200
    draw = _altered_draws(monkeypatch, klass, delta, lambda k, d: d if k != 3 else
                          dataclasses.replace(d, series=tuple(_scaled_series(f, scale)
                                                              for f in d.series)))
    fell = _passes_that_fall_back(monkeypatch)
    windows, window = [], ruled._halfspace_window
    monkeypatch.setattr(ruled, "_halfspace_window",
                        lambda rs, s: windows.append(rs) or window(rs, s))
    cfg = SweepConfig(n_surfaces=10, n_s_samples=10, seed=4, metric=metric, director_class=klass,
                      delta=delta)
    # warnings raise, as under -W error: a batch build must overflow silently, as
    # scalar floats do, and not raise a RuntimeWarning where the reference raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: falsification_sweep(cfg))
    ref = _outcome(lambda: _reference_sweep(cfg, (), draw))
    assert got == ref
    assert got[0] in (ValueError, OverflowError)
    # the pass failed, and its surfaces were scored one by one up to the overflowing one
    assert fell == [True] and len(windows) == 4


def _poison_g_beside_a_sample(table, s_values) -> None:
    """NaN in g at one node of a table, such that g is NaN at a stencil point of
    fd1_points around one of s_values and finite at every s of s_values."""
    for s in s_values:
        half = table if not isinstance(table, curves.CenteredODE) else \
            (table.fwd if s >= 0.0 else table.bwd)
        slots = slice(0, 3) if half.nodes.shape[1] == 3 else slice(6, 9)
        cell = int((s - half.s0) / half.h)
        for far in (int((x - half.s0) / half.h) for x in (s - 2 * curves.FD_H1,
                                                             s + 2 * curves.FD_H1)):
            if far != cell:
                # the far cell's other node: it borders no cell that holds a sample
                half.nodes[far + (far > cell), slots] = math.nan
                return
    raise AssertionError("no stencil of these samples crosses a node")


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_a_pass_whose_frames_are_not_finite_beside_the_samples_gives_the_reference_report(
        metric, klass, delta, monkeypatch):
    # g of draw 3 is NaN at a stencil point of one sample: the pass fails, and so
    # does that surface's read on arrays, but its pointwise replay reads g at the
    # samples alone and scores the surface as the reference does; at 13 samples,
    # stencils in every class cross a node
    n, samples = 10, 13
    build = ruled._build_tables

    def poisoned(draws, rhss, n_steps):
        tables = build(draws, rhss, n_steps)
        s_values = RuledSurface(None, None, (0.0, ruled.SWEEP_S_LEN) if metric is E
                                else (-1.0, 1.0), metric, klass).s_samples(samples)
        _poison_g_beside_a_sample(tables[3], s_values)
        return tables

    monkeypatch.setattr(ruled, "_build_tables", poisoned)
    fell = _passes_that_fall_back(monkeypatch)
    cfg = SweepConfig(n_surfaces=n, n_s_samples=samples, seed=6, metric=metric,
                      director_class=klass, delta=delta)
    got = falsification_sweep(cfg).to_json()
    assert fell == [True]
    assert got == _reference_sweep(cfg, ()).to_json()


def test_a_lightlike_pass_whose_q_dips_under_the_floor_raises_like_the_reference(monkeypatch):
    # draw 2 of 6 has the profile m(s) = 1 - (1 - 1e-11) cos(w s), so Q = -m is
    # about 1e-11 at the middle sample s = 0 and far above the floor elsewhere
    omega = 2.0 * math.pi / ruled.SWEEP_S_LEN
    dip = curves.FourierSeries(1.0, [-(1.0 - 1e-11), 0.0], [0.0, 0.0], omega)
    draw = _altered_draws(monkeypatch, DirectorClass.LORENTZ_LIGHTLIKE, 0,
                          lambda k, d: d if k != 2 else dataclasses.replace(d, series=(dip,)))
    fell = _passes_that_fall_back(monkeypatch)
    cfg = SweepConfig(n_surfaces=6, n_s_samples=5, seed=7, metric=L,
                      director_class=DirectorClass.LORENTZ_LIGHTLIKE)
    got = _outcome(lambda: falsification_sweep(cfg))
    assert got == _outcome(lambda: _reference_sweep(cfg, (), draw))
    assert got[0] is ZeroQ and fell == [True]


@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_a_sweep_builds_and_scores_batches_of_the_width_the_sample_cap_allows(metric, klass,
                                                                              delta, monkeypatch):
    # a batch takes at most MAX_SWEEP_SAMPLES // n_s_samples surfaces: 2 at 3 samples
    # under a cap of 7, and 3 at 17 samples under a cap of 60; each batch is one
    # build and one pass
    built, widths = [], []
    build, score = ruled._build_surfaces, ruled._score_pass
    monkeypatch.setattr(ruled, "_build_surfaces",
                        lambda draws, *args: built.append(len(draws)) or build(draws, *args))
    monkeypatch.setattr(ruled, "_score_pass",
                        lambda draws, *args: widths.append(len(draws)) or score(draws, *args))
    assert ruled.SWEEP_CHUNK == 32
    for samples, cap, batches in ((3, 7, [2] * 16 + [1]), (17, 60, [3] * 11)):
        monkeypatch.setattr(ruled, "MAX_SWEEP_SAMPLES", cap)
        built.clear()
        widths.clear()
        cfg = SweepConfig(n_surfaces=ruled.SWEEP_CHUNK + 1, n_s_samples=samples, seed=9,
                          metric=metric, director_class=klass, delta=delta)
        got = falsification_sweep(cfg).to_json()
        assert built == widths == batches
        assert got == _reference_sweep(cfg, ()).to_json()


@pytest.mark.parametrize("samples", [1, 17])
@pytest.mark.parametrize("metric, klass, delta", _SWEEP_CLASSES)
def test_sweeps_of_every_build_width_match_the_reference(metric, klass, delta, samples):
    # one draw, either side of the class's batch crossover (lightlike tables are
    # always a batch: the Lorentz crossover), the bench's 10, and a chunk and one more
    least = ruled._MIN_BATCH.get(klass, ruled._MIN_BATCH[DirectorClass.LORENTZ_NONDEGENERATE])
    for n in (1, least - 1, least, 10, ruled.SWEEP_CHUNK + 1):
        cfg = SweepConfig(n_surfaces=n, n_s_samples=samples, seed=30 + n, metric=metric,
                          director_class=klass, delta=delta)
        assert falsification_sweep(cfg).to_json() == _reference_sweep(cfg, ()).to_json(), n


@pytest.mark.parametrize("fault", [None, "oblique", "timelike", "nan"])
def test_normalize_lorentz_input_check_fails_like_the_pointwise_check(fault):
    # a de Sitter frame (delta = -1) whose g' turns oblique to w, timelike, or NaN
    # past s = 0.3; the plain curves of the same pair are checked pointwise only
    d = ruled._draw_lorentz(np.random.default_rng(12), -1)
    rhs, _ = d.ode()
    table = _scalar_table(d, rhs)

    def g_prime(y, gp):
        w, wp = y[0:3], y[3:6]
        return {None: gp, "oblique": [a + 0.5 * b for a, b in zip(gp, w)], "timelike": wp,
                "nan": [math.nan] * 3}[fault]

    def faulty(s, y):
        out = rhs(s, y)
        gp = g_prime(y, out[6:9])
        if isinstance(s, np.ndarray):
            gp = [np.where(s > 0.3, a, b) for a, b in zip(gp, out[6:9])]
        elif not s > 0.3:
            gp = out[6:9]
        return (*out[:6], *gp)

    pair = ruled._frame_curves(table, faulty)
    plain = [Curve(c.value, c.d1, c.d2) for c in pair]
    if fault is None:
        normalize_lorentz(*pair, -1, (-1.0, 1.0))
        return
    with pytest.raises(Exception) as ref:
        normalize_lorentz(*plain, -1, (-1.0, 1.0))
    with pytest.raises(type(ref.value)) as got:
        normalize_lorentz(*pair, -1, (-1.0, 1.0))
    assert isinstance(ref.value, ValueError if fault == "nan" else NonSpacelikeInput)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("delta", [1, -1])
def test_frame_identities_lorentz(delta):
    rng = np.random.default_rng(41 + delta)
    for _ in range(5):
        rs = random_lorentz_ruled(rng, delta)
        for s in rs.s_samples(40):
            fr = frame(rs, s)
            gp = rs.base.d1(s)
            wpp = rs.director.d2(s)
            wxwp = cross(L, fr.w, fr.wp)
            assert (gp + delta * fr.P * wxwp).max_abs() <= 1e-8
            assert (wpp + delta * (fr.w + fr.Q * wxwp)).max_abs() <= 1e-8
            assert (cross(L, gp, fr.w) - delta * fr.P * fr.wp).max_abs() <= 1e-8
            assert abs(inner(L, wxwp, wxwp) + delta) <= 1e-9


def test_unit_direction_decomposition_euclid():
    # (w,w',v)^2 + <w,v>^2 + <w',v>^2 = 1 for unit v
    rng = np.random.default_rng(6)
    rs = random_euclidean_ruled(rng)
    for _ in range(20):
        v = random_unit_vector(rng)
        s = float(rng.uniform(*rs.s_range))
        fr = frame(rs, s)
        total = (triple(fr.w, fr.wp, v) ** 2 + inner(E, fr.w, v) ** 2
                 + inner(E, fr.wp, v) ** 2)
        assert abs(total - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# lightlike class
# ---------------------------------------------------------------------------

def test_lightlike_cross_identity_exact():
    rs = lightlike_reference()
    for s in np.linspace(-1.0, 1.0, 11):
        w = rs.director.value(s)
        wp = rs.director.d1(s)
        assert (cross(L, w, wp) + wp).max_abs() <= 1e-12


def test_lightlike_reference_forms():
    from singular_geom.surface import fundamental_forms

    rs = lightlike_reference()
    for s in np.linspace(-0.9, 0.9, 7):
        fr = frame(rs, s)
        assert abs(fr.Q + 1.0) <= 1e-12
        for t in np.linspace(-0.3, 0.3, 5):
            j = rs.jet(s, t)
            f = fundamental_forms(L, j)
            assert abs(f.E - (1.0 + 2.0 * fr.Q * t)) <= 1e-12
            assert abs(f.F) <= 1e-12 and abs(f.G - 1.0) <= 1e-12
            # Q' = 0 for the reference, so (Xs, Xt, Xss) = Q'/Q + Q' t = 0
            assert abs(triple(j.Xs, j.Xt, j.Xss)) <= 1e-12


def test_lightlike_random_identities():
    from singular_geom.surface import fundamental_forms
    from singular_geom.curves import fd1

    rng = np.random.default_rng(8)
    for _ in range(5):
        rs = random_lightlike_ruled(rng)
        qf = lambda s: inner(L, rs.base.d1(s), rs.director.d1(s))
        for s in rs.s_samples(10):
            Q = qf(s)
            Qp = fd1(qf, s, 1e-4)
            assert abs(Q) > 1e-3
            for t in np.linspace(-0.3, 0.3, 5):
                j = rs.jet(s, t)
                f = fundamental_forms(L, j)
                assert abs(f.E - (1.0 + 2.0 * Q * t)) <= 1e-8
                assert abs(triple(j.Xs, j.Xt, j.Xss) - (Qp / Q + Qp * t)) <= 1e-8


def test_lightlike_zero_q_guard():
    m0 = 5e-11  # valid lightlike data always has |Q| = |m| >= the floor

    def gp(s):
        a = (s * s * m0 * m0 - 1.0) / m0
        return Vec3(s * m0, 0.5 * (a - m0), 0.5 * (a + m0))

    def gval(s):
        return Vec3(0.5 * s * s * m0,
                    m0 * s ** 3 / 6.0 - 0.5 * s / m0 - 0.5 * m0 * s,
                    m0 * s ** 3 / 6.0 - 0.5 * s / m0 + 0.5 * m0 * s)

    base = Curve(gval, gp, lambda s: Vec3(m0, s * m0, s * m0))
    director = line_curve(Vec3(0, 1, 1), Vec3(1, 0, 0))
    rs = RuledSurface(base, director, (-1.0, 1.0), L,
                      DirectorClass.LORENTZ_LIGHTLIKE, delta=0, normalized=True)
    with pytest.raises(ZeroQ):
        coefficients(rs, 0.5, EZ, 1.0)


# ---------------------------------------------------------------------------
# coefficient/oracle consistency
# ---------------------------------------------------------------------------

def test_consistency_helicoid():
    h = helicoid(1.0)
    worst = residual_polynomial_consistency(h, 1.2, EZ, 1.0, [-1.0, -0.5, 0.1, 0.5, 1.0])
    assert worst <= 1e-9


def test_consistency_alpha_zero():
    rng = np.random.default_rng(14)
    rs = random_euclidean_ruled(rng)
    v = random_unit_vector(rng)
    rs = translate_into_halfspace(rs, v, rs.s_samples(5), (-1.0, 1.0))
    for s in rs.s_samples(5):
        assert residual_polynomial_consistency(rs, s, v, 0.0,
                                               default_t_samples(rs, s)) <= 1e-9


@pytest.mark.parametrize("maker,vmaker", [
    (lambda rng: random_euclidean_ruled(rng), random_unit_vector),
    (lambda rng: random_lorentz_ruled(rng, 1), random_unit_timelike),
    (lambda rng: random_lorentz_ruled(rng, -1), random_unit_timelike),
    (lambda rng: random_lightlike_ruled(rng), random_unit_timelike),
])
def test_consistency_random_surfaces(maker, vmaker):
    rng = np.random.default_rng(77)
    for _ in range(6):
        rs = maker(rng)
        v = vmaker(rng)
        alpha = float(rng.uniform(-3, 3))
        s_values = rs.s_samples(4)
        rs = translate_into_halfspace(rs, v, s_values, _halfspace_window(rs, s_values))
        for s in s_values:
            worst = residual_polynomial_consistency(rs, s, v, alpha,
                                                    default_t_samples(rs, s))
            assert worst <= 1e-8


def test_consistency_needs_enough_valid_samples():
    h = helicoid(1.0)
    with pytest.raises(ConfigError):
        residual_polynomial_consistency(h, 1.0, EZ, 1.0, [0.1, 0.2])


# ---------------------------------------------------------------------------
# falsification sweep
# ---------------------------------------------------------------------------

def test_sweep_reproducible():
    cfg = SweepConfig(n_surfaces=8, n_s_samples=5, seed=12345)
    a = falsification_sweep(cfg).to_json()
    b = falsification_sweep(SweepConfig(n_surfaces=8, n_s_samples=5, seed=12345)).to_json()
    assert a == b


def test_sweep_small_runs_find_nothing():
    cfg = SweepConfig(n_surfaces=15, n_s_samples=6, seed=42)
    rep = falsification_sweep(cfg)
    assert rep.counterexamples == []
    assert rep.min_max_abs_coeff > 1e-3
    cfgl = SweepConfig(n_surfaces=8, n_s_samples=6, seed=7, metric=L,
                       director_class=DirectorClass.LORENTZ_LIGHTLIKE)
    repl = falsification_sweep(cfgl)
    assert repl.counterexamples == []


def test_sweep_excludes_planted_cylinder():
    path = cat.integrate(cat.CatenaryState(0, 1, 0, 0), 1.0, 1.0, 1e-3)
    base = cat.plane_curve(path, EZ, Vec3(0, 1, 0))
    cyl = make_cylinder(base, Vec3(0, 1, 0), E)
    cfg = SweepConfig(n_surfaces=3, n_s_samples=4, seed=5)
    rep = falsification_sweep(cfg, planted=[cyl])
    row = rep.per_surface[0]
    assert row["excluded"] is True
    assert row["flagged"] is False
    assert rep.counterexamples == []


def test_sweep_scores_planted_non_cylindrical_surface():
    cfg = SweepConfig(n_surfaces=3, n_s_samples=4, seed=5)
    rep = falsification_sweep(cfg, planted=[helicoid(1.0)])
    rows = rep.per_surface
    assert [r["id"] for r in rows] == [0, 1, 2, 3]
    assert rows[0]["excluded"] is False
    assert rows[0]["max_abs_coeff"] > 1e-6
    assert all(r["class"] == "euclid_standard" and not r["excluded"] for r in rows[1:])
    assert rep.counterexamples == []


def test_sweep_detector_flags_helicoid_at_alpha_zero():
    # alpha = 0 annihilates every coefficient of a helicoid: the detector fires
    h = helicoid(1.0)
    row = sweep_surface(h, EZ, 0.0, h.s_samples(6))
    assert row["flagged"] is True
    assert row["max_abs_coeff"] <= 1e-9


def _constant_frame_surface(g, gp, w, wp, wpp):
    """A normalized Euclidean surface whose base and director jets are the same at every s."""
    zero = Vec3(0.0, 0.0, 0.0)
    return RuledSurface(Curve(lambda s: g, lambda s: gp, lambda s: zero),
                        Curve(lambda s: w, lambda s: wp, lambda s: wpp), (0.0, 1.0), E,
                        DirectorClass.EUCLID_STANDARD, normalized=True)


def test_sweep_raises_on_a_surface_whose_p_overflows():
    # P = <w x w', g'> overflows to inf, so P' and the coefficients are NaN; a max
    # that skipped NaN maxima would read 0.0 and flag the surface as a counterexample
    r = math.sqrt(0.5)
    rs = _constant_frame_surface(Vec3(0.0, 0.0, 1.0), Vec3(0.0, -1.5e308, 1.5e308),
                                 Vec3(1.0, 0.0, 0.0), Vec3(0.0, r, r), Vec3(-1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"P = inf, Q = 0.0 at s = 0.25"):
        frame(rs, 0.25)
    with pytest.raises(ValueError, match="frame functions must be finite"):
        falsification_sweep(SweepConfig(n_surfaces=1, n_s_samples=4, seed=1), planted=[rs])


def test_sweep_surface_raises_on_a_scaled_maximum_that_is_not_finite():
    # P = 2 and Q = 1 are finite, but <g, v> = 1e308 makes P^2 Q <g, v> overflow
    rs = _constant_frame_surface(Vec3(0.0, 0.0, 1e308), Vec3(0.0, 0.0, 2.0), Vec3(1.0, 0.0, 0.0),
                                 Vec3(0.0, 1.0, 0.0), Vec3(-1.0, 0.0, 1.0))
    assert (frame(rs, 0.5).P, frame(rs, 0.5).Q) == (2.0, 1.0)
    with pytest.raises(ValueError, match="scaled coefficient maximum inf at s = 0.5"):
        sweep_surface(rs, EZ, 1.0, [0.5])


def test_sweep_surface_needs_a_sample():
    # no s scores nothing, which is no evidence for the alarm
    with pytest.raises(ConfigError, match="at least one s-sample"):
        sweep_surface(helicoid(1.0), EZ, 1.0, [])


def test_the_halfspace_translation_needs_a_sample():
    # with no s, the pointwise min and the window's reduction once raised bare
    # ValueErrors of their own, and the Euclidean window was returned regardless
    for name, call in [("translate_into_halfspace",
                        lambda: translate_into_halfspace(helicoid(), EZ, [], (-1.0, 1.0))),
                       ("_halfspace_window", lambda: _halfspace_window(lightlike_reference(), [])),
                       ("_halfspace_window", lambda: _halfspace_window(helicoid(), []))]:
        with pytest.raises(ConfigError, match=f"^{name} needs at least one s-sample$"):
            call()


@pytest.mark.parametrize("alpha_range", [(0.5, math.inf), (-math.inf, 1.0),
                                         (-math.inf, math.inf), (-1.7e308, 1.7e308)])
def test_sweep_config_rejects_an_alpha_range_of_infinite_end_or_width(alpha_range):
    # numpy's uniform draw once raised its OverflowError on these
    cfg = SweepConfig(n_surfaces=1, n_s_samples=2, alpha_range=alpha_range)
    with pytest.raises(ConfigError, match=r"^alpha_range must have finite ends and a finite "
                                          r"width, got \("):
        falsification_sweep(cfg)


def test_sweep_builds_at_most_one_chunk_of_tables_at_a_time(monkeypatch):
    sizes = []
    build = ruled._build_surfaces

    def recording(draws, *args):
        sizes.append(len(draws))
        return build(draws, *args)

    monkeypatch.setattr(ruled, "_build_surfaces", recording)
    n = 2 * ruled.SWEEP_CHUNK + 1
    rep = falsification_sweep(SweepConfig(n_surfaces=n, n_s_samples=2, seed=3, metric=L,
                                          director_class=DirectorClass.LORENTZ_LIGHTLIKE))
    assert sizes == [ruled.SWEEP_CHUNK, ruled.SWEEP_CHUNK, 1]
    assert [r["id"] for r in rep.per_surface] == list(range(n))


def test_sweep_drops_each_surface_once_it_is_scored(monkeypatch):
    # a batch holds the frames of its surfaces, about as much as one surface holds
    # at the sample cap; the cap is lowered so that 6 surfaces take 3 batches of 2,
    # scored in their pass, or one by one after a failed pass
    built, alive = [], []
    build, score = ruled._build_surfaces, ruled._score_pass

    def recording(draws, *args):
        alive.append(("build", sum(ref() is not None for ref in built)))
        out = build(draws, *args)
        built.extend(weakref.ref(rs) for rs in out)
        return out

    monkeypatch.setattr(ruled, "_build_surfaces", recording)
    monkeypatch.setattr(ruled, "MAX_SWEEP_SAMPLES", 7)
    cfg = SweepConfig(n_surfaces=6, n_s_samples=3, seed=1, metric=L,
                      director_class=DirectorClass.LORENTZ_NONDEGENERATE)
    for fails in (False, True):
        def counting(draws, *args):
            alive.append(("score", sum(ref() is not None for ref in built)))
            return None if fails else score(draws, *args)

        monkeypatch.setattr(ruled, "_score_pass", counting)
        alive.clear()
        got = falsification_sweep(cfg).to_json()
        # no surface of an earlier batch is alive when a batch is built, and only the
        # batch's own 2 while it is scored
        assert alive == [("build", 0), ("score", 2)] * 3
        assert all(ref() is None for ref in built)
        assert got == _reference_sweep(cfg, ()).to_json()


def test_sweep_report_config_block():
    rep = falsification_sweep(SweepConfig(n_surfaces=2, n_s_samples=3, seed=5))
    config = json.loads(rep.to_json())["config"]
    assert list(config.items()) == [
        ("n_surfaces", 2), ("n_s_samples", 3), ("seed", 5), ("metric", "euclidean"),
        ("director_class", "euclid_standard"), ("delta", 1), ("alpha_range", [-3.0, 3.0]),
        ("threshold", 1e-06), ("s_len", 2.0),
    ]


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        falsification_sweep(SweepConfig(n_surfaces=0))
    with pytest.raises(ConfigError):
        falsification_sweep(SweepConfig(n_surfaces=1, alpha_range=(0.0, 0.1)))
    with pytest.raises(ConfigError):
        falsification_sweep(SweepConfig(n_surfaces=1, metric=L))
    with pytest.raises(ConfigError):
        falsification_sweep(SweepConfig(n_surfaces=1, n_s_samples=0))
