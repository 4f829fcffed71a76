"""Ruled surfaces: frames, coefficient polynomials, normalization, sweep."""

import json
import math
import tracemalloc
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
        c = ruled._tcross(w, wp)
        q, p = coeffs(s)
        return (wp[0], wp[1], wp[2],
                -w[0] + q * c[0], -w[1] + q * c[1], -w[2] + q * c[2],
                p * c[0], p * c[1], p * c[2])

    def g_d2(s, y):
        c = ruled._tcross(y[0:3], y[3:6])
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
        c = ruled._tcross(w, wp, -1.0)
        q, p = coeffs(s)
        return (wp[0], wp[1], wp[2],
                -d * (w[0] + q * c[0]), -d * (w[1] + q * c[1]), -d * (w[2] + q * c[2]),
                -d * p * c[0], -d * p * c[1], -d * p * c[2])

    def g_d2(s, y):
        c = ruled._tcross(y[0:3], y[3:6], -1.0)
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
        c = ruled._tcross(w, wp, zsign)
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


@pytest.mark.parametrize("klass", ["euclid", "lorentz+1", "lorentz-1"])
def test_scalar_builds_read_their_stage_values_bitwise(klass, monkeypatch):
    d = _DRAWS[klass](np.random.default_rng(3000))
    ref = _scalar_table(d, _direct_frame_rhs(d))
    calls = []
    call = curves.FourierSeries.__call__
    monkeypatch.setattr(curves.FourierSeries, "__call__",
                        lambda f, s: calls.append(s) or call(f, s))
    tables = ruled._build_tables([d], [d.ode()[0]], ruled.SWEEP_STEPS)
    _assert_same_tables(tables, [ref])
    # per half and series: s = 0, which has no stage value, and at most the last
    # node, whose s may round apart from the last stage's
    assert len(calls) <= 2 * 2 * len(_halves(ref))


def _recording(monkeypatch, owner, name, record):
    """owner.name replaced by a wrapper that appends each result to record."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: record.append(original(*args)) or record[-1])


@pytest.mark.parametrize("delta", [1, -1])
def test_prenormalization_tables_read_their_stage_values_bitwise(delta, monkeypatch):
    built = []

    class Recording(curves.CenteredODE):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def direct(*series):
        def at(s):
            return tuple([f(s) for f in series])

        at.tabulated = lambda grids, build: build()
        return at

    monkeypatch.setattr(ruled, "CenteredODE", Recording)
    random_prenormalization_input(np.random.default_rng(40 + delta), delta)
    tables, built[:] = list(built), []
    monkeypatch.setattr(ruled, "series_at", direct)
    random_prenormalization_input(np.random.default_rng(40 + delta), delta)
    _assert_same_tables(tables, built)


def test_no_stage_values_outlive_their_build(monkeypatch):
    readers, tabulated = [], []
    for owner in (frames, ruled):  # the sweep frame ODE's, and the pre-normalization input's
        _recording(monkeypatch, owner, "series_at", readers)
    _recording(monkeypatch, curves, "stage_values", tabulated)
    rng = np.random.default_rng(3001)
    for d in (_DRAWS["euclid"](rng), _DRAWS["lorentz-1"](rng)):
        ruled._build_tables([d], [d.ode()[0]], ruled.SWEEP_STEPS)
    random_prenormalization_input(rng, 1)
    assert len(tabulated) == len(readers) >= 3 and all(tabulated)
    for at in readers:
        # the reader's closure holds its stage values: none are left
        assert [c.cell_contents for c in at.__closure__
                if isinstance(c.cell_contents, dict)] == [{}]


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
    # every frame_at read is kept once (frames._KeptRead.keep)
    reads, keep = [], frames._KeptRead.keep
    monkeypatch.setattr(frames._KeptRead, "keep",
                        lambda self, S, frame: reads.append(S.shape) or keep(self, S, frame))
    for owner, name in ((ruled, "frame"), (ruled, "coefficients"),
                        (curves.DenseODE, "state_at"), (curves.CenteredODE, "state_at")):
        monkeypatch.setattr(owner, name, _fail)
    n = ruled.SWEEP_CHUNK + 1
    falsification_sweep(SweepConfig(n_surfaces=n, n_s_samples=5, seed=2, metric=metric,
                                    director_class=klass, delta=delta))
    # the samples and fd1's four stencil points around each
    assert reads == [(5, 5)] * n


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
def test_sweep_forms_p_and_q_once_per_generated_surface(metric, klass, delta, monkeypatch):
    # the halfspace window, the translation and sweep_surface share one _sweep_frames
    calls, original = [], ruled._frame_functions
    monkeypatch.setattr(ruled, "_frame_functions",
                        lambda *args: calls.append(args[0]) or original(*args))
    n = ruled.SWEEP_CHUNK + 1
    cfg = SweepConfig(n_surfaces=n, n_s_samples=7, seed=5, metric=metric, director_class=klass,
                      delta=delta)
    report = falsification_sweep(cfg).to_json()
    assert calls == [klass] * n
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
    # a surface keeps its frame reads, which hold about 60 MB at 10^5 samples
    built, alive = [], []
    build, score = ruled._build_surfaces, ruled.sweep_surface

    def recording(draws, *args):
        out = build(draws, *args)
        built.extend(weakref.ref(rs) for rs in out)
        return out

    def counting(rs, *args):
        alive.append(sum(ref() is not None for ref in built))
        return score(rs, *args)

    monkeypatch.setattr(ruled, "_build_surfaces", recording)
    monkeypatch.setattr(ruled, "sweep_surface", counting)
    n = 6
    falsification_sweep(SweepConfig(n_surfaces=n, n_s_samples=3, seed=1, metric=L,
                                    director_class=DirectorClass.LORENTZ_NONDEGENERATE))
    # the surface being scored, when translation kept it, and those not yet scored
    assert len(alive) == n
    assert all(count <= n - k for k, count in enumerate(alive))


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
