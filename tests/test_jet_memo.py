"""Curve and surface jets equal their curves' values and derivatives read one by one,
bit for bit, and tabulated Lorentz normalization coefficients equal pointwise ones."""

import math

import numpy as np
import pytest

from singular_geom import catenary as cat
from singular_geom.algebra import Metric, Vec3, inner
from singular_geom import curves, frames, ruled
from singular_geom.curves import Curve, DenseODE, rk4_stages
from singular_geom.errors import ODEBreakdown, OutOfDomain
from singular_geom.ruled import helicoid, random_lorentz_ruled
from singular_geom.surface import _C1, _C2, _V, Jet2, ParamSurface, unit_normal

EY = Vec3(0.0, 1.0, 0.0)
EZ = Vec3(0.0, 0.0, 1.0)
ZERO = Vec3(0.0, 0.0, 0.0)
# the offsets of the first-derivative stencil weights surface._C1
_OFF1 = (-2.0, -1.0, 1.0, 2.0)


def _signed_curve():
    """A curve whose value tells 0.0 from -0.0."""

    def value(s):
        return Vec3(math.copysign(1.0, s), s, s * s)

    return Curve(value, lambda s: Vec3(0.0, 1.0, 2.0 * s), lambda s: Vec3(0.0, 0.0, 2.0))


def _uncached(curve, s):
    return (curve.value(s), curve.d1(s), curve.d2(s))


def test_curve_jet_matches_uncached_in_any_order():
    curve = _signed_curve()
    for s in (0.3, -1.25, 0.3, 0.0, -0.0, 0.0, np.float64(0.3), 0.3):
        assert curve.jet(s) == _uncached(curve, s)


def test_curve_jet_with_difference_fallbacks():
    # neither derivative supplied: d1 and d2 come from difference quotients
    curve = Curve(lambda s: Vec3(math.sin(s), math.cos(2.0 * s), s ** 3))
    for s in (0.1, 0.9, 0.1):
        assert curve.jet(s) == _uncached(curve, s)


def _ruled_reference(rs, s, t):
    """RuledSurface.jet written out with one uncached call per curve quantity."""
    g, gp, gpp = rs.base.value(s), rs.base.d1(s), rs.base.d2(s)
    w, wp, wpp = rs.director.value(s), rs.director.d1(s), rs.director.d2(s)
    return Jet2(g + t * w, gp + t * wp, w, gpp + t * wpp, wp, ZERO)


def test_ruled_surface_jet_matches_uncached():
    rng = np.random.default_rng(5)
    for rs in (helicoid(1.0), random_lorentz_ruled(rng, delta=1)):
        s_a, s_b = (float(x) for x in rs.s_samples(2))
        for s, t in ((s_a, 0.2), (s_b, -0.4), (s_a, 0.7), (s_a, 0.2)):
            assert rs.jet(s, t) == _ruled_reference(rs, s, t)
    ref = helicoid(1.0)
    for s in (0.0, -0.0, 0.0):
        assert ref.jet(s, 0.5) == _ruled_reference(ref, s, 0.5)


def _catenary_pair():
    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 1.0, 1.0, 1e-3)
    return cat.catenary_cylinder(path, EZ, EY), cat.plane_curve(path, EZ, EY)


def test_catenary_cylinder_jet_matches_uncached():
    surf, profile = _catenary_pair()
    # s = 0.0 is the table's first node, so -0.0 is inside the domain too
    for s, t in ((0.4, 0.1), (0.75, -0.3), (0.4, 0.9), (0.0, 0.5), (-0.0, 0.5), (0.0, 0.5)):
        expected = Jet2(profile.value(s) + EY * t, profile.d1(s), EY, profile.d2(s), ZERO, ZERO)
        assert surf.jet(s, t) == expected


def test_plane_curve_reads_its_table_once_per_jet(monkeypatch):
    # value, d1 and d2 each take one entry of one jet_at read, so a jet that read
    # them one by one would read the table three times per s
    surf, profile = _catenary_pair()
    calls, jet_at = [], DenseODE.jet_at
    monkeypatch.setattr(DenseODE, "jet_at", lambda self, s: calls.append(s) or jet_at(self, s))
    S = [0.1, 0.45, 0.8]
    jets = [profile.jet(s) for s in S]
    assert calls == S
    calls.clear()
    surf.grid_jets(np.array(S), np.array([-0.5, 0.0, 0.5]))
    assert calls == S
    calls.clear()
    assert [surf.jet(s, 0.5).Xs for s in S] == [c1 for _, c1, _ in jets]
    assert calls == S


def _fd_jet_reference(p, s, t, h):
    """The finite-difference jet with its stencil taken in row, column, cross order."""
    X = p(s, t)
    row = [p(s + o * h, t) for o in _OFF1]
    col = [p(s, t + o * h) for o in _OFF1]
    Xs = (_C1[0] * row[0] + _C1[1] * row[1] + _C1[2] * row[2] + _C1[3] * row[3]) / (12.0 * h)
    Xt = (_C1[0] * col[0] + _C1[1] * col[1] + _C1[2] * col[2] + _C1[3] * col[3]) / (12.0 * h)
    row2 = [row[0], row[1], X, row[2], row[3]]
    col2 = [col[0], col[1], X, col[2], col[3]]
    hh = 12.0 * h * h
    Xss = sum((_C2[k] * row2[k] for k in range(5)), Vec3(0, 0, 0)) / hh
    Xtt = sum((_C2[k] * col2[k] for k in range(5)), Vec3(0, 0, 0)) / hh
    acc = Vec3(0.0, 0.0, 0.0)
    for i, oi in enumerate(_OFF1):
        for j, oj in enumerate(_OFF1):
            acc = acc + (_C1[i] * _C1[j]) * p(s + oi * h, t + oj * h)
    Xst = acc / (144.0 * h * h)
    return Jet2(X, Xs, Xt, Xss, Xst, Xtt)


def test_fd_jet_of_perturbed_catenary_cylinder_matches_reference_order():
    surf, _ = _catenary_pair()
    calls = []

    def point(s, t):
        # the normal perturbation of surface.first_variation
        calls.append(s)
        j = surf.jet_unchecked(s, t)
        return j.X + (1e-3 * math.sin(3.0 * s) * math.cos(t)) * unit_normal(Metric.EUCLIDEAN, j)

    fd = ParamSurface.finite_difference(surf.domain, point, allow_overhang=True)
    for s, t in ((0.3, 0.2), (0.55, -0.6), (0.3, 0.45)):
        calls.clear()
        got = fd.jet(s, t)
        distinct_runs = sum(1 for k, x in enumerate(calls) if k == 0 or x != calls[k - 1])
        assert len(calls) == 25 and distinct_runs == 5
        assert got == _fd_jet_reference(point, s, t, fd.fd_step)


def _surface_samples(rs):
    v = Vec3(0.6, 0.0, 0.8) if rs.metric is Metric.EUCLIDEAN else Vec3(0.3, 0.0, math.sqrt(1.09))
    return [repr((ruled.frame(rs, s), ruled.coefficients(rs, s, v, 1.7), rs.jet(s, 0.37)))
            for s in rs.s_samples(16)]


def _reference_normalization(base, director, delta, s_range):
    """normalize_lorentz's table and surface as built before f1, f2, f3 were tabulated:
    every RK4 stage reads them pointwise, and DenseODE steps."""
    a, b = (float(x) for x in s_range)

    def fs(s):
        g, gp, wp, w = base.value(s), base.d1(s), director.d1(s), director.value(s)
        return inner(Metric.LORENTZIAN, g, w), inner(Metric.LORENTZIAN, gp, wp), \
            inner(Metric.LORENTZIAN, g, wp)

    def y1p(f1, f2, f3, y1, y2, s):
        num = f2 * y1 + delta * y2
        if abs(f3) < 1e-9 * (1.0 + abs(f1) + abs(f2)):
            if abs(num) <= 1e-9 * (1.0 + abs(y1) + abs(y2)):
                return 0.0
            raise ODEBreakdown(f"f3 vanishes at s = {s} with inconsistent state")
        return -num / f3

    def rhs(s, y):
        f1, f2, f3 = fs(s)
        d1 = y1p(f1, f2, f3, y[0], y[1], s)
        return (d1, -f1 * d1)

    table = DenseODE(rhs, a, b, (1.0, 0.0), 512)

    def g_value(s):
        y1, y2 = table.state_at(s)
        return y1 * base.value(s) + y2 * director.value(s)

    def g_d1(s):
        y1, y2 = table.state_at(s)
        f1, f2, f3 = fs(s)
        d1 = y1p(f1, f2, f3, y1, y2, s)
        return (d1 * base.value(s) + y1 * base.d1(s)
                + (-f1 * d1) * director.value(s) + y2 * director.d1(s))

    rs = ruled.RuledSurface(Curve(g_value, g_d1), director, (a, b), Metric.LORENTZIAN,
                            ruled.DirectorClass.LORENTZ_NONDEGENERATE, delta, normalized=True)
    return table, rs


def _de_sitter_input():
    """A hand-built admissible input on the circle w = (cos s, sin s, 0), delta = +1:
    g = w + (0, 2, s/2), so f1 = 1 + 2 sin s, f2 = 1 and f3 = 2 cos s."""
    director = Curve(lambda s: Vec3(math.cos(s), math.sin(s), 0.0),
                     lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
                     lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0))
    base = Curve(lambda s: Vec3(math.cos(s), math.sin(s) + 2.0, 0.5 * s),
                 lambda s: Vec3(-math.sin(s), math.cos(s), 0.5),
                 lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0))
    return base, director, (0.0, 1.0), 1


def _pinned_normalization_inputs():
    """(base, director, s_range, delta, tabulated): criterion 7's first 3 draws per delta
    at seed 777, the fixed-point input of a generated surface, and a hand-built input."""
    rng = np.random.default_rng(777)
    inputs = []
    for delta in (1, -1):
        for k in range(20):
            base, director, s_range = ruled.random_prenormalization_input(rng, delta)
            if k < 3:
                inputs.append((base, director, s_range, delta, True))
    rs = random_lorentz_ruled(np.random.default_rng(21), -1)
    inputs.append((rs.base, rs.director, rs.s_range, -1, True))
    inputs.append((*_de_sitter_input(), False))
    return inputs


def test_tabulated_lorentz_normalization_matches_pointwise_reference(monkeypatch):
    built = []

    class Recording(DenseODE):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    for base, director, s_range, delta, tabulated in _pinned_normalization_inputs():
        a, b = s_range
        rows = ruled._reparametrization_rows(base, director)
        assert (rows is not None and rows(rk4_stages(a, b, 512)[1]) is not None) is tabulated
        ref_table, ref = _reference_normalization(base, director, delta, s_range)
        with monkeypatch.context() as m:
            m.setattr(ruled, "DenseODE", Recording)
            rs = ruled.normalize_lorentz(base, director, delta, s_range)
        assert built[-1].nodes.tobytes() == ref_table.nodes.tobytes()
        assert _surface_samples(rs) == _surface_samples(ref)


def test_tabulation_leaves_curve_errors_to_the_stepwise_build():
    # f3 = <g, w'>_L = -sin s vanishes at s = 0 while f2 = 1, so the first step breaks
    # down; g cannot be read past the midpoint, which only a read ahead of the steps reaches
    director = Curve(lambda s: Vec3(math.cos(s), math.sin(s), 0.0),
                     lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
                     lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0))

    def g_value(s):
        if s > 0.5:
            raise OutOfDomain(f"s={s} past the midpoint")
        return Vec3(math.cos(s) + 1.0, math.sin(s), 0.5 * s)

    base = Curve(g_value, lambda s: Vec3(-math.sin(s), math.cos(s), 0.5),
                 lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0))
    reads = []

    def frame_at(S):
        # the pair answers on arrays, one s at a time in the order of S
        reads.append(len(S))
        rows = [tuple(x.as_tuple() for x in (base.value(s), base.d1(s), director.value(s),
                                              director.d1(s), director.d2(s)))
                for s in S.tolist()]
        return tuple(_V(*np.array(col).T) for col in zip(*rows))

    def on_array(curve):
        return frames._FrameCurve(curve.value, curve.d1, curve.d2, frame_at)

    for pair in ((base, director), (on_array(base), on_array(director))):
        with pytest.raises(ODEBreakdown):
            ruled.normalize_lorentz(*pair, 1, (0.0, 1.0))
    assert reads  # the second pair was read on an array first


def _on_one_read(base, director):
    """base and director as the curves of one frame table, whose frame_at reads them
    pointwise, one s at a time in the order of S: normalize_lorentz marches over them."""
    def frame_at(S):
        rows = [tuple(x.as_tuple() for x in (base.value(s), base.d1(s), director.value(s),
                                              director.d1(s), director.d2(s)))
                for s in S.tolist()]
        return tuple(_V(*np.array(col).T) for col in zip(*rows))

    return tuple(frames._FrameCurve(c.value, c.d1, c.d2, frame_at) for c in (base, director))


def _vanishing_f3_input(s_star):
    """An admissible input on the circle w = (cos s, sin s, 0), delta = +1, with
    g = w + (cos s*, sin s*, s/2): f3 = <g, w'>_L = sin(s* - s) is 0.0 at s = s*,
    where f2 = 1 and the state is not consistent."""
    c, s_ = math.cos(s_star), math.sin(s_star)
    director = Curve(lambda s: Vec3(math.cos(s), math.sin(s), 0.0),
                     lambda s: Vec3(-math.sin(s), math.cos(s), 0.0),
                     lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0))
    base = Curve(lambda s: Vec3(math.cos(s) + c, math.sin(s) + s_, 0.5 * s),
                 lambda s: Vec3(-math.sin(s), math.cos(s), 0.5),
                 lambda s: Vec3(-math.cos(s), -math.sin(s), 0.0))
    return base, director


def _built_table(monkeypatch, base, director, delta, s_range):
    """The repr of the nodes and slopes of normalize_lorentz's table, or the type and
    message of what it raises, and the number of rk4_steps taken meanwhile."""
    built, steps, step = [], [], curves.rk4_step

    class Recording(DenseODE):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with monkeypatch.context() as m:
        m.setattr(ruled, "DenseODE", Recording)
        m.setattr(curves, "rk4_step", lambda *args: steps.append(1) or step(*args))
        try:
            ruled.normalize_lorentz(base, director, delta, s_range)
        except ODEBreakdown as err:
            return (type(err), str(err)), len(steps)
    return repr((built[-1].nodes.tolist(), built[-1].slopes.tolist())), len(steps)


def _reference_table(base, director, delta, s_range):
    """_built_table's first entry for the loop of rk4_step over the closure of
    _reference_normalization, which reads f1, f2 and f3 pointwise at every stage."""
    try:
        table, _ = _reference_normalization(base, director, delta, s_range)
    except ODEBreakdown as err:
        return type(err), str(err)
    return repr((table.nodes.tolist(), table.slopes.tolist()))


@pytest.mark.parametrize("delta", [1, -1])
def test_the_reparametrization_march_takes_the_nodes_and_slopes_of_rk4_steps(delta, monkeypatch):
    for seed in range(4):
        base, director, s_range = ruled.random_prenormalization_input(
            np.random.default_rng(4100 + 10 * seed + delta), delta)
        got, steps = _built_table(monkeypatch, base, director, delta, s_range)
        assert steps == 0  # marched: every stage read from the rows of one array read
        assert got == _reference_table(base, director, delta, s_range)


def test_pinned_normalizations_march_or_step_as_their_pair_reads(monkeypatch):
    # a pair of one frame table marches and takes no rk4_step; the hand-built pair
    # of plain curves steps 512 times with rk4_step; both give the loop's bits
    for base, director, s_range, delta, tabulated in _pinned_normalization_inputs():
        got, steps = _built_table(monkeypatch, base, director, delta, s_range)
        assert steps == (0 if tabulated else 512)
        assert got == _reference_table(base, director, delta, s_range)


@pytest.mark.parametrize("s_star", [200 / 512, 401 / 1024], ids=["node", "stage"])
def test_a_vanishing_f3_breaks_the_march_down_where_the_loop_does(s_star, monkeypatch):
    # on the grid (0, 1, 512), s* is node 200, the s of stage d of step 199, or the
    # s of stages b and c of step 200; the march and the loop raise there alike
    expected = (ODEBreakdown, f"f3 vanishes at s = {s_star} with inconsistent state")
    base, director = _vanishing_f3_input(s_star)
    assert _reference_table(base, director, 1, (0.0, 1.0)) == expected
    marched = _built_table(monkeypatch, *_on_one_read(base, director), 1, (0.0, 1.0))
    stepped = _built_table(monkeypatch, base, director, 1, (0.0, 1.0))
    assert marched == (expected, 0)
    assert stepped[0] == expected and stepped[1] > 0


def test_a_backward_range_from_minus_zero_marches_the_loops_nodes(monkeypatch):
    # the first stage s of the grid (-0.0, -1.0, 512) is -0.0 + 0 h = -0.0, its one
    # zero; the march reads each distinct s once and gives the loop's bits
    base, director, _, delta = _de_sitter_input()
    got, steps = _built_table(monkeypatch, *_on_one_read(base, director), delta, (-0.0, -1.0))
    assert steps == 0
    assert got == _reference_table(base, director, delta, (-0.0, -1.0))
