"""Dense ODE tables: either integration direction, centered tables, the quintic Hermite
dense output and its derivatives, tables over given nodes, domain and input checks."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_geom import curves
from singular_geom.algebra import Metric, cross
from singular_geom.curves import OVERHANG, CenteredODE, DenseODE, FourierSeries, rk4_step
from singular_geom.errors import OutOfDomain
from singular_geom.surface import _V


def _de_sitter_rhs(calls):
    """9-dimensional Lorentz frame right-hand side (w, w', g), logging each s it is given."""
    Q = FourierSeries(0.3, [0.1, -0.05], [0.07, 0.02], math.pi)
    P = FourierSeries(1.1, [0.2, 0.1], [-0.15, 0.05], math.pi)

    def rhs(s, y):
        calls.append(s)
        w, wp = y[0:3], y[3:6]
        c = cross(Metric.LORENTZIAN, _V(*w), _V(*wp))
        q, p = Q(s), P(s)
        return (
            wp[0], wp[1], wp[2],
            -(w[0] + q * c[0]), -(w[1] + q * c[1]), -(w[2] + q * c[2]),
            -p * c[0], -p * c[1], -p * c[2],
        )

    return rhs


# w = S1, w' = S2, g: a unit de Sitter frame (delta = +1) and an arbitrary base point
Y0 = (0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.3, -0.2, 0.5)


class _ForwardTable:
    """Reference: the forward-only dense table, s1 > s0, with its exact end tests."""

    def __init__(self, f, s0, s1, y0, n_steps):
        self.f, self.s0, self.s1, self.n_steps = f, s0, s1, n_steps
        self.h = (s1 - s0) / n_steps
        self.overhang = OVERHANG * (s1 - s0)
        self.nodes = [tuple(y0)]
        for i in range(n_steps):
            self.nodes.append(rk4_step(f, s0 + i * self.h, self.nodes[-1], self.h))
        # a table also calls f at its last node, for the slope no RK4 step gives
        f(s0 + n_steps * self.h, self.nodes[-1])

    def state_at(self, s):
        if s < self.s0 - self.overhang or s > self.s1 + self.overhang:
            raise OutOfDomain(s)
        if s <= self.s0:
            return self._march(self.s0, self.nodes[0], s)
        if s >= self.s1:
            return self._march(self.s1, self.nodes[-1], s)
        idx = min(int((s - self.s0) / self.h), self.n_steps - 1)
        return self._march(self.s0 + idx * self.h, self.nodes[idx], s)

    def _march(self, s_from, y, s_to):
        ds = s_to - s_from
        if ds == 0.0:
            return y
        half = 0.5 * ds
        y = rk4_step(self.f, s_from, y, half)
        return rk4_step(self.f, s_from + half, y, half)


class _TimeReversedCentered:
    """Reference: the backward half as a forward table in tau = -s over [0, half]."""

    def __init__(self, f, half, y0, n_steps):
        n = max(2, n_steps // 2)
        self.fwd = _ForwardTable(f, 0.0, half, y0, n)

        def back(tau, z):
            return tuple([-d for d in f(0.0 - tau, z)])

        self.bwd = _ForwardTable(back, 0.0, half, y0, n)

    def state_at(self, s):
        if s >= 0.0:
            return self.fwd.state_at(s)
        return self.bwd.state_at(0.0 - s)


def _bits(values):
    return [repr(v) for v in values]


def _node_bytes(nodes):
    return np.asarray(nodes, dtype=float).tobytes()


def test_centered_table_matches_time_reversed_reference_bitwise():
    # bitwise wherever both sides take the same arithmetic: nodes, build calls,
    # on-node and overhang queries.  h = 0.9/24 puts (s - s0)/h on the end node
    # for s one ulp inside either end
    half, n_steps = 0.9, 48
    new_calls, ref_calls = [], []
    new = CenteredODE(_de_sitter_rhs(new_calls), half, Y0, n_steps)
    ref = _TimeReversedCentered(_de_sitter_rhs(ref_calls), half, Y0, n_steps)
    assert _node_bytes(new.fwd.nodes) == _node_bytes(ref.fwd.nodes)
    assert _node_bytes(new.bwd.nodes) == _node_bytes(ref.bwd.nodes)
    assert _bits(new_calls) == _bits(ref_calls)

    h = half / (n_steps // 2)
    edge = half * (1.0 + OVERHANG)
    # on a node, or in the overhang where both re-march from the end node: same bits
    for s in [0.0, -0.0, -h, -7 * h, -half, half, -edge, edge, -0.5 * (half + edge)]:
        new_calls.clear()
        ref_calls.clear()
        assert _bits(new.state_at(s)) == _bits(ref.state_at(s)), s
        assert _bits(new_calls) == _bits(ref_calls), s
    # between nodes the table interpolates and the reference re-marches two RK4
    # substeps: they agree to within RK4's local error, bounded here by 0.1 h^5
    bound = 0.1 * h ** 5
    for s in [0.3 * h, -0.3 * h, -0.41, 0.41, -half + 1e-13, half - 1e-13, -h * 21.5,
              math.nextafter(-half, 0.0), math.nextafter(half, 0.0)]:
        for a, b in zip(new.state_at(s), ref.state_at(s), strict=True):
            assert abs(a - b) <= bound, s


@pytest.mark.parametrize("s0, s1", [(-0.5, 1.0), (1.0, -0.5)])
def test_dense_output_exact_for_quartic(s0, s1):
    # y' = 4 s^3: RK4 is Simpson's rule here, exact for the cubic, the node
    # differences are exact for the cubic slope, and the quintic interpolant is
    # exact for s^4, so only rounding remains: 1e-14 absolute for |y| <= 1
    table = DenseODE(lambda s, y: (4.0 * s ** 3,), s0, s1, (s0 ** 4,), 16)
    lo, hi = min(s0, s1), max(s0, s1)
    queries = [lo + (hi - lo) * k / 301 for k in range(1, 301)]
    queries += [math.nextafter(lo, hi), math.nextafter(hi, lo), lo + 1e-9, hi - 1e-9]
    for s in queries:
        assert abs(table.state_at(s)[0] - s ** 4) <= 1e-14, s


def test_build_calls_f_four_times_per_step_and_queries_take_no_rk4_step(monkeypatch):
    steps, calls = [], []

    def counted_rk4_step(*args):
        steps.append(args[1])
        return rk4_step(*args)

    monkeypatch.setattr(curves, "rk4_step", counted_rk4_step)
    n_steps = 24
    table = DenseODE(_de_sitter_rhs(calls), 0.0, 0.9, Y0, n_steps)
    assert len(steps) == n_steps
    # the node slopes are the build's own first stages, plus f at the last node
    assert len(calls) == 4 * n_steps + 1
    steps.clear()
    calls.clear()
    S = [0.9 * k / 200 for k in range(1, 200)]
    for s in S:
        table.state_at(s)
        table.jet_at(s)
    curves.stacked_states_at([table], np.array(S))
    assert steps == [] and calls == []
    table.state_at(0.9 * (1.0 + 0.5 * OVERHANG))
    assert len(steps) == 2


def _listcomp_rk4_step(f, s, y, h, k1=None):
    """Reference: rk4_step as generic stage sums over zip, in its order of operations."""
    if k1 is None:
        k1 = f(s, y)
    half = 0.5 * h
    k2 = f(s + half, tuple([yi + half * ki for yi, ki in zip(y, k1)]))
    k3 = f(s + half, tuple([yi + half * ki for yi, ki in zip(y, k2)]))
    k4 = f(s + h, tuple([yi + h * ki for yi, ki in zip(y, k3)]))
    w = h / 6.0
    return tuple([yi + w * (a + 2.0 * (b + c) + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])


def _coupled_rhs(n, calls):
    """A right-hand side of n components that only adds and multiplies, so it carries
    inf and nan through without raising, logging each s and state it is given."""
    def rhs(s, y):
        calls.append(struct.pack(f"{n + 1}d", s, *y))
        return tuple([y[(i + 1) % n] * y[i] - (i + 0.5) * s + 0.25 * y[i - 1] for i in range(n)])

    return rhs


_QUIET_NAN = struct.unpack("d", struct.pack("Q", 0x7FF8_0000_0000_0BAD))[0]
_SPECIAL = [math.inf, -math.inf, math.nan, -math.nan, _QUIET_NAN, 1e308, -1e308, 5e-324,
            0.0, -0.0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("given_k1", [False, True])
def test_rk4_step_is_the_list_comprehension_stage_sums_bitwise(n, given_k1):
    # struct bytes rather than ==, so that -0.0 and nan payloads count.  Which
    # nan operand a float add or multiply passes on changes once CPython
    # specializes the instruction, so both sides run finite steps first
    rng = np.random.default_rng(n)
    steps = [1e-3, 0.5, -0.25, 1e300, math.inf, math.nan]
    warm = 100
    for trial in range(warm + 300):
        y = tuple(rng.normal(scale=2.0, size=n).tolist())
        h = float(rng.uniform(-0.1, 0.1))
        if trial >= warm and trial % 3 == 0:
            y = tuple(_SPECIAL[j] if rng.random() < 0.4 else v
                      for j, v in zip(rng.integers(len(_SPECIAL), size=n), y))
        if trial >= warm and trial % 2:
            h = steps[trial % len(steps)]
        s = float(rng.normal())
        got_calls, ref_calls = [], []
        got_f, ref_f = _coupled_rhs(n, got_calls), _coupled_rhs(n, ref_calls)
        k1 = _coupled_rhs(n, [])(s, y) if given_k1 else None
        got = rk4_step(got_f, s, y, h, k1)
        ref = _listcomp_rk4_step(ref_f, s, y, h, k1)
        assert type(got) is tuple and len(got) == n
        assert struct.pack(f"{n}d", *got) == struct.pack(f"{n}d", *ref), (y, h)
        assert got_calls == ref_calls, (y, h)


@pytest.mark.parametrize("k1", [None, (1.0, 2.0, 3.0)])
def test_rk4_step_raises_on_a_stage_of_another_length(k1):
    # stage sums over zip would cut the step short to the shorter of y and k
    def short(s, y):
        return (y[1], -y[0])

    def long(s, y):
        return (*y, 1.0)

    y = (1.0, 0.5, 0.25)
    for f in (short, long):
        with pytest.raises(ValueError, match="values to unpack"):
            rk4_step(f, 0.0, y, 0.1, k1)
    with pytest.raises(ValueError, match="values to unpack"):
        rk4_step(lambda s, y: y, 0.0, y, 0.1, (1.0, 2.0))


def test_dense_output_independent_of_query_order():
    queries = [0.9 * k / 97 for k in range(98)] + [0.0133, 0.5, 0.8871, 0.9 * (1 + OVERHANG)]
    first = DenseODE(_de_sitter_rhs([]), 0.0, 0.9, Y0, 24)
    second = DenseODE(_de_sitter_rhs([]), 0.0, 0.9, Y0, 24)
    forward = {s: _bits(first.state_at(s)) for s in queries}
    backward = {s: _bits(second.state_at(s)) for s in reversed(queries)}
    assert forward == backward


def test_state_at_of_a_float_gives_floats_whatever_was_asked_before():
    # state_at reads float(s), so a float, an np.float64 and an int s give one float
    # tuple, and the last-s memo (curves._same_arg) hands no query the state of
    # another type, in either order of the queries
    for s in (0.31, 1.0):  # both between nodes; 1.0 is also read as the int 1
        fresh = DenseODE(_de_sitter_rhs([]), 0.0, 1.3, Y0, 24).state_at(s)
        assert [type(x) for x in fresh] == [float] * len(Y0)
        args = [s, np.float64(s)] + ([int(s)] if s.is_integer() else [])
        for order in (args, args[::-1]):
            table = DenseODE(_de_sitter_rhs([]), 0.0, 1.3, Y0, 24)
            for x in order:
                got = table.state_at(x)
                assert [type(v) for v in got] == [float] * len(Y0)
                assert _bits(got) == _bits(fresh)


def _oscillator(s, y):
    """y'' = -y + sin s as a system: floats at a float s."""
    return (y[1], -y[0] + math.sin(s))


def _leaves(x):
    return [v for part in x for v in _leaves(part)] if isinstance(x, tuple) else [x]


@pytest.mark.parametrize("read, points", [
    # [1, 51] in 24 steps: 17 lies between nodes, 26 is node 12, 1 and 51 are the
    # ends, and 0 and 52 lie in the overhangs (0.02 * 50 = 1)
    (lambda s: DenseODE(_oscillator, 1.0, 51.0, (1.0, 0.0), 24).state_at(s),
     [17, 26, 1, 51, 0, 52, 17.3]),
    (lambda s: DenseODE(_oscillator, 1.0, 51.0, (1.0, 0.0), 24).jet_at(s),
     [17, 26, 1, 51, 0, 52, 17.3]),
    (lambda s: CenteredODE(_oscillator, 25.0, (1.0, 0.0), 24).state_at(s),
     [3, -3, 0, 25, -25, 25.3, -25.3]),
    (FourierSeries(0.3, [0.1, -0.05], [0.07, 0.02], math.pi), [2, -1, 0.37]),
    (FourierSeries(0.3, [0.1, -0.05], [0.07, 0.02], math.pi).deriv, [2, -1, 0.37]),
], ids=["state_at", "jet_at", "centered", "series", "series_deriv"])
def test_point_reads_compute_on_float_s_whatever_its_type(read, points):
    # a float, an np.float64 and an int s give floats, with the bits of the float s;
    # each read is a table's first, so no memo answers it
    for s in points:
        args = [float(s), np.float64(s)] + ([int(s)] if float(s).is_integer() else [])
        got = [_leaves(read(x)) for x in args]
        for values in got:
            assert {type(v) for v in values} == {float}
            assert _bits(values) == _bits(got[0])


@pytest.mark.parametrize("s0, s1", [(0.0, 0.9), (0.0, -0.9)])
def test_dense_output_is_c1_across_nodes(s0, s1):
    # the central difference over +-1e-5 has truncation ~1e-11 and roundoff
    # ~1e-11, so 1e-8 leaves room while catching a slope jump at the node
    table = DenseODE(_de_sitter_rhs([]), s0, s1, Y0, 24)
    eps = 1e-5
    for i in (1, 2, 12, 22, 23):
        s = s0 + i * table.h
        slope = table.f(s, table.nodes[i])
        plus, minus = table.state_at(s + eps), table.state_at(s - eps)
        for k, fk in enumerate(slope):
            assert abs((plus[k] - minus[k]) / (2 * eps) - fk) <= 1e-8, (i, k)


def test_backward_table_matches_exponential():
    table = DenseODE(lambda s, y: (y[0],), 0.0, -2.0, (1.0,), 64)
    h = table.h
    assert h == -2.0 / 64

    def rk4_bound(s):
        # RK4's relative error for y' = y is h^5/120 per step, |s| h^4 / 120 in all
        return abs(s) * h ** 4 / 100 + 1e-15

    for k, node in enumerate(table.nodes):
        s = k * h
        assert abs(node[0] / math.exp(s) - 1.0) < rk4_bound(s), k
    for s in (-0.001, -0.37, -1.0, -1.999, -2.0, -2.03, 0.03):
        assert abs(table.state_at(s)[0] / math.exp(s) - 1.0) < rk4_bound(s), s


@pytest.mark.parametrize("s0, s1", [(0.0, 1.5), (0.0, -1.5), (-0.5, 1.0), (1.0, -0.5)])
def test_out_of_domain_just_past_either_overhang_end(s0, s1):
    table = DenseODE(lambda s, y: (1.0,), s0, s1, (0.0,), 8)
    lo, hi = min(s0, s1), max(s0, s1)
    pad = OVERHANG * (hi - lo)
    for end, outward in ((lo - pad, -math.inf), (hi + pad, math.inf)):
        assert table.state_at(end)[0] == pytest.approx(end - s0)
        with pytest.raises(OutOfDomain):
            table.state_at(math.nextafter(end, outward))


@pytest.mark.parametrize("kind", ["forward", "backward", "centered"])
def test_nan_s_is_out_of_domain_and_named(kind):
    # every comparison with NaN is false, so a range check written as two
    # rejections let it through to int() in _cell
    table = {"forward": DenseODE(lambda s, y: (1.0,), 0.0, 1.5, (0.0,), 8),
             "backward": DenseODE(lambda s, y: (1.0,), 1.5, 0.0, (0.0,), 8),
             "centered": CenteredODE(lambda s, y: (1.0,), 1.5, (0.0,), 8)}[kind]
    reads = [lambda: table.state_at(math.nan),
             lambda: curves.stacked_states_at([table], np.array([0.1, math.nan]))]
    if kind != "centered":
        reads.append(lambda: table._state_at(math.nan))
    for read in reads:
        with pytest.raises(OutOfDomain, match=r"^s=nan outside"):
            read()


@pytest.mark.parametrize("s0, s1", [(1.0, 1.0), (0.0, -0.0), (math.nan, 1.0), (0.0, math.nan),
                                    (0.0, math.inf), (-math.inf, 0.0)])
def test_table_rejects_empty_or_non_finite_range(s0, s1):
    with pytest.raises(ValueError):
        DenseODE(lambda s, y: (1.0,), s0, s1, (0.0,), 8)


def test_table_needs_four_steps_for_its_node_stencils():
    DenseODE(lambda s, y: (1.0,), 0.0, 1.0, (0.0,), 4)
    with pytest.raises(ValueError):
        DenseODE(lambda s, y: (1.0,), 0.0, 1.0, (0.0,), 3)
    # each half of a centered table gets n_steps // 2 steps, with no silent floor
    CenteredODE(lambda s, y: (1.0,), 1.0, (0.0,), 8)
    with pytest.raises(ValueError):
        CenteredODE(lambda s, y: (1.0,), 1.0, (0.0,), 7)


@pytest.mark.parametrize("s0, s1", [(-0.5, 1.0), (1.0, -0.5)])
def test_jet_exact_for_quartic(s0, s1):
    # y = s^4 as in test_dense_output_exact_for_quartic: the interpolant and its
    # node data are exact, so y' = 4 s^3 and y'' = 12 s^2 hold to rounding; y''
    # divides node differences by h^2, hence its looser bound
    table = DenseODE(lambda s, y: (4.0 * s ** 3,), s0, s1, (s0 ** 4,), 16)
    lo, hi = min(s0, s1), max(s0, s1)
    on_nodes = [s0 + i * table.h for i in range(1, 16)]
    between = [lo + (hi - lo) * k / 301 for k in range(1, 301)]
    for s in on_nodes + between + [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]:
        y, d1, d2 = table.jet_at(s)
        assert abs(y[0] - s ** 4) <= 1e-14, s
        assert abs(d1[0] - 4.0 * s ** 3) <= 1e-13, s
        assert abs(d2[0] - 12.0 * s ** 2) <= 1e-12, s
    # past an end: the marched state, f there, and the end node's y''
    pad = 0.5 * OVERHANG * (hi - lo)
    for s, end in ((lo - pad, lo), (hi + pad, hi)):
        y, d1, d2 = table.jet_at(s)
        assert abs(y[0] - s ** 4) <= 1e-14, s
        assert d1[0] == 4.0 * s ** 3, s
        assert abs(d2[0] - 12.0 * end ** 2) <= 1e-12, s


@pytest.mark.parametrize("s0, s1", [(0.0, 0.9), (0.0, -0.9)])
def test_jet_value_is_state_at_bitwise(s0, s1):
    jets = DenseODE(_de_sitter_rhs([]), s0, s1, Y0, 24)
    states = DenseODE(_de_sitter_rhs([]), s0, s1, Y0, 24)
    edge = s1 + OVERHANG * (s1 - s0)
    for s in [s0, s1, -0.0, 0.3 * jets.h, 7 * jets.h, 0.5 * s1, math.nextafter(s1, s0),
              0.5 * (s1 + edge), edge, s0 - 0.5 * (edge - s1)]:
        assert _bits(jets.jet_at(s)[0]) == _bits(states.state_at(s)), s


@pytest.mark.parametrize("s0, s1", [(0.0, 0.9), (0.0, -0.9)])
def test_from_nodes_answers_like_the_built_table(s0, s1):
    calls = []
    built = DenseODE(_de_sitter_rhs(calls), s0, s1, Y0, 24)
    calls.clear()
    wrapped = DenseODE.from_nodes(built.f, s0, s1, built.nodes, built.slopes)
    assert calls == []
    assert wrapped.h == built.h
    assert _node_bytes(wrapped.nodes) == _node_bytes(built.nodes)
    edge = s1 + OVERHANG * (s1 - s0)
    for s in [s0, s1, 0.3 * built.h, 7 * built.h, 0.5 * s1, 0.5 * (s1 + edge), edge]:
        assert _bits(wrapped.state_at(s)) == _bits(built.state_at(s)), s
    with pytest.raises(ValueError):
        DenseODE.from_nodes(built.f, s0, s1, built.nodes[:4], built.slopes[:4])
    with pytest.raises(ValueError):
        DenseODE.from_nodes(built.f, s0, s1, built.nodes, built.slopes[:-1])


def test_catenary_cylinder_residual_grid_takes_no_rk4_step(monkeypatch):
    from singular_geom import catenary as cat
    from singular_geom.algebra import Metric, Vec3
    from singular_geom.surface import singular_residual

    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 3.0, 2.0, 5e-4)
    steps = []

    def counted_rk4_step(*args):
        steps.append(args[1])
        return rk4_step(*args)

    monkeypatch.setattr(curves, "rk4_step", counted_rk4_step)
    monkeypatch.setattr(cat, "rk4_step", counted_rk4_step)
    ez = Vec3(0.0, 0.0, 1.0)
    surf = cat.catenary_cylinder(path, ez, Vec3(0.0, 1.0, 0.0))
    s0, s1, t0, t1 = surf.domain
    for k in range(50):
        for j in range(50):
            singular_residual(Metric.EUCLIDEAN, surf, s0 + (s1 - s0) * k / 49,
                              t0 + (t1 - t0) * j / 49, ez, 3.0)
    assert steps == []
    # the counter is live: a jet past the end re-marches from the end node
    surf.jet_unchecked(s1 + 0.5 * OVERHANG * (s1 - s0), 0.0)
    assert len(steps) == 2


def test_fourier_table_is_the_series_bitwise():
    omega = 2.0 * math.pi / 3.0
    series = [FourierSeries(0.4, [0.3, -0.2], [0.1, 0.05], omega),
              FourierSeries(-1.2, [0.0, 0.7], [-0.6, 0.2], omega),
              FourierSeries(-0.0, [0.0, 0.0], [0.0, 0.0], omega),
              # fewer terms: the first frequencies of the others
              FourierSeries(0.25, [0.5], [-0.3], omega)]
    # both signs, -0.0 and a subnormal product
    s = np.concatenate([np.linspace(-2.0, 3.0, 701), [0.0, -0.0, 1e-300]]).reshape(-1, 2)
    table = curves.fourier_table(series, s)
    assert table.shape == (*s.shape, 4)
    expected = np.array([[[f(x) for f in series] for x in row] for row in s.tolist()])
    assert table.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        curves.fourier_table([series[0], FourierSeries(0.4, [0.3], [0.1], 2.0 * omega)], s)


def _states_at_tables():
    """Forward, backward and centered tables of a sweep frame ODE, whose right-hand side
    takes floats and arrays alike, and a centered table over batch-built nodes."""
    from singular_geom import ruled

    rng = np.random.default_rng(12)
    draws = [ruled._draw_lorentz(rng, 1)
             for _ in range(ruled._MIN_BATCH[ruled.DirectorClass.LORENTZ_NONDEGENERATE])]
    rhs, _ = draws[0].ode()
    batch = ruled._build_tables(draws, [d.ode()[0] for d in draws], 64)[0]
    return {
        "forward": DenseODE(rhs, -0.25, 0.75, draws[0].y0, 32),
        "backward": DenseODE(rhs, 0.75, -0.25, draws[0].y0, 32),
        "centered": CenteredODE(rhs, 0.8, draws[0].y0, 64),
        "centered batch": batch,
    }


_STATES_AT_TABLES = _states_at_tables()


def _stacked_tables():
    """The tables of _states_at_tables, each with the same table of two more draws on its
    grid (or grids), and the whole batch build."""
    from singular_geom import ruled

    rng = np.random.default_rng(13)
    draws = [ruled._draw_lorentz(rng, 1) for _ in range(2)]
    rhss = [d.ode()[0] for d in draws]
    out = {name: [table] for name, table in _STATES_AT_TABLES.items() if name != "centered batch"}
    for rhs, d in zip(rhss, draws):
        out["forward"].append(DenseODE(rhs, -0.25, 0.75, d.y0, 32))
        out["backward"].append(DenseODE(rhs, 0.75, -0.25, d.y0, 32))
        out["centered"].append(CenteredODE(rhs, 0.8, d.y0, 64))
    draws = [ruled._draw_lorentz(rng, 1)
             for _ in range(ruled._MIN_BATCH[ruled.DirectorClass.LORENTZ_NONDEGENERATE])]
    out["centered batch"] = ruled._build_tables(draws, [d.ode()[0] for d in draws], 64)
    return out


_STACKED_TABLES = _stacked_tables()


def _halves(table):
    return (table.fwd, table.bwd) if isinstance(table, CenteredODE) else (table,)


def _position(table, point):
    """The s of a drawn point on table: a signed zero, a node or cell of either half,
    or a point in the overhang past either end."""
    kind, *args = point
    if kind == "zero":
        return args[0]
    if kind == "cell":
        half, i, t = args
        half = _halves(table)[half % len(_halves(table))]
        return half.s0 + (i + (t if i < half.n_steps else 0.0)) * half.h
    end, frac = args
    lo = min(min(h.s0, h.s1) for h in _halves(table))
    hi = max(max(h.s0, h.s1) for h in _halves(table))
    pad = frac * OVERHANG * min(abs(h.s1 - h.s0) for h in _halves(table))
    return hi + pad if end else lo - pad


# nodes and cells next to each end, where the node y'' stencils are one-sided, and
# any node or cell of either half
_CELLS = st.tuples(st.just("cell"), st.integers(0, 1),
                   st.one_of(st.sampled_from([0, 1, 2, 29, 30, 31, 32]), st.integers(0, 32)),
                   st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
_POINTS = st.one_of(_CELLS, st.tuples(st.just("zero"), st.sampled_from([0.0, -0.0])),
                    st.tuples(st.just("overhang"), st.booleans(), st.floats(0.0, 1.0)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_STATES_AT_TABLES)), points=st.lists(_POINTS, min_size=1,
                                                                         max_size=12))
def test_a_stack_of_one_reads_state_at_bitwise(name, points):
    table = _STATES_AT_TABLES[name]
    S = np.array([_position(table, p) for p in points])
    expected = np.array([table.state_at(s) for s in S.tolist()]).T
    got = curves.stacked_states_at([table], S)
    assert got.shape == (*expected.shape, 1)
    assert got[..., 0].tobytes() == expected.tobytes()
    assert curves.stacked_states_at([table], S.reshape(1, -1)).tobytes() == expected.tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_STACKED_TABLES)), points=st.lists(_POINTS, min_size=1,
                                                                       max_size=12))
def test_stacked_states_at_is_each_tables_state_at_bitwise(name, points):
    tables = _STACKED_TABLES[name]
    S = np.array([_position(tables[0], p) for p in points]).reshape(1, -1)
    got = curves.stacked_states_at(tables, S)
    assert got.shape == (9, *S.shape, len(tables))
    for b, table in enumerate(tables):
        expected = np.array([table.state_at(s) for s in S.ravel().tolist()]).T.reshape(9, *S.shape)
        assert got[..., b].tobytes() == expected.tobytes()


def test_stacked_states_at_needs_tables_on_one_grid():
    forward, backward = _STACKED_TABLES["forward"][0], _STACKED_TABLES["backward"][0]
    with pytest.raises(ValueError, match="one grid"):
        curves.stacked_states_at([forward, backward], np.array([0.1]))
