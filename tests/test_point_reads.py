"""Point reads of a generated surface served from its table's last array read.

Each surface is checked against a twin built from the same draw whose curves
never read on arrays, so every value of the twin comes from the pointwise
Hermite and right-hand side.
"""

import math

import numpy as np
import pytest

from singular_geom import curves, frames, ruled
from singular_geom.algebra import Metric, Vec3
from singular_geom.curves import FD_H1, Curve
from singular_geom.errors import OutOfDomain
from singular_geom.ruled import (
    DirectorClass,
    RuledSurface,
    SweepConfig,
    default_t_samples,
    falsification_sweep,
    random_unit_timelike,
    random_unit_vector,
    residual_polynomial_consistency,
    translate_into_halfspace,
)
from singular_geom.ruled import _halfspace_window

_DRAWS = {
    "euclid": ruled._draw_euclidean,
    "lorentz+1": lambda rng: ruled._draw_lorentz(rng, 1),
    "lorentz-1": lambda rng: ruled._draw_lorentz(rng, -1),
    "lightlike": ruled._draw_lightlike,
}


def _pair(klass, seed):
    """A generated surface and its twin: the same draw, a table of its own, plain curves."""
    d = _DRAWS[klass](np.random.default_rng(seed))
    rs, other = ruled._build_surfaces([d]), ruled._build_surfaces([d])
    rs, other = rs[0], other[0]
    twin = RuledSurface(Curve(other.base.value, other.base.d1, other.base.d2),
                        Curve(other.director.value, other.director.d1, other.director.d2),
                        other.s_range, other.metric, other.director_class, other.delta,
                        normalized=True, label=other.label)
    return rs, twin


def _stencil(rs, n):
    s = rs.s_samples(n)
    return np.stack([s - 2 * FD_H1, s - FD_H1, s, s + FD_H1, s + 2 * FD_H1])


def _point_reads(rs, s):
    """repr of every curve value a frame, a coefficient vector or a jet reads at s."""
    b, d = rs.base, rs.director
    return [repr(f(s)) for f in (b.value, b.d1, b.d2, d.value, d.d1, d.d2)]


def _table_reads(monkeypatch):
    """A list that gets one entry per pointwise state_at of any frame table."""
    calls, original = [], curves.DenseODE.state_at  # CenteredODE reads through it
    monkeypatch.setattr(curves.DenseODE, "state_at",
                        lambda self, s: calls.append(s) or original(self, s))
    return calls


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_point_reads_at_the_last_read_match_the_pointwise_twin(klass, monkeypatch):
    rs, twin = _pair(klass, 31)
    lo, hi = rs.s_range
    # fd1's stencil around 6 samples, the range's ends but 0 (test_zero_is_read_pointwise)
    # and s = 1, all integers but 0.5
    S = np.concatenate([_stencil(rs, 6).ravel(), [x for x in (lo, hi) if x], [1.0, 0.5]])
    offset = Vec3(0.25, -1.5, 2.0)
    shifted, twin_shifted = rs.base.translated(offset), twin.base.translated(offset)
    calls = _table_reads(monkeypatch)
    rs.base.frame_at(S.reshape(1, -1))
    for x in S.tolist():
        args = [x, np.float64(x)] + ([int(x)] if x == int(x) else [])
        for s in args:
            n = len(calls)
            got = _point_reads(rs, s)
            # only g'' reads the table point by point: a closed form of the state
            assert len(calls) - n == (0 if klass == "lightlike" else 1)
            assert got == _point_reads(twin, s)
            for f, g in ((shifted.value, twin_shifted.value), (shifted.d1, twin_shifted.d1)):
                assert repr(f(s)) == repr(g(s))
    # a new read of the same points in another order serves them from its own columns
    rs.base.frame_at(S[::-1].copy())
    n = len(calls)
    got = [_point_reads(rs, x) for x in S.tolist()]
    assert len(calls) - n == (0 if klass == "lightlike" else len(S))
    assert got == [_point_reads(twin, x) for x in S.tolist()]


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_zero_is_read_pointwise(klass, monkeypatch):
    rs, twin = _pair(klass, 32)
    lo = rs.s_range[0]
    S = np.array([lo, 0.0, -0.0, 0.5])
    calls = _table_reads(monkeypatch)
    rs.base.frame_at(S)
    for s in (0.0, -0.0, 0, np.float64(-0.0)):
        n = len(calls)
        got = repr(rs.base.value(s))
        assert len(calls) > n
        assert got == repr(twin.base.value(s))
        assert _point_reads(rs, s) == _point_reads(twin, s)
    n = len(calls)
    rs.base.value(0.5)
    assert len(calls) == n
    # no read holds NaN: it is read pointwise, and raises what the twin raises,
    # an OutOfDomain naming s
    for s in (math.nan, np.float64(math.nan)):
        with pytest.raises(OutOfDomain, match=r"^s=nan outside") as ref:
            twin.base.value(s)
        n = len(calls)
        with pytest.raises(OutOfDomain) as got:
            rs.base.value(s)
        assert len(calls) > n
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_the_lookup_serves_a_repeated_s_from_its_first_column_under_any_key_type(klass,
                                                                                monkeypatch):
    made = _recorded_reads(monkeypatch)
    rs, twin = _pair(klass, 38)
    kept = made[0]
    calls = _table_reads(monkeypatch)
    rs.base.frame_at(np.array([[1.0, 0.5, 1.0], [0.25, 1.0, 0.5]]))
    for s in (1.0, np.float64(1.0), 1, 0.5, np.float64(0.5), 0.25, np.float64(0.25)):
        n = len(calls)
        got = _point_reads(rs, s)
        assert len(calls) - n == (0 if klass == "lightlike" else 1)  # g'' alone
        assert got == _point_reads(twin, s)
    assert kept._keys == {1.0: 0, 0.5: 1, 0.25: 3}


def test_a_non_finite_column_raises_the_twins_error():
    # w'' divides by zero at one s of the read: a float raises ZeroDivisionError, an
    # array gives inf there; that column is read pointwise, and raises the twin's error
    d = ruled._draw_euclidean(np.random.default_rng(6))
    rhs, _ = d.ode()

    def poisoned(s, y):
        out = rhs(s, y)
        if isinstance(s, np.ndarray):
            return (*out[:3], *[x / (s != s_bad) for x in out[3:6]], *out[6:])
        return (*out[:3], *[x / float(s != s_bad) for x in out[3:6]], *out[6:])

    (base, director), (twin_base, twin) = [
        frames._frame_curves(ruled._build_tables([d], [rhs], 1024)[0], poisoned) for _ in "ab"]
    S = np.linspace(0.1, 1.9, 11)
    s_bad = float(S[4])
    with np.errstate(divide="ignore"):
        assert np.isinf(base.frame_at(S)[4].x[4])
    for f, twin_f in ((director.d2, twin.d2), (base.d1, twin_base.d1)):
        with pytest.raises(ZeroDivisionError) as ref:
            twin_f(s_bad)
        with pytest.raises(ZeroDivisionError) as got:
            f(s_bad)
        assert str(got.value) == str(ref.value)
    # g, w and w' read no right-hand side there; the next column is served whole
    no_rhs = [(base.value, twin_base.value), (director.value, twin.value), (director.d1, twin.d1)]
    for f, twin_f in no_rhs:
        assert repr(f(s_bad)) == repr(twin_f(s_bad))
    for f, twin_f in no_rhs + [(base.d1, twin_base.d1), (director.d2, twin.d2)]:
        assert repr(f(float(S[5]))) == repr(twin_f(float(S[5])))


def _recorded_reads(monkeypatch):
    """Every _KeptRead made from now on."""
    made = []

    class Recorded(frames._KeptRead):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(frames, "_KeptRead", Recorded)
    return made


def test_a_read_with_no_point_query_builds_no_lookup(monkeypatch):
    made = _recorded_reads(monkeypatch)
    (rs,) = ruled._build_surfaces([_DRAWS["lorentz+1"](np.random.default_rng(33))])
    (kept,) = made
    rs.base.frame_at(_stencil(rs, 4))
    assert kept._keys is None
    rs.director.value(float(rs.s_samples(4)[2]))
    assert kept._keys is not None
    # a new read drops the lookup of the last one
    rs.base.frame_at(_stencil(rs, 5))
    assert kept._keys is None
    # a sweep reads the tables of a pass all at once, so it keeps no read of one
    # table and makes no point query
    made.clear()
    for klass, delta in ((DirectorClass.EUCLID_STANDARD, 1), (DirectorClass.LORENTZ_LIGHTLIKE, 1)):
        metric = Metric.EUCLIDEAN if klass is DirectorClass.EUCLID_STANDARD else Metric.LORENTZIAN
        falsification_sweep(SweepConfig(n_surfaces=6, n_s_samples=5, seed=3, metric=metric,
                                        director_class=klass, delta=delta))
    assert len(made) == 12
    assert all(kept._S is None and kept._keys == {} for kept in made)


def _states_at_reads(monkeypatch, table):
    """A list that gets the S of every states_at of this one table."""
    calls, original = [], table.states_at
    monkeypatch.setattr(table, "states_at", lambda S: calls.append(S.copy()) or original(S))
    return calls


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_a_read_at_the_last_s_is_the_kept_frame(klass, monkeypatch):
    rs, _ = _pair(klass, 38)
    other, _ = _pair(klass, 38)
    fresh = other.base.frame_at(_stencil(other, 4))
    calls = _states_at_reads(monkeypatch, rs.base.table)
    S = _stencil(rs, 4)
    frame = rs.base.frame_at(S)
    assert len(calls) == 1
    # the same S, and an equal copy of it, from the base or the director: no read
    assert rs.base.frame_at(S) is frame
    assert rs.director.frame_at(S.copy()) is frame
    assert len(calls) == 1
    assert [repr(c.tolist()) for v in frame for c in v] == \
        [repr(c.tolist()) for v in fresh for c in v]
    # another shape, or other points, are read again
    rs.base.frame_at(S.ravel())
    rs.base.frame_at(S + FD_H1)
    assert len(calls) == 3


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_a_read_whose_s_differs_in_the_sign_of_a_zero_is_read_again(klass, monkeypatch):
    rs, twin = _pair(klass, 39)
    calls = _states_at_reads(monkeypatch, rs.base.table)
    S = np.array([0.5, 0.0, 1.0])
    first = rs.base.frame_at(S)
    assert rs.base.frame_at(np.array([0.5, 0.0, 1.0])) is first
    assert len(calls) == 1
    # -0.0 == 0.0, but the bytes differ: a function of s may tell them apart
    second = rs.base.frame_at(np.array([0.5, -0.0, 1.0]))
    assert second is not first
    assert [repr(x.tolist()) for x in calls] == ["[0.5, 0.0, 1.0]", "[0.5, -0.0, 1.0]"]
    # the zero's column is read at -0.0 in the new read, and 0.0 is still read pointwise
    assert repr(rs.base.value(0.5)) == repr(twin.base.value(0.5))
    assert repr(rs.base.value(-0.0)) == repr(twin.base.value(-0.0))


@pytest.mark.parametrize("klass", ["lorentz+1", "lorentz-1", "lightlike"])
def test_the_window_and_translation_read_the_table_once(klass, monkeypatch):
    # the window reads the frame at the samples and fd1's points around them; the
    # translation reads it there again, from the table's kept read.  That read
    # belongs to the table, so a second surface over the same curves is served
    # by it too
    rng = np.random.default_rng(40)
    values = ruled._frame_values
    for build in ("same", "rebuilt"):
        rs, twin = _pair(klass, 41)
        calls, frames_read = _states_at_reads(monkeypatch, rs.base.table), []
        monkeypatch.setattr(ruled, "_frame_values", lambda klass, frame:
                            frames_read.append(frame) or values(klass, frame))
        v = random_unit_timelike(rng)
        s_values = rs.s_samples(7)
        window = _halfspace_window(rs, s_values)
        assert len(calls) == 1
        if build == "rebuilt":
            rs = RuledSurface(rs.base, rs.director, rs.s_range, rs.metric, rs.director_class,
                              rs.delta, rs.normalized, rs.label)
        moved = translate_into_halfspace(rs, v, s_values, window)
        assert len(calls) == 1
        # the translation took its heights on arrays, from the frame the window read
        assert len(frames_read) == 2 and frames_read[1] is frames_read[0]
        monkeypatch.setattr(ruled, "_frame_values", values)
        assert window == _halfspace_window(twin, s_values)
        moved_twin = translate_into_halfspace(twin, v, s_values, window)
        assert [repr(moved.point(s, t)) for s in s_values for t in window] == \
            [repr(moved_twin.point(s, t)) for s in s_values for t in window]


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_oracle_matches_the_pointwise_twin_at_48_by_8(klass):
    rs, twin = _pair(klass, 34)
    rng = np.random.default_rng(35)
    v = random_unit_vector(rng) if rs.metric is Metric.EUCLIDEAN else random_unit_timelike(rng)
    alpha = float(rng.uniform(-3.0, 3.0))
    s_values = rs.s_samples(48)
    # the twin's window and translation are pointwise: its curves are plain Curves
    rs = translate_into_halfspace(rs, v, s_values, _halfspace_window(rs, s_values))
    twin = translate_into_halfspace(twin, v, s_values, _halfspace_window(twin, s_values))
    for s in s_values:
        got = residual_polynomial_consistency(rs, s, v, alpha, default_t_samples(rs, s, n=8))
        ref = residual_polynomial_consistency(twin, s, v, alpha, default_t_samples(twin, s, n=8))
        assert repr(got) == repr(ref)
        assert type(got) is type(ref)


@pytest.mark.parametrize("klass", list(_DRAWS))
def test_the_oracle_at_a_sample_reads_the_table_pointwise_for_g2_alone(klass, monkeypatch):
    # the halfspace window and translation read the frame at every sample and
    # at fd1's points around it; default_t_samples and the coefficients read
    # it there again, from the table's kept read, and the curve jets read g''
    rs, twin = _pair(klass, 36)
    rng = np.random.default_rng(37)
    v = random_unit_vector(rng) if rs.metric is Metric.EUCLIDEAN else random_unit_timelike(rng)
    alpha = float(rng.uniform(-3.0, 3.0))
    s_values = rs.s_samples(48)
    rs = translate_into_halfspace(rs, v, s_values, _halfspace_window(rs, s_values))
    twin = translate_into_halfspace(twin, v, s_values, _halfspace_window(twin, s_values))
    calls = _table_reads(monkeypatch)
    for x in s_values[::6]:
        for s in (x, float(x)):
            n = len(calls)
            ts = default_t_samples(rs, s)
            got = residual_polynomial_consistency(rs, s, v, alpha, ts)
            assert len(calls) - n == (0 if klass == "lightlike" else 1)
            ref_ts = default_t_samples(twin, s)
            assert repr(ts) == repr(ref_ts)
            assert repr(got) == repr(residual_polynomial_consistency(twin, s, v, alpha, ref_ts))
