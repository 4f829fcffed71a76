"""The coefficient oracle on arrays against its pointwise loop, value, type and errors."""

import math

import numpy as np
import pytest

from singular_geom import ruled
from singular_geom.algebra import Metric, Vec3, inner, triple
from singular_geom.curves import Curve
from singular_geom.errors import ConfigError, DegenerateMetric
from singular_geom.ruled import (
    ORACLE_SIGN,
    DirectorClass,
    RuledSurface,
    coefficients,
    default_t_samples,
    frame,
    helicoid,
    random_euclidean_ruled,
    random_lightlike_ruled,
    random_lorentz_ruled,
    random_unit_timelike,
    random_unit_vector,
    residual_polynomial_consistency,
    translate_into_halfspace,
)
from singular_geom.ruled import _halfspace_window
from singular_geom.surface import cleared_residual, curvature_bracket, fundamental_forms

E = Metric.EUCLIDEAN
EZ = Vec3(0.0, 0.0, 1.0)


def _pointwise_consistency(rs, s, v, alpha, t_samples):
    """residual_polynomial_consistency as one loop over t, before it ran on arrays."""
    cv = coefficients(rs, s, v, alpha)
    sign = ORACLE_SIGN[rs.director_class]
    m = rs.metric
    worst = 0.0
    valid = 0
    for t in t_samples:
        j = rs.jet(s, t)
        q = inner(m, j.X, v)
        if m is Metric.EUCLIDEAN:
            if q <= 0.0:
                continue
        elif abs(q) <= 1e-9 * (1.0 + j.X.max_abs()):
            continue
        try:
            forms = fundamental_forms(m, j)
        except DegenerateMetric:
            continue
        if m is Metric.LORENTZIAN and forms.eps != -1:
            continue
        eps_hat = 1.0 if m is Metric.EUCLIDEAN else -1.0
        oracle = (q * curvature_bracket(forms, j)
                  - eps_hat * alpha * forms.W2 * triple(j.Xs, j.Xt, v))
        worst = max(worst, abs(sign * cv.poly(t) - oracle))
        valid += 1
    if valid < 4:
        raise ConfigError(f"only {valid} admissible t samples at s = {s}; need >= 4")
    return worst


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ConfigError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


@pytest.fixture
def arrays_only(monkeypatch):
    """Fail any pointwise oracle cell, so a test sees the array path run."""
    def fail(*args):
        raise AssertionError("the oracle fell back to its pointwise loop")

    monkeypatch.setattr(ruled, "cleared_residual", fail)


_MAKERS = {
    "euclid": (random_euclidean_ruled, random_unit_vector),
    "lorentz+1": (lambda rng: random_lorentz_ruled(rng, 1), random_unit_timelike),
    "lorentz-1": (lambda rng: random_lorentz_ruled(rng, -1), random_unit_timelike),
    "lightlike": (random_lightlike_ruled, random_unit_timelike),
}


def _oracle_surface(klass, seed):
    """A translated random surface, v and alpha, as the bench's oracle items draw them."""
    make, make_v = _MAKERS[klass]
    rng = np.random.default_rng(seed)
    rs = make(rng)
    v = make_v(rng)
    alpha = float(rng.uniform(-3.0, 3.0))
    s_values = rs.s_samples(48)
    rs = translate_into_halfspace(rs, v, s_values, _halfspace_window(rs, s_values))
    return rs, v, alpha, s_values


@pytest.mark.parametrize("seed", [9101, 9102])
@pytest.mark.parametrize("klass", list(_MAKERS))
def test_array_oracle_matches_the_pointwise_loop_at_48_by_8(klass, seed, arrays_only):
    rs, v, alpha, s_values = _oracle_surface(klass, seed)
    for s in s_values:
        ts = default_t_samples(rs, s, n=8)
        assert all(type(t) is np.float64 for t in ts)
        for t_samples in (ts, [float(t) for t in ts]):
            got = residual_polynomial_consistency(rs, s, v, alpha, t_samples)
            ref = _pointwise_consistency(rs, s, v, alpha, t_samples)
            assert repr(got) == repr(ref)
            assert type(got) is type(ref)


def test_array_oracle_keeps_the_float_type_of_float_samples(arrays_only):
    h = helicoid(1.0)
    for t_samples, alpha, kind in (([-1.0, -0.5, 0.1, 0.5, 1.0], 1.0, float),
                                   (list(np.linspace(-1.0, 1.0, 5)), 1.0, np.float64),
                                   ([-1.0, -0.5, 0.1, 0.5, 1.0], np.float64(1.0), np.float64)):
        got = residual_polynomial_consistency(h, 1.2, EZ, alpha, t_samples)
        ref = _pointwise_consistency(h, 1.2, EZ, alpha, t_samples)
        assert type(got) is type(ref) is kind
        assert repr(got) == repr(ref)
    # a tie keeps the first largest cell, and so the type of its t
    for first, second in ((1.0, np.float64(1.0)), (np.float64(1.0), 1.0)):
        t_samples = [0.1, first, -0.5, second, -1.0]
        got = residual_polynomial_consistency(h, 1.2, EZ, 1.0, t_samples)
        assert type(got) is type(first)
        assert repr(got) == repr(_pointwise_consistency(h, 1.2, EZ, 1.0, t_samples))
    # every cell exact: the loop's 0.0 start stays, a float whatever the samples
    assert repr(residual_polynomial_consistency(h, 1.2, EZ, 0.0, [0.0] * 4)) == "0.0"


@pytest.mark.parametrize("klass", ["lorentz+1", "lorentz-1", "lightlike"])
def test_array_oracle_masks_the_cells_the_loop_skips(klass, arrays_only):
    # samples reaching past the spacelike window, so each s skips some cells
    rs, v, alpha, s_values = _oracle_surface(klass, 9103)
    skipped = 0
    for s in s_values[::4]:
        fr = frame(rs, s)
        reach = 3.0 * (abs(fr.P) if klass != "lightlike" else 0.45 / abs(fr.Q))
        t_samples = list(np.linspace(-reach, reach, 16))
        got = _outcome(residual_polynomial_consistency, rs, s, v, alpha, t_samples)
        assert got == _outcome(_pointwise_consistency, rs, s, v, alpha, t_samples)
        skipped += sum(_taken(rs, s, t, v) is False for t in t_samples)
    assert skipped > 0


def _taken(rs, s, t, v):
    """Whether the pointwise loop takes the cell (s, t); None if its jet raises."""
    try:
        j = rs.jet(s, t)
    except ValueError:
        return None
    return cleared_residual(rs.metric, j, v, 1.0) is not None


def test_too_few_admissible_cells_raise_the_loops_config_error(arrays_only):
    # v = e1 puts half of each helicoid ruling off the halfspace <X, v> > 0
    h = helicoid(1.0)
    e1 = Vec3(1.0, 0.0, 0.0)
    for s in (0.5, 1.2):
        t_samples = list(np.linspace(-1.0, 1.0, 6))
        with pytest.raises(ConfigError) as got:
            residual_polynomial_consistency(h, s, e1, 1.0, t_samples)
        with pytest.raises(ConfigError) as ref:
            _pointwise_consistency(h, s, e1, 1.0, t_samples)
        assert str(got.value) == str(ref.value)
        assert f"only 3 admissible t samples at s = {s}" in str(got.value)


def test_a_jet_that_overflows_at_one_t_raises_the_loops_value_error():
    # a director of size 1e308 along x: its frame is finite, and t w overflows from t = 2
    big = 1e308
    base = Curve(lambda s: Vec3(0.0, 0.0, 1.0 + s), lambda s: Vec3(0.0, 0.0, 1.0),
                 lambda s: Vec3(0.0, 0.0, 0.0))
    director = Curve(lambda s: Vec3(big, 0.0, 0.0), lambda s: Vec3(0.0, 1e-300, 0.0),
                     lambda s: Vec3(0.0, 0.0, 0.0))
    rs = RuledSurface(base, director, (0.0, 1.0), E, DirectorClass.EUCLID_STANDARD,
                      normalized=True)
    t_samples = [0.25, 0.5, 1.0, 1.5, 2.0, 0.75]
    got = _outcome(residual_polynomial_consistency, rs, 0.5, EZ, 1.0, t_samples)
    ref = _outcome(_pointwise_consistency, rs, 0.5, EZ, 1.0, t_samples)
    assert got == ref
    assert ref.startswith("ValueError: Vec3 components must be finite") and "inf" in ref


@pytest.mark.parametrize("t_samples", [[-1.0, -0.5, 0.0, 0.5, 1.0], [-1, 0, 1, 2, 3]])
def test_cells_whose_first_form_overflows_are_not_checked(t_samples):
    # |w'| = 1e160 overflows E = |g' + t w'|^2 at every t != 0, and D comes out NaN
    base = Curve(lambda s: Vec3(s, 0.0, 1.0), lambda s: Vec3(1.0, 0.0, 0.0),
                 lambda s: Vec3(0.0, 0.0, 0.0))
    director = Curve(lambda s: Vec3(1.0, 0.0, 0.0), lambda s: Vec3(0.0, 1e160, 0.0),
                     lambda s: Vec3(0.0, 0.0, 0.0))
    rs = RuledSurface(base, director, (0.0, 1.0), E, DirectorClass.EUCLID_STANDARD,
                      normalized=True)
    # g' is along w, so P = 0 and the coefficients stay finite
    assert frame(rs, 0.5).P == 0.0
    assert all(math.isnan(cleared_residual(E, rs.jet(0.5, t), EZ, 1.0)) for t in t_samples if t)
    with pytest.raises(ConfigError, match="only 0 admissible t samples at s = 0.5"):
        residual_polynomial_consistency(rs, 0.5, EZ, 1.0, t_samples)


def test_non_float_samples_take_the_pointwise_loop(monkeypatch):
    cells = []
    oracle_cells = ruled._oracle_cells
    monkeypatch.setattr(ruled, "_oracle_cells",
                        lambda *args: cells.append(1) or oracle_cells(*args))
    h = helicoid(1.0)
    for t_samples in ([-1, 0, 1, 2], [np.float32(t) for t in (-1.0, 0.0, 0.5, 1.0)], []):
        got = _outcome(residual_polynomial_consistency, h, 1.2, EZ, 1.0, t_samples)
        assert got == _outcome(_pointwise_consistency, h, 1.2, EZ, 1.0, t_samples)
    assert cells == []
    residual_polynomial_consistency(h, 1.2, EZ, 1.0, [-1.0, 0.0, 0.5, math.pi / 4])
    assert cells == [1]
