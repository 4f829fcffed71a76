"""Vector algebra: inner products, cross products, causal structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_geom.algebra import (
    CausalCharacter,
    Metric,
    Vec3,
    causal_character,
    causal_character_tol,
    cross,
    hyperbolic_angle,
    inner,
    norm,
    same_timelike_cone,
    triple,
)
from singular_geom.errors import DifferentCones, NotTimelike
from singular_geom.surface import _V

E = Metric.EUCLIDEAN
L = Metric.LORENTZIAN

e1 = Vec3(1, 0, 0)
e2 = Vec3(0, 1, 0)
e3 = Vec3(0, 0, 1)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def rand_vec(rng, scale=2.0):
    return Vec3(*(scale * rng.standard_normal(3)))


def test_vec3_rejects_nonfinite():
    with pytest.raises(ValueError):
        Vec3(1.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        Vec3(float("inf"), 0.0, 0.0)


def test_vec3_stores_plain_floats():
    for v in (Vec3(1, True, np.float64(2.5)), Vec3(1.0, 2.0, -0.0)):
        assert all(type(c) is float for c in v)
    assert Vec3(1, True, np.float64(2.5)) == Vec3(1.0, 1.0, 2.5)
    assert math.copysign(1.0, Vec3(0.0, 0.0, -0.0).z) == -1.0
    with pytest.raises(ValueError):
        Vec3(0.0, 0.0, np.float64("inf"))


def test_inner_examples():
    assert inner(E, e1, e1) == 1.0
    assert inner(L, e3, e3) == -1.0
    assert inner(L, Vec3(1, 0, 1), Vec3(1, 0, 1)) == 0.0


def test_triple_examples():
    assert triple(e1, e2, e3) == 1.0
    assert triple(e1, e1, e3) == 0.0
    assert triple(e2, e1, e3) == -1.0


def test_cross_euclid_basis():
    assert cross(E, e1, e2) == e3


def test_cross_lorentz_basis_against_linear_system():
    # solve <x, w>_L = det(e1, e2, w) for x over the standard basis
    G = np.diag([1.0, 1.0, -1.0])
    rhs = np.array([triple(e1, e2, w) for w in (e1, e2, e3)])
    x = np.linalg.solve(G, rhs)
    got = cross(L, e1, e2)
    assert np.allclose([got.x, got.y, got.z], x)
    assert got == Vec3(0, 0, -1)


def test_cross_self_is_zero():
    rng = np.random.default_rng(0)
    for m in (E, L):
        for _ in range(20):
            u = rand_vec(rng)
            assert cross(m, u, u).max_abs() == 0.0


def test_cross_adjoint_of_determinant():
    # 1000 random triples in both signatures
    rng = np.random.default_rng(42)
    for m in (E, L):
        for _ in range(1000):
            u, v, w = (rand_vec(rng) for _ in range(3))
            lhs = inner(m, cross(m, u, v), w)
            det = float(np.linalg.det([[*u], [*v], [*w]]))
            bound = 1e-12 * (1.0 + norm(E, u) * norm(E, v) * norm(E, w))
            assert abs(lhs - det) <= bound


def test_cross_bilinear_antisymmetric():
    rng = np.random.default_rng(3)
    for m in (E, L):
        for _ in range(100):
            u, v, w = (rand_vec(rng) for _ in range(3))
            a, b = rng.standard_normal(2)
            lin = cross(m, a * u + b * v, w) - (a * cross(m, u, w) + b * cross(m, v, w))
            anti = cross(m, u, v) + cross(m, v, u)
            assert lin.max_abs() <= 1e-9 * (1 + u.max_abs() + v.max_abs()) * (1 + w.max_abs())
            assert anti.max_abs() == 0.0


def test_cross_on_component_arrays_is_the_vec3_cross_bitwise():
    rng = np.random.default_rng(11)
    U, V = (rng.standard_normal((3, 500)) * 10.0 ** rng.integers(-150, 150, (3, 500))
            for _ in range(2))
    U[:, ::7], V[:, ::5] = 0.0, -0.0  # signed zeros among the products
    for m in (E, L):
        c = cross(m, _V(*U), _V(*V))
        assert type(c) is _V
        ref = [cross(m, Vec3(*u), Vec3(*v)).as_tuple() for u, v in zip(U.T, V.T)]
        assert np.stack(c).tobytes() == np.array(ref).T.tobytes()


@given(st.tuples(finite, finite, finite), st.tuples(finite, finite, finite))
@settings(max_examples=200)
def test_cross_antisymmetry_property(a, b):
    u, v = Vec3(*a), Vec3(*b)
    for m in (E, L):
        assert (cross(m, u, v) + cross(m, v, u)).max_abs() == 0.0


@given(st.tuples(finite, finite, finite), st.tuples(finite, finite, finite),
       st.tuples(finite, finite, finite))
@settings(max_examples=200)
def test_triple_alternating_property(a, b, c):
    # different summation orders agree only to roundoff, so compare scaled
    u, v, w = Vec3(*a), Vec3(*b), Vec3(*c)
    su, sv, sw = 1.0 + u.max_abs(), 1.0 + v.max_abs(), 1.0 + w.max_abs()
    assert abs(triple(u, u, w)) <= 1e-13 * su * su * sw
    assert abs(triple(u, v, w) + triple(v, u, w)) <= 1e-13 * su * sv * sw


def test_causal_character_examples():
    assert causal_character(e1) is CausalCharacter.SPACELIKE
    assert causal_character(e3) is CausalCharacter.TIMELIKE
    assert causal_character(Vec3(1, 0, 1)) is CausalCharacter.LIGHTLIKE
    assert causal_character(Vec3(0, 0, 0)) is CausalCharacter.SPACELIKE


def test_causal_character_tol():
    # floating-point noise around the light cone classifies as lightlike
    v = Vec3(1.0, 0.0, 1.0 + 1e-13)
    assert causal_character(v) is CausalCharacter.TIMELIKE
    assert causal_character_tol(v) is CausalCharacter.LIGHTLIKE
    assert causal_character_tol(Vec3(0, 0, 0)) is CausalCharacter.SPACELIKE
    assert causal_character_tol(Vec3(2, 0, 0)) is CausalCharacter.SPACELIKE


def test_timelike_orthogonal_complement_is_spacelike():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = rng.standard_normal(2)
        z = math.hypot(x, y) + 0.1 + abs(rng.standard_normal())
        v = Vec3(x, y, z)
        assert causal_character(v) is CausalCharacter.TIMELIKE
        # two independent solutions of <v, w>_L = 0: w = (z, 0, x), (0, z, y)
        for w in (Vec3(z, 0, x), Vec3(0, z, y)):
            assert abs(inner(L, v, w)) <= 1e-12 * (1 + v.max_abs() ** 2)
            assert inner(L, w, w) > 0.0


def test_same_timelike_cone():
    assert same_timelike_cone(e3, Vec3(0, 0, 2))
    assert not same_timelike_cone(e3, Vec3(0, 0, -1))
    with pytest.raises(NotTimelike):
        same_timelike_cone(e3, e1)


def test_hyperbolic_angle_examples():
    assert hyperbolic_angle(e3, e3) == 0.0
    v = Vec3(math.sinh(1.0), 0.0, math.cosh(1.0))
    assert abs(hyperbolic_angle(e3, v) - 1.0) < 1e-12
    assert hyperbolic_angle(Vec3(0, 0, 2), Vec3(0, 0, 3)) == 0.0


def test_hyperbolic_angle_errors():
    with pytest.raises(NotTimelike):
        hyperbolic_angle(e1, e3)
    with pytest.raises(DifferentCones):
        hyperbolic_angle(e3, Vec3(0, 0, -1))


def test_hyperbolic_angle_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r1, r2 = rng.uniform(0, 2, size=2)
        p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
        u = Vec3(math.sinh(r1) * math.cos(p1), math.sinh(r1) * math.sin(p1), math.cosh(r1))
        v = Vec3(math.sinh(r2) * math.cos(p2), math.sinh(r2) * math.sin(p2), math.cosh(r2))
        lam, mu = rng.uniform(0.1, 10, size=2)
        base = hyperbolic_angle(u, v)
        scaled = hyperbolic_angle(lam * u, mu * v)
        assert abs(base - scaled) < 1e-10 * (1 + base)
