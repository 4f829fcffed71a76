"""Height-field energy, discrete gradient, descent experiments."""

import math

import numpy as np
import pytest

from singular_geom.errors import Diverged, HalfspaceViolation
from singular_geom.variational import (
    HeightField,
    catenary_heights,
    descend,
    height_energy,
    height_residual_max,
    height_surface,
    interior_gradient,
    trace_to_csv,
)


def test_field_validation():
    with pytest.raises(HalfspaceViolation):
        HeightField(0, 1, 0, 1, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        HeightField(0, 1, 0, 1, np.ones((2, 4)))
    with pytest.raises(ValueError):
        HeightField(1, 0, 0, 1, np.ones((4, 4)))


def test_energy_flat_unit_square():
    h = HeightField.from_function(lambda x, y: 1.0, (0, 1, 0, 1), (17, 9))
    assert height_energy(h, 2.3) == 1.0


def test_energy_constant_height():
    h = HeightField.from_function(lambda x, y: 2.5, (0, 1, 0, 1), (17, 9))
    assert abs(height_energy(h, 1.7) - 2.5 ** 1.7) < 1e-12


def test_energy_catenary_profile_matches_integral():
    h = HeightField.from_function(lambda x, y: math.cosh(x), (-1, 1, 0, 1), (128, 128))
    exact = 1.0 + math.sinh(2.0) / 2.0
    assert abs(height_energy(h, 1.0) - exact) <= 1e-4


def test_gradient_flat_graph_alpha_zero():
    h = HeightField.from_function(lambda x, y: 2.0, (0, 1, 0, 1), (12, 12))
    assert np.abs(interior_gradient(h, 0.0)).max() == 0.0


def test_gradient_small_at_catenary():
    # the sampled critical surface is a near-critical point of the discrete energy
    h = catenary_heights(shape=(33, 17))
    assert np.abs(interior_gradient(h, 1.0)).max() <= 1e-3


def test_gradient_matches_fd_probes():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        nx, ny = int(rng.integers(12, 24)), int(rng.integers(8, 16))
        h = HeightField(-1, 1, 0, 1, 1.5 + 0.5 * rng.random((nx, ny)))
        alpha = float(rng.uniform(-1.5, 2.5))
        g = interior_gradient(h, alpha)
        for _ in range(10):
            i = int(rng.integers(1, nx - 1))
            j = int(rng.integers(1, ny - 1))
            eps = 1e-5
            zp = h.z.copy()
            zp[i, j] += eps
            zm = h.z.copy()
            zm[i, j] -= eps
            fd = (height_energy(h.with_z(zp), alpha)
                  - height_energy(h.with_z(zm), alpha)) / (2 * eps)
            worst = max(worst, abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j])))
    assert worst <= 1e-6


def test_descend_identity_at_zero_rate():
    h = catenary_heights(shape=(17, 9))
    out, trace = descend(h, 1.0, 5, 0.0)
    assert np.array_equal(out.z, h.z)
    assert trace[0] == trace[-1]


def test_descend_stationary_at_catenary():
    h = catenary_heights(shape=(65, 33))
    _, trace = descend(h, 1.0, 100, 1e-3)
    assert abs(trace[-1] - trace[0]) <= 1e-8


def test_descend_monotone_at_small_rate():
    rng = np.random.default_rng(3)
    h = catenary_heights(shape=(25, 13))
    z = h.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.02 * rng.standard_normal(z[1:-1, 1:-1].shape)
    _, trace = descend(h.with_z(z), 1.0, 300, 0.05)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))


def test_descend_diverges_at_huge_rate():
    h = catenary_heights(shape=(17, 9))
    with pytest.raises(Diverged) as info:
        descend(h, 1.0, 50, 1e9)
    assert hasattr(info.value, "trace")


def test_descend_stops_at_the_first_non_finite_heights(monkeypatch):
    from singular_geom import variational

    h = catenary_heights(shape=(9, 9))
    calls = []
    exact = variational.interior_gradient

    def gradient(field, alpha):
        calls.append(1)
        g = exact(field, alpha)
        if len(calls) == 2:
            g[4, 4] = -math.inf
        return g

    monkeypatch.setattr(variational, "interior_gradient", gradient)
    with pytest.raises(Diverged, match="heights became non-finite at step 2") as info:
        descend(h, 1.0, 10, 1e-3)
    assert len(info.value.trace) == 2
    assert all(math.isfinite(e) for e in info.value.trace)


def test_descend_reduces_residual_of_noisy_catenary():
    rng = np.random.default_rng(11)
    h = catenary_heights(shape=(41, 21))
    z = h.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.01 * rng.standard_normal(z[1:-1, 1:-1].shape)
    noisy = h.with_z(z)
    before = height_residual_max(noisy, 1.0)
    field, _ = descend(noisy, 1.0, 500, 0.12)
    after = height_residual_max(field, 1.0)
    assert before / after >= 10.0


def test_descend_from_flat_converges_to_catenary():
    # fixed catenary boundary, flat start: the limit satisfies the curvature
    # condition to the spline-reconstruction level
    h = catenary_heights(shape=(64, 64))
    z = h.z.copy()
    z[1:-1, 1:-1] = 1.0
    field = h.with_z(z)
    residual = math.inf
    for _ in range(10):
        field, _ = descend(field, 1.0, 4000, 0.12)
        residual = height_residual_max(field, 1.0)
        if residual <= 1e-2:
            break
    assert residual <= 1e-2


def test_height_surface_jets_match_grid():
    h = catenary_heights(shape=(33, 17))
    surf = height_surface(h)
    j = surf.jet(0.25, 0.5)
    assert abs(j.X.z - math.cosh(0.25)) <= 1e-6
    assert abs(j.Xs.z - math.sinh(0.25)) <= 1e-4


def test_csv_round_trip():
    rng = np.random.default_rng(2)
    h = HeightField(-1, 1, 0, 2, 1.0 + rng.random((7, 5)))
    back = HeightField.from_csv(h.to_csv())
    assert back.z.shape == h.z.shape
    assert np.array_equal(back.z, h.z)
    assert (back.x0, back.x1, back.y0, back.y1) == (-1, 1, 0, 2)


def test_trace_csv_format():
    text = trace_to_csv([2.0, 1.5, 1.25])
    lines = text.strip().splitlines()
    assert lines[0] == "step,energy"
    assert lines[1] == "0,2.0"
    assert len(lines) == 4
