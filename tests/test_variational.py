"""Height-field energy, discrete gradient, descent experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_geom.errors import Diverged, HalfspaceViolation
from singular_geom.variational import (
    HeightField,
    catenary_heights,
    descend,
    energy_and_gradient,
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


# The two-pass kernels that energy_and_gradient replaced, kept as references:
# one temporary per operation, the stencil weights multiplied out.

def _reference_triangle_quantities(h):
    z = h.z
    zL = z[:-1, :-1]
    zR = z[1:, :-1]
    zT = z[:-1, 1:]
    zRT = z[1:, 1:]
    lower = ((zR - zL) / h.dx, (zT - zL) / h.dy, (zL + zR + zT) / 3.0)
    upper = ((zRT - zT) / h.dx, (zRT - zR) / h.dy, (zR + zRT + zT) / 3.0)
    return lower, upper


def _reference_height_energy(h, alpha):
    area = 0.5 * h.dx * h.dy
    total = 0.0
    for zx, zy, zb in _reference_triangle_quantities(h):
        total += float(np.sum(np.power(zb, alpha) * np.sqrt(1.0 + zx * zx + zy * zy)))
    return area * total


_REFERENCE_LOWER_CORNERS = (
    ((slice(None, -1), slice(None, -1)), -1.0, -1.0),
    ((slice(1, None), slice(None, -1)), 1.0, 0.0),
    ((slice(None, -1), slice(1, None)), 0.0, 1.0),
)
_REFERENCE_UPPER_CORNERS = (
    ((slice(1, None), slice(None, -1)), 0.0, -1.0),
    ((slice(1, None), slice(1, None)), 1.0, 1.0),
    ((slice(None, -1), slice(1, None)), -1.0, 0.0),
)


def _reference_interior_gradient(h, alpha):
    area = 0.5 * h.dx * h.dy
    grad = np.zeros_like(h.z)
    for (zx, zy, zb), corners in zip(_reference_triangle_quantities(h),
                                     (_REFERENCE_LOWER_CORNERS, _REFERENCE_UPPER_CORNERS)):
        S = np.sqrt(1.0 + zx * zx + zy * zy)
        dz_term = area * alpha * np.power(zb, alpha - 1.0) * S / 3.0
        zalpha = area * np.power(zb, alpha) / S
        fx = zalpha * zx / h.dx
        fy = zalpha * zy / h.dy
        for sl, cx, cy in corners:
            grad[sl] += dz_term + cx * fx + cy * fy
    grad[0, :] = grad[-1, :] = 0.0
    grad[:, 0] = grad[:, -1] = 0.0
    return grad


@settings(max_examples=30, derandomize=True, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(3, 40), st.integers(3, 40)), min_size=2, max_size=3),
       alpha=st.sampled_from([-2.0, -0.7, 0.0, 0.5, 1.0, 1.3, 2.0, 3.0]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_is_bitwise_the_reference(shapes, alpha, scale, seed):
    # the first shape comes again last, after the workspace was resized for the others
    rng = np.random.default_rng(seed)
    for shape in [*shapes, shapes[0]]:
        h = HeightField(-1.0, 1.0, 0.0, 1.0, scale * (0.2 + 3.0 * rng.random(shape)))
        energy = _reference_height_energy(h, alpha)
        ref = _reference_interior_gradient(h, alpha).view(np.int64)
        grad = np.full(shape, math.nan)
        assert energy_and_gradient(h.z, h.dx, h.dy, alpha, grad) == energy
        assert np.array_equal(grad.view(np.int64), ref)
        assert energy_and_gradient(h.z, h.dx, h.dy, alpha) == energy
        assert height_energy(h, alpha) == energy
        assert np.array_equal(interior_gradient(h, alpha).view(np.int64), ref)


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda z: z[:, ::2]],
                         ids=["fortran-order", "strided-view"])
def test_kernel_takes_heights_in_any_memory_layout(layout):
    base = 0.5 + np.random.default_rng(4).random((23, 34))
    h = HeightField(-1.0, 1.0, 0.0, 1.0, layout(base))
    assert height_energy(h, 1.3) == _reference_height_energy(h, 1.3)
    ref = _reference_interior_gradient(h, 1.3)
    assert np.array_equal(interior_gradient(h, 1.3).view(np.int64), ref.view(np.int64))


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
    exact = variational.energy_and_gradient

    def kernel(z, dx, dy, alpha, grad=None):
        calls.append(1)
        energy = exact(z, dx, dy, alpha, grad)
        if len(calls) == 2:
            grad[4, 4] = -math.inf
        return energy

    monkeypatch.setattr(variational, "energy_and_gradient", kernel)
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


def test_catenary_heights_match_the_function_sampler_bitwise():
    for shape in ((3, 3), (17, 9), (33, 17), (161, 81), (4, 200)):
        h = catenary_heights(shape=shape)
        ref = HeightField.from_function(lambda x, y: math.cosh(x), (-1.0, 1.0, 0.0, 1.0), shape)
        assert h.z.shape == shape
        assert h.z.tobytes() == ref.z.tobytes()
        assert (h.x0, h.x1, h.y0, h.y1) == (ref.x0, ref.x1, ref.y0, ref.y1)


def _reference_csv(h):
    """to_csv as it formatted each height: one repr(float(v)) per entry of a row."""
    nx, ny = h.z.shape
    lines = [f"# x0={float(h.x0)!r} x1={float(h.x1)!r} y0={float(h.y0)!r} y1={float(h.y1)!r} "
             f"nx={nx} ny={ny}"]
    lines += [",".join(repr(float(v)) for v in h.z[i]) for i in range(nx)]
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_the_per_height_formatter():
    rng = np.random.default_rng(11)
    z = 1.0 + rng.random((9, 7))
    z[0, :4] = [5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e300]
    z[4] = rng.uniform(1e-12, 1e12, 7)
    z[-1, -1] = 1.7976931348623157e308
    for h in (HeightField(-1, 1, 0, 2, z), HeightField(-0.5, 3.25, 1e-9, 1.0, z.T.copy()),
              catenary_heights(shape=(161, 81))):
        assert h.to_csv() == _reference_csv(h)


def test_trace_csv_format():
    text = trace_to_csv([2.0, 1.5, 1.25])
    lines = text.strip().splitlines()
    assert lines[0] == "step,energy"
    assert lines[1] == "0,2.0"
    assert len(lines) == 4
