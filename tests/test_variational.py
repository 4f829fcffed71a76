"""Height-field energy, discrete gradient, descent experiments."""

import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from conftest import SRC, dfitpack_files
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


# The in-place kernel that took each triangle family's slopes itself, frozen as
# a reference for the kernel that shares them: the same buffers per family, the
# same wrapped row ends, so the same bits and the same numpy warnings.
_frozen_workspace = [(0, 0), ()]


def _frozen_kernel(z, dx, dy, alpha, grad=None):
    nx, ny = z.shape
    m = (nx - 1) * ny - 1
    if _frozen_workspace[0] != z.shape:
        _frozen_workspace[:] = [z.shape, tuple(np.empty((nx - 1) * ny) for _ in range(6))
                                + (np.empty((nx - 1, ny - 1)),)]
    buffers = _frozen_workspace[1]
    zx, zy, zb, S, p, t = (b[:m] for b in buffers[:6])
    real_t = buffers[5].reshape(nx - 1, ny)[:, :-1]
    cells = buffers[6]
    zf = np.ravel(z)
    zL, zR, zT, zRT = zf[:m], zf[ny:ny + m], zf[1:1 + m], zf[ny + 1:]
    if grad is not None:
        grad.fill(0.0)
        g = grad.reshape(-1)
    area = 0.5 * dx * dy
    total = 0.0
    for lower in (True, False):
        if lower:
            np.subtract(zR, zL, out=zx)
            np.subtract(zT, zL, out=zy)
            np.add(zL, zR, out=zb)
        else:
            np.subtract(zRT, zT, out=zx)
            np.subtract(zRT, zR, out=zy)
            np.add(zR, zRT, out=zb)
        zx /= dx
        zy /= dy
        zb += zT
        zb /= 3.0
        np.multiply(zx, zx, out=S)
        S += 1.0
        np.multiply(zy, zy, out=t)
        S += t
        np.sqrt(S, out=S)
        np.power(zb, alpha, out=p)
        np.multiply(p, S, out=t)
        np.copyto(cells, real_t)
        total += float(np.sum(cells))
        if grad is None:
            continue
        np.power(zb, alpha - 1.0, out=zb)
        zb *= area * alpha
        zb *= S
        zb /= 3.0
        p *= area
        p /= S
        zx *= p
        zx /= dx
        zy *= p
        zy /= dy
        dz, fx, fy = zb, zx, zy
        if lower:
            np.subtract(dz, fx, out=t)
            t -= fy
            g[:m] += t
            np.add(dz, fx, out=t)
            g[ny:ny + m] += t
            np.add(dz, fy, out=t)
            g[1:1 + m] += t
        else:
            np.subtract(dz, fy, out=t)
            g[ny:ny + m] += t
            np.add(dz, fx, out=t)
            t += fy
            g[ny + 1:] += t
            np.subtract(dz, fx, out=t)
            g[1:1 + m] += t
    if grad is not None:
        grad[0, :] = grad[-1, :] = 0.0
        grad[:, 0] = grad[:, -1] = 0.0
    return area * total


def _both_kernels(z, dx, dy, alpha, with_grad):
    """(energy, gradient bits, warnings) of the frozen kernel, then of the kernel."""
    out = []
    for kernel in (_frozen_kernel, energy_and_gradient):
        grad = np.full(z.shape, math.nan) if with_grad else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            energy = kernel(z, dx, dy, alpha, grad)
        out.append((repr(energy), None if grad is None else grad.view(np.int64).copy(),
                    [(w.category, str(w.message)) for w in caught]))
    return out


@pytest.mark.parametrize("with_grad", [True, False], ids=["gradient", "energy-only"])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray],
                         ids=["c-order", "fortran-order"])
def test_kernel_is_bitwise_the_frozen_in_place_kernel(with_grad, layout):
    # shapes switch on every call, so both workspaces are rebuilt each time
    rng = np.random.default_rng(29)
    for alpha in (0.0, 1.0, -0.7, 1.3, 2.5):
        for scale in (1e-5, 1.0, 1e5):
            for shape in ((3, 3), (4, 60), (60, 4), (15, 11), (161, 81)):
                z = layout(scale * (0.2 + 3.0 * rng.random(shape)))
                dx, dy = 2.0 / (shape[0] - 1), 1.0 / (shape[1] - 1)
                (e_ref, g_ref, w_ref), (e, g, w) = _both_kernels(z, dx, dy, alpha, with_grad)
                assert e == e_ref and w == w_ref == []
                assert g is None or np.array_equal(g, g_ref)


@pytest.mark.parametrize("alpha", [1.0, -0.7])
def test_an_overflowing_row_end_warns_as_the_frozen_kernel_warns(alpha):
    # heights from 1e150 to 4e152: every real slope squares below the largest
    # float, the slope from a row's last node to the next row's first does not
    z = 1e150 + 1e151 * np.arange(40.0)[None, :] + np.zeros((5, 1))
    for with_grad in (True, False):
        (e_ref, g_ref, w_ref), (e, g, w) = _both_kernels(z, 0.5, 1.0 / 39.0, alpha, with_grad)
        assert e == e_ref and math.isfinite(float(e))
        assert w == w_ref == [(RuntimeWarning, "overflow encountered in multiply")] * 2
        assert g is None or (np.array_equal(g, g_ref) and np.isfinite(g.view(float)).all())


@pytest.mark.parametrize("value, exc, message", [
    (math.nan, ValueError, "height grid contains non-finite entries"),
    (math.inf, ValueError, "height grid contains non-finite entries"),
    (-math.inf, ValueError, "height grid contains non-finite entries"),
    (0.0, HalfspaceViolation, "height field must be positive everywhere"),
    (-0.0, HalfspaceViolation, "height field must be positive everywhere"),
    (-1.0, HalfspaceViolation, "height field must be positive everywhere"),
], ids=["nan", "inf", "-inf", "zero", "negative-zero", "negative"])
def test_a_bad_height_is_rejected_with_its_message_and_no_warning(value, exc, message):
    z = np.full((5, 4), 1.5)
    z[3, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc) as info:
            HeightField(-1.0, 1.0, 0.0, 1.0, z)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("value", [5e-324, 1.7e308], ids=["subnormal", "near-largest"])
def test_extreme_positive_heights_are_accepted(value):
    z = np.full((5, 4), 1.5)
    z[3, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert HeightField(-1.0, 1.0, 0.0, 1.0, z).z[3, 2] == value


def test_heights_mutated_after_construction_are_checked_as_before():
    h = catenary_heights(shape=(9, 7))
    h.z[4, 3] = 0.0
    with pytest.raises(HalfspaceViolation, match="^height field must be positive everywhere$"):
        height_energy(h, 1.3)
    with pytest.raises(HalfspaceViolation, match="^height field must be positive everywhere$"):
        interior_gradient(h, 1.3)
    # NaN is rejected as the construction rejects it, before the kernel runs
    h.z[4, 3] = math.nan
    for call in (height_energy, interior_gradient, lambda h, a: descend(h, a, 3, 1e-3)):
        with pytest.raises(ValueError, match="^height grid contains non-finite entries$"):
            call(h, 1.3)
    # +inf passes, and its energy is inf, as the kernel gives it
    h.z[4, 3] = math.inf
    ref = np.empty(h.z.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        assert height_energy(h, 1.3) == _frozen_kernel(h.z, h.dx, h.dy, 1.3, ref) == math.inf


def test_descend_identity_at_zero_rate():
    h = catenary_heights(shape=(17, 9))
    out, trace = descend(h, 1.0, 5, 0.0)
    assert np.array_equal(out.z, h.z)
    assert trace[0] == trace[-1]


@pytest.mark.parametrize("steps, rate, message", [
    (-1, 0.1, "steps must be >= 0, got -1"),
    (2, -0.1, "rate must be >= 0, got -0.1"),
    (2, math.nan, "rate must be >= 0, got nan"),
])
def test_descend_rejects_a_negative_step_count_or_rate(steps, rate, message):
    # -1 steps once returned the starting energy alone, and a NaN rate ran a
    # step and raised Diverged, calling nan a rate above the stability threshold
    h = catenary_heights(shape=(9, 5))
    with pytest.raises(ValueError, match=f"^{message}$"):
        descend(h, 1.0, steps, rate)


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


def test_descend_stops_at_the_first_nan_heights(monkeypatch):
    # the clamp to Z_FLOOR keeps a NaN height, and the step that made it is named
    from singular_geom import variational

    h = catenary_heights(shape=(9, 9))
    exact = variational.energy_and_gradient

    def kernel(z, dx, dy, alpha, grad=None):
        energy = exact(z, dx, dy, alpha, grad)
        if grad is not None:
            grad[4, 4] = math.nan
        return energy

    monkeypatch.setattr(variational, "energy_and_gradient", kernel)
    with pytest.raises(Diverged, match="^heights became non-finite at step 1; rate 0.001 "):
        descend(h, 1.0, 10, 1e-3)


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


# (dx, dy) of z, zx, zy, zxx, zxy, zyy
ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _random_field(shape, scale, seed, order="C"):
    rng = np.random.default_rng(seed)
    z = np.asarray(scale * (1.0 + rng.random(shape)), order=order)
    return HeightField(-0.7, 1.3, 0.2, 2.9, z)


def _spline_points(h, n, seed):
    # inside the window, on its nodes and a little past its edges
    rng = np.random.default_rng(seed)
    s = np.concatenate([rng.uniform(h.x0 - 0.1, h.x1 + 0.1, n), h.xs, [h.x0, h.x1]])
    t = np.concatenate([rng.uniform(h.y0 - 0.1, h.y1 + 0.1, n), h.ys[:1].repeat(len(h.xs)),
                        [h.y1, h.y0]])
    return s, t


def _reference_reads(h, s, t):
    from scipy.interpolate import RectBivariateSpline

    sp = RectBivariateSpline(h.xs, h.ys, h.z, kx=3, ky=3)
    return [sp(s, t, dx=dx, dy=dy, grid=False).tobytes() for dx, dy in ORDERS]


FIELDS = [((4, 4), 1.0, "C"), ((5, 9), 1e-5, "C"), ((23, 4), 1e4, "C"), ((60, 17), 3.7, "C"),
          ((13, 31), 0.02, "F"), ((4, 60), 250.0, "F")]


@pytest.mark.parametrize("shape, scale, order", FIELDS)
def test_spline_reads_are_rect_bivariate_splines_bitwise(shape, scale, order):
    from singular_geom.variational import _bicubic

    h = _random_field(shape, scale, seed=sum(shape), order=order)
    s, t = _spline_points(h, 200, seed=shape[0])
    read = _bicubic(h.xs, h.ys, h.z)
    assert [read(dx, dy, s, t).tobytes() for dx, dy in ORDERS] == _reference_reads(h, s, t)


def _grid_jet_bytes(h):
    S, T = np.linspace(h.x0, h.x1, 11), np.linspace(h.y0, h.y1, 7)
    J = height_surface(h).grid_jets(S, T)
    return [f.z.tobytes() for f in (J.X, J.Xs, J.Xt, J.Xss, J.Xst, J.Xtt)]


@pytest.mark.parametrize("shape, scale, order", FIELDS[:3])
def test_forced_fallback_gives_the_same_jets(monkeypatch, shape, scale, order):
    from singular_geom import variational

    h = _random_field(shape, scale, seed=7, order=order)
    direct = _grid_jet_bytes(h)
    monkeypatch.setattr(variational, "_dfitpack", lambda: None)
    assert _grid_jet_bytes(h) == direct


def test_direct_spline_is_taken_whenever_scipy_ships_the_extension():
    # a silent fallback would keep every other test green and lose the memory
    from singular_geom.variational import _dfitpack

    files = dfitpack_files()
    if files:
        assert _dfitpack() is not None
        assert os.path.samefile(_dfitpack().__file__, files[0])
    else:
        assert _dfitpack() is None


class _FakeFitpack:
    """The real extension, but with one routine's ier replaced."""

    def __init__(self, real, routine, ier):
        self._real, self._routine, self._ier = real, routine, ier

    def __getattr__(self, name):
        fn = getattr(self._real, name)
        if name != self._routine:
            return fn
        return lambda *args: (*fn(*args)[:-1], self._ier)


@pytest.mark.skipif(not dfitpack_files(), reason="scipy has no _dfitpack extension file")
def test_a_rejected_fit_is_rebuilt_by_rect_bivariate_spline(monkeypatch):
    from singular_geom import variational

    h = _random_field((6, 5), 1.0, seed=2)
    s, t = _spline_points(h, 30, seed=2)
    real = variational._dfitpack()
    monkeypatch.setattr(variational, "_dfitpack", lambda: _FakeFitpack(real, "regrid_smth", 10))
    read = variational._bicubic(h.xs, h.ys, h.z)
    assert [read(dx, dy, s, t).tobytes() for dx, dy in ORDERS] == _reference_reads(h, s, t)


@pytest.mark.skipif(not dfitpack_files(), reason="scipy has no _dfitpack extension file")
@pytest.mark.parametrize("routine, order", [("bispeu", (0, 0)), ("pardeu", (1, 1))])
def test_an_evaluation_error_code_is_raised_as_scipy_raises_it(monkeypatch, routine, order):
    from singular_geom import variational

    h = _random_field((6, 5), 1.0, seed=2)
    real = variational._dfitpack()
    monkeypatch.setattr(variational, "_dfitpack", lambda: _FakeFitpack(real, routine, 10))
    read = variational._bicubic(h.xs, h.ys, h.z)
    with pytest.raises(ValueError, match=f"^Error code returned by {routine}: 10$"):
        read(*order, np.array([0.1]), np.array([0.5]))


def test_knots_that_are_not_strictly_increasing_exit_1_with_scipys_message(tmp_path,
                                                                             monkeypatch, capsys):
    # 40 subnormal nodes over [0, 1e-322] repeat: RectBivariateSpline names that
    from singular_geom import cli

    z = np.ones((40, 5))
    (tmp_path / "h.csv").write_text(HeightField(0.0, 1e-322, 0.0, 1.0, z).to_csv())
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["residual", "--surface", "file", "--file", "h.csv", "--grid", "5x5"])
    assert info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: x must be strictly increasing"


@pytest.mark.parametrize("first", ["direct", "scipy.interpolate"])
def test_the_direct_load_coexists_with_scipy_interpolate(tmp_path, first):
    code = textwrap.dedent(f"""
        import numpy as np
        from singular_geom import variational
        h = variational.catenary_heights((9, 7))
        s, t = np.linspace(-1.2, 1.2, 50), np.linspace(-0.1, 1.1, 50)
        if {first!r} == 'scipy.interpolate':
            from scipy.interpolate import RectBivariateSpline
        direct = variational._bicubic(h.xs, h.ys, h.z)(2, 1, s, t)
        from scipy.interpolate import RectBivariateSpline
        sp = RectBivariateSpline(h.xs, h.ys, h.z, kx=3, ky=3)
        assert direct.tobytes() == sp(s, t, dx=2, dy=1, grid=False).tobytes()
    """)
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr


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
