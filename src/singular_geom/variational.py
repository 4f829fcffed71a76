"""Discrete potential-energy experiments on height fields.

A height field is a positive grid z(x, y) over a rectangle with pinned
boundary values.  Its energy integrates z^alpha * sqrt(1 + zx^2 + zy^2) over
the piecewise-linear interpolant: each grid cell is split into two triangles
carrying the (central-difference) gradient of its corner heights, exactly as
in triangulated minimal-surface solvers.  Node-collocated central-difference
stencils were rejected because stripe and checkerboard grids lie in their
null space, so descent deposits O(h^2) sawtooth modes that a spline
reconstruction turns into O(1) curvature residuals; the triangle energy is
strictly convex around nondegenerate minimizers.

interior_gradient differentiates exactly the discrete energy, so it matches
finite-difference probes to roundoff; projected gradient descent drives
perturbed cylinders back toward the critical surface.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import io
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .algebra import Metric, Vec3
from .errors import DegenerateMetric, Diverged, HalfspaceViolation
from .surface import Jet2, ParamSurface, _V, abs_max, singular_residual_grid

Z_FLOOR = 1e-9


@dataclass
class HeightField:
    """Positive heights over [x0,x1] x [y0,y1]; boundary rows/columns are pinned."""

    x0: float
    x1: float
    y0: float
    y1: float
    z: np.ndarray

    def __post_init__(self):
        # floats subtract without a warning; an overflowing width gives axes of inf and NaN
        if not (0.0 < float(self.x1) - float(self.x0) < math.inf
                and 0.0 < float(self.y1) - float(self.y0) < math.inf):
            raise ValueError("height-field window must have 0 < x1 - x0 < inf and "
                             "0 < y1 - y0 < inf")
        self.z = np.asarray(self.z, dtype=float)
        if self.z.ndim != 2 or self.z.shape[0] < 3 or self.z.shape[1] < 3:
            raise ValueError("height grid must be 2-D with at least 3 nodes per axis")
        # two reductions settle the common case; NaN fails both comparisons
        if not (0.0 < self.z.min() and self.z.max() < math.inf):
            _check_heights(self.z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.z.shape

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / (self.z.shape[0] - 1)

    @property
    def dy(self) -> float:
        return (self.y1 - self.y0) / (self.z.shape[1] - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.z.shape[0])

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.z.shape[1])

    def with_z(self, z: np.ndarray) -> "HeightField":
        return HeightField(self.x0, self.x1, self.y0, self.y1, z)

    @classmethod
    def from_function(cls, fn, window: tuple[float, float, float, float],
                      shape: tuple[int, int]) -> "HeightField":
        x0, x1, y0, y1 = window
        xs = np.linspace(x0, x1, shape[0])
        ys = np.linspace(y0, y1, shape[1])
        z = np.array([[fn(x, y) for y in ys] for x in xs])
        return cls(x0, x1, y0, y1, z)

    def to_csv(self) -> str:
        buf = io.StringIO()
        nx, ny = self.z.shape
        buf.write(f"# x0={float(self.x0)!r} x1={float(self.x1)!r} "
                  f"y0={float(self.y0)!r} y1={float(self.y1)!r} nx={nx} ny={ny}\n")
        for row in self.z.tolist():
            buf.write(",".join(map(repr, row)) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "HeightField":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        meta = dict(re.findall(r"(\w+)=([^\s]+)", lines[0])) if lines else {}
        missing = [k for k in ("x0", "x1", "y0", "y1", "nx", "ny") if k not in meta]
        if missing:
            raise ValueError(f"height-field CSV header lacks {', '.join(missing)}")
        z = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        if z.shape != (int(meta["nx"]), int(meta["ny"])):
            raise ValueError(f"height-field CSV header says nx={meta['nx']} ny={meta['ny']}, "
                             f"but its body has shape {z.shape}")
        return cls(float(meta["x0"]), float(meta["x1"]), float(meta["y0"]),
                   float(meta["y1"]), z)


def _check_heights(z: np.ndarray) -> None:
    """Reject a non-finite or a non-positive height, entry by entry."""
    if not np.all(np.isfinite(z)):
        raise ValueError("height grid contains non-finite entries")
    if np.any(z <= 0.0):
        raise HalfspaceViolation("height field must be positive everywhere")


def _check_positive(z: np.ndarray) -> None:
    # one reduction settles the common case; NaN fails it, +inf passes with an inf energy
    if not z.min() > 0.0:
        _check_heights(z)


# the grid shape energy_and_gradient last ran on and its buffers' views for that shape
_workspace: tuple[tuple[int, int], tuple[np.ndarray, ...]] = ((0, 0), ())


def energy_and_gradient(z: np.ndarray, dx: float, dy: float, alpha: float,
                        grad: np.ndarray | None = None) -> float:
    """Energy of the piecewise-linear interpolant of the heights ``z`` on a
    ``dx`` x ``dy`` grid and, when ``grad`` is given, its exact derivative
    w.r.t. each interior height, written into ``grad`` (a C-contiguous array of
    ``z``'s shape; boundary entries zero, because the boundary is pinned).

    Each cell [i,i+1]x[j,j+1] is split along its diagonal into a lower
    triangle on corners (i,j), (i+1,j), (i,j+1) and an upper triangle on
    (i+1,j), (i+1,j+1), (i,j+1); the interpolant gradient (zx, zy) is constant
    on each.  A triangle contributes area * zbar^alpha * S, with zbar its mean
    corner height and S = sqrt(1 + zx^2 + zy^2).

    The slopes are taken once per call, for both families: ``sx`` holds the x
    differences of the flat heights over dx, ``sy`` their y differences over
    dy.  The lower family's zx and zy are ``sx[:m]`` and ``sy[:m]``, the upper
    family's ``sx[1:1+m]`` and ``sy[ny:ny+m]``.  Then, one family after the
    other, ``zb`` holds zbar (then the corner weight dz), ``S`` holds S (then
    fx), ``p`` zbar^alpha (then fy) and ``t`` the triangle terms, whose real
    cells are copied to ``cells`` for the sum.  The buffers and their views
    are kept from the last call on the same grid shape, so a call on
    C-contiguous heights allocates nothing grid-sized.  The heights must be
    positive; the caller checks.
    """
    global _workspace
    nx, ny = z.shape
    # Cell (i, j) is entry i*ny + j of each buffer, the flat index of its corner
    # (i, j), so every operand below is a contiguous slice.  The entries with
    # j = ny-1 pair a row's last node with the next row's first: they reach
    # only boundary entries of grad, which are zeroed, and the energy sums the
    # real cells alone.  On heights near 1e150 their slope across the grid can
    # overflow where no real cell's does: numpy then warns, the results hold.
    m = (nx - 1) * ny - 1
    if _workspace[0] != z.shape:
        terms = np.empty((nx - 1) * ny)
        _workspace = (z.shape, (np.empty((nx - 1) * ny), np.empty(nx * ny - 1),
                                *(np.empty(m) for _ in range(3)), terms[:m],
                                terms.reshape(nx - 1, ny)[:, :-1], np.empty((nx - 1, ny - 1))))
    sx, sy, zb, S, p, t, real_t, cells = _workspace[1]
    zf = np.ravel(z)
    zL, zR, zT, zRT = zf[:m], zf[ny:ny + m], zf[1:1 + m], zf[ny + 1:]
    np.subtract(zf[ny:], zf[:-ny], out=sx)
    sx /= dx
    np.subtract(zf[1:], zf[:-1], out=sy)
    sy /= dy
    if grad is not None:
        if grad.shape != z.shape or not grad.flags.c_contiguous:
            raise ValueError("grad must be a C-contiguous array of the heights' shape")
        grad.fill(0.0)
        g = grad.reshape(-1)
    area = 0.5 * dx * dy
    total = 0.0
    for lower in (True, False):
        if lower:
            zx, zy = sx[:m], sy[:m]
            np.add(zL, zR, out=zb)
        else:
            zx, zy = sx[1:1 + m], sy[ny:ny + m]
            np.add(zR, zRT, out=zb)
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
        total += float(cells.sum())
        if grad is None:
            continue
        # d/dz of a corner: dz = area * alpha * zbar^(alpha-1) * S / 3 (into zb)
        # plus +-fx and +-fy, f = area * zbar^alpha / S * (zx / dx, zy / dy) (into
        # S and p, once S is read).  A stencil weight of 0 adds nothing, where a
        # multiplied-out 0 * f would add NaN for an infinite f.  As |f| <=
        # max(dx, dy) / 2 * zbar^alpha, f is finite wherever the energy is, on
        # cells shorter than 2.
        np.power(zb, alpha - 1.0, out=zb)
        zb *= area * alpha
        zb *= S
        zb /= 3.0
        p *= area
        p /= S
        np.multiply(zx, p, out=S)
        S /= dx
        p *= zy
        p /= dy
        dz, fx, fy = zb, S, p
        if lower:
            np.subtract(dz, fx, out=t)
            t -= fy
            g[:m] += t  # corner (i, j)
            np.add(dz, fx, out=t)
            g[ny:ny + m] += t  # (i+1, j)
            np.add(dz, fy, out=t)
            g[1:1 + m] += t  # (i, j+1)
        else:
            np.subtract(dz, fy, out=t)
            g[ny:ny + m] += t  # (i+1, j)
            np.add(dz, fx, out=t)
            t += fy
            g[ny + 1:] += t  # (i+1, j+1)
            np.subtract(dz, fx, out=t)
            g[1:1 + m] += t  # (i, j+1)
    if grad is not None:
        grad[0, :] = grad[-1, :] = 0.0
        grad[:, 0] = grad[:, -1] = 0.0
    return area * total


def height_energy(h: HeightField, alpha: float) -> float:
    """Energy of the piecewise-linear interpolant: sum over triangles of
    area * zbar^alpha * sqrt(1 + |grad z|^2)."""
    _check_positive(h.z)
    return energy_and_gradient(h.z, h.dx, h.dy, alpha)


def interior_gradient(h: HeightField, alpha: float) -> np.ndarray:
    """Exact derivative of :func:`height_energy` w.r.t. each interior height.

    Returned with the grid's shape; boundary entries are zero because the
    boundary is pinned.
    """
    _check_positive(h.z)
    grad = np.empty(h.z.shape)
    energy_and_gradient(h.z, h.dx, h.dy, alpha, grad)
    return grad


def _diverged(message: str, trace: list[float]) -> Diverged:
    err = Diverged(message)
    err.trace = trace
    return err


def descend(h: HeightField, alpha: float, steps: int, rate: float) -> tuple[HeightField, list[float]]:
    """Projected gradient descent on the interior heights.

    The projection clamps z >= 1e-9 (the energy is singular at z = 0 for
    alpha < 1).  A negative steps or rate raises ValueError.  Raises
    Diverged, with the partial trace attached: with an empty trace when the
    starting field's energy is not finite; with the failing rate in the
    message when the energy increases 5 consecutive steps, or at once,
    naming the step, when the heights or the energy turn non-finite.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")
    if not rate >= 0.0:  # NaN included
        raise ValueError(f"rate must be >= 0, got {rate!r}")
    unstable = f"rate {rate} exceeds the stability threshold"
    _check_positive(h.z)
    z = h.z.copy()
    dx, dy = h.dx, h.dy
    grad = np.empty_like(z)
    delta = np.empty_like(z)
    # a blow-up is reported by the finiteness checks below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # one kernel call gives a field's energy and the gradient of the next step
        energy = energy_and_gradient(z, dx, dy, alpha, grad if steps > 0 else None)
        trace = [energy]
        if not math.isfinite(energy):
            raise _diverged(f"energy of the starting field is {energy}, not finite", [])
        best = energy
        bad = 0
        for step in range(1, steps + 1):
            np.multiply(grad, rate, out=delta)
            z -= delta
            np.maximum(z, Z_FLOOR, out=z)
            # the clamp keeps NaN, so a non-finite height leaves max(z) not below inf
            if not z.max() < math.inf:
                raise _diverged(f"heights became non-finite at step {step}; {unstable}", trace)
            energy = energy_and_gradient(z, dx, dy, alpha, grad if step < steps else None)
            if not math.isfinite(energy):
                raise _diverged(f"energy became non-finite at step {step}; {unstable}", trace)
            trace.append(energy)
            # divergence = failing to get back under the best energy seen, which
            # also catches a single blow-up followed by a clamp plateau
            if energy > best * (1.0 + 1e-12):
                bad += 1
                if bad >= 5:
                    raise _diverged("energy stayed above its running minimum for 5 "
                                    f"consecutive steps; {unstable}", trace)
            else:
                best = min(best, energy)
                bad = 0
    return h.with_z(z), trace


def trace_to_csv(trace: list[float]) -> str:
    buf = io.StringIO()
    buf.write("step,energy\n")
    for k, e in enumerate(trace):
        buf.write(f"{k},{e!r}\n")
    return buf.getvalue()


def catenary_heights(shape: tuple[int, int] = (33, 17)) -> HeightField:
    """Heights of the classical catenary cylinder z = cosh(x) over [-1, 1] x [0, 1].

    The heights of HeightField.from_function, bit for bit, with cosh taken
    once per x and repeated along y.
    """
    z = np.array([[math.cosh(x)] * shape[1] for x in np.linspace(-1.0, 1.0, shape[0])])
    return HeightField(-1.0, 1.0, 0.0, 1.0, z)


# (dx, dy) derivative orders of z, zx, zy, zxx, zxy, zyy
_SPLINE_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@functools.cache
def _dfitpack():
    """scipy's FITPACK extension, loaded by file path without scipy.interpolate.

    Importing scipy.interpolate costs about 42 MB of resident memory, for
    three Fortran routines.  ``find_spec`` finds scipy without importing it,
    and the name stays ``_dfitpack`` to match the extension's
    ``PyInit__dfitpack``.  The toolkit calls FITPACK from one thread, so
    scipy's ``FITPACK_LOCK`` is not taken.  None if the file is missing (as
    before scipy 1.13) or does not load.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(os.path.dirname(spec.origin), "interpolate", "_dfitpack" + suffix)
        if os.path.isfile(path):
            try:
                ext = importlib.util.spec_from_file_location("_dfitpack", path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
            except ImportError:
                return None
    return None


def _bicubic(xs: np.ndarray, ys: np.ndarray, z: np.ndarray):
    """``read(dx, dy, x, y)``, the (dx, dy) derivative of the interpolating
    bicubic spline at the points (x[i], y[i]).

    The FITPACK calls of ``RectBivariateSpline(xs, ys, z, kx=3, ky=3)`` read
    with ``grid=False``, so the bits are its own.  That class is built instead
    when the extension is missing or rejects the input, so its errors stay.
    """
    fit = _dfitpack()
    if fit is not None and np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) > 0.0):
        nx, tx, ny, ty, c, _, ier = fit.regrid_smth(xs, ys, np.ravel(z), None, None, None,
                                                    None, 3, 3, 0)
        if ier in (0, -1, -2):
            tx, ty, c = tx[:nx], ty[:ny], c[:(nx - 4) * (ny - 4)]

            def read(dx: int, dy: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
                if not x.size:
                    return np.zeros(0)
                if dx or dy:
                    values, ier = fit.pardeu(tx, ty, c, 3, 3, dx, dy, x, y)
                else:
                    values, ier = fit.bispeu(tx, ty, c, 3, 3, x, y)
                if ier:
                    name = "pardeu" if dx or dy else "bispeu"
                    raise ValueError(f"Error code returned by {name}: {ier}")
                return values

            return read
    from scipy.interpolate import RectBivariateSpline

    sp = RectBivariateSpline(xs, ys, z, kx=3, ky=3)
    return lambda dx, dy, x, y: sp(x, y, dx=dx, dy=dy, grid=False)


def height_surface(h: HeightField) -> ParamSurface:
    """Exact-jet graph surface of the bicubic spline through the grid.

    Where a derivative of the spline is not finite (a window so narrow that
    it overflows), the graph's first fundamental form is not finite either,
    and its jet raises DegenerateMetric; a grid read replays the pointwise
    jets, which name the first such cell (surface._blocks).
    """
    if min(h.shape) < 4:
        raise ValueError(f"a bicubic spline needs at least 4x4 heights, got {h.shape}")
    read = _bicubic(h.xs, h.ys, h.z)

    def grid_fn(S: np.ndarray, T: np.ndarray) -> Jet2:
        # the one-point evaluation at each point of the flattened grid; a grid
        # evaluation would call other fitpack routines
        s, t = np.repeat(S, len(T)), np.tile(T, len(S))
        z, zx, zy, zxx, zxy, zyy = (read(dx, dy, s, t).reshape(len(S), len(T))
                                    for dx, dy in _SPLINE_ORDERS)
        finite = np.isfinite(zx) & np.isfinite(zy) & np.isfinite(zxx)
        finite &= np.isfinite(zxy) & np.isfinite(zyy)
        if not finite.all():
            k = np.unravel_index(np.argmin(finite), finite.shape)
            values = zip(("z_x", "z_y", "z_xx", "z_xy", "z_yy"), (zx, zy, zxx, zxy, zyy))
            raise DegenerateMetric("height-field graph derivatives are not finite: "
                                   + ", ".join(f"{name}={d.item(k)!r}" for name, d in values))
        return Jet2(
            _V(S[:, None], T[None, :], z),
            _V(1.0, 0.0, zx),
            _V(0.0, 1.0, zy),
            _V(0.0, 0.0, zxx),
            _V(0.0, 0.0, zxy),
            _V(0.0, 0.0, zyy),
        )

    return ParamSurface.exact((h.x0, h.x1, h.y0, h.y1), grid_fn=grid_fn)


def height_residual_max(h: HeightField, alpha: float) -> float:
    """Max |singular residual| of the spline surface on a 48x24 interior sample grid.

    An inset of 8% of the window on each side keeps the samples away from the
    spline's boundary cells, whose second derivatives reflect the not-a-knot
    end conditions rather than the grid data.
    """
    surf = height_surface(h)
    v = Vec3(0.0, 0.0, 1.0)
    sx = (h.x1 - h.x0) * 0.08
    sy = (h.y1 - h.y0) * 0.08
    S = np.linspace(h.x0 + sx, h.x1 - sx, 48)
    T = np.linspace(h.y0 + sy, h.y1 - sy, 24)
    return abs_max(singular_residual_grid(Metric.EUCLIDEAN, surf, S, T, v, alpha))
