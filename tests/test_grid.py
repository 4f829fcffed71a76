"""Array grid layer: grid jets, residual, mesh, energy and first variation equal
the pointwise evaluation bit for bit, and fail where and as it fails."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singular_geom import catenary as cat
from singular_geom import cli, surface
from singular_geom.algebra import Metric, Vec3, cross, inner
from singular_geom.errors import DegenerateMetric, HalfspaceViolation, NotSpacelike
from singular_geom.surface import (
    Jet2,
    ParamSurface,
    first_variation,
    fundamental_forms,
    grid_points,
    mean_curvature,
    potential_energy,
    singular_residual,
    singular_residual_grid,
    unit_normal,
)
from singular_geom.variational import (
    HeightField,
    catenary_heights,
    height_residual_max,
    height_surface,
)

E = Metric.EUCLIDEAN
L = Metric.LORENTZIAN
EZ = Vec3(0.0, 0.0, 1.0)
ZERO = Vec3(0.0, 0.0, 0.0)
FIELDS = ("X", "Xs", "Xt", "Xss", "Xst", "Xtt")
CATENARY_ALPHAS = (-2.0, -1.0, 1.0, 2.0, 3.0)


def _heights_csv(tmp_path, seed=5):
    field = catenary_heights(shape=(17, 9))
    rng = np.random.default_rng(seed)
    z = field.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.01 * rng.standard_normal(z[1:-1, 1:-1].shape)
    path = tmp_path / "heights.csv"
    path.write_text(field.with_z(z).to_csv())
    return str(path)


def _named_surfaces(tmp_path):
    """(label, surface, alpha) for every built-in surface, catenaries at several alphas."""
    out = [(f"catenary{a:+g}", cli.build_named_surface("catenary-cylinder", a), a)
           for a in CATENARY_ALPHAS]
    for name in cli._SURFACES:
        if name != "catenary-cylinder":
            out.append((name, cli.build_named_surface(name, 1.0, _heights_csv(tmp_path)), 1.0))
    return out


def _extra_surfaces():
    """Surfaces without a grid evaluator: packed pointwise jets and finite differences."""
    def graph_jet(s, t):
        z = 1.5 + 0.2 * s * s - 0.3 * s * t
        return Jet2(Vec3(s, t, z), Vec3(1.0, 0.0, 0.4 * s - 0.3 * t), Vec3(0.0, 1.0, -0.3 * s),
                    Vec3(0.0, 0.0, 0.4), Vec3(0.0, 0.0, -0.3), ZERO)

    fd = ParamSurface.finite_difference(
        (-1.0, 1.0, -0.5, 0.5), lambda s, t: Vec3(s, t, 2.0 + math.sin(s) * math.cos(2.0 * t)),
        allow_overhang=True)
    return [("graph", ParamSurface.exact((-1.0, 1.0, -1.0, 1.0), graph_jet), 0.7),
            ("fd", fd, 1.3)]


def _axes(surf, ns=7, nt=5):
    s0, s1, t0, t1 = surf.domain
    return np.linspace(s0, s1, ns), np.linspace(t0, t1, nt)


def _outcome(fn, *args):
    """repr of fn's value, or its exception type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_grid_jets_equal_pointwise_jets_bitwise(tmp_path):
    for label, surf, _ in _named_surfaces(tmp_path) + _extra_surfaces():
        S, T = _axes(surf)
        J = surf.grid_jets(S, T)
        for f in FIELDS:
            # the components broadcast to (ns, nt), stacked as (ns, nt, 3)
            grid = np.stack([np.broadcast_to(c, (len(S), len(T))) for c in getattr(J, f)], axis=-1)
            for i, s in enumerate(S.tolist()):
                for j, t in enumerate(T.tolist()):
                    expected = getattr(surf.jet(s, t), f).as_tuple()
                    assert repr(grid[i, j].tolist()) == repr(list(expected)), (label, f, s, t)


def _sphere_jet(s, t):
    cs, ss, ct, st = math.cos(s), math.sin(s), math.cos(t), math.sin(t)
    return Jet2(Vec3(cs * ct, ss * ct, st), Vec3(-ss * ct, cs * ct, 0.0),
                Vec3(-cs * st, -ss * st, ct), Vec3(-cs * ct, -ss * ct, 0.0),
                Vec3(ss * st, -cs * st, 0.0), Vec3(-cs * ct, -ss * ct, -st))


def _hyperboloid_jet(s, t):
    r = math.sqrt(1.0 + s * s + t * t)
    r3 = r ** 3
    return Jet2(Vec3(s, t, r), Vec3(1.0, 0.0, s / r), Vec3(0.0, 1.0, t / r),
                Vec3(0.0, 0.0, (1.0 + t * t) / r3), Vec3(0.0, 0.0, -s * t / r3),
                Vec3(0.0, 0.0, (1.0 + s * s) / r3))


def _spline_jet(sp):
    def jet_fn(s, t):
        z, zx, zy, zxx, zxy, zyy = (float(sp(s, t, dx=dx, dy=dy, grid=False)) for dx, dy in
                                    ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
        return Jet2(Vec3(s, t, z), Vec3(1.0, 0.0, zx), Vec3(0.0, 1.0, zy), Vec3(0.0, 0.0, zxx),
                    Vec3(0.0, 0.0, zxy), Vec3(0.0, 0.0, zyy))

    return jet_fn


def test_grid_only_surfaces_give_their_pointwise_formulas(tmp_path):
    # the sphere, hyperboloid and height-field surfaces define only a grid_fn;
    # their pointwise jet is read from a grid of one point
    from scipy.interpolate import RectBivariateSpline

    from singular_geom.variational import HeightField

    file = _heights_csv(tmp_path)
    with open(file) as f:
        field = HeightField.from_csv(f.read())
    cases = [("sphere", None, _sphere_jet), ("hyperboloid", None, _hyperboloid_jet),
             ("file", file,
              _spline_jet(RectBivariateSpline(field.xs, field.ys, field.z, kx=3, ky=3)))]
    for name, file, formula in cases:
        surf = cli.build_named_surface(name, 1.0, file)
        S, T = _axes(surf, 9, 8)
        for s in S.tolist():
            for t in T.tolist():
                assert repr(surf.jet(s, t)) == repr(formula(s, t)), (name, s, t)


def _row_major(cell, S, T):
    """cell(s, t) in a row-major loop: the values, or the first failure and its cell."""
    values = []
    for s in S.tolist():
        for t in T.tolist():
            try:
                values.append(cell(s, t))
            except Exception as exc:
                return None, (type(exc), str(exc), (s, t))
    return values, None


def test_grid_residual_equals_pointwise_residual(tmp_path):
    checked = {E: 0, L: 0}
    for label, surf, alpha in _named_surfaces(tmp_path) + _extra_surfaces():
        S, T = _axes(surf)
        for m in (E, L):
            values, failure = _row_major(
                lambda s, t: singular_residual(m, surf, s, t, EZ, alpha), S, T)
            if failure is None:
                R = singular_residual_grid(m, surf, S, T, EZ, alpha)
                assert repr(R.ravel().tolist()) == repr(values), (label, m)
                checked[m] += 1
            else:
                with pytest.raises(failure[0]) as info:
                    singular_residual_grid(m, surf, S, T, EZ, alpha)
                assert (str(info.value), info.value.cell) == failure[1:], (label, m)
    # every surface is valid in at least one metric; the hyperboloid and the
    # lightlike reference are valid in the Lorentzian one
    assert checked[E] >= 9 and checked[L] >= 2


def _reference_residual_command(argv_cfg):
    """The residual command as the pointwise loop it was: (exit code, CSV, stdout, stderr)."""
    surface_name, metric, alpha, v, grid, file = argv_cfg
    surf = cli.build_named_surface(surface_name, alpha, file)
    s0, s1, t0, t1 = surf.domain
    rows = ["s,t,residual"]
    worst = 0.0
    for s in np.linspace(s0, s1, grid[0]):
        for t in np.linspace(t0, t1, grid[1]):
            try:
                r = singular_residual(metric, surf, float(s), float(t), v, alpha)
            except (DegenerateMetric, NotSpacelike, HalfspaceViolation) as exc:
                return 3, None, "", (f"{type(exc).__name__} at cell s={float(s)!r}, "
                                     f"t={float(t)!r}: {exc}")
            rows.append(f"{float(s)!r},{float(t)!r},{r!r}")
            worst = max(worst, abs(r))
    return 0, "\n".join(rows) + "\n", f"max |residual| = {worst!r}", None


def _reference_mesh(surface_name, alpha, grid, file):
    surf = cli.build_named_surface(surface_name, alpha, file)
    ns, nt = grid
    s0, s1, t0, t1 = surf.domain
    lines = []
    for s in np.linspace(s0, s1, ns):
        for t in np.linspace(t0, t1, nt):
            p = surf.jet(float(s), float(t)).X
            lines.append(f"v {p.x!r} {p.y!r} {p.z!r}")
    for i in range(ns - 1):
        for j in range(nt - 1):
            a = i * nt + j + 1
            b = (i + 1) * nt + j + 1
            c = (i + 1) * nt + j + 2
            d = i * nt + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def _run(argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    problems = [ln for ln in captured.err.splitlines() if "resolved config" not in ln]
    return info.value.code, captured.out.strip(), problems


RESIDUAL_CASES = [
    ("helicoid", "euclid", 1.0, "0,0,1", (40, 40)),
    ("catenary-cylinder", "euclid", 1.0, "0,0,1", (13, 11)),
    ("catenary-cylinder", "euclid", -2.0, "0,0,1", (9, 40)),
    ("catenary-cylinder", "euclid", 3.0, "0,0,1", (17, 5)),
    ("hyperboloid", "lorentz", 1.0, "0,0,1", (40, 40)),
    ("hyperboloid", "euclid", 1.5, "0,0,1", (11, 7)),
    ("sphere", "euclid", 1.0, "0,0,1", (12, 9)),
    ("lightlike-reference", "lorentz", 1.0, "0,0,1", (9, 9)),
    ("file", "euclid", 1.0, "0,0,1", (40, 40)),
    # exit 3, each with its one stderr line
    ("sphere", "lorentz", 1.0, "0,0,1", (12, 9)),
    ("catenary-cylinder", "euclid", 1.0, "0,0,-1", (10, 10)),
    ("lightlike-reference", "euclid", 1.0, "0,0,1", (9, 9)),
    ("file", "lorentz", 1.0, "0,0,1", (6, 6)),
]


@pytest.mark.parametrize("block", [surface.GRID_BLOCK, 7])
@pytest.mark.parametrize("case", RESIDUAL_CASES, ids=lambda c: "-".join(map(str, c[:3])))
def test_residual_command_matches_pointwise_reference(tmp_path, monkeypatch, capsys, case,
                                                      block):
    # block = 7 makes every grid span several blocks of one row
    monkeypatch.setattr(surface, "GRID_BLOCK", block)
    name, metric, alpha, v, grid = case
    file = _heights_csv(tmp_path) if name == "file" else None
    code, out, problems = _run(
        ["residual", "--surface", name, "--metric", metric, "--alpha", repr(alpha), "--v", v,
         "--grid", f"{grid[0]}x{grid[1]}", "--out", "r.csv"]
        + (["--file", file] if file else []), monkeypatch, tmp_path, capsys)
    x, y, z = (float(c) for c in v.split(","))
    ref_code, ref_csv, ref_out, ref_err = _reference_residual_command(
        (name, cli._METRICS[metric], alpha, Vec3(x, y, z), grid, file))
    assert code == ref_code
    if ref_code == 0:
        assert (tmp_path / "r.csv").read_text() == ref_csv
        assert out == ref_out and problems == []
    else:
        assert problems == [ref_err] and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("block", [surface.GRID_BLOCK, 7])
@pytest.mark.parametrize("name, grid", [
    ("catenary-cylinder", (60, 60)), ("helicoid", (2, 2)), ("sphere", (13, 17)),
    ("hyperboloid", (9, 4)), ("lightlike-reference", (5, 8)), ("file", (11, 13)),
])
def test_export_mesh_matches_pointwise_reference(tmp_path, monkeypatch, capsys, name, grid,
                                                 block):
    monkeypatch.setattr(surface, "GRID_BLOCK", block)
    file = _heights_csv(tmp_path) if name == "file" else None
    code, _, problems = _run(["export-mesh", "--surface", name, "--grid", f"{grid[0]}x{grid[1]}",
                              "--out", "m.obj"] + (["--file", file] if file else []),
                             monkeypatch, tmp_path, capsys)
    assert code == 0 and problems == []
    assert (tmp_path / "m.obj").read_text() == _reference_mesh(name, 1.0, grid, file)


def test_grid_evaluation_spans_several_blocks(monkeypatch):
    # the block loop gives the same bytes in blocks of one row as in one block
    surf = cli.build_named_surface("catenary-cylinder", 1.0)
    S, T = _axes(surf, 23, 19)
    whole = singular_residual_grid(E, surf, S, T, EZ, 1.0)
    points = grid_points(surf, S, T)
    rows = []
    grid_jets = ParamSurface.grid_jets
    monkeypatch.setattr(ParamSurface, "grid_jets",
                        lambda self, S, T: rows.append(len(S)) or grid_jets(self, S, T))
    monkeypatch.setattr(surface, "GRID_BLOCK", 40)
    assert singular_residual_grid(E, surf, S, T, EZ, 1.0).tobytes() == whole.tobytes()
    assert rows == [2] * 11 + [1]
    assert grid_points(surf, S, T).tobytes() == points.tobytes()


@pytest.mark.parametrize("name", ["helicoid", "file"])
def test_a_grid_without_cells_is_an_empty_array(tmp_path, name):
    # an empty T, like an empty S, leaves no cell to evaluate
    surf = cli.build_named_surface(name, 1.0, _heights_csv(tmp_path))
    S, T = _axes(surf, 3, 4)
    for s, t in ((S, T[:0]), (S[:0], T), (S[:0], T[:0])):
        assert singular_residual_grid(E, surf, s, t, EZ, 1.0).shape == (len(s), len(t))
        assert grid_points(surf, s, t).shape == (len(s), len(t), 3)


# ---------------------------------------------------------------------------
# energy, first variation, height-field residual: the pointwise loops they were
# ---------------------------------------------------------------------------

def _reference_energy(m, surf, v, alpha, grid=(64, 64)):
    surface.require_unit_direction(m, v)
    s0, s1, t0, t1 = surf.domain
    s_nodes, s_w = surface._trapezoid_nodes(s0, s1, grid[0])
    t_nodes, t_w = surface._trapezoid_nodes(t0, t1, grid[1])
    total = 0.0
    for si, swi in zip(s_nodes, s_w):
        for tj, twj in zip(t_nodes, t_w):
            total += _reference_energy_term(m, surf, si, tj, v, alpha, swi * twj)
    return total


def _reference_energy_term(m, surf, si, tj, v, alpha, weight):
    j = surf.jet(si, tj)
    q = inner(m, j.X, v)
    if m is E:
        if q <= 0.0:
            raise HalfspaceViolation(f"<X, v> = {q} <= 0")
    elif abs(q) <= 1e-12 * (1.0 + j.X.max_abs()):
        raise HalfspaceViolation(f"<X, v>_L = {q} is numerically zero")
    Ef, Ff, Gf = inner(m, j.Xs, j.Xs), inner(m, j.Xs, j.Xt), inner(m, j.Xt, j.Xt)
    W2 = Ef * Gf - Ff * Ff
    floor = surface.REGULARITY_FLOOR * (Ef * Ef + Gf * Gf + 1.0)
    # NaN and inf are not regular either
    if not floor <= abs(W2) < math.inf:
        raise DegenerateMetric(f"|EG - F^2| = {abs(W2)} below floor {floor}")
    if m is L:
        if W2 < 0.0:
            raise NotSpacelike(f"surface not spacelike at ({si},{tj})")
        base = abs(q)
    else:
        base = q
    return weight * base ** alpha * math.sqrt(abs(W2))


def _reference_normal(m, j):
    c = cross(m, j.Xs, j.Xt)
    n2 = abs(inner(m, c, c))
    Ef, Gf = inner(m, j.Xs, j.Xs), inner(m, j.Xt, j.Xt)
    if not surface.REGULARITY_FLOOR * (Ef * Ef + Gf * Gf + 1.0) <= n2 < math.inf:
        raise DegenerateMetric("normal direction degenerates")
    return c / math.sqrt(n2)


def _reference_variation(m, surf, v, alpha, bump, h, grid):
    def perturbed(sign):
        def point(s, t):
            j = surf.jet_unchecked(s, t)
            return j.X + (sign * h * bump(s, t)) * _reference_normal(m, j)

        return ParamSurface.finite_difference(surf.domain, point, allow_overhang=True)

    e_plus = _reference_energy(m, perturbed(+1.0), v, alpha, grid)
    e_minus = _reference_energy(m, perturbed(-1.0), v, alpha, grid)
    return (e_plus - e_minus) / (2.0 * h)


def _bump(surf, ks=1, kt=1):
    s0, s1, t0, t1 = surf.domain
    return lambda s, t: (math.sin(ks * math.pi * (s - s0) / (s1 - s0))
                         * math.sin(kt * math.pi * (t - t0) / (t1 - t0)))


def _plane(z0, slope):
    return ParamSurface.exact(
        (0.0, 1.0, 0.0, 1.0),
        lambda s, t: Jet2(Vec3(s, t, z0 + slope * t), Vec3(1, 0, 0), Vec3(0, 1, slope),
                          ZERO, ZERO, ZERO))


def _variation_cases():
    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 1.0, 2.0, 1e-3)
    cylinder = cat.catenary_cylinder(path, EZ, Vec3(0.0, 1.0, 0.0))
    sphere = cli.build_named_surface("sphere", 1.0)
    hyperboloid = cli.build_named_surface("hyperboloid", 1.0)
    fold = ParamSurface.exact(
        (-1.0, 1.0, 0.0, 1.0),
        lambda s, t: Jet2(Vec3(s * s, t, 1.0 + 0.1 * t), Vec3(2.0 * s, 0.0, 0.0),
                          Vec3(0.0, 1.0, 0.1), Vec3(2.0, 0.0, 0.0), ZERO, ZERO))
    return [
        ("cylinder-8x8", E, cylinder, 1.0, _bump(cylinder), 1e-3, (8, 8)),
        ("cylinder-kst", E, cylinder, 1.0, _bump(cylinder, 2, 1), 1e-3, (9, 7)),
        ("tilted-plane", E, _plane(1.0, 0.5), 1.0, _bump(_plane(1.0, 0.5)), 1e-4, (12, 12)),
        ("plane-alpha", E, _plane(2.0, 0.0), 2.5, _bump(_plane(2.0, 0.0)), 1e-3, (6, 9)),
        ("hyperboloid", L, hyperboloid, 1.3, _bump(hyperboloid), 1e-3, (10, 8)),
        # failures: a plane at height 0 leaves the halfspace, a sphere is not
        # spacelike, and a huge bump overflows <X,v>^alpha
        ("halfspace", E, _plane(0.0, 0.5), 1.0, _bump(_plane(0.0, 0.5)), 1e-3, (5, 5)),
        ("sphere-lorentz", L, sphere, 1.0, _bump(sphere), 1e-3, (5, 5)),
        ("overflow", E, _plane(1.0, 0.0), 400.0, lambda s, t: 1e300 * s * t, 1e-3, (4, 4)),
        # the normal of X = (s^2, t, 1 + 0.1t) degenerates at s = 0, a node
        ("degenerate-normal", E, fold, 1.0, _bump(fold), 1e-3, (5, 5)),
        # only E(X - h bump N) leaves the halfspace
        ("halfspace-minus", E, _plane(5e-4, 0.0), 1.0, _bump(_plane(5e-4, 0.0)), 1e-3, (5, 5)),
    ]


@pytest.mark.parametrize("case", _variation_cases(), ids=lambda c: c[0])
def test_first_variation_equals_pointwise_reference(case):
    _, m, surf, alpha, bump, h, grid = case
    assert (_outcome(first_variation, m, surf, EZ, alpha, bump, h, grid)
            == _outcome(_reference_variation, m, surf, EZ, alpha, bump, h, grid))


@pytest.mark.parametrize("block", [surface.GRID_BLOCK, 7])
@pytest.mark.parametrize("case", _variation_cases()[:5], ids=lambda c: c[0])
def test_first_variation_takes_one_array_pass(monkeypatch, case, block):
    # the pointwise energies are only the fallback for a rejected cell
    _, m, surf, alpha, bump, h, grid = case
    expected = first_variation(m, surf, EZ, alpha, bump, h, grid)
    monkeypatch.setattr(surface, "GRID_BLOCK", block)

    def fallback(*args, **kwargs):
        raise AssertionError("first_variation fell back to the pointwise energies")

    monkeypatch.setattr(surface, "potential_energy", fallback)
    assert repr(first_variation(m, surf, EZ, alpha, bump, h, grid)) == repr(expected)


def _energy_cases(tmp_path):
    cylinder = cli.build_named_surface("catenary-cylinder", 1.0)
    return [
        (E, cylinder, 2.7, (33, 17)),
        (E, cylinder, -1.5, (64, 64)),
        (L, cli.build_named_surface("hyperboloid", 1.0), 1.0, (16, 16)),
        (E, cli.build_named_surface("file", 1.0, _heights_csv(tmp_path)), 1.0, (9, 11)),
        (E, _extra_surfaces()[1][1], 1.1, (9, 9)),
        (E, _plane(1.0, 0.0), 2, (5, 4)),
        # failures in their pointwise order
        (L, cli.build_named_surface("sphere", 1.0), 1.0, (8, 8)),
        (E, _plane(0.0, 0.5), 1.0, (5, 5)),
        (E, _plane(1e300, 0.0), 3.0, (5, 5)),
        (E, ParamSurface.finite_difference((0, 1, 0, 1), lambda s, t: Vec3(s, t, 1.0), h=0.01),
         1.0, (5, 5)),
    ]


@pytest.mark.parametrize("block", [surface.GRID_BLOCK, 7])
def test_potential_energy_equals_pointwise_reference(tmp_path, monkeypatch, block):
    monkeypatch.setattr(surface, "GRID_BLOCK", block)
    for m, surf, alpha, grid in _energy_cases(tmp_path):
        assert (_outcome(potential_energy, m, surf, EZ, alpha, grid)
                == _outcome(_reference_energy, m, surf, EZ, alpha, grid))


# cells of the contract planes; each but "ok" is rejected by the pointwise API
# in some metric, by some function or at some alpha
FAILING_CELLS = ("halfspace", "degenerate", "timelike", "overflow", "non-finite",
                 "form-overflow")


@st.composite
def _plane_cells(draw):
    """An ns x nt table of cell kinds, at most three of them failing kinds."""
    ns, nt = draw(st.integers(2, 4)), draw(st.integers(2, 9))
    cells = [["ok"] * nt for _ in range(ns)]
    for k, kind in draw(st.lists(st.tuples(st.integers(0, ns * nt - 1),
                                           st.sampled_from(FAILING_CELLS)), max_size=3)):
        cells[k // nt][k % nt] = kind
    return tuple(map(tuple, cells))


def _contract_plane(cells):
    """An exact plane over integer nodes whose jet at node (i, j) is of kind cells[i][j].

    The plane X = (s, t, 1 + s/4 + t/8) is admissible in both metrics.  A
    "halfspace" cell lies on z = 0; a "degenerate" cell has Xt = Xs; a
    "timelike" cell has a timelike Xt in L^3; an "overflow" cell lies on
    z = 1e300, where <X,v>^alpha overflows for alpha > 1; a "non-finite"
    cell has Xss = (0, 0, inf); a "form-overflow" cell has Xt = (0, 1, 1e160), whose
    G overflows and leaves EG - F^2 NaN or infinite.
    """
    kinds = np.array(cells)

    def grid_fn(S, T):
        K = kinds[np.ix_(np.rint(S).astype(int), np.rint(T).astype(int))]
        s, t = np.meshgrid(S, T, indexing="ij")
        z = np.where(K == "halfspace", 0.0,
                     np.where(K == "overflow", 1e300, 1.0 + s / 4.0 + t / 8.0))
        Xs = surface._V(np.ones_like(s), 0.0, 0.25)
        Xt = surface._V(*(np.where(K == "degenerate", a, b) for a, b in zip(
            Xs, (0.0, 1.0, np.select([K == "timelike", K == "form-overflow"], [2.0, 1e160],
                                     0.125)))))
        Xss = surface._V(0.0, 0.0, np.where(K == "non-finite", math.inf, 0.0))
        zero = surface._V(0.0, 0.0, 0.0)
        return Jet2(surface._V(s, t, z), Xs, Xt, Xss, zero, zero)

    return ParamSurface.exact((0.0, len(cells) - 1.0, 0.0, len(cells[0]) - 1.0),
                              grid_fn=grid_fn)


def _grid_outcome(call):
    """call()'s values, or its exception's type, message and cell."""
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc), getattr(exc, "cell", None))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cells=_plane_cells(), m=st.sampled_from([E, L]), alpha=st.sampled_from([1.0, 3.0, -2.0]),
       block=st.sampled_from([1, 3, 7, 4096]))
# z = 1e300 on t = 0 overflows <X,v>^3 before z = 0 on t = 1 leaves the halfspace
@example(cells=(("overflow", "halfspace"), ("overflow", "halfspace")), m=E, alpha=3.0,
         block=4096)
def test_grids_fail_where_and_as_the_row_major_loop(cells, m, alpha, block):
    surf = _contract_plane(cells)
    S, T = np.arange(len(cells), dtype=float), np.arange(len(cells[0]), dtype=float)
    _, s_w = surface._trapezoid_nodes(0.0, len(S) - 1.0, len(S))
    _, t_w = surface._trapezoid_nodes(0.0, len(T) - 1.0, len(T))
    weight = {(s, t): sw * tw
              for s, sw in zip(S.tolist(), s_w) for t, tw in zip(T.tolist(), t_w)}
    terms, energy_failure = _row_major(
        lambda s, t: _reference_energy_term(m, surf, s, t, EZ, alpha, weight[s, t]), S, T)
    total = 0.0
    for term in terms or ():
        total += term
    with mock.patch.object(surface, "GRID_BLOCK", block):
        got = [
            _grid_outcome(
                lambda: singular_residual_grid(m, surf, S, T, EZ, alpha).ravel().tolist()),
            _grid_outcome(lambda: grid_points(surf, S, T).reshape(-1, 3).tolist()),
            _grid_outcome(lambda: [potential_energy(m, surf, EZ, alpha, (len(S), len(T)))]),
        ]
    expected = [
        _row_major(lambda s, t: singular_residual(m, surf, s, t, EZ, alpha), S, T),
        _row_major(lambda s, t: list(surf.jet(s, t).X.as_tuple()), S, T),
        (None if terms is None else [total], energy_failure),
    ]
    assert repr(got) == repr(expected)


def _reference_height_residual_max(h, alpha):
    surf = height_surface(h)
    sx = (h.x1 - h.x0) * 0.08
    sy = (h.y1 - h.y0) * 0.08
    worst = 0.0
    for s in np.linspace(h.x0 + sx, h.x1 - sx, 48):
        for t in np.linspace(h.y0 + sy, h.y1 - sy, 24):
            worst = max(worst, abs(singular_residual(E, surf, s, t, EZ, alpha)))
    return worst


@pytest.mark.parametrize("block", [surface.GRID_BLOCK, 7])
def test_height_residual_max_equals_pointwise_reference(monkeypatch, block):
    monkeypatch.setattr(surface, "GRID_BLOCK", block)
    field = catenary_heights(shape=(41, 21))
    z = field.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.01 * np.random.default_rng(3).standard_normal(z[1:-1, 1:-1].shape)
    for h, alpha in ((field, 1.0), (field.with_z(z), 1.0), (field.with_z(z), -2.0)):
        assert repr(height_residual_max(h, alpha)) == repr(_reference_height_residual_max(h, alpha))


# ---------------------------------------------------------------------------
# an overflowing first fundamental form: heights from about 1e78 overflow
# E = 1 + z_x^2, and EG - F^2 turns NaN
# ---------------------------------------------------------------------------

def _huge_field(scale=1e160):
    x, y = np.linspace(0.0, 1.0, 6)[:, None], np.linspace(0.0, 1.0, 5)[None, :]
    return HeightField(0.0, 1.0, 0.0, 1.0, scale * (1.0 + x * x + 0.5 * y * y))


@pytest.mark.parametrize("block", [surface.GRID_BLOCK, 7])
def test_an_overflowing_first_form_is_degenerate_on_the_grid_as_pointwise(monkeypatch, block):
    monkeypatch.setattr(surface, "GRID_BLOCK", block)
    h = _huge_field()
    surf = height_surface(h)
    S, T = _axes(surf, 4, 4)
    _, failure = _row_major(lambda s, t: singular_residual(E, surf, s, t, EZ, 1.0), S, T)
    assert failure is not None and failure[0] is DegenerateMetric
    assert _grid_outcome(lambda: singular_residual_grid(E, surf, S, T, EZ, 1.0)) == (None, failure)
    j = surf.jet(*failure[2])
    for call in (fundamental_forms, mean_curvature):
        with pytest.raises(DegenerateMetric, match=r"^\|EG - F\^2\| = nan below floor inf$"):
            call(E, j)
    with pytest.raises(DegenerateMetric):
        potential_energy(E, surf, EZ, 1.0, (8, 8))
    with pytest.raises(DegenerateMetric):
        height_residual_max(h, 1.0)
    # D is not taken where the form overflows; the oracle takes it under errstate too
    with np.errstate(all="ignore"):
        taken, _ = surface.cleared_residual_cells(E, surf.grid_jets(S, T), EZ, 1.0)
    assert not np.any(taken)


def test_an_overflowing_normal_is_degenerate():
    # |Xs x Xt|^2 and its floor are both inf; the normal would be the zero vector
    big = Jet2(Vec3(0.0, 0.0, 1.0), Vec3(1.0, 0.0, 1e160), Vec3(0.0, 1.0, 1e160),
               ZERO, ZERO, ZERO)
    with pytest.raises(DegenerateMetric, match="^normal direction degenerates$"):
        unit_normal(E, big)
    with pytest.raises(DegenerateMetric, match="^normal direction degenerates$"):
        _reference_normal(E, big)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_residual_command_on_an_overflowing_field_exits_3(tmp_path, monkeypatch, capsys, scale):
    (tmp_path / "big.csv").write_text(_huge_field(scale).to_csv())
    code, out, problems = _run(["residual", "--surface", "file", "--file", "big.csv",
                                "--grid", "4x4", "--out", "r.csv"], monkeypatch, tmp_path, capsys)
    assert (code, out) == (3, "")
    assert problems == ["DegenerateMetric at cell s=0.0, t=0.0: |EG - F^2| = nan below floor inf"]
    assert not (tmp_path / "r.csv").exists()
