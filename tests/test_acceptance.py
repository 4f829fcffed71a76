"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import json
import math
import time

import numpy as np

from conftest import run_cli
from singular_geom import catenary as cat
from singular_geom.algebra import Metric, Vec3, cross, inner
from singular_geom.curves import fd1
from singular_geom.ruled import (
    coefficients,
    default_t_samples,
    frame,
    helicoid,
    lightlike_reference,
    normalize_lorentz,
    random_euclidean_ruled,
    random_lightlike_ruled,
    random_lorentz_ruled,
    random_prenormalization_input,
    random_unit_timelike,
    random_unit_vector,
    residual_polynomial_consistency,
    translate_into_halfspace,
)
from singular_geom.ruled import _halfspace_window
from singular_geom.surface import ParamSurface, Jet2, mean_curvature, singular_residual
from singular_geom.variational import (
    HeightField,
    catenary_heights,
    descend,
    height_energy,
    height_residual_max,
    interior_gradient,
)

E = Metric.EUCLIDEAN
L = Metric.LORENTZIAN
EZ = Vec3(0, 0, 1)


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: {detail} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert in_time, f"criterion {num} overran its budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_catenary_ground_truth():
    t0 = time.perf_counter()
    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 1.0, 2.0, 1e-3)
    end = path.endpoint
    u_ref, y_ref = cat.classical_catenary(2.0)
    err = math.hypot(end.u - u_ref, end.y - y_ref)
    _report(1, "catenary ground truth", err <= 1e-8, time.perf_counter() - t0, 1.0,
            f"endpoint error {err:.2e} <= 1e-8")


def test_criterion_2_catenary_cylinder_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, length in [(-2.0, 1.0), (-1.0, 1.2), (1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]:
        path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), alpha, length, 2.5e-4)
        surf = cat.catenary_cylinder(path, EZ, Vec3(0, 1, 0))
        s0, s1, tl, th = surf.domain
        for s in np.linspace(s0, s1, 50):
            for t in np.linspace(tl, th, 50):
                worst = max(worst, abs(singular_residual(E, surf, s, t, EZ, alpha)))
    _report(2, "curvature-condition realization", worst <= 1e-5,
            time.perf_counter() - t0, 5.0,
            f"max residual over 5 alphas {worst:.2e} <= 1e-5")


def test_criterion_3_frame_identities():
    # 512-step tables keep the integrator drift ~1e-12, far below the gate
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        rs = random_euclidean_ruled(rng, n_steps=512)
        for s in rs.s_samples(100):
            fr = frame(rs, s)
            wxwp = cross(E, fr.w, fr.wp)
            worst = max(
                worst,
                (rs.base.d1(s) - fr.P * wxwp).max_abs(),
                (rs.director.d2(s) + fr.w - fr.Q * wxwp).max_abs(),
            )
    for delta in (1, -1):
        for _ in range(100):
            rs = random_lorentz_ruled(rng, delta, n_steps=512)
            for s in rs.s_samples(100):
                fr = frame(rs, s)
                wxwp = cross(L, fr.w, fr.wp)
                worst = max(
                    worst,
                    (rs.base.d1(s) + delta * fr.P * wxwp).max_abs(),
                    (rs.director.d2(s) + delta * (fr.w + fr.Q * wxwp)).max_abs(),
                )
    _report(3, "frame identities", worst <= 1e-8, time.perf_counter() - t0, 10.0,
            f"300 surfaces x 100 samples, worst {worst:.2e} <= 1e-8")


def test_criterion_4_coefficient_oracle_equivalence():
    t0 = time.perf_counter()
    worst = residual_polynomial_consistency(helicoid(1.0), 1.2, EZ, 1.0,
                                            [-1.0, -0.5, 0.1, 0.5, 1.0])
    rng = np.random.default_rng(4242)
    makers = [
        (lambda: random_euclidean_ruled(rng), lambda: random_unit_vector(rng)),
        (lambda: random_lorentz_ruled(rng, 1), lambda: random_unit_timelike(rng)),
        (lambda: random_lorentz_ruled(rng, -1), lambda: random_unit_timelike(rng)),
        (lambda: random_lightlike_ruled(rng), lambda: random_unit_timelike(rng)),
    ]
    for maker, vmaker in makers:
        for _ in range(50):
            rs = maker()
            v = vmaker()
            alpha = float(rng.uniform(-3, 3))
            s_values = rs.s_samples(3)
            rs = translate_into_halfspace(rs, v, s_values, _halfspace_window(rs, s_values))
            for s in s_values:
                worst = max(worst, residual_polynomial_consistency(
                    rs, s, v, alpha, default_t_samples(rs, s, n=8)))
    _report(4, "coefficient-oracle equivalence", worst <= 1e-8,
            time.perf_counter() - t0, 30.0,
            f"helicoid + 200 random surfaces, worst {worst:.2e} <= 1e-8")


def test_criterion_5_falsification_sweeps(tmp_path):
    t0 = time.perf_counter()
    runs = [
        (["sweep", "--metric", "euclid", "--n", "200", "--samples", "10",
          "--seed", "42", "--out", "euclid.json"], "euclid.json"),
        (["sweep", "--metric", "lorentz", "--class", "nondegenerate", "--delta", "1",
          "--n", "100", "--samples", "10", "--seed", "43", "--out", "lp.json"], "lp.json"),
        (["sweep", "--metric", "lorentz", "--class", "nondegenerate", "--delta", "-1",
          "--n", "100", "--samples", "10", "--seed", "44", "--out", "lm.json"], "lm.json"),
        (["sweep", "--metric", "lorentz", "--class", "lightlike",
          "--n", "100", "--samples", "10", "--seed", "7", "--out", "ll.json"], "ll.json"),
    ]
    ok = True
    detail = []
    for args, out in runs:
        proc = run_cli(args, tmp_path)
        # exit 0 and exit 4 (counterexample candidates) both write the report
        assert proc.returncode in (0, 4), (
            f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
        report = json.loads((tmp_path / out).read_text())
        ok = ok and proc.returncode == 0 and report["counterexamples"] == []
        detail.append(f"{out.split('.')[0]}: exit {proc.returncode}, "
                      f"min {report['min_max_abs_coeff']:.2e}")
    _report(5, "falsification sweeps", ok, time.perf_counter() - t0, 120.0,
            "; ".join(detail))


def test_criterion_6_helicoid_hand_values():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        h = helicoid(c)
        for alpha in (1.0, 2.0):
            cv = coefficients(h, 1.1, EZ, alpha)
            expected = (0.0, -alpha * c * c, 0.0, -alpha)
            worst = max(worst, max(abs(a - e) for a, e in zip(cv.A, expected)))
        worst = max(worst, coefficients(h, 1.1, EZ, 0.0).max_abs())
    _report(6, "helicoid hand values", worst <= 1e-9, time.perf_counter() - t0, 1.0,
            f"worst coefficient error {worst:.2e} <= 1e-9")


def test_criterion_7_lorentz_reparametrization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for delta in (1, -1):
        for _ in range(20):
            base, director, s_range = random_prenormalization_input(rng, delta)
            rs = normalize_lorentz(base, director, delta, s_range)
            for s in rs.s_samples(20):
                gp = fd1(rs.base.value, s, 1e-4)
                worst = max(worst,
                            abs(inner(L, gp, rs.director.value(s))),
                            abs(inner(L, gp, rs.director.d1(s))))
    _report(7, "reparametrization of spacelike ruled surfaces", worst <= 1e-8,
            time.perf_counter() - t0, 5.0,
            f"40 inputs, worst orthogonality defect {worst:.2e} <= 1e-8")


def test_criterion_8_lightlike_reference_identities():
    from singular_geom.curves import fd1
    from singular_geom.surface import fundamental_forms
    from singular_geom.algebra import triple

    t0 = time.perf_counter()
    ref = lightlike_reference()
    worst_cross = 0.0
    for s in np.linspace(-1.0, 1.0, 21):
        w = ref.director.value(s)
        wp = ref.director.d1(s)
        worst_cross = max(worst_cross, (cross(L, w, wp) + wp).max_abs())
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10):
        rs = random_lightlike_ruled(rng)
        qf = lambda s: inner(L, rs.base.d1(s), rs.director.d1(s))
        for s in rs.s_samples(8):
            Q = qf(s)
            Qp = fd1(qf, s, 1e-4)
            for t in np.linspace(-0.3, 0.3, 5):
                j = rs.jet(s, t)
                f = fundamental_forms(L, j)
                worst = max(worst, abs(f.E - (1.0 + 2.0 * Q * t)),
                            abs(triple(j.Xs, j.Xt, j.Xss) - (Qp / Q + Qp * t)))
    ok = worst_cross <= 1e-12 and worst <= 1e-8
    _report(8, "lightlike-director identities", ok, time.perf_counter() - t0, 2.0,
            f"w x w' + w' = {worst_cross:.2e} <= 1e-12; metric identities {worst:.2e} <= 1e-8")


def test_criterion_9_variational_keystone():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    for _ in range(3):
        nx, ny = int(rng.integers(14, 26)), int(rng.integers(10, 18))
        field = HeightField(-1, 1, 0, 1, 1.4 + 0.5 * rng.random((nx, ny)))
        alpha = float(rng.uniform(-1.5, 2.5))
        g = interior_gradient(field, alpha)
        for _ in range(10):
            i = int(rng.integers(1, nx - 1))
            j = int(rng.integers(1, ny - 1))
            eps = 1e-5
            zp = field.z.copy()
            zp[i, j] += eps
            zm = field.z.copy()
            zm[i, j] -= eps
            fd = (height_energy(field.with_z(zp), alpha)
                  - height_energy(field.with_z(zm), alpha)) / (2 * eps)
            worst_rel = max(worst_rel, abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j])))

    h = catenary_heights(shape=(41, 21))
    z = h.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.01 * rng.standard_normal(z[1:-1, 1:-1].shape)
    noisy = h.with_z(z)
    before = height_residual_max(noisy, 1.0)
    after = height_residual_max(descend(noisy, 1.0, 500, 0.12)[0], 1.0)
    ok = worst_rel <= 1e-6 and before / after >= 10.0
    _report(9, "variational keystone", ok, time.perf_counter() - t0, 60.0,
            f"gradient vs probes {worst_rel:.2e} <= 1e-6; "
            f"residual reduction {before / after:.0f}x >= 10x")


def test_criterion_10_curvature_sanity():
    t0 = time.perf_counter()

    def sphere_jet(s, t):
        cs, ss, ct, st = math.cos(s), math.sin(s), math.cos(t), math.sin(t)
        return Jet2(Vec3(cs * ct, ss * ct, st), Vec3(-ss * ct, cs * ct, 0.0),
                    Vec3(-cs * st, -ss * st, ct), Vec3(-cs * ct, -ss * ct, 0.0),
                    Vec3(ss * st, -cs * st, 0.0), Vec3(-cs * ct, -ss * ct, -st))

    def hyperboloid_point(s, t):
        return Vec3(s, t, math.sqrt(1.0 + s * s + t * t))

    def hyperboloid_jet(s, t):
        r = math.sqrt(1.0 + s * s + t * t)
        r3 = r ** 3
        return Jet2(Vec3(s, t, r), Vec3(1, 0, s / r), Vec3(0, 1, t / r),
                    Vec3(0, 0, (1 + t * t) / r3), Vec3(0, 0, -s * t / r3),
                    Vec3(0, 0, (1 + s * s) / r3))

    rng = np.random.default_rng(10)
    worst_h = 0.0
    for _ in range(20):
        s = float(rng.uniform(0, 2 * math.pi))
        t = float(rng.uniform(0.2, 1.3))
        worst_h = max(worst_h, abs(abs(mean_curvature(E, sphere_jet(s, t))) - 1.0))
    fd_surf = ParamSurface.finite_difference(
        (-1, 1, -1, 1), hyperboloid_point)
    worst_fd = 0.0
    for _ in range(20):
        s, t = (float(x) for x in rng.uniform(-0.8, 0.8, size=2))
        worst_h = max(worst_h, abs(abs(mean_curvature(L, hyperboloid_jet(s, t))) - 1.0))
        je = hyperboloid_jet(s, t)
        jf = fd_surf.jet(s, t)
        for fld in ("X", "Xs", "Xt", "Xss", "Xst", "Xtt"):
            worst_fd = max(worst_fd, (getattr(je, fld) - getattr(jf, fld)).max_abs())
    ok = worst_h <= 1e-6 and worst_fd <= 1e-7
    _report(10, "curvature sanity", ok, time.perf_counter() - t0, 2.0,
            f"| |H| - 1 | {worst_h:.2e} <= 1e-6; FD vs exact jets {worst_fd:.2e} <= 1e-7")
