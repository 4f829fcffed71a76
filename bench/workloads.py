"""The four benchmark workloads and their per-item correctness checks.

A workload is a fixed list of tasks made from the workload seed.  A task is
one CLI command run in-process through ``cli.main(argv)`` or one call into the
library, and it completes a stated number of items.  Running a task is the
timed part; checking its output against the acceptance-gate tolerance is not.

* ``sweep``:   four ``sweep`` commands, one per director class; an item is one
  random surface.  Dense RK4 table builds dominate.
* ``verify``:  Lorentz normalization, the coefficient/raw-jet oracle and the
  first variation, called as library functions; an item is one verified
  input.  Few table builds, many nested ``state_at`` re-marches.
* ``field``:   ``residual`` and ``export-mesh`` commands; an item is one grid
  point or mesh vertex.  Per-point jet and residual work, no ODE tables.
* ``descent``: ``variational --init noisy`` runs plus energy-only
  central-difference probes of the gradient; an item is one descent step or
  one probe.  Only ``variational``'s numpy kernels do real work.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from singular_geom import catenary as cat
from singular_geom import cli
from singular_geom.algebra import Metric, Vec3, inner
from singular_geom.curves import fd1
from singular_geom.ruled import (
    _halfspace_window,
    default_t_samples,
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
from singular_geom.surface import first_variation
from singular_geom.variational import (
    HeightField,
    catenary_heights,
    height_energy,
    height_residual_max,
    interior_gradient,
)

# acceptance-gate tolerances (tests/test_acceptance.py); never loosened here
SWEEP_THRESHOLD = 1e-6        # criterion 5: the sweep alarm threshold
ORTHOGONALITY_TOL = 1e-8      # criterion 7
ORACLE_TOL = 1e-8             # criterion 4
FIRST_VARIATION_TOL = 1e-5    # tests/test_surface.py::test_first_variation_catenary_cylinder
CATENARY_RESIDUAL_TOL = 1e-5  # criterion 2
MIN_RESIDUAL_REDUCTION = 10.0  # criterion 9
PROBE_REL_TOL = 1e-6          # criterion 9

# Catenary-cylinder alphas the field workload draws from.  alpha = 3 is left
# out: at the CLI's 5e-4 integration step its residual is 1.1e-5, above the
# 1e-5 that criterion 2 applies at step 2.5e-4.
FIELD_ALPHAS = (-2.0, -1.0, 1.0, 2.0)

FULL = {
    "sweep_n": 10, "sweep_samples": 10,
    "normalize_per_delta": 4, "oracle_per_class": 2, "oracle_s_samples": 48,
    "variation_items": 2, "variation_grid": 8,
    "field_grid": 40, "mesh_grid": 60, "heights_shape": (41, 21),
    "descent_grid": (161, 81), "descent_runs": 4, "descent_steps": 100,
    "probe_fields": 4, "probes_per_field": 100,
}

TINY = {
    "sweep_n": 1, "sweep_samples": 3,
    "normalize_per_delta": 1, "oracle_per_class": 1, "oracle_s_samples": 4,
    "variation_items": 1, "variation_grid": 4,
    "field_grid": 5, "mesh_grid": 5, "heights_shape": (9, 7),
    "descent_grid": (41, 21), "descent_runs": 1, "descent_steps": 200,
    "probe_fields": 1, "probes_per_field": 3,
}


@dataclass
class Outcome:
    """Result of checking one task's output."""

    failed: int                 # items of the task outside their tolerance
    worst: float | None = None  # worst error divided by its tolerance, if the task has one
    note: str = ""              # why items failed, for the run record


@dataclass
class Task:
    """One timed unit of work that completes ``items`` items.

    ``artifacts`` lists the files ``run`` writes; the determinism check hashes
    them, or the repr of the returned value when the task writes none.
    """

    label: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    artifacts: tuple[Path, ...] = ()


@dataclass
class CliResult:
    code: int
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """``cli.main(argv)`` in-process; its stdout is dropped, its stderr kept
    for failure notes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(0 if code is None else code, err.getvalue())


def _exit_failure(res: CliResult, items: int) -> Outcome | None:
    if res.code == 0:
        return None
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    return Outcome(items, None, f"exit {res.code}: {tail[0][:160]}")


def _ratio(value: float, tol: float) -> float:
    return value / tol if math.isfinite(value) else math.inf


def _seeds(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_CLASSES = (
    ("euclid", ["--metric", "euclid"]),
    ("lorentz_plus", ["--metric", "lorentz", "--class", "nondegenerate", "--delta", "1"]),
    ("lorentz_minus", ["--metric", "lorentz", "--class", "nondegenerate", "--delta", "-1"]),
    ("lightlike", ["--metric", "lorentz", "--class", "lightlike"]),
)


def _sweep_task(label, flags, n, samples, seed, out: Path) -> Task:
    argv = ["sweep", *flags, "--n", str(n), "--samples", str(samples),
            "--seed", str(seed), "--out", str(out)]

    def check(res: CliResult) -> Outcome:
        bad = _exit_failure(res, n)
        if bad:
            return bad
        report = json.loads(out.read_text())
        rows = [r for r in report["per_surface"] if not r["excluded"]]
        failed = (n - len(rows)) + sum(
            1 for r in rows if r["flagged"] or not r["max_abs_coeff"] > SWEEP_THRESHOLD)
        if report["counterexamples"]:
            failed = max(failed, len(report["counterexamples"]))
        least = report["min_max_abs_coeff"]
        worst = SWEEP_THRESHOLD / least if least else math.inf
        return Outcome(failed, worst, f"counterexamples {report['counterexamples']}" if failed else "")

    return Task(f"sweep.{label}", n, lambda: run_cli(argv), check, (out,))


def sweep_tasks(seed: int, workdir: Path, size: dict) -> tuple[list[Task], Callable[[], None]]:
    seeds = _seeds(seed, len(SWEEP_CLASSES))
    tasks = [
        _sweep_task(label, flags, size["sweep_n"], size["sweep_samples"], s,
                    workdir / f"sweep_{label}.json")
        for (label, flags), s in zip(SWEEP_CLASSES, seeds)
    ]
    return tasks, lambda: None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _normalize_item(item_seed: int, delta: int) -> float:
    """Worst orthogonality defect of a normalized random input (criterion 7)."""
    rng = np.random.default_rng(item_seed)
    base, director, s_range = random_prenormalization_input(rng, delta)
    rs = normalize_lorentz(base, director, delta, s_range)
    m = Metric.LORENTZIAN
    worst = 0.0
    for s in rs.s_samples(20):
        gp = fd1(rs.base.value, s, 1e-4)
        worst = max(worst, abs(inner(m, gp, rs.director.value(s))),
                    abs(inner(m, gp, rs.director.d1(s))))
    return worst


_ORACLE_MAKERS = (
    ("euclid", lambda rng: random_euclidean_ruled(rng), random_unit_vector),
    ("lorentz_plus", lambda rng: random_lorentz_ruled(rng, 1), random_unit_timelike),
    ("lorentz_minus", lambda rng: random_lorentz_ruled(rng, -1), random_unit_timelike),
    ("lightlike", lambda rng: random_lightlike_ruled(rng), random_unit_timelike),
)


def _oracle_item(item_seed: int, make, make_v, n_s: int) -> float:
    """Worst coefficient-vs-raw-jet defect over dense s-samples (criterion 4)."""
    rng = np.random.default_rng(item_seed)
    rs = make(rng)
    v = make_v(rng)
    alpha = float(rng.uniform(-3.0, 3.0))
    s_values = rs.s_samples(n_s)
    rs = translate_into_halfspace(rs, v, s_values, _halfspace_window(rs, s_values))
    return max(residual_polynomial_consistency(rs, s, v, alpha, default_t_samples(rs, s, n=8))
               for s in s_values)


def _window_bump(domain, ks: int, kt: int):
    s0, s1, t0, t1 = domain

    def bump(s: float, t: float) -> float:
        return (math.sin(ks * math.pi * (s - s0) / (s1 - s0)) ** 2
                * math.sin(kt * math.pi * (t - t0) / (t1 - t0)) ** 2)

    return bump


def _tol_task(label: str, fn, tol: float) -> Task:
    def check(value: float) -> Outcome:
        ratio = _ratio(abs(value), tol)
        return Outcome(int(ratio > 1.0), ratio, f"{value!r} > {tol}" if ratio > 1.0 else "")

    return Task(label, 1, fn, check)


def verify_tasks(seed: int, workdir: Path, size: dict) -> tuple[list[Task], Callable[[], None]]:
    n_norm = size["normalize_per_delta"]
    n_orc = size["oracle_per_class"]
    n_var = size["variation_items"]
    seeds = iter(_seeds(seed, 2 * n_norm + len(_ORACLE_MAKERS) * n_orc + n_var))
    tasks = []
    for delta in (1, -1):
        for k in range(n_norm):
            s = next(seeds)
            tasks.append(_tol_task(f"verify.normalize{delta:+d}.{k}",
                                   lambda s=s, d=delta: _normalize_item(s, d),
                                   ORTHOGONALITY_TOL))
    for label, make, make_v in _ORACLE_MAKERS:
        for k in range(n_orc):
            s = next(seeds)
            tasks.append(_tol_task(
                f"verify.oracle.{label}.{k}",
                lambda s=s, mk=make, mv=make_v: _oracle_item(s, mk, mv, size["oracle_s_samples"]),
                ORACLE_TOL))

    shared = {}
    grid = (size["variation_grid"],) * 2
    ez = Vec3(0.0, 0.0, 1.0)
    for k in range(n_var):
        ks, kt = (1 + int(x) for x in np.random.default_rng(next(seeds)).integers(0, 2, size=2))

        def variation(ks=ks, kt=kt) -> float:
            surf = shared["cylinder"]
            return first_variation(Metric.EUCLIDEAN, surf, ez, 1.0,
                                   _window_bump(surf.domain, ks, kt), h=1e-3, grid=grid)

        tasks.append(_tol_task(f"verify.variation.{k}", variation, FIRST_VARIATION_TOL))

    def build_inputs() -> None:
        # the alpha = 1 catenary cylinder of test_first_variation_catenary_cylinder
        path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), 1.0, 2.0, 1e-3)
        shared["cylinder"] = cat.catenary_cylinder(path, ez, Vec3(0.0, 1.0, 0.0))

    return tasks, build_inputs


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def _read_residuals(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]


def _residual_task(label: str, flags: list[str], grid: int, out: Path, tol: float | None) -> Task:
    n = grid * grid
    argv = ["residual", *flags, "--grid", f"{grid}x{grid}", "--out", str(out)]

    def check(res: CliResult) -> Outcome:
        bad = _exit_failure(res, n)
        if bad:
            return bad
        r = _read_residuals(out)
        if r.size != n:
            return Outcome(n, None, f"{r.size} residual rows, expected {n}")
        if tol is None:
            return Outcome(0)
        over = int(np.count_nonzero(~(np.abs(r) <= tol)))
        worst = float(np.max(np.abs(r))) / tol
        return Outcome(over, worst, f"{over} points above {tol}" if over else "")

    return Task(f"field.{label}", n, lambda: run_cli(argv), check, (out,))


def _mesh_task(grid: int, out: Path) -> Task:
    n = grid * grid
    argv = ["export-mesh", "--surface", "catenary-cylinder", "--grid", f"{grid}x{grid}",
            "--out", str(out)]

    def check(res: CliResult) -> Outcome:
        bad = _exit_failure(res, n)
        if bad:
            return bad
        lines = out.read_text().splitlines()
        verts = sum(1 for ln in lines if ln.startswith("v "))
        faces = sum(1 for ln in lines if ln.startswith("f "))
        if verts != n or faces != 2 * (grid - 1) ** 2:
            return Outcome(n, None, f"{verts} vertices / {faces} faces")
        return Outcome(0)

    return Task("field.mesh", n, lambda: run_cli(argv), check, (out,))


def field_tasks(seed: int, workdir: Path, size: dict) -> tuple[list[Task], Callable[[], None]]:
    rng = np.random.default_rng(seed)
    alphas = [FIELD_ALPHAS[i] for i in rng.choice(len(FIELD_ALPHAS), size=2, replace=False)]
    heights_seed = int(rng.integers(0, 2**31 - 1))
    heights = workdir / "heights.csv"
    g = size["field_grid"]
    tasks = [_residual_task("helicoid", ["--surface", "helicoid", "--alpha", "1"], g,
                            workdir / "res_helicoid.csv", None)]
    for k, alpha in enumerate(alphas):
        tasks.append(_residual_task(
            f"catenary{k}", ["--surface", "catenary-cylinder", "--alpha", repr(alpha)], g,
            workdir / f"res_catenary{k}.csv", CATENARY_RESIDUAL_TOL))
    tasks.append(_residual_task(
        "hyperboloid", ["--surface", "hyperboloid", "--metric", "lorentz", "--alpha", "1"], g,
        workdir / "res_hyperboloid.csv", None))
    tasks.append(_residual_task(
        "file", ["--surface", "file", "--file", str(heights), "--alpha", "1"], g,
        workdir / "res_file.csv", None))
    tasks.append(_mesh_task(size["mesh_grid"], workdir / "mesh.obj"))

    def build_inputs() -> None:
        field = catenary_heights(shape=size["heights_shape"])
        noise = np.random.default_rng(heights_seed).standard_normal(field.z[1:-1, 1:-1].shape)
        z = field.z.copy()
        z[1:-1, 1:-1] *= 1.0 + 0.002 * noise
        heights.write_text(field.with_z(z).to_csv())

    return tasks, build_inputs


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

PROBE_EPS = 1e-5


def _probe_errors(fields) -> tuple[float, ...]:
    """Relative error of energy-only central differences against the gradient."""
    out = []
    for field, alpha, nodes in fields:
        g = interior_gradient(field, alpha)
        for i, j in nodes:
            zp = field.z.copy()
            zp[i, j] += PROBE_EPS
            zm = field.z.copy()
            zm[i, j] -= PROBE_EPS
            fd = (height_energy(field.with_z(zp), alpha)
                  - height_energy(field.with_z(zm), alpha)) / (2.0 * PROBE_EPS)
            out.append(abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j])))
    return tuple(out)


def _descent_task(k: int, common: list[str], steps: int, workdir: Path) -> Task:
    prefix = workdir / f"descent{k}"
    argv = [*common, "--steps", str(steps), "--out-prefix", str(prefix)]
    field_csv = Path(f"{prefix}_field.csv")
    trace_csv = Path(f"{prefix}_trace.csv")
    before = {}

    def initial_residual() -> float:
        # the noisy start, as the CLI builds it: the same flags with zero steps
        if "value" not in before:
            start = workdir / f"descent{k}_start"
            res = run_cli([*common, "--steps", "0", "--out-prefix", str(start)])
            if res.code != 0:
                raise RuntimeError(f"variational --steps 0 exited {res.code}")
            field = HeightField.from_csv(Path(f"{start}_field.csv").read_text())
            before["value"] = height_residual_max(field, 1.0)
        return before["value"]

    def check(res: CliResult) -> Outcome:
        bad = _exit_failure(res, steps)
        if bad:
            return bad
        after = height_residual_max(HeightField.from_csv(field_csv.read_text()), 1.0)
        reduction = initial_residual() / after
        worst = MIN_RESIDUAL_REDUCTION / reduction
        if worst > 1.0:
            return Outcome(steps, worst, f"residual reduced {reduction:.1f}x < 10x")
        return Outcome(0, worst)

    return Task(f"descent.variational.{k}", steps, lambda: run_cli(argv), check,
                (field_csv, trace_csv))


def _check_probes(errors) -> Outcome:
    errs = np.asarray(errors)
    over = int(np.count_nonzero(~(errs <= PROBE_REL_TOL)))
    return Outcome(over, float(errs.max()) / PROBE_REL_TOL,
                   f"{over} probes above {PROBE_REL_TOL}" if over else "")


def _probe_field(prng: np.random.Generator, n_probes: int):
    """A probe field, its alpha and its probe nodes.

    Criterion 9's protocol on smooth tilted fields with |alpha| >= 0.5, so that
    no gradient component is near zero.  On its rough random fields about 1
    probe in 6000 meets a component near 1e-6, where the truncation error of
    the eps = 1e-5 difference alone exceeds the relative tolerance although the
    gradient matches an extended-precision reference.
    """
    fx, fy = int(prng.integers(14, 26)), int(prng.integers(10, 18))
    tilt_x, tilt_y = prng.uniform(-0.3, 0.3, size=2)
    x = np.linspace(-1.0, 1.0, fx)[:, None]
    y = np.linspace(0.0, 1.0, fy)[None, :]
    z = 1.4 + tilt_x * x + tilt_y * y + 1e-5 * prng.random((fx, fy))
    alpha = float(prng.choice([-1.0, 1.0]) * prng.uniform(0.5, 2.0))
    nodes = list(zip(prng.integers(1, fx - 1, size=n_probes).tolist(),
                     prng.integers(1, fy - 1, size=n_probes).tolist()))
    return HeightField(-1.0, 1.0, 0.0, 1.0, z), alpha, nodes


def descent_tasks(seed: int, workdir: Path, size: dict) -> tuple[list[Task], Callable[[], None]]:
    """Descent runs alternating with probe batches.

    The descent is split into several shorter runs, each with its own noise
    seed, so that calibration slices bracket every few tenths of a second.
    """
    nx, ny = size["descent_grid"]
    runs = size["descent_runs"]
    seeds = _seeds(seed, runs + 1)
    batches = [[] for _ in range(runs)]  # probe fields of each batch, filled by build_inputs
    per_batch = size["probe_fields"] * size["probes_per_field"]
    tasks = []
    for k in range(runs):
        common = ["variational", "--init", "noisy", "--grid", f"{nx}x{ny}", "--rate", "0.12",
                  "--alpha", "1", "--seed", str(seeds[k])]
        tasks.append(_descent_task(k, common, size["descent_steps"], workdir))
        tasks.append(Task(f"descent.probes.{k}", per_batch,
                          lambda fields=batches[k]: _probe_errors(fields), _check_probes))

    def build_inputs() -> None:
        prng = np.random.default_rng(seeds[-1])
        for fields in batches:
            fields[:] = [_probe_field(prng, size["probes_per_field"])
                         for _ in range(size["probe_fields"])]

    return tasks, build_inputs


WORKLOADS = {
    "sweep": sweep_tasks,
    "verify": verify_tasks,
    "field": field_tasks,
    "descent": descent_tasks,
}
