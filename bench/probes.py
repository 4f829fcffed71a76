"""Measurements outside the item loop: import cost, algebra calls, run record.

The import cost is taken in fresh child interpreters, so it is the cost a
command-line user pays before the first item can start.
"""
from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# calibration slices bracket the import inside the child, on the same CPU
_IMPORT_SNIPPET = (
    "import time; from calibration import slowness as slow, to_reference; "
    "before = slow(); t = time.perf_counter(); import singular_geom.cli; "
    "wall = time.perf_counter() - t; print(repr(wall), repr(to_reference(wall, before, slow())))"
)


def _child_import(src: Path, importtime: bool) -> tuple[float, float, str]:
    """Wall and reference seconds of ``import singular_geom.cli`` in a fresh
    interpreter, and the child's stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(BENCH))))
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, "-c", _IMPORT_SNIPPET], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child import failed: {proc.stderr.strip()[-300:]}")
    wall, ref = (float(x) for x in proc.stdout.split())
    return wall, ref, proc.stderr


def import_seconds(src: Path, repeats: int) -> float:
    """Median reference seconds of ``import singular_geom.cli`` in a fresh interpreter."""
    return statistics.median(_child_import(src, False)[1] for _ in range(repeats))


def _cumulative_us(importtime_log: str, module: str) -> float:
    """Cumulative microseconds of ``module`` in an ``-X importtime`` log, 0 if absent."""
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return float(parts[1])
    return 0.0


def import_breakdown(src: Path, repeats: int) -> tuple[float, float]:
    """Medians of the import time and of its cumulative ``scipy.interpolate`` share.

    The share is the time ``-X importtime`` reports, scaled like the total.
    """
    totals, interp = [], []
    for _ in range(repeats):
        wall, ref, log = _child_import(src, True)
        totals.append(ref)
        interp.append(_cumulative_us(log, "scipy.interpolate") * 1e-6 * ref / wall)
    return statistics.median(totals), statistics.median(interp)


def algebra_ns(batch: int = 20000, repeats: int = 5) -> dict[str, float]:
    """Nanoseconds per ``Vec3``, ``inner`` and ``cross`` call over a fixed batch.

    ``inner`` and ``cross`` are the means over the Euclidean and Lorentzian
    signatures.  Each figure is the median of ``repeats`` passes, each in
    reference time, and includes the loop around the call.
    """
    import random

    from calibration import slowness, to_reference
    from singular_geom.algebra import Metric, Vec3, cross, inner

    rnd = random.Random(20230811)
    comps = [(rnd.uniform(-1, 1), rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(batch)]
    us = [Vec3(*c) for c in comps]
    vs = us[1:] + us[:1]
    pairs = list(zip(us, vs))
    clock = time.perf_counter

    def per_call(fn) -> float:
        runs = []
        for _ in range(repeats):
            before = slowness()
            t0 = clock()
            fn()
            wall = clock() - t0
            runs.append(to_reference(wall, before, slowness()) / batch * 1e9)
        return statistics.median(runs)

    def build():
        for x, y, z in comps:
            Vec3(x, y, z)

    def inner_of(m):
        def run():
            for u, v in pairs:
                inner(m, u, v)
        return run

    def cross_of(m):
        def run():
            for u, v in pairs:
                cross(m, u, v)
        return run

    signatures = (Metric.EUCLIDEAN, Metric.LORENTZIAN)
    return {
        "algebra.vec3_ns": per_call(build),
        "algebra.inner_ns": statistics.fmean(per_call(inner_of(m)) for m in signatures),
        "algebra.cross_ns": statistics.fmean(per_call(cross_of(m)) for m in signatures),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
