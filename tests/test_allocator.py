"""The height-field kernels allocate nothing grid-sized and do not depend on
the C allocator's state: no page-fault churn whatever was imported first.
Sweeps reuse the heap pages of their batch tables from chunk to chunk under
glibc's default thresholds.

CI also runs this file with MALLOC_TRIM_THRESHOLD_=0, glibc's most aggressive
heap trimming.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from conftest import SRC

from singular_geom.variational import catenary_heights, energy_and_gradient

SHAPE = (161, 81)

# warm-up, then five 100-step descents of noisy catenaries, as the CLI's
# `variational --init noisy` runs them; prints the minor page faults of the five
_DESCENTS = """
import resource

import numpy as np
from singular_geom.variational import catenary_heights, descend


def noisy(seed):
    field = catenary_heights(shape={shape})
    z = field.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.01 * np.random.default_rng(seed).standard_normal(z[1:-1, 1:-1].shape)
    return field.with_z(z)


descend(noisy(0), 1.0, 5, 0.12)
fields = [noisy(seed) for seed in range(1, 6)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for field in fields:
    descend(field, 1.0, 100, 0.12)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _noisy_heights():
    field = catenary_heights(shape=SHAPE)
    z = field.z.copy()
    z[1:-1, 1:-1] *= 1.0 + 0.01 * np.random.default_rng(7).standard_normal(z[1:-1, 1:-1].shape)
    return field.with_z(z)


@pytest.mark.parametrize("with_grad", [True, False], ids=["gradient", "energy-only"])
def test_second_kernel_call_allocates_less_than_one_grid(with_grad):
    # the probes call the kernel energy-only, the descents with a gradient
    h = _noisy_heights()
    grad = np.empty(SHAPE) if with_grad else None
    energy_and_gradient(h.z, h.dx, h.dy, 1.0, grad)  # sizes the workspace
    tracemalloc.start()
    try:
        energy_and_gradient(h.z, h.dx, h.dy, 1.0, grad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < h.z.nbytes


@pytest.mark.parametrize("first_imports", [
    "import singular_geom.variational",
    "import scipy.interpolate\nimport numpy",
], ids=["variational-first", "scipy-interpolate-first"])
def test_descents_do_not_page_fault_in_any_import_order(tmp_path, first_imports):
    code = first_imports + "\n" + _DESCENTS.format(shape=SHAPE)
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 2000


# a warm-up, then three rounds of 40-surface sweeps (a chunk of 32 and one of 8) in
# every class; prints the minor page faults of the three rounds
_SWEEPS = """
import resource

from singular_geom.algebra import Metric
from singular_geom.ruled import DirectorClass, SweepConfig, falsification_sweep

CLASSES = [(Metric.EUCLIDEAN, DirectorClass.EUCLID_STANDARD, 1),
           (Metric.LORENTZIAN, DirectorClass.LORENTZ_NONDEGENERATE, 1),
           (Metric.LORENTZIAN, DirectorClass.LORENTZ_NONDEGENERATE, -1),
           (Metric.LORENTZIAN, DirectorClass.LORENTZ_LIGHTLIKE, 1)]


def sweeps():
    for metric, klass, delta in CLASSES:
        falsification_sweep(SweepConfig(n_surfaces=40, n_s_samples=5, seed=3, metric=metric,
                                        director_class=klass, delta=delta))


sweeps()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    sweeps()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_sweeps_reuse_their_table_pages_under_default_malloc_thresholds(tmp_path):
    # glibc trims the heap top when a chunk's tables free more than its trim
    # threshold, and each later chunk faults its pages in again; the default,
    # dynamic thresholds are the ones under test, so MALLOC_* settings are dropped
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    r = subprocess.run([sys.executable, "-c", _SWEEPS], cwd=tmp_path, capture_output=True,
                       text=True, env={**env, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 2000
