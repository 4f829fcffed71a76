"""The benchmark harness still runs against this source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # the harness imports private names of the package and wraps entry points
    # by name, so a refactor under src/ can break it without any other test failing
    r = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
