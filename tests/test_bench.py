"""The benchmark harness still runs against this source tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # the harness imports private names of the package and wraps entry points
    # by name, so a refactor under src/ can break it without any other test failing
    r = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]


def _bench_spans():
    """bench/spans.py, loaded by path: bench/ is a script directory, not a package."""
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_catenary_command_takes_no_rk4_step(tmp_path):
    # the tracer counts RK4 steps by rebinding the name rk4_step in every package
    # module; integrate marches all of its steps in one generated loop and calls
    # no rk4_step, so the count reads 0 while the CSV holds all 2001 nodes
    from singular_geom import cli

    out = tmp_path / "catenary.csv"
    tracer = _bench_spans().Tracer().install()
    try:
        with pytest.raises(SystemExit) as info:
            cli.main(["catenary", "--alpha", "2", "--length", "2", "--step", "1e-3",
                      "--out", str(out)])
    finally:
        tracer.uninstall()
    assert info.value.code == 0
    assert tracer.counts["curves.rk4_steps"] == 0
    assert tracer.summary()["calls"]["catenary.integrate"] == 1
    header, *rows = out.read_text().splitlines()
    assert header == "s,u,y,theta"
    assert len(rows) == 2001
