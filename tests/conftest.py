"""Shared test helpers: launch the CLI as a real subprocess against this checkout."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = [sys.executable, "-m", "singular_geom.cli"]


def run_cli(args, cwd, env=None):
    """Run ``python -m singular_geom.cli <args>`` in ``cwd`` and return the process.

    The child gets this checkout's absolute ``src/`` first on its ``PYTHONPATH``:
    an absolute path resolves whatever the child's working directory, and going
    ahead of inherited entries means the source under test is imported even when
    another copy of the package is installed. A child that cannot import the
    package exits 1, the same code as a usage error, so that case fails here
    instead of passing a test that expects exit 1.
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = os.pathsep.join([str(SRC), inherited] if inherited else [str(SRC)])
    proc = subprocess.run(CLI + list(args), cwd=cwd, env=full_env,
                          capture_output=True, text=True)
    if "No module named 'singular_geom" in proc.stderr:
        pytest.fail(f"CLI child could not import singular_geom from {SRC}:\n{proc.stderr}",
                    pytrace=False)
    return proc


def dfitpack_files() -> list[Path]:
    """The extension files ``interpolate/_dfitpack<suffix>`` of the installed
    scipy, found without importing it; none before scipy 1.13."""
    folder = Path(importlib.util.find_spec("scipy").origin).parent / "interpolate"
    return [folder / f"_dfitpack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES
            if (folder / f"_dfitpack{suffix}").is_file()]
