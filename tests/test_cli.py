"""Command-line interface: exit codes, file formats, reproducibility."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import pytest
from conftest import SRC
from conftest import run_cli as run


def test_catenary_row_count_and_exit(tmp_path):
    r = run(["catenary", "--alpha", "1", "--y0", "1", "--theta0", "0",
             "--length", "2", "--step", "0.001", "--out", "c.csv"], tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert lines[0] == "s,u,y,theta"
    assert len(lines) == 2002


def test_catenary_alpha_zero_straight(tmp_path):
    r = run(["catenary", "--alpha", "0", "--theta0", "0.5", "--length", "1",
             "--step", "0.01", "--out", "c.csv"], tmp_path)
    assert r.returncode == 0
    rows = [ln.split(",") for ln in (tmp_path / "c.csv").read_text().strip().splitlines()[1:]]
    for row in rows:
        assert abs(float(row[3]) - 0.5) < 1e-14


def test_catenary_negative_y0_exits_1(tmp_path):
    r = run(["catenary", "--y0", "-1", "--out", "c.csv"], tmp_path)
    assert r.returncode == 1


def test_catenary_halfspace_exit_code(tmp_path):
    r = run(["catenary", "--alpha", "-2", "--length", "2", "--step", "0.001",
             "--out", "c.csv"], tmp_path)
    assert r.returncode == 2
    lines = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert lines[0] == "s,u,y,theta,exited"


def test_outputs_byte_identical(tmp_path):
    for args, name in [
        (["catenary", "--alpha", "1.5", "--length", "1", "--step", "0.002"], "catenary.csv"),
        (["sweep", "--metric", "euclid", "--n", "5", "--samples", "4", "--seed", "9"],
         "sweep.json"),
    ]:
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir(exist_ok=True)
        d2.mkdir(exist_ok=True)
        out = args + ["--out", name]
        assert run(out, d1).returncode == 0
        assert run(out, d2).returncode == 0
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_residual_catenary_cylinder(tmp_path):
    r = run(["residual", "--surface", "catenary-cylinder", "--alpha", "1",
             "--grid", "50x50", "--out", "r.csv"], tmp_path)
    assert r.returncode == 0
    worst = float(r.stdout.split("=")[1])
    assert worst <= 1e-5
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "s,t,residual"
    assert len(lines) == 2501


def test_residual_catenary_cylinder_alpha_3_within_tolerance(tmp_path):
    # the thinnest margin of the 1e-5 curvature tolerance: the quintic Hermite
    # dense output of the path's own table gives about 2e-9, and 1e-8 keeps it there
    r = run(["residual", "--surface", "catenary-cylinder", "--alpha", "3",
             "--out", "r.csv"], tmp_path)
    assert r.returncode == 0
    assert float(r.stdout.split("=")[1]) <= 1e-8


def test_residual_helicoid_not_singular_minimal(tmp_path):
    r = run(["residual", "--surface", "helicoid", "--alpha", "1", "--out", "r.csv"],
            tmp_path)
    assert r.returncode == 0
    assert float(r.stdout.split("=")[1]) > 1e-2


def test_residual_lorentz_sphere_exits_3(tmp_path):
    r = run(["residual", "--surface", "sphere", "--metric", "lorentz",
             "--alpha", "1", "--out", "r.csv"], tmp_path)
    assert r.returncode == 3
    assert "NotSpacelike" in r.stderr or "DegenerateMetric" in r.stderr


def test_residual_lightlike_reference_defaults_to_lorentz(tmp_path):
    r = run(["residual", "--surface", "lightlike-reference", "--grid", "5x5", "--out", "r.csv"],
            tmp_path)
    assert r.returncode == 0, r.stderr
    assert '"metric": "lorentz"' in r.stderr
    assert len((tmp_path / "r.csv").read_text().strip().splitlines()) == 26
    # an explicit Euclidean metric, by flag or by config, is still honoured
    (tmp_path / "cfg.json").write_text('{"metric": "euclid"}')
    for extra in (["--metric", "euclid"], ["--config", "cfg.json"]):
        r = run(["residual", "--surface", "lightlike-reference", "--grid", "5x5",
                 "--out", "r.csv", *extra], tmp_path)
        assert r.returncode == 3
        assert "HalfspaceViolation" in r.stderr


def test_residual_from_height_field_file(tmp_path):
    from singular_geom.variational import catenary_heights

    field = catenary_heights(shape=(33, 17))
    (tmp_path / "field.csv").write_text(field.to_csv())
    r = run(["residual", "--surface", "file", "--file", "field.csv",
             "--alpha", "1", "--grid", "20x10", "--out", "r.csv"], tmp_path)
    assert r.returncode == 0


def test_sweep_exit_codes(tmp_path):
    r = run(["sweep", "--metric", "euclid", "--n", "6", "--samples", "5",
             "--seed", "42", "--out", "s.json"], tmp_path)
    assert r.returncode == 0
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["counterexamples"] == []
    assert len(report["per_surface"]) == 6
    assert run(["sweep", "--n", "0"], tmp_path).returncode == 1


def test_sweep_lightlike(tmp_path):
    r = run(["sweep", "--metric", "lorentz", "--class", "lightlike", "--n", "5",
             "--seed", "7", "--out", "s.json"], tmp_path)
    assert r.returncode == 0


def test_export_mesh_small_plane(tmp_path):
    r = run(["export-mesh", "--surface", "helicoid", "--grid", "2x2",
             "--out", "m.obj"], tmp_path)
    assert r.returncode == 0
    text = (tmp_path / "m.obj").read_text().splitlines()
    assert sum(1 for ln in text if ln.startswith("v ")) == 4
    assert sum(1 for ln in text if ln.startswith("f ")) == 2


def test_export_mesh_catenary_cylinder_counts(tmp_path):
    r = run(["export-mesh", "--surface", "catenary-cylinder", "--grid", "50x50",
             "--out", "m.obj"], tmp_path)
    assert r.returncode == 0
    text = (tmp_path / "m.obj").read_text().splitlines()
    assert sum(1 for ln in text if ln.startswith("v ")) == 2500
    assert sum(1 for ln in text if ln.startswith("f ")) == 4802


def test_export_mesh_unwritable_path(tmp_path):
    r = run(["export-mesh", "--grid", "4x4", "--out", "/nonexistent-dir/m.obj"], tmp_path)
    assert r.returncode == 1


def test_variational_catenary_trace_flat(tmp_path):
    r = run(["variational", "--init", "catenary", "--steps", "100", "--rate", "0.001",
             "--grid", "65x33", "--out-prefix", "v"], tmp_path)
    assert r.returncode == 0
    rows = (tmp_path / "v_trace.csv").read_text().strip().splitlines()[1:]
    energies = [float(row.split(",")[1]) for row in rows]
    assert abs(energies[-1] - energies[0]) <= 1e-8


def test_variational_flat_monotone(tmp_path):
    r = run(["variational", "--init", "flat", "--steps", "200", "--rate", "0.05",
             "--grid", "33x17", "--out-prefix", "v"], tmp_path)
    assert r.returncode == 0
    rows = (tmp_path / "v_trace.csv").read_text().strip().splitlines()[1:]
    energies = [float(row.split(",")[1]) for row in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_variational_divergence_exit(tmp_path):
    r = run(["variational", "--rate", "1e9", "--steps", "30", "--out-prefix", "v"],
            tmp_path)
    assert r.returncode == 5
    assert (tmp_path / "v_trace.csv").exists()


@pytest.mark.parametrize("alpha, steps", [("-2", "20"), ("1", "3")])
def test_variational_blow_up_exits_5_at_once(tmp_path, alpha, steps):
    r = run(["variational", "--alpha", alpha, "--rate", "1e300", "--steps", steps,
             "--grid", "9x9", "--out-prefix", "v"], tmp_path)
    assert r.returncode == 5
    errors = [ln for ln in r.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "at step 1" in errors[0]
    assert "Warning" not in r.stderr
    rows = (tmp_path / "v_trace.csv").read_text().strip().splitlines()[1:]
    assert rows and all(math.isfinite(float(row.split(",")[1])) for row in rows)
    assert not (tmp_path / "v_field.csv").exists()


def test_config_file_and_flag_override(tmp_path):
    cfg = {"alpha": 0.0, "length": 1.0, "step": 0.01, "out": "from_config.csv"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    r = run(["catenary", "--config", "cfg.json"], tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "from_config.csv").exists()
    # flags beat the config file
    r = run(["catenary", "--config", "cfg.json", "--out", "flag.csv"], tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "flag.csv").exists()


def test_seed_env_variable(tmp_path):
    out1 = run(["sweep", "--n", "3", "--samples", "3", "--out", "a.json"], tmp_path,
               env={"SINGULAR_GEOM_SEED": "77"})
    out2 = run(["sweep", "--n", "3", "--samples", "3", "--seed", "77",
                "--out", "b.json"], tmp_path)
    assert out1.returncode == 0 and out2.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_resolved_config_logged(tmp_path):
    r = run(["catenary", "--length", "0.5", "--step", "0.01", "--out", "c.csv"], tmp_path)
    assert "resolved config" in r.stderr


_HEIGHT_ROWS = "1.0,1.0,1.0\n1.0,1.5,1.0\n1.0,1.0,1.0\n"
_HEIGHT_ROWS_5 = "1.0,1.0,1.0,1.0,1.0\n" + "1.0,1.5,1.5,1.5,1.0\n" * 3 + "1.0,1.0,1.0,1.0,1.0\n"


@pytest.mark.parametrize("files, args, env", [
    pytest.param({"cfg.json": '{"alpha": "x"}'}, ["catenary", "--config", "cfg.json"], None,
                 id="config-wrong-type"),
    pytest.param({"cfg.json": '{"alhpa": 2}'}, ["catenary", "--config", "cfg.json"], None,
                 id="config-unknown-key"),
    pytest.param({"cfg.json": "[1, 2]"}, ["residual", "--config", "cfg.json"], None,
                 id="config-not-an-object"),
    pytest.param({"cfg.json": '{"grid": 5}'}, ["residual", "--config", "cfg.json"], None,
                 id="config-grid-not-a-string"),
    pytest.param({}, ["sweep", "--n", "2", "--samples", "2"], {"SINGULAR_GEOM_SEED": "abc"},
                 id="seed-env-not-an-int"),
    pytest.param({"h.csv": "# x1=1.0 y0=0.0 y1=1.0 nx=3 ny=3\n" + _HEIGHT_ROWS},
                 ["residual", "--surface", "file", "--file", "h.csv"], None,
                 id="heightfield-without-x0"),
    pytest.param({"h.csv": ""}, ["residual", "--surface", "file", "--file", "h.csv"], None,
                 id="heightfield-empty"),
    pytest.param({"h.csv": "# x0=0.0 x1=1.0 y0=0.0 y1=1.0 nx=3 ny=3\n" + _HEIGHT_ROWS},
                 ["residual", "--surface", "file", "--file", "h.csv"], None,
                 id="heightfield-too-small-for-spline"),
    pytest.param({"h.csv": "# x0=0.0 x1=1.0 y0=0.0 y1=1.0 nx=33 ny=17\n" + _HEIGHT_ROWS_5},
                 ["residual", "--surface", "file", "--file", "h.csv"], None,
                 id="heightfield-header-shape-mismatch"),
    pytest.param({"h.csv": "# x0=-inf x1=1.0 y0=0.0 y1=1.0 nx=5 ny=5\n" + _HEIGHT_ROWS_5},
                 ["residual", "--surface", "file", "--file", "h.csv"], None,
                 id="heightfield-window-not-finite"),
    pytest.param({}, ["residual", "--grid", "3x4x99"], None, id="grid-three-parts"),
    pytest.param({}, ["export-mesh", "--grid", "3x3xjunk"], None, id="grid-trailing-junk"),
    pytest.param({}, ["residual", "--surface", "sphere", "--alpha", "nan"], None,
                 id="alpha-flag-nan"),
    pytest.param({"cfg.json": '{"alpha": "inf"}'},
                 ["residual", "--surface", "sphere", "--config", "cfg.json"], None,
                 id="config-alpha-inf"),
    pytest.param({"cfg.json": '{"alpha": 1e999}'},
                 ["residual", "--surface", "sphere", "--config", "cfg.json"], None,
                 id="config-alpha-overflows-to-inf"),
    pytest.param({}, ["catenary", "--length", "1e300", "--step", "1e-10"], None,
                 id="catenary-step-count-overflows"),
    pytest.param({}, ["catenary", "--length", "1e9", "--step", "1e-3"], None,
                 id="catenary-step-count-above-cap"),
    pytest.param({}, ["sweep", "--seed", "-1"], None, id="seed-flag-negative"),
    pytest.param({}, ["sweep", "--n", "2", "--samples", "2"], {"SINGULAR_GEOM_SEED": "-5"},
                 id="seed-env-negative"),
    pytest.param({"cfg.json": '{"seed": -1}'}, ["sweep", "--config", "cfg.json"], None,
                 id="seed-config-negative"),
    pytest.param({}, ["variational", "--seed", "-1", "--init", "catenary"], None,
                 id="variational-seed-flag-negative"),
    # a flag prefix is not the flag: --out here is not variational's --out-prefix
    pytest.param({}, ["variational", "--grid", "5x5", "--steps", "1"], None,
                 id="variational-out-is-not-out-prefix"),
    pytest.param({}, ["sweep", "--n", "1", "--sam", "2", "--se", "4"], None,
                 id="sweep-flag-prefixes"),
    pytest.param({}, ["residual", "--surface", "helicoid", "--gr", "5x5"], None,
                 id="residual-flag-prefix"),
    pytest.param({}, ["residual", "--grid", "2001x2000"], None, id="grid-above-limit"),
    pytest.param({}, ["residual", "--v", "nan,0,1"], None, id="v-flag-nan"),
    pytest.param({}, ["residual", "--v", "1e400,0,1"], None, id="v-flag-overflows-to-inf"),
    pytest.param({"cfg.json": '{"v": "inf,0,1"}'}, ["residual", "--config", "cfg.json"], None,
                 id="config-v-inf"),
])
def test_malformed_input_exits_1_with_one_error_line(tmp_path, files, args, env):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    r = run(args + ["--out", "out.txt"], tmp_path, env=env)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    problems = [ln for ln in r.stderr.splitlines() if "resolved config" not in ln]
    assert len(problems) == 1 and problems[0].startswith("error: "), r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("command", ["residual", "export-mesh", "variational"])
def test_grid_limit_rejects_before_any_allocation(tmp_path, monkeypatch, capsys, command):
    import tracemalloc

    from singular_geom import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a grid above the limit reached the evaluation")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_named_surface", must_not_run)
    monkeypatch.setattr(cli, "catenary_heights", must_not_run)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--grid", "100000x100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.code == 1
    assert peak < 1 << 20
    problems = [ln for ln in capsys.readouterr().err.splitlines()
                if "resolved config" not in ln]
    assert problems == [f"error: grid '100000x100000' has 10000000000 points, "
                        f"above the limit of {cli.MAX_GRID_POINTS}"]
    assert list(tmp_path.iterdir()) == []


def test_sweep_samples_limit_rejects_before_any_surface_is_built(tmp_path, monkeypatch, capsys):
    # 10^7 samples would ask for about 39 GB of scoring arrays
    import tracemalloc

    from singular_geom import cli, ruled

    def must_not_run(*args, **kwargs):
        raise AssertionError("a sample count above the limit reached the sweep")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ruled, "_build_surfaces", must_not_run)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep", "--n", "1", "--samples", str(10**7)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.code == 1
    assert peak < 1 << 20
    problems = [ln for ln in capsys.readouterr().err.splitlines()
                if "resolved config" not in ln]
    assert problems == [f"error: n_s_samples must be <= {ruled.MAX_SWEEP_SAMPLES}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, env, value", [
    (["sweep", "--seed", "-1"], None, "-1"),
    (["sweep", "--n", "1"], "-5", "-5"),
    (["sweep", "--config", "cfg.json"], None, "-3"),
    (["variational", "--seed", "-1", "--init", "catenary"], None, "-1"),
    (["variational", "--config", "cfg.json"], None, "-3"),
])
def test_negative_seed_error_names_the_flag_and_value(tmp_path, monkeypatch, capsys, argv, env,
                                                      value):
    # numpy's own error for a negative seed named neither; variational took it silently
    from singular_geom import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"seed": -3}')
    if env is None:
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV, env)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 1
    problems = [ln for ln in capsys.readouterr().err.splitlines()
                if "resolved config" not in ln]
    assert len(problems) == 1 and problems[0].startswith("error: "), problems
    assert "--seed" in problems[0] and repr(value) in problems[0], problems


@pytest.mark.parametrize("argv, spec", [
    (["residual", "--v", "nan,0,1"], "nan,0,1"),
    (["residual", "--v", "1e400,0,1"], "1e400,0,1"),
    (["residual", "--config", "cfg.json"], "inf,0,1"),
])
def test_non_finite_vector_error_names_the_spec(tmp_path, monkeypatch, capsys, argv, spec):
    # Vec3's own error named neither the flag nor the value given
    from singular_geom import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"v": "inf,0,1"}')
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 1
    problems = [ln for ln in capsys.readouterr().err.splitlines()
                if "resolved config" not in ln]
    assert problems == [f"error: bad vector spec {spec!r}; components must be finite"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # scipy.interpolate costs most of the import time; only height-field file
    # surfaces load it, not the import or the catenary-cylinder commands
    code = textwrap.dedent("""
        import sys
        import singular_geom.cli as cli
        if 'scipy.interpolate' in sys.modules:
            sys.exit('importing singular_geom.cli loaded scipy.interpolate')
        for command in ('residual', 'export-mesh'):
            try:
                cli.main([command, '--surface', 'catenary-cylinder', '--grid', '5x5',
                          '--out', 'out.txt'])
            except SystemExit as exc:
                if exc.code != 0:
                    sys.exit(f'{command} exited {exc.code}')
            if 'scipy.interpolate' in sys.modules:
                sys.exit(f'{command} on catenary-cylinder loaded scipy.interpolate')
    """)
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr


def test_variational_non_finite_starting_energy_exits_5_without_warning(tmp_path, monkeypatch,
                                                                        capsys):
    # alpha = 1e300 overflows the starting energy: that is named, with no numpy
    # warning and no blame on the rate
    from singular_geom import cli

    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as info:
            cli.main(["variational", "--alpha", "1e300", "--grid", "5x5", "--steps", "3"])
    assert info.value.code == 5
    problems = [ln for ln in capsys.readouterr().err.splitlines()
                if "resolved config" not in ln]
    assert problems == ["error: energy of the starting field is inf, not finite"]
    assert (tmp_path / "variational_trace.csv").read_text() == "step,energy\n"
    assert not (tmp_path / "variational_field.csv").exists()


def test_variational_overflowing_noise_exits_1_without_warning(tmp_path, monkeypatch, capsys):
    # --noise 1e308 overflows the noisy start: one error line naming the flag, no
    # numpy warning and no artifact
    from singular_geom import cli

    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as info:
            cli.main(["variational", "--init", "noisy", "--noise", "1e308", "--seed", "3",
                      "--grid", "3x3", "--steps", "1"])
    assert info.value.code == 1
    problems = [ln for ln in capsys.readouterr().err.splitlines()
                if "resolved config" not in ln]
    assert len(problems) == 1
    assert problems[0].startswith("error: ") and "--noise" in problems[0]
    assert list(tmp_path.iterdir()) == []
