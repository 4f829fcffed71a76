"""Property-based robustness of the CLI: argv drawn from the parser's own flag
table, values from edge sets, run in-process.

Whatever the flags, a command exits with a documented code, exit 1 prints
exactly one ``error:`` line and writes no artifact, and nothing prints a
traceback or a warning.  Size flags are drawn below their caps, so no example
allocates a large grid or sample set; the caps themselves are checked in
tests/test_cli.py.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_geom import cli

# the codes each command may exit with, from cli's module docstring
EXIT_CODES = {
    "catenary": {0, 1, 2},
    "residual": {0, 1, 3},
    "sweep": {0, 1, 4},
    "export-mesh": {0, 1},
    "variational": {0, 1, 5},
}

# (plausible values, edge values) per kind of flag: zeros, a subnormal,
# overflow-sized and negative numbers, and text that is not a value at all
FLOATS = (["0.5", "1", "2.5", "-1", "-2", "3"],
          ["0", "-0.0", "5e-324", "1e-300", "1e300", "-1e300", "1e400", "nan", "inf", "-inf",
           "abc", ""])
INTS = (["0", "1", "2", "3"], ["-1", "1.5", "1e3", "abc", "", "99999999999999999999"])
GRIDS = (["2", "3x2", "4x4", "5x3", "2x7"],
         ["1x5", "0x0", "-3x4", "x", "3x", "2x2x2", "nan", "1e1x2", "", "2001x2000"])
VECTORS = (["0,0,1", "0,0,-1", "1,0,0", "0,-1,0", "0.6,0,0.8"],
           ["0,0,0", "0,0,5e-324", "1e300,0,1", "nan,0,1", "0,inf,0", "1,2", "1,2,3,4", "a,b,c",
            ""])
PATHS = (["out.txt"], ["missing/out.txt", "", "."])

# below the size caps: a catenary takes at most 2000 steps, a residual or mesh
# grid has at most 14 cells, a sweep 3 surfaces of 3 samples, and a descent 5
# steps on at most 7x5 heights
SIZE_VALUES = {
    ("catenary", "length"): (["2", "0.5"], ["1e-300", "0", "-1", "1e300", "nan", "x"]),
    ("catenary", "step"): (["1e-3", "0.01", "1"], ["5e-324", "1e300", "0", "-0.0", "inf"]),
    ("sweep", "n"): (["1", "2", "3"], ["0", "-1", "1.5", "x"]),
    ("sweep", "samples"): (["1", "2", "3"], ["0", "-1", "x"]),
    ("variational", "steps"): (["0", "1", "5"], ["-1", "x"]),
    ("variational", "grid"): (["3", "4x4", "7x5"], ["2x5", "1x3", "x", "", "2001x2000"]),
}


def _flag_table():
    """{command: [(flag, dest, action)]} from the parser, --config and --help left out."""
    sub = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    return {name: [(a.option_strings[0], a.dest, a) for a in parser._actions
                   if a.option_strings and a.dest not in ("help", "config")]
            for name, parser in sub.choices.items()}


FLAGS = _flag_table()


def _values(command, dest, action):
    """(plausible, edge) values, as command-line text, for one flag."""
    if (command, dest) in SIZE_VALUES:
        return SIZE_VALUES[command, dest]
    if action.choices is not None:
        return [str(c) for c in action.choices], ["0", "bogus", ""]
    if action.type is cli.finite_float:
        return FLOATS
    if action.type in (int, cli.seed_int):
        return INTS
    if dest == "grid":
        return GRIDS
    if dest == "v":
        return VECTORS
    if dest == "file":
        return ["field.csv"], ["missing.csv", ""]
    return PATHS


def _value(draw, command, dest, action):
    """A plausible value as often as an edge value."""
    return draw(st.sampled_from(draw(st.sampled_from(_values(command, dest, action)))))


def _height_csv(draw):
    """A height-field CSV: good, or with a bad header or body, heights up to 1e160."""
    nx, ny = draw(st.integers(3, 6)), draw(st.integers(3, 5))
    x, y = np.linspace(0.0, 1.0, nx)[:, None], np.linspace(0.0, 1.0, ny)[None, :]
    scale = draw(st.sampled_from([1.0, 1e-300, 1e7, 1e78, 1e160]))
    z = scale * (1.0 + x * x + 0.5 * y * y)
    kind = draw(st.sampled_from(["good", "good", "nan", "negative", "zero", "text", "ragged",
                                 "shape", "header", "window", "empty"]))
    window = draw(st.sampled_from(["x0=0.0 x1=1.0", "x0=1.0 x1=nan", "x0=-1e308 x1=1e308",
                                   "x0=0.0 x1=1e-300", "x0=1.0 x1=0.0"]))
    if kind in ("nan", "negative", "zero"):
        z[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))] = {
            "nan": math.nan, "negative": -1.0, "zero": 0.0}[kind]
    rows = [",".join(map(repr, row)) for row in z.tolist()]
    header = f"# x0=0.0 x1=1.0 y0=0.0 y1=1.0 nx={nx} ny={ny}"
    if kind == "text":
        rows[0] = "a,b,c"
    elif kind == "ragged":
        rows[-1] += ",1.0"
    elif kind == "shape":
        header = f"# x0=0.0 x1=1.0 y0=0.0 y1=1.0 nx={nx + 1} ny={ny}"
    elif kind == "header":
        header = "# x0=0.0 x1=1.0 nx=3"
    elif kind == "window":
        header = f"# {window} y0=0.0 y1=1.0 nx={nx} ny={ny}"
    elif kind == "empty":
        return ""
    return "\n".join([header, *rows]) + "\n"


def _config_value(draw, command, dest, action):
    """A config value: the flag's own text, a number, or a value of the wrong type."""
    text = _value(draw, command, dest, action)
    kind = draw(st.sampled_from(["text", "text", "number", "wrong"]))
    if kind == "number":
        try:
            return json.loads(text) if text not in ("nan", "inf", "-inf") else float(text)
        except ValueError:
            return text
    if kind == "wrong":
        return draw(st.sampled_from([None, True, [0, 0, 1], {"x": 1}, 1e400]))
    return text


@st.composite
def invocations(draw, command):
    """(argv, {file name: text}) for one command, from the parser's flag table."""
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(flags), max_size=len(flags), unique=True))
    argv = [command]
    files = {}
    for flag, dest, action in chosen:
        value = _value(draw, command, dest, action)
        argv.append(f"{flag}={value}")
        if dest == "file" and value == "field.csv":
            files["field.csv"] = _height_csv(draw)
    if draw(st.sampled_from([False, False, False, True])):
        # a config file, good or not, under the flags
        keys = draw(st.lists(st.sampled_from(flags), max_size=3, unique=True))
        cfg = {dest: _config_value(draw, command, dest, action) for _, dest, action in keys}
        files["cfg.json"] = draw(st.sampled_from([
            json.dumps(cfg), json.dumps(cfg) + "}", "[1, 2]", '{"bogus": 1}']))
        argv.append("--config=cfg.json")
    # now and then an unknown flag, a stray word, a flag prefix or a flag without its value
    argv += draw(st.sampled_from([[]] * 9 + [["--bogus=1"], ["extra"], ["--gr=4"], ["--alpha"]]))
    return argv, files


def _run(argv, files):
    """Run cli.main(argv) in a fresh directory holding files: (code, stderr, new files)."""
    err, out = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # contextlib.chdir needs Python 3.11
        try:
            for name, text in files.items():
                with open(name, "w") as f:
                    f.write(text)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            made = sorted(set(os.listdir(".")) - set(files))
        finally:
            os.chdir(cwd)
    return code, err.getvalue() + out.getvalue(), made


def _check(command, argv, files):
    code, text, made = _run(argv, files)
    assert code in EXIT_CODES[command], (argv, code, text)
    assert "Traceback" not in text and "Warning" not in text, (argv, text)
    if code == 1:
        problems = [ln for ln in text.splitlines() if "resolved config" not in ln]
        assert len(problems) == 1 and problems[0].startswith("error: "), (argv, text)
        assert made == [], (argv, made)


@pytest.mark.parametrize("command", sorted(EXIT_CODES))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_commands_exit_as_documented(command, data):
    _check(command, *data.draw(invocations(command)))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(["residual", "export-mesh"]), csv=st.composite(_height_csv)(),
       grid=st.sampled_from(["4x4", "3x5", "2x2"]))
def test_height_field_files_exit_as_documented(command, csv, grid):
    argv = [command, "--surface=file", "--file=field.csv", f"--grid={grid}", "--out=out.txt"]
    _check(command, argv, {"field.csv": csv})


def test_a_window_whose_width_overflows_exits_1_without_a_warning():
    # x1 - x0 = inf once filled the spline's node axes with inf and NaN, and
    # numpy warned four times before the spline refused them
    csv = "# x0=-1e308 x1=1e308 y0=0.0 y1=1.0 nx=4 ny=4\n" + "1.0,1.0,1.0,1.0\n" * 4
    for command in ("residual", "export-mesh"):
        code, text, made = _run([command, "--surface=file", "--file=field.csv", "--grid=4x4",
                                 "--out=out.txt"], {"field.csv": csv})
        assert (code, made) == (1, [])
        assert text.splitlines()[-1] == ("error: height-field window must have "
                                         "0 < x1 - x0 < inf and 0 < y1 - y0 < inf")
