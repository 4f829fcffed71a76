"""Command-line front end: surfaces, residual fields, sweeps, catenaries, descent.

Every command resolves its parameters as  defaults < SINGULAR_GEOM_SEED (seed
only) < --config JSON < flags, where config and environment values pass the
same type and choice checks as the flags.  It logs the resolved configuration
to stderr and writes plain-text artifacts (CSV fields and traces, JSON sweep
reports, OBJ meshes) whose bytes depend only on the flags and the seed.

Exit codes: 0 success; 1 bad flags or config; 2 halfspace exit during
catenary integration (partial polyline written); 3 degenerate metric or
non-spacelike point in a residual field, or degenerate metric in a mesh
(cell reported on stderr); 4 sweep found counterexample candidates; 5
descent diverged.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import catenary as cat
from .algebra import Metric, Vec3
from .errors import (
    ConfigError,
    DegenerateMetric,
    Diverged,
    GeometryError,
    HalfspaceViolation,
    NotSpacelike,
)
from .ruled import DirectorClass, SweepConfig, falsification_sweep, helicoid, lightlike_reference
from .surface import (
    Jet2,
    ParamSurface,
    _V,
    abs_max,
    grid_points,
    power_each,
    singular_residual_grid,
)
from .variational import HeightField, catenary_heights, descend, height_surface, trace_to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HALFSPACE = 2
EXIT_DEGENERATE = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_DIVERGED = 5

SEED_ENV = "SINGULAR_GEOM_SEED"

# Largest ns * nt a --grid may ask for: 2000x2000, about 250 MB of residual CSV.
MAX_GRID_POINTS = 4_000_000

_METRICS = {
    "euclid": Metric.EUCLIDEAN,
    "euclidean": Metric.EUCLIDEAN,
    "lorentz": Metric.LORENTZIAN,
    "lorentzian": Metric.LORENTZIAN,
}

_CLASSES = {
    "standard": DirectorClass.EUCLID_STANDARD,
    "nondegenerate": DirectorClass.LORENTZ_NONDEGENERATE,
    "lightlike": DirectorClass.LORENTZ_LIGHTLIKE,
}

class _Parser(argparse.ArgumentParser):
    """argparse with the exit-1-on-usage-error contract and a one-line message.

    Flags must be spelled in full: a prefix such as --out for --out-prefix is
    an unrecognized argument, not the longer flag.  Subparsers are made with
    this class too, so the rule holds for every command.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message} (see --help)\n")


def finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def seed_int(text: str) -> int:
    """argparse type for --seed: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer for --seed, got {text!r}")
    return value


def _flag_value(action: argparse.Action, raw, source: str):
    """A config or environment value converted and checked like the flag itself."""
    numeric = action.type in (int, finite_float, seed_int)
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float) if numeric else str):
        kind = "a number" if numeric else "a string"
        raise ConfigError(f"{source}: expected {kind}, got {json.dumps(raw)}")
    try:
        value = action.type(str(raw)) if action.type else raw
    except ValueError:
        raise ConfigError(f"{source}: invalid {action.type.__name__} value {raw!r}")
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{source}: {exc}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{source}: {value!r} is not one of {list(action.choices)}")
    return value


def _fill_unset_flags(args: argparse.Namespace) -> None:
    """Fill flags not given on the command line from --config, then the seed from
    SINGULAR_GEOM_SEED; unknown config keys are rejected."""
    actions = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    if args.config:
        try:
            with open(args.config) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        for key, raw in file_cfg.items():
            if key not in actions:
                raise ConfigError(f"unknown config key {key!r}; expected one of {sorted(actions)}")
            value = _flag_value(actions[key], raw, f"config key {key!r}")
            if getattr(args, key) is None:
                setattr(args, key, value)
    if "seed" in actions and args.seed is None and SEED_ENV in os.environ:
        args.seed = _flag_value(actions["seed"], os.environ[SEED_ENV], SEED_ENV)


def _resolve(args: argparse.Namespace, **derived) -> dict:
    """Flags (config and environment already merged in) over their defaults, logged to stderr.

    The defaults are the flags' own (_COMMANDS).  derived maps a flag whose
    default a command works out from other flags to a function of the
    config resolved so far, which gives that default when the flag is unset.
    """
    cfg = {key: default if getattr(args, key) is None else getattr(args, key)
           for key, default in args.flag_defaults.items()}
    for key, default_of in derived.items():
        if getattr(args, key) is None:
            cfg[key] = default_of(cfg)
    print(f"[{args.command}] resolved config: {json.dumps(cfg, sort_keys=True)}", file=sys.stderr)
    return cfg


def _parse_grid(text: str) -> tuple[int, int]:
    """An ``N`` or ``NxM`` grid spec; anything else is a ConfigError."""
    parts = text.lower().split("x")
    try:
        if len(parts) > 2:
            raise ValueError(text)
        pair = (int(parts[0]), int(parts[-1]))
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}; expected N or NxM")
    if pair[0] < 2 or pair[1] < 2:
        raise ConfigError(f"grid must be at least 2x2, got {text!r}")
    if pair[0] * pair[1] > MAX_GRID_POINTS:
        raise ConfigError(f"grid {text!r} has {pair[0] * pair[1]} points, "
                          f"above the limit of {MAX_GRID_POINTS}")
    return pair


def _parse_vec(text: str) -> Vec3:
    try:
        x, y, z = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad vector spec {text!r}; expected x,y,z")
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise ConfigError(f"bad vector spec {text!r}; components must be finite")
    return Vec3(x, y, z)


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# built-in surfaces
# ---------------------------------------------------------------------------

# arclength budget per alpha for built-in catenary cylinders: negative alpha
# curves bend toward the halfplane floor, so they get shorter runs
def _catenary_length(alpha: float) -> float:
    if alpha >= -0.5:
        return 2.0
    if alpha >= -1.5:
        return 1.2
    return 1.0


def _catenary_cylinder(alpha: float, file_path: str | None) -> ParamSurface:
    path = cat.integrate(cat.CatenaryState(0.0, 1.0, 0.0, 0.0), alpha,
                         _catenary_length(alpha), 5e-4)
    return cat.catenary_cylinder(path, Vec3(0, 0, 1), Vec3(0, 1, 0))


def _helicoid(alpha: float, file_path: str | None) -> ParamSurface:
    return helicoid(1.0).as_param_surface((-1.0, 1.0))


def _sphere(alpha: float, file_path: str | None) -> ParamSurface:
    def grid_fn(S: np.ndarray, T: np.ndarray) -> Jet2:
        cs = np.array([math.cos(s) for s in S.tolist()])[:, None]
        ss = np.array([math.sin(s) for s in S.tolist()])[:, None]
        ct = np.array([math.cos(t) for t in T.tolist()])[None, :]
        st = np.array([math.sin(t) for t in T.tolist()])[None, :]
        return Jet2(
            _V(cs * ct, ss * ct, st),
            _V(-ss * ct, cs * ct, 0.0),
            _V(-cs * st, -ss * st, ct),
            _V(-cs * ct, -ss * ct, 0.0),
            _V(ss * st, -cs * st, 0.0),
            _V(-cs * ct, -ss * ct, -st),
        )

    return ParamSurface.exact((0.0, 2.0 * math.pi, 0.2, 1.35), grid_fn=grid_fn)


def _hyperboloid(alpha: float, file_path: str | None) -> ParamSurface:
    def grid_fn(S: np.ndarray, T: np.ndarray) -> Jet2:
        s, t = S[:, None], T[None, :]
        r = np.sqrt(1.0 + s * s + t * t)
        r3 = power_each(r, 3)
        return Jet2(
            _V(s, t, r),
            _V(1.0, 0.0, s / r),
            _V(0.0, 1.0, t / r),
            _V(0.0, 0.0, (1.0 + t * t) / r3),
            _V(0.0, 0.0, -s * t / r3),
            _V(0.0, 0.0, (1.0 + s * s) / r3),
        )

    return ParamSurface.exact((-1.0, 1.0, -1.0, 1.0), grid_fn=grid_fn)


def _lightlike_reference(alpha: float, file_path: str | None) -> ParamSurface:
    return lightlike_reference().as_param_surface((-0.3, 0.3))


def _height_file(alpha: float, file_path: str | None) -> ParamSurface:
    if not file_path:
        raise ConfigError("--surface file requires --file <heightfield.csv>")
    with open(file_path) as f:
        field = HeightField.from_csv(f.read())
    return height_surface(field)


# The --surface choices: each name's metric, which `residual` takes when
# --metric is unset, and its builder of (alpha, file_path).
_SURFACES = {
    "catenary-cylinder": ("euclid", _catenary_cylinder),
    "helicoid": ("euclid", _helicoid),
    "sphere": ("euclid", _sphere),
    "hyperboloid": ("euclid", _hyperboloid),
    "lightlike-reference": ("lorentz", _lightlike_reference),
    "file": ("euclid", _height_file),
}


def build_named_surface(name: str, alpha: float, file_path: str | None = None) -> ParamSurface:
    """The surface of a --surface choice, a key of _SURFACES, from its builder."""
    return _SURFACES[name][1](alpha, file_path)


def _surface_grid(cfg: dict) -> tuple:
    """(surface, S, T, v) of a command's resolved flags: the --surface at --alpha
    and the --grid axes over its domain, and --v, None if the command has none.

    The flags are checked in this order, so that the first bad one is the one
    reported: --grid, --v, then what the surface's builder reads (--file).
    """
    ns, nt = _parse_grid(cfg["grid"])
    v = _parse_vec(cfg["v"]) if "v" in cfg else None
    surf = build_named_surface(cfg["surface"], cfg["alpha"], cfg["file"])
    s0, s1, t0, t1 = surf.domain
    return surf, np.linspace(s0, s1, ns), np.linspace(t0, t1, nt), v


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_catenary(args) -> int:
    cfg = _resolve(args)
    if cfg["y0"] <= 0.0:
        raise ConfigError("--y0 must be positive (open upper halfplane)")
    if cfg["step"] <= 0.0 or cfg["length"] <= 0.0:
        raise ConfigError("--length and --step must be positive")
    path = cat.integrate(cat.CatenaryState(0.0, cfg["y0"], cfg["theta0"], 0.0),
                         cfg["alpha"], cfg["length"], cfg["step"])
    _write_text(cfg["out"], path.to_csv())
    if path.exited_halfspace:
        print(f"halfspace exit at s = {path.endpoint.s!r}; partial polyline written",
              file=sys.stderr)
        return EXIT_HALFSPACE
    return EXIT_OK


# what a grid read of a surface raises at a degenerate cell, with exc.cell = (s, t)
_CELL_FAILURES = (DegenerateMetric, NotSpacelike, HalfspaceViolation)


def _failed_cell(exc: GeometryError) -> int:
    s, t = exc.cell
    print(f"{type(exc).__name__} at cell s={s!r}, t={t!r}: {exc}", file=sys.stderr)
    return EXIT_DEGENERATE


def cmd_residual(args) -> int:
    cfg = _resolve(args, metric=lambda cfg: _SURFACES[cfg["surface"]][0])
    metric = _METRICS[cfg["metric"]]
    surf, S, T, v = _surface_grid(cfg)
    try:
        R = singular_residual_grid(metric, surf, S, T, v, cfg["alpha"])
    except _CELL_FAILURES as exc:
        return _failed_cell(exc)
    rows = ["s,t,residual"]
    t_text = [repr(t) for t in T.tolist()]
    for s, r_row in zip(S.tolist(), R.tolist()):
        s_text = repr(s)
        rows.extend([f"{s_text},{t},{r!r}" for t, r in zip(t_text, r_row)])
    _write_text(cfg["out"], "\n".join(rows) + "\n")
    print(f"max |residual| = {abs_max(R)!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve(args, klass=lambda cfg: (
        "standard" if _METRICS[cfg["metric"]] is Metric.EUCLIDEAN else "nondegenerate"))
    metric = _METRICS[cfg["metric"]]
    sweep_cfg = SweepConfig(
        n_surfaces=cfg["n"],
        n_s_samples=cfg["samples"],
        seed=cfg["seed"],
        metric=metric,
        director_class=_CLASSES[cfg["klass"]],
        delta=cfg["delta"],
        alpha_range=(cfg["alpha_min"], cfg["alpha_max"]),
    )
    report = falsification_sweep(sweep_cfg)
    _write_text(cfg["out"], report.to_json())
    n_flagged = len(report.counterexamples)
    print(f"surfaces={sweep_cfg.n_surfaces} counterexamples={n_flagged} "
          f"min_max_abs_coeff={report.min_max_abs_coeff!r}")
    return EXIT_COUNTEREXAMPLE if n_flagged else EXIT_OK


def cmd_export_mesh(args) -> int:
    cfg = _resolve(args)
    surf, S, T, _ = _surface_grid(cfg)
    ns, nt = len(S), len(T)
    try:
        X = grid_points(surf, S, T)
    except _CELL_FAILURES as exc:
        return _failed_cell(exc)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in X.reshape(-1, 3).tolist()]
    # each quad, by its first corner a, split into two triangles,
    # counterclockwise as seen from Xs x Xt
    lines += [f"f {a} {a + nt} {a + nt + 1}\nf {a} {a + nt + 1} {a + 1}"
              for a in range(1, (ns - 1) * nt) if a % nt]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(f"wrote {ns * nt} vertices, {2 * (ns - 1) * (nt - 1)} faces")
    return EXIT_OK


def cmd_variational(args) -> int:
    cfg = _resolve(args)
    grid = _parse_grid(cfg["grid"])
    if cfg["steps"] < 0 or cfg["rate"] < 0.0:
        raise ConfigError("--steps and --rate must be nonnegative")
    field = catenary_heights(shape=grid)
    if cfg["init"] == "flat":
        z = field.z.copy()
        z[1:-1, 1:-1] = 1.0
        field = field.with_z(z)
    elif cfg["init"] == "noisy":
        rng = np.random.default_rng(cfg["seed"])
        z = field.z.copy()
        # an overflowing --noise is reported below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            z[1:-1, 1:-1] *= 1.0 + cfg["noise"] * rng.standard_normal(z[1:-1, 1:-1].shape)
        if not np.all(np.isfinite(z)):
            raise ConfigError(f"--noise {cfg['noise']!r} makes the starting heights non-finite")
        field = field.with_z(z)
    try:
        final, trace = descend(field, cfg["alpha"], cfg["steps"], cfg["rate"])
    except Diverged as exc:
        _write_text(f"{cfg['out_prefix']}_trace.csv", trace_to_csv(exc.trace))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_text(f"{cfg['out_prefix']}_field.csv", final.to_csv())
    _write_text(f"{cfg['out_prefix']}_trace.csv", trace_to_csv(trace))
    print(f"energy {trace[0]!r} -> {trace[-1]!r} in {len(trace) - 1} steps")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FLOAT = {"type": finite_float}
_ALPHA, _SEED = ("--alpha", 1.0, _FLOAT), ("--seed", 0, {"type": seed_int})
_SURFACE = ("--surface", "catenary-cylinder", {"choices": list(_SURFACES)})

# Each command's function, help line and flags.  A flag is its spelling, its
# default and its add_argument keywords, each written here only: build_parser
# adds the flags, and _resolve fills a flag left unset with its default.
_COMMANDS = {
    "catenary": (cmd_catenary, "integrate a planar alpha-catenary", [
        _ALPHA, ("--y0", 1.0, _FLOAT), ("--theta0", 0.0, _FLOAT), ("--length", 2.0, _FLOAT),
        ("--step", 1e-3, _FLOAT), ("--out", "catenary.csv", {})]),
    "residual": (cmd_residual, "evaluate the curvature residual over a grid", [
        # unset, --metric is the surface's (_SURFACES), which cmd_residual passes
        _SURFACE, ("--metric", None, {"choices": sorted(_METRICS)}), _ALPHA,
        ("--v", "0,0,1", {"help": "direction as x,y,z"}),
        ("--grid", "50x50", {"help": "NSxNT sample grid"}),
        ("--file", None, {"help": "height-field CSV for --surface file"}),
        ("--out", "residual.csv", {})]),
    "sweep": (cmd_sweep, "randomized coefficient-vanishing search", [
        # unset, --class is the metric's first class, which cmd_sweep passes
        ("--metric", "euclid", {"choices": sorted(_METRICS)}),
        ("--class", None, {"dest": "klass", "choices": list(_CLASSES)}),
        ("--delta", 1, {"type": int, "choices": [-1, 1]}), ("--n", 100, {"type": int}),
        ("--samples", 10, {"type": int}), _SEED, ("--alpha-min", -3.0, _FLOAT),
        ("--alpha-max", 3.0, _FLOAT), ("--out", "sweep.json", {})]),
    "export-mesh": (cmd_export_mesh, "write a surface grid as an OBJ mesh", [
        _SURFACE, _ALPHA, ("--grid", "50x50", {}), ("--file", None, {}),
        ("--out", "mesh.obj", {})]),
    "variational": (cmd_variational, "height-field gradient descent demo", [
        _ALPHA, ("--grid", "65x33", {}), ("--steps", 200, {"type": int}), ("--rate", 0.1, _FLOAT),
        ("--init", "catenary", {"choices": ["flat", "catenary", "noisy"]}),
        ("--noise", 0.01, _FLOAT), _SEED, ("--out-prefix", "variational", {})]),
}


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="singular-geom",
                     description="singular minimal/maximal surface toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with the same keys as the flags, "
                                        "checked like the flags")
        defaults = {p.add_argument(flag, **kwargs).dest: default
                    for flag, default, kwargs in flags}
        # the parser goes along so main can check config keys against its flags
        p.set_defaults(func=func, parser=p, flag_defaults=defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_unset_flags(args)
        code = args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
