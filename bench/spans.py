"""In-memory spans around calls into the toolkit's layers, for the traced run.

``Tracer.install()`` replaces the public entry points of each module with
timing wrappers wherever a ``singular_geom`` module holds a reference to them,
so names bound by ``from ... import`` are covered as well as attribute access.
Modules passed to ``install()`` (the benchmark's own) are patched the same
way.  ``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of the
enclosing span (-1 for none) and ``item`` the label of the benchmark task that
caused it.  Spans stay in a list until the run ends; ``summary()`` turns them
into per-layer counts and self times, and ``write()`` saves them as CSV.

``algebra`` has no spans: ``Vec3``/``inner``/``cross`` calls are too fine to
wrap without swamping the run, so a separate microbenchmark times them.
"""
from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = "bench.task"

SPAN, COUNT = "span", "count"

# (module, class or None for a module-level function, attribute, name, kind).
# COUNT entries get no span: one RK4 step is too fine to time.  A count is
# kept in total and per enclosing span name.
PATCHES = (
    ("cli", None, "main", "cli.command", SPAN),
    ("curves", "DenseODE", "__init__", "curves.dense_build", SPAN),
    ("curves", "DenseODE", "state_at", "curves.state_at", SPAN),
    ("curves", "CenteredODE", "__init__", "curves.centered_builds", COUNT),
    ("curves", None, "rk4_step", "curves.rk4_steps", COUNT),
    ("ruled", None, "random_euclidean_ruled", "ruled.generate", SPAN),
    ("ruled", None, "random_lorentz_ruled", "ruled.generate", SPAN),
    ("ruled", None, "random_lightlike_ruled", "ruled.generate", SPAN),
    ("ruled", None, "random_prenormalization_input", "ruled.generate_prenorm", SPAN),
    ("ruled", None, "normalize_lorentz", "ruled.normalize", SPAN),
    ("ruled", None, "frame", "ruled.frame", SPAN),
    ("ruled", None, "coefficients", "ruled.coefficients", SPAN),
    ("ruled", None, "residual_polynomial_consistency", "ruled.oracle", SPAN),
    ("ruled", None, "translate_into_halfspace", "ruled.translate", SPAN),
    ("ruled", None, "falsification_sweep", "ruled.sweep", SPAN),
    ("surface", "ParamSurface", "jet", "surface.jet", SPAN),
    ("surface", "ParamSurface", "jet_unchecked", "surface.jet", SPAN),
    ("surface", None, "singular_residual", "surface.residual", SPAN),
    ("surface", None, "fundamental_forms", "surface.forms", SPAN),
    ("surface", None, "potential_energy", "surface.energy", SPAN),
    ("surface", None, "first_variation", "surface.first_variation", SPAN),
    ("catenary", None, "integrate", "catenary.integrate", SPAN),
    ("catenary", None, "catenary_cylinder", "catenary.cylinder_build", SPAN),
    ("variational", None, "height_energy", "variational.energy", SPAN),
    ("variational", None, "interior_gradient", "variational.gradient", SPAN),
    ("variational", None, "descend", "variational.descend", SPAN),
)

PACKAGE = "singular_geom"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item: str | None = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, names, clock = self.spans, self._stack, self._names, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            names.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[sid] = (name, start, end, parent, self.item)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn):
        counts, names = self.counts, self._names

        def counted(*args, **kwargs):
            counts[name] += 1
            counts[name, names[-1] if names else None] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, *extra_modules) -> "Tracer":
        """Wrap every entry of PATCHES; ``extra_modules`` are searched for references too."""
        modules = _package_modules() + list(extra_modules)
        for module, cls_name, attr, name, kind in PATCHES:
            make = self._timed if kind == SPAN else self._counted
            home = sys.modules[f"{PACKAGE}.{module}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, make(name, original))
                continue
            original = getattr(home, attr)
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def root(self, item: str):
        """Span of one benchmark task; every span it causes carries its label."""
        self.item = item
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._names.append(ROOT)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._names.pop()
            self.spans[sid] = (ROOT, start, end, -1, item)
            self.item = None

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self time (duration minus child spans);
        per (parent name, name): calls; ``covered_s``: the time under layer
        spans that no other layer span encloses; and the counts.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        children_of: Counter = Counter()
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == ROOT:
                continue
            parent_name = spans[parent][0] if parent >= 0 else None
            children_of[(parent_name, name)] += 1
            if parent_name in (None, ROOT):
                covered += end - start
        return {"calls": calls, "self_s": self_s, "pairs": children_of,
                "covered_s": covered, "counts": self.counts}

    def write(self, path: Path) -> None:
        """Spans as gzip CSV, times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start", "end", "parent", "item"])
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                w.writerow([i, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent, item])
