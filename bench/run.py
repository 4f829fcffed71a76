"""Benchmark of the singular-geom toolkit.

Run from the repository root:

    python3 bench/run.py --workload {sweep,verify,field,descent} --seed N \\
        --seconds S --trace {0,1}

The toolkit is imported from ``src/`` of the checkout the script sits in; no
installation is needed.  Inputs come from ``--seed`` only.  Each workload is a
fixed set of tasks and items (see ``workloads.py``), run in-process as a
closed loop with one client: one warm-up pass, then timed passes until
``--seconds`` have gone by.  After each pass, outside the timed region, every
item is checked at its acceptance-gate tolerance and every artifact is
hashed; bytes that differ from the warm-up pass, or from an earlier run with
the same seed, fail the task's items.  Times are in reference seconds, wall
time corrected for the host's speed swings (see ``calibration.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:

* ``items_per_s``: items per pass over the sum of each task's median time
  across the timed passes;
* ``setup_s``: median import time of ``singular_geom.cli`` in a fresh
  interpreter plus the median time to build the workload's shared inputs;
* ``pass_ratio``: items that passed every check over items attempted, that is
  one minus the failure ratio (a metric may not read zero);
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` half of ``--seconds`` gives the untraced rate; then passes
run with spans around the calls into each layer (``spans.py``) and the
metrics are per layer, from the first traced pass, plus the tracing overhead
and the time no layer span covers.  Spans are written to ``.bench_work/``.
The line before the result is a run record: seed, versions, ``nproc``, CPU
model, item counts, and the workload's worst error over its tolerance.

``bench/selftest.py`` checks the harness itself at a tiny size.
"""
import os

# One BLAS thread, set before numpy loads: a run is one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep", "verify", "field", "descent")

# fresh-interpreter imports and input builds per run; setup_s takes medians
SETUP_REPEATS = 3


class TaskError:
    """A task whose run raised: all of its items fail."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class Harness:
    """Runs a workload's passes and checks them, counting attempted and failed items."""

    def __init__(self, tasks, outcome_type):
        self.tasks = tasks
        self.items = sum(t.items for t in tasks)
        self.outcome_type = outcome_type
        self.reference: dict | None = None  # task label -> digest of the warm-up pass
        self.verdicts: dict = {}  # task label -> outcome of checking the warm-up pass
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.notes: list[str] = []
        self.last_bytes = 0

    def run_pass(self, tracer=None) -> tuple[list[float], list[float], list]:
        """Run every task once; returns each task's wall and reference seconds,
        and the outputs.

        Only ``task.run`` is timed.  Calibration slices bracket every task.
        """
        outputs, walls, refs = [], [], []
        before = calibration.slowness()
        for task in self.tasks:
            scope = tracer.root(task.label) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with scope:
                try:
                    out = task.run()
                except Exception as exc:  # a failing item is counted, not fatal
                    out = TaskError(exc)
            elapsed = time.perf_counter() - t0
            after = calibration.slowness()
            walls.append(elapsed)
            refs.append(calibration.to_reference(elapsed, before, after))
            before = after
            outputs.append(out)
        return walls, refs, outputs

    def _fail(self, task, n: int, note: str) -> None:
        self.failed += n
        if note and len(self.notes) < 20:
            self.notes.append(f"{task.label}: {note}")

    def check(self, outputs, tamper=None) -> None:
        """Check one pass's outputs; ``tamper`` may alter them first (self-test only).

        A task's verdict depends only on the bytes hashed into its digest, so a
        task whose digest matches the warm-up pass keeps the warm-up verdict.
        """
        digests = {}
        self.last_bytes = 0
        for task, out in zip(self.tasks, outputs):
            self.attempted += task.items
            if tamper is not None:
                out = tamper(task, out)
            if isinstance(out, TaskError):
                digests[task.label] = None
                self._fail(task, task.items, f"{type(out.exc).__name__}: {out.exc}")
                continue
            digest, nbytes = self._digest(task, out)
            digests[task.label] = digest
            self.last_bytes += nbytes
            if self.reference is None:
                try:
                    outcome = task.check(out)
                except Exception as exc:  # an unreadable artifact fails the task
                    outcome = self.outcome_type(task.items, None, f"check raised {exc!r}")
                self.verdicts[task.label] = outcome
            elif self.reference.get(task.label) != digest:
                self._fail(task, task.items, "artifact bytes differ from the warm-up pass")
                continue
            outcome = self.verdicts[task.label]
            if outcome.worst is not None:
                self.worst = max(self.worst, outcome.worst)
            if outcome.failed:
                self._fail(task, min(outcome.failed, task.items), outcome.note)
        if self.reference is None:
            self.reference = digests

    @staticmethod
    def _digest(task, out) -> tuple[str, int]:
        """Hash of a task's exit code and artifacts, or of its returned value."""
        h = hashlib.sha256()
        nbytes = 0
        if task.artifacts:
            h.update(repr(out.code).encode())
            for path in task.artifacts:
                data = path.read_bytes()
                nbytes += len(data)
                h.update(len(data).to_bytes(8, "little"))
                h.update(data)
        else:
            h.update(repr(out).encode())
        return h.hexdigest(), nbytes

    def compare_saved(self, path: Path) -> str:
        """Compare the warm-up digests with an earlier run's; save them if none."""
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.reference, indent=1, sort_keys=True))
            return "first run with this seed"
        saved = json.loads(path.read_text())
        differing = [t for t in self.tasks if saved.get(t.label) != self.reference.get(t.label)]
        for task in differing:
            self._fail(task, task.items, "artifact bytes differ from an earlier run")
        return f"{len(differing)} tasks differ from an earlier run" if differing else \
            "matches an earlier run"

    def timed_passes(self, seconds: float) -> tuple[list[list[float]], list[list[float]]]:
        """Per-task reference and wall seconds of each pass, until ``seconds``
        have gone by (at least one pass)."""
        ref_passes, wall_passes = [], []
        deadline = time.perf_counter() + seconds
        while True:
            walls, refs, outputs = self.run_pass()
            self.check(outputs)
            ref_passes.append(refs)
            wall_passes.append(walls)
            if time.perf_counter() >= deadline:
                return ref_passes, wall_passes


def typical_rate(items: int, passes: list[list[float]]) -> float:
    """Items per second of a typical pass: items over the sum of each task's
    median time across passes.

    A transient stall of the host (seen to double one task's time while the
    calibration slices around it read normal) lands in one task of one pass,
    which a per-task median drops and a per-pass median often does not.
    """
    return items / sum(statistics.median(times) for times in zip(*passes))


def _traced_passes(harness: Harness, seconds: float, workloads, spans):
    """Traced passes until ``seconds`` have gone by (at least one).

    Returns the first pass's tracer, wall and reference seconds, for the
    per-layer figures, and every pass's per-task reference seconds, for the
    tracing overhead.  Checks run with the tracer removed.
    """
    first = None
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = spans.Tracer().install(workloads)
        try:
            walls, refs, outputs = harness.run_pass(tracer)
        finally:
            tracer.uninstall()
        harness.check(outputs)
        if first is None:
            first = (tracer, sum(walls), sum(refs))
        passes.append(refs)
        if time.perf_counter() >= deadline:
            return (*first, passes)


def _median_reference_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        before = calibration.slowness()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        times.append(calibration.to_reference(elapsed, before, calibration.slowness()))
    return statistics.median(times)


def _layer_metrics(summary: dict, items: int, wall_s: float, scale: float) -> dict:
    """Per-layer figures of one traced pass of ``wall_s`` seconds.

    Times are self times (span time minus child spans) converted to reference
    seconds by the pass's ``scale``; shares are of the pass's wall time.
    """
    calls, pairs, counts = (summary[k] for k in ("calls", "pairs", "counts"))
    self_s = defaultdict(float, {name: t * scale for name, t in summary["self_s"].items()})
    pass_s = wall_s * scale
    prenorm_inputs = calls["ruled.generate_prenorm"]
    prenorm_draws = counts["curves.centered_builds", "ruled.generate_prenorm"]
    prenorm_builds = pairs["ruled.generate_prenorm", "curves.dense_build"]

    def per(num, den):
        return num / den if den else 0.0

    return {
        "cli.commands": calls["cli.command"],
        "cli.command_self_s": self_s["cli.command"],
        "curves.dense_builds": calls["curves.dense_build"],
        "curves.dense_build_s": self_s["curves.dense_build"],
        "curves.dense_build_share": self_s["curves.dense_build"] / pass_s,
        "curves.rk4_steps": counts["curves.rk4_steps"],
        "curves.query_rk4_steps": counts["curves.rk4_steps", "curves.state_at"],
        "curves.state_at_calls": calls["curves.state_at"],
        "curves.state_at_s": self_s["curves.state_at"],
        "curves.state_at_per_item": calls["curves.state_at"] / items,
        "ruled.generate_s": self_s["ruled.generate"] + self_s["ruled.generate_prenorm"],
        "ruled.prenorm_builds_per_input": per(prenorm_builds, prenorm_inputs),
        "ruled.prenorm_useful_ratio": per(prenorm_inputs, prenorm_draws),
        "ruled.normalize_s": self_s["ruled.normalize"],
        "ruled.frame_calls": calls["ruled.frame"],
        "ruled.frame_s": self_s["ruled.frame"],
        "ruled.coefficients_calls": calls["ruled.coefficients"],
        "ruled.coefficients_s": self_s["ruled.coefficients"],
        "ruled.oracle_s": self_s["ruled.oracle"],
        "ruled.translate_s": self_s["ruled.translate"],
        "ruled.sweep_self_s": self_s["ruled.sweep"],
        "surface.jet_calls": calls["surface.jet"],
        "surface.jet_s": self_s["surface.jet"],
        "surface.residual_calls": calls["surface.residual"],
        "surface.residual_s": self_s["surface.residual"],
        "surface.forms_calls": calls["surface.forms"],
        "surface.forms_s": self_s["surface.forms"],
        "surface.energy_s": self_s["surface.energy"],
        "surface.first_variation_s": self_s["surface.first_variation"],
        "catenary.integrate_calls": calls["catenary.integrate"],
        "catenary.integrate_s": self_s["catenary.integrate"],
        "catenary.cylinder_build_s": self_s["catenary.cylinder_build"],
        "variational.energy_calls": calls["variational.energy"],
        "variational.energy_s": self_s["variational.energy"],
        "variational.gradient_calls": calls["variational.gradient"],
        "variational.gradient_s": self_s["variational.gradient"],
        "variational.descend_self_s": self_s["variational.descend"],
        "trace.spans": sum(calls.values()),
        "trace.pass_s": pass_s,
        "trace.uncovered_s": (wall_s - summary["covered_s"]) * scale,
        "trace.uncovered_share": (wall_s - summary["covered_s"]) / wall_s,
    }


# suffix -> unit, longest suffixes first
UNITS = {"_per_s": "1/s", "_per_item": "1/item", "_per_input": "1/input", "_s": "s",
         "_ns": "ns", "_mb": "MB", "_share": "ratio", "_ratio": "ratio", "_over_tol": "ratio"}


def _unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "bytes"
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def _run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import probes
    import spans
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        size = workloads.FULL
        tasks, build_inputs = workloads.WORKLOADS[args.workload](args.seed, workdir, size)
        harness = Harness(tasks, workloads.Outcome)
        record = probes.run_record(args.workload, args.seed, args.seconds, args.trace)
        record["items_per_pass"] = harness.items
        record["tasks"] = {t.label: t.items for t in tasks}
        size_key = hashlib.sha256(json.dumps(size, sort_keys=True).encode()).hexdigest()[:12]
        saved = WORK / "digests" / f"{args.workload}-seed{args.seed}-{size_key}.json"

        if args.trace == 0:
            import_s = probes.import_seconds(SRC, SETUP_REPEATS)
            build_s = _median_reference_seconds(build_inputs, SETUP_REPEATS)
            harness.check(harness.run_pass()[2])
            record["determinism"] = harness.compare_saved(saved)
            ref_passes, wall_passes = harness.timed_passes(args.seconds)
            record.update(setup_import_s=import_s, setup_inputs_s=build_s,
                          wall_items_per_s=typical_rate(harness.items, wall_passes),
                          pass_rates=[harness.items / sum(p) for p in ref_passes])
            metrics = {
                "items_per_s": typical_rate(harness.items, ref_passes),
                "setup_s": import_s + build_s,
                "pass_ratio": (harness.attempted - harness.failed) / harness.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            import_s, interp_s = probes.import_breakdown(SRC, SETUP_REPEATS)
            build_inputs()
            harness.check(harness.run_pass()[2])
            record["determinism"] = harness.compare_saved(saved)
            ref_passes, _ = harness.timed_passes(args.seconds / 2.0)
            tracer, wall, ref, traced_passes = _traced_passes(harness, args.seconds / 2.0,
                                                              workloads, spans)
            metrics = {"cli.import_s": import_s, "cli.import_scipy_interpolate_s": interp_s,
                       "cli.bytes_written": harness.last_bytes}
            metrics.update(_layer_metrics(tracer.summary(), harness.items, wall, ref / wall))
            metrics.update(probes.algebra_ns())
            metrics["trace.overhead_ratio"] = (typical_rate(harness.items, ref_passes)
                                               / typical_rate(harness.items, traced_passes))
            metrics["check.worst_over_tol"] = harness.worst
            span_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(span_file)
            record.update(passes=len(ref_passes), traced_passes=len(traced_passes),
                          span_file=str(span_file.relative_to(ROOT)))
        record.update(attempted=harness.attempted, failed=harness.failed,
                      worst_over_tol=harness.worst, notes=harness.notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    return {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="singular-geom benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "singular_geom" / "cli.py").is_file():
        print(f"error: no toolkit sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
