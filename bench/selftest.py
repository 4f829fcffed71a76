"""Self-test of the benchmark harness, with every workload at a tiny size.

Run from the repository root:

    python3 bench/selftest.py

For each workload it checks that a clean pass fails no item, that corrupting
one task's artifact (or returned value) after it ran fails exactly that
task's items, that an earlier run's differing digest is caught, and that a
traced pass records spans and leaves the toolkit unwrapped.  Exits 1 on the
first broken expectation.
"""
import json
import sys
import tempfile
from pathlib import Path

from run import SRC, WORK, Harness, _layer_metrics

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from singular_geom import cli, curves  # noqa: E402


def _corrupt(target):
    """A tamper hook that damages ``target``'s output after it ran."""

    def tamper(task, out):
        if task is not target:
            return out
        if task.artifacts:
            path = task.artifacts[0]
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 1
            path.write_bytes(bytes(data))
            return out
        return ("corrupted", out)

    return tamper


def _expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_workload(name: str, make, tmp: Path) -> None:
    print(name)
    tasks, build_inputs = make(7, tmp, workloads.TINY)
    build_inputs()
    harness = Harness(tasks, workloads.Outcome)
    harness.check(harness.run_pass()[2])
    _expect(harness.failed == 0, f"clean pass: {harness.attempted} items, notes {harness.notes}")

    target = tasks[0]
    harness.check(harness.run_pass()[2], tamper=_corrupt(target))
    _expect(harness.failed == target.items,
            f"corrupted {target.label}: {harness.failed} of {target.items} items failed")

    saved = tmp / "digests.json"
    harness.compare_saved(saved)
    before = harness.failed
    _expect(harness.compare_saved(saved) == "matches an earlier run", "same digests match")
    digests = json.loads(saved.read_text())
    digests[target.label] = "0" * 64
    saved.write_text(json.dumps(digests))
    harness.compare_saved(saved)
    _expect(harness.failed > before, "a differing earlier digest fails its task")

    tracer = spans.Tracer().install(workloads)
    try:
        walls, _, outputs = harness.run_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = _layer_metrics(tracer.summary(), harness.items, sum(walls), 1.0)
    _expect(metrics["trace.spans"] > len(tasks), f"traced pass: {metrics['trace.spans']} spans")
    _expect(not hasattr(curves.DenseODE.__init__, "__wrapped__")
            and not hasattr(cli.main, "__wrapped__")
            and not hasattr(workloads.normalize_lorentz, "__wrapped__"),
            "tracer removed its wrappers")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    for name, make in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            check_workload(name, make, Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
