"""Host-speed calibration for the benchmark's timings.

The effective CPU speed of a shared host swings by about 1.5x within seconds:
on a shared 2-vCPU Intel Xeon VM the slice below read 1.4 ms and 2.5 ms within
one minute, and sweep passes moved with it from 42 to 29 items/s.  Raw wall
times gave run-to-run spreads of 20-40%.  So every timed region is bracketed
by calibration slices and converted to reference seconds: its wall time
divided by the mean slowness measured just before and after it, where
slowness is the slice's time over its time on the reference host.  A change
to the toolkit leaves the slice alone, so it moves reference seconds in the
same proportion as wall seconds.

In trials on that VM, bracketing each task cut the pass-to-pass spread from
16% to 6% on ``sweep`` and from 12% to 5% on ``verify``.  Slices built from
numpy kernels tracked ``descent`` no better than this one.  The slice imports
nothing, so a child interpreter can use it before timing
``import singular_geom.cli``.
"""
import time

# slice time on the reference host, that VM at its fast state
REFERENCE_SLICE_S = 1.5e-3


def _loop_s() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        x, y = _step(i * 1e-3, acc)
        acc = (x - y) * 1e-3
    return time.perf_counter() - t0


def _step(a: float, b: float) -> tuple[float, float]:
    return (a * 0.5 + b, a - b)


def slowness() -> float:
    """The fastest of three interpreter-bound loops over the reference time;
    the minimum drops interrupts that hit a single loop."""
    return min(_loop_s() for _ in range(3)) / REFERENCE_SLICE_S


def to_reference(wall_s: float, before: float, after: float) -> float:
    """Wall seconds converted to reference seconds, given the slowness around them."""
    return wall_s * 2.0 / (before + after)
