"""Host-speed calibration for the benchmark's timings.

The benchmark shares a few cores of a host with other work, and the speed it
gets drifts by a third and more over seconds to minutes (measured on a
2-core host: the same seed's median request latency moved by 25% between
back-to-back runs, with process CPU time equal to wall time, so the process
was never descheduled; the cores themselves ran slower).  A raw wall time
therefore measures the host as much as the program.

Every timing the benchmark reports is taken in *reference seconds*: the
wall time of the timed work, scaled by ``NOMINAL_S`` over the time a fixed
calibration loop took right around it.  The loop is the benchmark's own
pure-Python code (small-object allocation, a tuple-keyed dict, a keyed sort,
a JSON round trip, like the program's request path), run with the garbage
collector off, so its cost does not depend on the program under test.  A
change that slows the program moves the reported figure exactly as it moves
the wall time; a slower host moves it much less (in one ten-run set, raw
throughput fell 1.9x and the reference figure 1.19x: the loop does not feel
every kind of contention as the program does).  The raw wall figures are
printed beside them.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

#: Objects the calibration loop builds: about 2.5 ms on the 2-core host the
#: benchmark was written on.
ITEMS = 2000
#: The calibration loop's time that defines the reference scale: a timing
#: is reported as ``wall * NOMINAL_S / calibration``.
NOMINAL_S = 2.0e-3
#: Least wall time between two calibration runs of one request stream.
INTERVAL_S = 0.1


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _calibration_run() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        items = [_Item(i, i * 7 % 1009) for i in range(ITEMS)]
        table = {}
        for item in items:
            table[(item.a % 251, item.b % 13)] = item
        items.sort(key=lambda item: (item.b, item.a))
        json.loads(json.dumps([[item.a, item.b] for item in items[: ITEMS // 3]]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_s(repeats: int = 1) -> float:
    """Wall seconds of the fixed calibration loop: the median of
    ``repeats`` back-to-back runs."""
    return statistics.median(_calibration_run() for _ in range(repeats))


def reference_scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two calibration runs
    into reference seconds."""
    return 2.0 * NOMINAL_S / (before + after)


class ReferenceClock:
    """Calibration runs spaced through a stream of timed requests, at most
    one per ``INTERVAL_S``, and the requests' latencies in reference
    seconds: each is scaled by the last calibration before it and the first
    one after it."""

    def __init__(self) -> None:
        self.times = []  # perf_counter at the start of each calibration run
        self.runs = []  # its wall seconds
        self.requests = []  # (perf_counter start, perf_counter end)

    def calibrate_if_due(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= INTERVAL_S:
            self.times.append(now)
            self.runs.append(calibration_s())

    def record(self, start: float, end: float) -> None:
        self.requests.append((start, end))

    def reference_latencies(self) -> list:
        out = []
        for start, end in self.requests:
            before = self.runs[bisect.bisect_right(self.times, start) - 1]
            after_at = bisect.bisect_left(self.times, end)
            after = self.runs[after_at] if after_at < len(self.runs) else before
            out.append((end - start) * reference_scale(before, after))
        return out
