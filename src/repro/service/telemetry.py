"""Service telemetry: counters and latency histograms.

The batch engine (and anything else in the serving path) records two kinds
of signal:

* **counters** — monotone event counts (jobs completed, retries, cache
  hits, timeouts);
* **histograms** — latency-style value streams summarised by count, mean,
  min/max and the p50/p95/p99 percentiles operators actually alert on.

Everything is process-local and lock-protected; :meth:`Telemetry.snapshot`
returns a plain nested dict (JSON-safe) and :meth:`Telemetry.render`
formats the same numbers as the text tables the CLI prints after a batch.
Histograms keep a bounded reservoir (default 4096 values, uniform
reservoir sampling beyond that) so a long-running service cannot grow
memory linearly with traffic while percentiles stay representative.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional

__all__ = ["Histogram", "Telemetry", "percentile"]

_DEFAULT_RESERVOIR = 4096
_QUANTILES = (50.0, 95.0, 99.0)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``.

    Matches numpy's default ("linear") method without requiring the values
    to be a numpy array; raises on an empty list.
    """
    if not values:
        raise ValueError("percentile of empty value list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


class Histogram:
    """Bounded-reservoir value stream with percentile summaries."""

    def __init__(self, reservoir_size: int = _DEFAULT_RESERVOIR, seed: int = 0):
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._values: List[float] = []
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._values) < self._reservoir_size:
            self._values.append(value)
        else:
            # Vitter's algorithm R: keep each seen value with equal chance.
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir_size:
                self._values[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        return percentile(self._values, q)

    def summary(self) -> Dict[str, float]:
        """count/mean/min/max plus p50/p95/p99 (zeros when empty)."""
        if not self.count:
            base = {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
            base.update({f"p{q:g}": 0.0 for q in _QUANTILES})
            return base
        base = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        base.update({f"p{q:g}": self.quantile(q) for q in _QUANTILES})
        return base


class Telemetry:
    """Named counters + named histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.record(value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """All counters and histogram summaries as one JSON-safe dict."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "histograms": {
                    name: hist.summary()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def render(self) -> str:
        """Text tables for terminal output."""
        from ..experiments.reporting import format_table

        snap = self.snapshot()
        blocks = []
        if snap["counters"]:
            rows = [[k, v] for k, v in snap["counters"].items()]
            blocks.append(format_table(["counter", "value"], rows))
        if snap["histograms"]:
            rows = [
                [
                    name,
                    s["count"],
                    s["mean"],
                    s["p50"],
                    s["p95"],
                    s["p99"],
                    s["max"],
                ]
                for name, s in snap["histograms"].items()
            ]
            blocks.append(
                format_table(
                    ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                    rows,
                )
            )
        return "\n\n".join(blocks) if blocks else "(no telemetry recorded)"
