"""Process-wide named counters, gauges, and histograms.

One registry absorbs the tallies that used to live as scattered
attributes: schedule-cache hits/misses/evictions
(``cache.*``), supervisor retries/timeouts/respawns/quarantines
(``supervisor.*``), per-kind trace counts (``trace.*``), sweep
capture/safety series and throughput (``sweep.*``), and divergence
guard audits (``guard.*``).  Names are dotted, lower-case, with the
subsystem as the first segment.

``snapshot()`` returns plain sorted dicts — the single surface used
by ``metrics.json`` export, CLI summaries, bench, and tests.
Counter increments are cheap dict ops and never branch on wall-clock
or RNG state, so leaving them unconditional on supervised paths is
safe; rate gauges (anything per-second) are only computed inside an
already-entered span.

Pool workers run each chunk under a private registry (installed via
``use_registry``) and ship its snapshot back with the chunk results;
the parent merges it with ``merge``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator

__all__ = [
    "MetricsRegistry",
    "default_registry",
    "use_registry",
]


class MetricsRegistry:
    """Named counters (monotonic), gauges (last value), histograms
    (count/total/min/max summaries)."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        summary = self._histograms.get(name)
        if summary is None:
            self._histograms[name] = {
                "count": 1,
                "total": value,
                "min": value,
                "max": value,
            }
        else:
            summary["count"] += 1
            summary["total"] += value
            if value < summary["min"]:
                summary["min"] = value
            if value > summary["max"]:
                summary["max"] = value

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        histograms = {}
        for name in sorted(self._histograms):
            summary = dict(self._histograms[name])
            if summary["count"]:
                summary["mean"] = summary["total"] / summary["count"]
            histograms[name] = summary
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": histograms,
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's ``snapshot()`` into this one.

        Counters add, gauges take the incoming value, histogram
        summaries combine exactly (mean is recomputed on export).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, incoming in snapshot.get("histograms", {}).items():
            summary = self._histograms.get(name)
            if summary is None:
                self._histograms[name] = {
                    "count": incoming["count"],
                    "total": incoming["total"],
                    "min": incoming["min"],
                    "max": incoming["max"],
                }
            else:
                summary["count"] += incoming["count"]
                summary["total"] += incoming["total"]
                summary["min"] = min(summary["min"], incoming["min"])
                summary["max"] = max(summary["max"], incoming["max"])

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the process default for the duration.

    A telemetry session scopes its metrics this way, and pool workers
    isolate each chunk's tallies so the shipped snapshot contains only
    that chunk's work.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    try:
        yield registry
    finally:
        _DEFAULT = previous
