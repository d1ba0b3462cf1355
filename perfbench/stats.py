"""The tail-latency rule and the host record.

Stdlib only: the orchestrator imports this before it knows whether the
program under test can be imported at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
from typing import Dict, Sequence, Tuple


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples that is the
    ``(n - 10)``-th smallest, at percentile ``100 * (n - 10) / n``.
    Below twenty samples that percentile would fall under the median,
    so the median is reported, at percentile 50; the sample count
    recorded next to it says why.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def host_record() -> Dict[str, object]:
    """The host the numbers were taken on: CPU model, ``nproc``, OS and
    interpreter, plus a short digest of all of them."""
    model = ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record = {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count() or 1,
        "os": platform.platform(),
        "python": platform.python_version(),
    }
    record["fingerprint"] = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()[:16]
    return record

