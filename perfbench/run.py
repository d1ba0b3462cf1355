"""The repository benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 15 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json`` and explained in
``perfbench/README.md``.  This orchestrator imports nothing from the
program under test.  It times ``SETUP_SAMPLES`` fresh set-ups of the
workload (each a new ``workloads.py`` process, timed from spawn to its
``READY`` line; the last one goes on to the measured run), samples the
resident memory of its whole process tree, and prints the result as the
last line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The line before it holds the details: sample counts,
the tail percentile, the host record and ``nproc``.  Exit status is 0
for a completed run (even an incorrect one, which says so), 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import stats  # noqa: E402

SETUP_SAMPLES = 5
RUN_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170.0

def _load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TreeMemory:
    """Every 50 ms, sums the peak resident set (``VmHWM``, tracked by the
    kernel) of this process and every live descendant, and keeps the
    largest sum.  A process's own peak is never missed between samples;
    pages a forked worker shares with its parent count in both, as in
    any resident-set figure."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _peak_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except (OSError, IndexError, ValueError):
            pass
        return 0

    def sample(self) -> None:
        tree = {os.getpid(), *procs.descendants(os.getpid())}
        self.peak_kb = max(self.peak_kb, sum(self._peak_kb(pid) for pid in tree))

    def _loop(self) -> None:
        while not self._stop.wait(0.05):
            self.sample()

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _child(args: argparse.Namespace, mode: str, run_dir: Path) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "workloads.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()


def _read_until_ready(process: subprocess.Popen, started: float) -> float:
    for line in process.stdout:
        if line.strip() == "READY":
            return time.perf_counter() - started
    raise RuntimeError(f"workload process exited ({process.wait()}) before set-up finished")


def measure(args: argparse.Namespace) -> Dict[str, object]:
    run_dir = RUN_DIR / f"run-{os.getpid()}"
    procs.become_subreaper()
    setups: List[float] = []
    child: Optional[subprocess.Popen] = None
    try:
        with TreeMemory() as memory:
            for index in range(SETUP_SAMPLES):
                mode = "run" if index == SETUP_SAMPLES - 1 else "setup"
                started = time.perf_counter()
                child = _child(args, mode, run_dir)
                setups.append(_read_until_ready(child, started))
                if mode == "setup":
                    child.stdout.read()
                    if child.wait(timeout=CHILD_TIMEOUT_S) != 0:
                        raise RuntimeError("set-up process failed")
            result = None
            for line in child.stdout:
                if line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            code = child.wait(timeout=CHILD_TIMEOUT_S)
            memory.sample()
        if code != 0 or result is None:
            raise RuntimeError(f"workload process exited {code} without a result")
    finally:
        if child is not None:
            _stop(child)
        procs.kill_descendants()
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_samples"] = setups
    result["peak_rss_mb"] = memory.peak_kb / 1024
    return result


def summarise(args: argparse.Namespace, measured: Dict[str, object]) -> tuple:
    """The result line and the detail line."""
    manifest = _load_manifest()
    raw = dict(measured["metrics"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": stats.host_record(),
        "setup_samples": measured["setup_samples"],
        "errors": measured["errors"][:20],
    }
    for key in [k for k in raw if k.startswith("_")]:
        detail[key[1:]] = raw.pop(key)
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        detail["spans"] = measured.get("spans")
    else:
        wanted = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        raw["setup_s"] = statistics.median(measured["setup_samples"])
        raw["peak_rss_mb"] = measured["peak_rss_mb"]
    missing = sorted(set(wanted) - set(raw))
    failed = int(measured["failed"])
    attempted = int(measured["attempted"])
    correct = failed == 0 and not missing and attempted > 0
    if missing:
        detail["missing_metrics"] = missing
    metrics = {
        name: {"value": float(raw[name]), "unit": unit}
        for name, unit in wanted.items()
        if name in raw
    }
    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}
    return line, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program under test (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    try:
        measured = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line, detail = summarise(args, measured)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
