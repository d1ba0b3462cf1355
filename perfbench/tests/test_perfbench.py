"""Tests of the benchmark itself: its manifest, its statistics, its
probes, and a short run of every workload end to end."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import stats  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``;
#: at most 64 characters.  Units: those plus ``/`` and ``%``; at most 16.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    """One run of the benchmark at its smallest size: one fresh and one
    dedup operation per phase."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    return completed, lines


# ----------------------------------------------------------------------
# The manifest and its names
# ----------------------------------------------------------------------
def test_manifest_names_units_and_bounds_follow_the_rules():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [w["name"] for w in MANIFEST["workloads"]]
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert 2 <= len(names) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])


@pytest.mark.parametrize(
    "name, ok",
    [("runs_per_s", True), ("noise.draw_s", True), ("9lives", True),
     ("_private", False), ("has space", False), ("a" * 65, False), ("", False)],
)
def test_metric_name_charset(name, ok):
    assert bool(NAME.fullmatch(name)) is ok


@pytest.mark.parametrize("unit, ok", [("runs/s", True), ("%", True), ("m s", False),
                                      ("x" * 17, False)])
def test_metric_unit_charset(unit, ok):
    assert bool(UNIT.fullmatch(unit)) is ok


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_is_the_value_with_ten_samples_beyond_it():
    values = list(range(1, 41))  # 40 samples
    value, percentile = stats.tail(values)
    assert value == 30
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(75.0)


def test_tail_percentile_rises_with_the_sample_count():
    value, percentile = stats.tail(list(range(100)))
    assert (value, percentile) == (89, 90.0)


def test_tail_falls_back_to_the_median_below_twenty_samples():
    assert stats.tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert stats.tail(list(range(19))) == (9, 50.0)
    assert stats.tail(list(range(20)))[1] == 50.0


# ----------------------------------------------------------------------
# Probes: self time excludes nested probes, leaves included
# ----------------------------------------------------------------------
def test_self_time_excludes_nested_spans_and_leaves():
    recorder = probes.Recorder(require_root=True)
    saved = probes.RECORDER
    probes.RECORDER = recorder
    try:
        sleepy_leaf = probes.leaf("test.leaf", lambda: time.sleep(0.02))
        inner = probes.wrap("test.inner", lambda: time.sleep(0.03))

        def outer():
            time.sleep(0.01)
            inner()
            sleepy_leaf()

        probes.wrap("test.outer", outer)()  # outside any root: no span
        assert "test.outer" not in recorder.totals
        recorder.reset()
        recorder.call("bench.op", probes.wrap("test.outer", outer), (), {}, root=True)
        exported = recorder.export()
    finally:
        probes.RECORDER = saved
        probes.LEAVES.pop("test.leaf", None)
    totals = exported["totals"]
    assert totals["test.inner"][0] == 1
    assert totals["test.outer"][2] == pytest.approx(0.01, abs=0.008)
    assert totals["test.leaf"][0] == 1
    assert totals["test.leaf"][2] == pytest.approx(0.02, abs=0.008)
    assert totals["bench.op"][2] == pytest.approx(0.0, abs=0.005)
    spans = {s["name"]: s for s in exported["spans"]}
    assert spans["bench.op"]["parent"] is None
    assert {s["op"] for s in exported["spans"]} == {spans["bench.op"]["id"]}


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload, trace",
    [("paper_eval", 1), ("grid41_ideal", 1), ("service_local", 0), ("service_remote", 1)],
)
def test_smoke_run_reports_every_metric_and_the_host(workload, trace):
    completed, lines = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert lines[-2].startswith("detail ")
    detail = json.loads(lines[-2][len("detail "):])
    assert detail["host"]["nproc"] == (os.cpu_count() or 1)
    assert len(detail["host"]["fingerprint"]) == 16
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if workload == "paper_eval":
        # The traced run separates the layers: noise owns the most self
        # time on the paper's evaluation ...
        self_times = {k: v for k, v in metrics.items()
                      if k.endswith("_s") and not k.startswith(("service.", "scenarios.run"))}
        assert max(self_times, key=self_times.get) == "noise.draw_s"
        assert metrics["app.runs"] == metrics["schedule.builds"] == 60
        assert metrics["setup.messages"] > 0
    if workload == "grid41_ideal":
        # ... and the quadratic children_of scan outweighs it at 41x41.
        assert metrics["schedule.children_of_s"] > metrics["noise.draw_s"]
        assert metrics["pool.busy_fraction"] > 0
    if workload == "service_remote":
        assert metrics["lease.uploads"] == 10
        assert metrics["lease.upload_rtt_ms"] > 0


def test_corrupted_reference_digest_counts_as_a_failure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    pinned = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(pinned.read_text())
    for entry in reference["paper_eval"]:
        entry["runs"] = "0" * 32
    pinned.write_text(json.dumps(reference))
    completed, lines = _run("paper_eval", 0, cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    detail = json.loads(lines[-2][len("detail "):])
    assert "figure5 runs" in detail["errors"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed, lines = _run("paper_eval", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in lines)
