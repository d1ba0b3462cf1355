"""The benchmark's workloads, run in a fresh interpreter per set-up.

``run.py`` starts this file once per set-up sample and once for the
measured run::

    python3 perfbench/workloads.py --mode setup|run --workload NAME \\
        --seed N --seconds S --trace 0|1 --run-dir DIR
    python3 perfbench/workloads.py --mode reference   # rewrite reference.json

It prints ``READY`` once set-up is done (the orchestrator times the
interval from process start), and in ``run`` mode a last line
``RESULT <json>``.

Every workload is a closed loop of *operations* driven by one thread
of this process.  Each fresh operation is followed by a *dedup*
operation, which asks again for an answer that already exists:

``paper_eval``
    fresh: one Figure 5 panel (SD=3; 11, 15 and 21 grids; 10 seeds per
    bar; protectionless and SLP; CasinoLab noise) with the process
    schedule cache reset first, then the SLP setup-overhead
    measurement on 15x15 (3 seeds).  Serial.
    dedup: the same panel resumed from a finished checkpoint.
``grid41_ideal``
    fresh: 4 seeds of protectionless DAS on a 41x41 grid, ideal noise,
    through ``ParallelExperimentRunner`` on a pool of ``nproc`` workers
    started during set-up.  dedup: the same sweep resumed from a
    finished checkpoint.
``service_remote`` / ``service_local``
    fresh: ``POST /jobs`` of a 10-seed ``paper-baseline`` job with an
    unused base seed, status polls every 10 ms until it is terminal,
    then ``GET /jobs/<id>/result``.  dedup: resubmission of an earlier
    finished job plus its result GET.  The service runs as
    ``repro service start --remote`` with ``nproc`` ``repro worker
    start`` processes, or on its local pool of ``nproc`` shard workers.
    ``service_local`` is not in ``BENCHMARK.json``: see README.md.

The operation inputs come from a ring of fixed inputs whose outputs are
pinned in ``reference.json``; ``--seed`` picks where in the ring a run
starts.  Every output is checked against the reference: a mismatch is
a failed operation and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

import probes  # noqa: E402
import procs  # noqa: E402
import stats  # noqa: E402

REFERENCE = HERE / "reference.json"
NPROC = os.cpu_count() or 1
WORKLOADS = ("paper_eval", "grid41_ideal", "service_local", "service_remote")

# Ring sizes and operation shapes.  Changing any of these changes the
# workloads: regenerate reference.json and re-measure the baseline.
FIG5_SIZES = (11, 15, 21)
FIG5_REPEATS = 10
FIG5_SEARCH_DISTANCE = 3
OVERHEAD_SEEDS = 3
PAPER_RING = 2
GRID41_SIZE = 41
GRID41_SEEDS = 4
GRID41_RING = 48
SERVICE_SCENARIO = "paper-baseline"
SERVICE_SEEDS = 10
SERVICE_RING = 160
SERVICE_WARMUP_BASE = 1_000_000
STATUS_POLL_S = 0.01
#: ``service start --shard-timeout`` for the local pool.  A shard worker
#: forked from the multi-threaded service can deadlock in its first
#: garbage collection (a lock inherited mid-use); without a stall
#: timeout the job then never finishes.  With one, the scheduler kills
#: the pool and retries the shard, and the benchmark counts the event
#: as ``service.timeouts``.  A seed of the job takes about 20 ms.  The
#: killed workers ignore the SIGTERM (they inherit the CLI's handler)
#: and outlive the job; the teardown kills them.
SHARD_TIMEOUT_S = 1.0
JOB_DEADLINE_S = 120.0


def _to_doc(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return value


def digest(value) -> str:
    """A short content digest of a JSON-able value (dataclasses expanded)."""
    if isinstance(value, (list, tuple)):
        value = [_to_doc(v) for v in value]
    else:
        value = _to_doc(value)
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


class Mismatch(Exception):
    """An operation's output differs from the reference."""


def _check(what: str, got: str, want: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: digest {got} != reference {want}")


# ----------------------------------------------------------------------
# Operation inputs
# ----------------------------------------------------------------------
def paper_input(k: int) -> Dict[str, int]:
    return {"base_seed": 100 * k}


def grid41_input(k: int) -> Dict[str, int]:
    return {"base_seed": GRID41_SEEDS * k}


def service_input(k: int) -> Dict[str, int]:
    return {"base_seed": SERVICE_SEEDS * k}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class PaperEval:
    """Figure 5 panel plus the setup-overhead measurement, serially."""

    ring = PAPER_RING
    #: Each operation resets the schedule cache, so an input may recur.
    repeatable = True

    def __init__(self, reference: dict, run_dir: Path, traced: bool) -> None:
        self.reference = reference["paper_eval"]
        self.run_dir = run_dir

    def setup(self) -> None:
        from repro import experiments  # noqa: F401  (import is set-up work)

    def _figure5(self, base_seed: int, on_result, checkpoint=None):
        from repro.experiments import run_figure5

        return run_figure5(
            FIG5_SEARCH_DISTANCE,
            sizes=FIG5_SIZES,
            repeats=FIG5_REPEATS,
            base_seed=base_seed,
            checkpoint=checkpoint,
            resume=checkpoint is not None,
            on_result=on_result,
        )

    def compute(self, k: int):
        """One fresh operation's outputs: (stats, per-run results,
        overhead counts)."""
        from repro.experiments import measure_setup_overhead, reset_default_cache
        from repro.topology import paper_grid

        base_seed = paper_input(k)["base_seed"]
        reset_default_cache()
        runs: List = []
        panel = self._figure5(base_seed, lambda seed, result: runs.append(result))
        overhead = measure_setup_overhead(
            paper_grid(15),
            seeds=tuple(range(base_seed, base_seed + OVERHEAD_SEEDS)),
            search_distance=FIG5_SEARCH_DISTANCE,
        )
        return panel, runs, overhead.per_seed

    @staticmethod
    def panel_stats(panel) -> list:
        return [[c.size, _to_doc(c.protectionless), _to_doc(c.slp)] for c in panel.cells]

    def fresh(self, k: int):
        panel, runs, overhead = self.compute(k)
        want = self.reference[k]
        _check("figure5 stats", digest(self.panel_stats(panel)), want["stats"])
        _check("figure5 runs", digest(runs), want["runs"])
        _check("overhead counts", digest(overhead), want["overhead"])
        return len(runs) + len(overhead), (k, panel, runs)

    def prepare_dedup(self, state) -> Path:
        """Write a finished checkpoint of the fresh panel (bookkeeping,
        outside any timed operation)."""
        from repro.experiments import PROTECTIONLESS, SLP, ExperimentConfig, SweepCheckpoint
        from repro.topology import paper_grid

        k, _, runs = state
        base_seed = paper_input(k)["base_seed"]
        directory = self.run_dir / f"ckpt-{k}-{time.monotonic_ns()}"
        store = SweepCheckpoint(directory)
        seeds = range(base_seed, base_seed + FIG5_REPEATS)
        position = 0
        for size in FIG5_SIZES:
            topology = paper_grid(size)
            for algorithm in (PROTECTIONLESS, SLP):
                config = ExperimentConfig(
                    algorithm=algorithm,
                    search_distance=FIG5_SEARCH_DISTANCE,
                    repeats=FIG5_REPEATS,
                    base_seed=base_seed,
                )
                key = store.key_for(topology, config)
                for seed in seeds:
                    store.append(key, seed, runs[position])
                    position += 1
        return directory

    def dedup(self, state, directory: Path) -> None:
        k, panel, _ = state
        rerun: List = []
        again = self._figure5(
            paper_input(k)["base_seed"],
            lambda seed, result: rerun.append(seed),
            checkpoint=directory,
        )
        if rerun:
            raise Mismatch(f"resume of a finished panel re-ran {len(rerun)} seeds")
        _check("resumed figure5 stats", digest(self.panel_stats(again)),
               self.reference[k]["stats"])

    def reference_entry(self, k: int) -> dict:
        panel, runs, overhead = self.compute(k)
        return {
            "input": paper_input(k),
            "stats": digest(self.panel_stats(panel)),
            "runs": digest(runs),
            "overhead": digest(overhead),
        }

    def teardown(self) -> None:
        pass


class TracedPool(ProcessPoolExecutor):
    """A process pool that runs each task under a ``pool.chunk`` root
    span in the worker and counts its submissions."""

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers)
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return super().submit(
            probes.traced_task, "pool.chunk", fn, time.perf_counter(), *args, **kwargs
        )


class Grid41Ideal:
    """Protectionless DAS on 41x41 with ideal noise, pooled."""

    ring = GRID41_RING
    #: Pool workers keep their schedule caches, so no input may recur.
    repeatable = False

    def __init__(self, reference: dict, run_dir: Path, traced: bool) -> None:
        self.reference = reference["grid41_ideal"]
        self.run_dir = run_dir
        self.traced = traced
        self.pool = None
        self.quarantined = 0
        self.retries = 0

    def config(self, k: int):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig(
            repeats=GRID41_SEEDS, base_seed=grid41_input(k)["base_seed"], noise="ideal"
        )

    def setup(self) -> None:
        from repro.experiments import ParallelExperimentRunner
        from repro.topology import GridTopology

        self.topology = GridTopology(GRID41_SIZE)
        self.pool = TracedPool(NPROC) if self.traced else ProcessPoolExecutor(NPROC)
        # Start every worker now, so no operation pays for it.
        list(self.pool.map(abs, range(NPROC)))
        if self.traced:
            self.pool.submitted = 0
        self.runner = ParallelExperimentRunner(
            self.topology, workers=NPROC, executor=self.pool
        )

    @staticmethod
    def outputs(outcome) -> dict:
        return {"stats": digest(outcome.stats), "runs": digest(list(outcome.results))}

    def fresh(self, k: int):
        from repro.experiments import seed_chunks

        config = self.config(k)
        outcome = self.runner.run(config)
        self.quarantined += len(outcome.failures)
        if self.traced:
            # Submissions beyond the sweep's chunks are supervisor retries.
            chunks = len(seed_chunks(list(range(GRID41_SEEDS)), NPROC * 4))
            self.retries += self.pool.submitted - chunks
            self.pool.submitted = 0
        if outcome.failures:
            raise Mismatch(f"{len(outcome.failures)} seeds quarantined")
        got = self.outputs(outcome)
        want = self.reference[k]
        _check("grid41 stats", got["stats"], want["stats"])
        _check("grid41 runs", got["runs"], want["runs"])
        return len(outcome.results), (k, outcome)

    def prepare_dedup(self, state) -> Path:
        from repro.experiments import SweepCheckpoint

        k, outcome = state
        directory = self.run_dir / f"ckpt-{k}-{time.monotonic_ns()}"
        store = SweepCheckpoint(directory)
        config = self.config(k)
        key = store.key_for(self.topology, config)
        for seed, result in zip(range(config.base_seed, config.base_seed + config.repeats),
                                outcome.results):
            store.append(key, seed, result)
        return directory

    def dedup(self, state, directory: Path) -> None:
        from repro.experiments import SweepCheckpoint

        k, _ = state
        rerun: List = []
        again = self.runner.run_checkpointed(
            self.config(k), SweepCheckpoint(directory), resume=True,
            on_result=lambda seed, result: rerun.append(seed),
        )
        if rerun:
            raise Mismatch(f"resume of a finished sweep re-ran {len(rerun)} seeds")
        got = self.outputs(again)
        _check("resumed grid41 stats", got["stats"], self.reference[k]["stats"])
        _check("resumed grid41 runs", got["runs"], self.reference[k]["runs"])

    def reference_entry(self, k: int) -> dict:
        from repro.experiments import ExperimentRunner
        from repro.topology import GridTopology

        # The pinned output is the serial engine's: the pooled run must
        # equal it.
        outcome = ExperimentRunner(GridTopology(GRID41_SIZE)).run(self.config(k))
        return {"input": grid41_input(k), **self.outputs(outcome)}

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)
            self.pool = None


# ----------------------------------------------------------------------
# The sweep service
# ----------------------------------------------------------------------
class HttpClient:
    """One closed-loop client; records the round trip of every GET."""

    def __init__(self, base_url: str) -> None:
        self.base = base_url
        self.rtts_ms: List[float] = []

    def request(self, path: str, payload: Optional[dict] = None):
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        request = urllib.request.Request(self.base + path, data=data, headers=headers)
        start = time.perf_counter()
        with urllib.request.urlopen(request, timeout=30) as response:
            body = response.read()
            status = response.status
        if payload is None:
            self.rtts_ms.append(1000 * (time.perf_counter() - start))
        return status, body

    def json(self, path: str, payload: Optional[dict] = None):
        status, body = self.request(path, payload)
        return status, json.loads(body)


def _pythonpath_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


class ServiceWorkload:
    """``repro service start`` (local pool or ``--remote`` workers)
    driven over loopback HTTP."""

    ring = SERVICE_RING
    #: A recurring input would be a dedup, not a fresh job.
    repeatable = False

    def __init__(self, reference: dict, run_dir: Path, traced: bool, remote: bool) -> None:
        self.reference = reference["service"]
        self.run_dir = run_dir
        self.traced = traced
        self.remote = remote
        self.processes: List[subprocess.Popen] = []
        self.client: Optional[HttpClient] = None
        self.finished: List[tuple] = []
        self.polls: List[int] = []
        self.fresh_jobs: Dict[str, int] = {}
        self.warmup_jobs = 0
        self.workers_before: Optional[list] = None

    def _spawn(self, args: List[str]) -> subprocess.Popen:
        env = _pythonpath_env()
        if self.traced:
            env[probes.TRACE_DIR_ENV] = str(self.trace_dir)
            command = [sys.executable, str(HERE / "launch.py"), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.processes.append(process)
        return process

    def setup(self) -> None:
        stamp = f"{os.getpid()}-{time.monotonic_ns()}"
        data_dir = self.run_dir / f"service-{stamp}"
        self.trace_dir = self.run_dir / f"trace-{stamp}"
        self.trace_dir.mkdir(parents=True)
        args = ["service", "start", "--data-dir", str(data_dir), "--port", "0",
                "--shard-workers", str(NPROC)]
        args += ["--remote"] if self.remote else ["--shard-timeout", str(SHARD_TIMEOUT_S)]
        service = self._spawn(args)
        url = None
        deadline = time.monotonic() + 60
        while url is None:
            line = service.stderr.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError(f"service did not start: {line!r}")
            match = re.search(r"listening on (http://\S+)", line)
            url = match.group(1) if match else None
        self._drain_stderr(service)
        self.client = HttpClient(url)
        if self.traced:
            self.client.request = probes.wrap("service.http", self.client.request)
        self.client.json("/healthz")
        if self.remote:
            for i in range(NPROC):
                worker = self._spawn(["worker", "start", "--connect", url,
                                      "--id", f"bench-worker-{i}", "--quiet"])
                self._drain_stderr(worker)
        # Warm up: run jobs until every remote worker has claimed a
        # shard and shows on GET /workers (the local pool has none).
        for attempt in range(40):
            base_seed = SERVICE_WARMUP_BASE + SERVICE_SEEDS * attempt
            job, state, _ = self._submit_and_wait(base_seed)
            self.warmup_jobs += 1
            if state != "done":
                raise RuntimeError(f"warm-up job ended {state}")
            listed = self.client.json("/workers")[1]["workers"]
            if not self.remote or len(listed) >= NPROC:
                break
        else:
            raise RuntimeError("remote workers never registered")
        self.client.rtts_ms.clear()
        self.workers_before = listed
        self.probe_job = job
        self.timeouts_before = self.service_timeouts()

    def service_timeouts(self) -> float:
        """The service's count of shards it timed out and retried, from
        the counters ``GET /jobs/<id>`` reports."""
        document = self.client.json(f"/jobs/{self.probe_job}")[1]
        return document["metrics"]["counters"].get("service.timeouts", 0)

    @staticmethod
    def _drain_stderr(process: subprocess.Popen) -> None:
        def pump() -> None:
            for line in process.stderr:
                if "Traceback" in line or "error" in line.lower():
                    sys.stderr.write(line)

        threading.Thread(target=pump, daemon=True).start()

    def _submit_and_wait(self, base_seed: int):
        payload = {"scenario": SERVICE_SCENARIO, "seeds": SERVICE_SEEDS,
                   "base_seed": base_seed}
        status, reply = self.client.json("/jobs", payload)
        job = reply["job"]
        polls = 0
        deadline = time.perf_counter() + JOB_DEADLINE_S
        while True:
            document = self.client.json(f"/jobs/{job}")[1]
            polls += 1
            if document["state"] in ("done", "failed", "quarantined"):
                return job, document["state"], (status, polls)
            if time.perf_counter() > deadline:
                raise Mismatch(f"job {job} still {document['state']} after {JOB_DEADLINE_S}s")
            time.sleep(STATUS_POLL_S)

    def fresh(self, k: int):
        base_seed = service_input(k)["base_seed"]
        job, state, (status, polls) = self._submit_and_wait(base_seed)
        if status != 201:
            raise Mismatch(f"fresh submission answered {status}, not 201 (created)")
        if state != "done":
            raise Mismatch(f"job ended {state}")
        body = self.client.request(f"/jobs/{job}/result")[1]
        self.polls.append(polls)
        self.fresh_jobs[job] = base_seed
        _check("service report", hashlib.sha256(body).hexdigest(), self.reference[k]["report"])
        self.finished.append((k, body))
        return SERVICE_SEEDS, None

    def prepare_dedup(self, state) -> None:
        return None

    def dedup(self, state, unused) -> None:
        k, body = self.finished[len(self.finished) // 2]
        payload = {"scenario": SERVICE_SCENARIO, "seeds": SERVICE_SEEDS,
                   "base_seed": service_input(k)["base_seed"]}
        status, reply = self.client.json("/jobs", payload)
        if status != 200 or reply.get("created") or reply.get("state") != "done":
            raise Mismatch(f"resubmission answered {status} {reply}")
        again = self.client.request(f"/jobs/{reply['job']}/result")[1]
        if again != body:
            raise Mismatch("resubmitted job's report differs from the first answer")

    def reference_entry(self, k: int) -> dict:
        return {"input": service_input(k),
                "report": direct_report_digest(service_input(k)["base_seed"])}

    def teardown(self) -> None:
        # Workers first (they drain their lease), then the service.
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes.clear()
        # Shard-pool workers the service failed to stop (see
        # SHARD_TIMEOUT_S) were re-parented here; end them too.
        procs.kill_descendants()


def make_workload(name: str, reference: dict, run_dir: Path, traced: bool):
    if name == "paper_eval":
        return PaperEval(reference, run_dir, traced)
    if name == "grid41_ideal":
        return Grid41Ideal(reference, run_dir, traced)
    if name in ("service_local", "service_remote"):
        return ServiceWorkload(reference, run_dir, traced, remote=name == "service_remote")
    raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
class Phase:
    """What one timed loop measured."""

    def __init__(self) -> None:
        self.fresh_latency: List[float] = []
        self.dedup_latency: List[float] = []
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.service_timeouts = 0

    @property
    def busy(self) -> float:
        return sum(self.fresh_latency) + sum(self.dedup_latency)


def _timed(fn, *args, traced: bool):
    start = time.perf_counter()
    if traced:
        result = probes.RECORDER.call("bench.op", fn, args, {}, root=True)
    else:
        result = fn(*args)
    return result, time.perf_counter() - start


def drive(workload, seconds: float, start: int, traced: bool) -> Phase:
    """Run fresh/dedup operation pairs until ``seconds`` have passed."""
    phase = Phase()
    stop_at = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < stop_at and (workload.repeatable or index < workload.ring):
        k = (start + index) % workload.ring
        index += 1
        phase.attempted += 1
        try:
            (runs, state), elapsed = _timed(workload.fresh, k, traced=traced)
        except Exception as exc:  # every failure is counted, then reported
            phase.failed += 1
            phase.errors.append(f"fresh op {k}: {type(exc).__name__}: {exc}")
            continue
        phase.fresh_latency.append(elapsed)
        phase.runs += runs
        prepared = workload.prepare_dedup(state)
        phase.attempted += 1
        try:
            _, elapsed = _timed(workload.dedup, state, prepared, traced=traced)
        except Exception as exc:
            phase.failed += 1
            phase.errors.append(f"dedup op {k}: {type(exc).__name__}: {exc}")
            continue
        phase.dedup_latency.append(elapsed)
        if isinstance(prepared, Path):
            shutil.rmtree(prepared, ignore_errors=True)
    return phase


def end_to_end(phase: Phase) -> Dict[str, float]:
    """The untraced metrics this process can see (``setup_s`` and
    ``peak_rss_mb`` are added by the orchestrator)."""
    if not phase.fresh_latency or not phase.dedup_latency:
        return {}
    tail, percentile = stats.tail(phase.fresh_latency)
    busy = phase.busy
    return {
        "runs_per_s": phase.runs / busy,
        "jobs_per_s": (len(phase.fresh_latency) + len(phase.dedup_latency)) / busy,
        "job_latency_p50_s": statistics.median(phase.fresh_latency),
        "job_latency_tail_s": tail,
        "_dedup_latency_p50_ms": 1000 * statistics.median(phase.dedup_latency),
        "_tail_percentile": percentile,
        "_fresh_samples": len(phase.fresh_latency),
        "_dedup_samples": len(phase.dedup_latency),
        "_service_timeouts": phase.service_timeouts,
    }


# ----------------------------------------------------------------------
# Per-layer metrics (the traced phase)
# ----------------------------------------------------------------------
def layer_metrics(workload, phase: Phase, trace: dict, untraced: Phase) -> Dict[str, float]:
    totals, counters, samples = trace["totals"], trace["counters"], trace["samples"]
    # Per operation: the service also ran its set-up warm-up jobs, which
    # have the same shape as a fresh job.
    ops = max(len(phase.fresh_latency) + getattr(workload, "warmup_jobs", 0), 1)

    def self_s(name: str) -> float:
        return totals[name][2] / ops if name in totals else 0.0

    def calls(name: str) -> float:
        return totals[name][0] / ops if name in totals else 0.0

    hits = counters.get("schedule_cache.hits", 0.0)
    misses = counters.get("schedule_cache.misses", 0.0)
    topology_calls = totals["topology.build"][0] if "topology.build" in totals else 0
    metrics = {
        "topology.build_s": (
            totals["topology.build"][2] / topology_calls if topology_calls else 0.0
        ),
        "das.build_s": self_s("das.build"),
        "slp.build_s": self_s("slp.build"),
        "schedule.builds": counters.get("schedule.builds", 0.0) / ops,
        "setup.kernel_s": self_s("setup.kernel"),
        "setup.messages": counters.get("setup.messages", 0.0) / ops,
        "schedule_cache.hits": hits / ops,
        "schedule_cache.misses": misses / ops,
        "schedule_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "schedule.children_of_calls": calls("schedule.children_of"),
        "schedule.children_of_s": self_s("schedule.children_of"),
        "noise.draw_calls": calls("noise.draw"),
        "noise.draw_s": self_s("noise.draw"),
        "radio.audible_calls": calls("radio.audible"),
        "radio.audible_s": self_s("radio.audible"),
        "app.runs": calls("app.run"),
        "app.run_self_s": self_s("app.run"),
        "app.lane_compile_s": self_s("app.lane_compile"),
        "app.kernel_self_s": self_s("app.kernel"),
        "attacker.decide_calls": calls("attacker.decide"),
        "attacker.decide_s": self_s("attacker.decide"),
        "storage.appends": calls("storage.append"),
        "storage.append_s": self_s("storage.append"),
        "scenarios.encode_s": self_s("scenarios.encode"),
    }
    # Pool and supervisor (grid41_ideal).
    spans = trace["spans"]
    chunk_time = sum(s["end"] - s["start"] for s in spans if s["name"] == "pool.chunk")
    execute_time = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "supervisor.execute"
    )
    metrics["pool.busy_fraction"] = (
        chunk_time / (NPROC * execute_time) if execute_time else 0.0
    )
    waits = samples.get("pool.wait_s", [])
    metrics["pool.wait_s"] = sum(waits) / len(waits) if waits else 0.0
    metrics["supervisor.retries"] = float(getattr(workload, "retries", 0))
    metrics["supervisor.quarantined"] = float(getattr(workload, "quarantined", 0))
    metrics.update(service_layers(workload, phase, trace))
    # How far to trust the trace.
    container_time = sum(
        s["end"] - s["start"] for s in spans if s["name"] in probes.CONTAINERS
    )
    unattributed = sum(totals[n][2] for n in probes.CONTAINERS if n in totals)
    metrics["trace.coverage"] = (
        1.0 - unattributed / container_time if container_time else 0.0
    )
    if untraced.fresh_latency and phase.fresh_latency:
        plain = untraced.busy / len(untraced.fresh_latency)
        metrics["trace.overhead_fraction"] = (phase.busy / ops - plain) / plain
    else:
        metrics["trace.overhead_fraction"] = 0.0
    # Taken from the untraced half: on the service its run-to-run spread
    # is too wide to gate as an end-to-end metric (see README.md).
    metrics["dedup_latency_p50_ms"] = (
        1000 * statistics.median(untraced.dedup_latency) if untraced.dedup_latency else 0.0
    )
    return metrics


def service_layers(workload, phase: Phase, trace: dict) -> Dict[str, float]:
    names = ("scenarios.run_s", "service.queue_wait_s", "service.run_s",
             "service.overhead_s", "service.http_rtt_ms", "service.polls_per_job",
             "service.timeouts",
             "lease.claims", "lease.uploads", "lease.revoked", "lease.upload_rtt_ms")
    if not isinstance(workload, ServiceWorkload) or not workload.fresh_jobs:
        return {name: 0.0 for name in names}
    samples = trace["samples"]
    queue_wait, run = [], []
    for job in workload.fresh_jobs:
        submitted = samples.get(f"submitted:{job}")
        claimed = samples.get(f"claimed:{job}")
        finished = samples.get(f"finished:{job}")
        if submitted and claimed and finished:
            queue_wait.append(claimed[0] - submitted[0])
            run.append(finished[-1] - claimed[0])
    direct = workload.direct_run_s
    ops = len(workload.fresh_jobs)
    after = workload.workers_after

    def fleet(field: str, listing) -> int:
        return sum(entry[field] for entry in listing)

    run_s = statistics.median(run) if run else 0.0
    uploads = samples.get("lease.upload_rtt_ms", [])
    return {
        "scenarios.run_s": direct,
        "service.queue_wait_s": statistics.median(queue_wait) if queue_wait else 0.0,
        "service.run_s": run_s,
        "service.overhead_s": run_s - direct if run else 0.0,
        "service.http_rtt_ms": statistics.median(workload.client.rtts_ms),
        "service.polls_per_job": sum(workload.polls) / len(workload.polls),
        "service.timeouts": float(phase.service_timeouts),
        "lease.claims": (fleet("claims", after) - fleet("claims", workload.workers_before)) / ops,
        "lease.uploads": (
            fleet("seeds_landed", after) - fleet("seeds_landed", workload.workers_before)
        ) / ops,
        "lease.revoked": trace["counters"].get("lease.revoked", 0.0),
        "lease.upload_rtt_ms": statistics.median(uploads) if uploads else 0.0,
    }


def direct_run_seconds(workload: ServiceWorkload, limit: int = 3) -> float:
    """Median time of a direct ``ScenarioRunner`` run of the same spec
    and seeds as the first fresh jobs, each checked against the
    reference too."""
    times = []
    for base_seed in list(workload.fresh_jobs.values())[:limit]:
        start = time.perf_counter()
        got = direct_report_digest(base_seed)
        times.append(time.perf_counter() - start)
        _check("direct scenario report", got,
               workload.reference[base_seed // SERVICE_SEEDS]["report"])
    return statistics.median(times) if times else 0.0


def direct_report_digest(base_seed: int) -> str:
    """SHA-256 of the report a direct ``ScenarioRunner`` run produces,
    as the service serves it (the JSON document plus a newline)."""
    from repro.scenarios import ScenarioRunner

    report = ScenarioRunner().run(SERVICE_SCENARIO, seeds=SERVICE_SEEDS,
                                  base_seed=base_seed).to_json()
    return hashlib.sha256((report + "\n").encode()).hexdigest()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _ready() -> None:
    print("READY", flush=True)


def run_phase(name: str, reference: dict, run_dir: Path, seconds: float,
              start: int, traced: bool, announce: bool):
    workload = make_workload(name, reference, run_dir, traced)
    try:
        if traced:
            probes.RECORDER.call("bench.setup", workload.setup, (), {}, root=True)
        else:
            workload.setup()
        if announce:
            _ready()
        phase = drive(workload, seconds, start, traced)
        if isinstance(workload, ServiceWorkload):
            phase.service_timeouts = workload.service_timeouts() - workload.timeouts_before
        if traced:
            # Taken before the direct runs below, which are not operations.
            workload.bench_trace = probes.RECORDER.export()
            if isinstance(workload, ServiceWorkload):
                workload.direct_run_s = direct_run_seconds(workload)
    except BaseException:
        workload.teardown()
        raise
    if not traced:
        workload.teardown()
    return workload, phase


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "run", "reference"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path)
    args = parser.parse_args(argv)
    procs.become_subreaper()
    if args.mode == "reference":
        return write_reference()
    reference = json.loads(REFERENCE.read_text())
    args.run_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        workload = make_workload(args.workload, reference, args.run_dir, traced=False)
        try:
            workload.setup()
            _ready()
        finally:
            workload.teardown()
        return 0
    ring = make_workload(args.workload, reference, args.run_dir, False).ring
    start = (args.seed * 7919) % ring
    if not args.trace:
        _, phase = run_phase(args.workload, reference, args.run_dir, args.seconds,
                             start, traced=False, announce=True)
        result = {"metrics": end_to_end(phase)}
    else:
        # Half the time untraced, half traced, over the same inputs:
        # the difference is the tracing overhead.
        _, plain = run_phase(args.workload, reference, args.run_dir, args.seconds / 2,
                             start, traced=False, announce=True)
        probes.install(require_root=True)
        trace_dir = args.run_dir / "trace-bench"
        trace_dir.mkdir(exist_ok=True)
        os.environ[probes.TRACE_DIR_ENV] = str(trace_dir)
        workload, phase = run_phase(args.workload, reference, args.run_dir,
                                    args.seconds / 2, start, traced=True, announce=False)
        try:
            if isinstance(workload, ServiceWorkload):
                workload.workers_after = workload.client.json("/workers")[1]["workers"]
        finally:
            # Stopping the service and workers makes them flush their data.
            workload.teardown()
        parts = [workload.bench_trace, *probes.load_dir(trace_dir)]
        if isinstance(workload, ServiceWorkload):
            parts += probes.load_dir(workload.trace_dir)
        trace = probes.merge(parts)
        metrics = layer_metrics(workload, phase, trace, plain)
        plain.attempted += phase.attempted
        plain.failed += phase.failed
        plain.errors += phase.errors
        phase = plain
        result = {"metrics": metrics, "spans": len(trace["spans"])}
    result.update(attempted=phase.attempted, failed=phase.failed, errors=phase.errors)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def write_reference() -> int:
    reference: dict = {"paper_eval": [], "grid41_ideal": [], "service": []}
    run_dir = ROOT / ".perfbench" / "reference"
    workloads = {
        "paper_eval": PaperEval,
        "grid41_ideal": Grid41Ideal,
        "service": lambda ref, d, t: ServiceWorkload(ref, d, t, remote=False),
    }
    for key, factory in workloads.items():
        workload = factory({"paper_eval": [], "grid41_ideal": [], "service": []},
                           run_dir, False)
        for k in range(workload.ring):
            reference[key].append(workload.reference_entry(k))
            print(f"{key} {k + 1}/{workload.ring}", file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
