"""Outside-in layer probes: spans and self times taken around calls into
``repro``'s functions, with nothing added inside ``src/``.

:func:`install` replaces each probed callable with a timing wrapper —
on its owning class, or, for a plain function, on every loaded
``repro`` module that holds it (``from .x import f`` binds the name in
the importer too).  A :class:`Recorder` keeps everything in memory:

* per layer name: calls, total seconds and *self* seconds (a call's
  duration minus the time spent in probed calls nested inside it);
* for the coarse layers (``SPAN_LAYERS``) a span record — name, start,
  end, parent span and the operation it belongs to;
* named counters and samples (schedule-cache hits, setup messages,
  service timestamps, upload round trips).

*Leaf* layers run hundreds of thousands of times per operation (noise
draws, ``children_of``, audibility lookups, attacker decisions).  Their
wrapper only adds to two per-layer accumulators, and the enclosing
span's self time is charged neither their time nor the wrapper's own
call cost, which :func:`install` calibrates once per process.

In the benchmark's own process, spans are recorded only inside a root
span (an operation or the set-up), so bookkeeping between operations
is never charged to a layer.  Worker processes (pool workers, service
shard workers, remote workers) record everything; they append their
data to ``<trace dir>/spans-<pid>.jsonl`` when a unit of work ends, and
:func:`load_dir` reads the files back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Environment variable naming the directory worker processes flush to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Layers recorded as individual spans (the others are totals only).
SPAN_LAYERS = frozenset(
    {
        "bench.op",
        "bench.setup",
        "pool.chunk",
        "service.shard",
        "worker.shard",
        "topology.build",
        "das.build",
        "slp.build",
        "setup.kernel",
        "app.run",
        "supervisor.execute",
        "service.submit",
        "service.claim",
        "service.transition",
        "service.http",
    }
)

#: Spans that stand for a whole unit of work rather than a layer: their
#: self time is what the trace could not attribute.
CONTAINERS = ("bench.op", "pool.chunk", "service.shard", "worker.shard")

_BUILD_LAYERS = ("das.build", "slp.build")

#: Per-process leaf accumulators: name -> [calls, seconds], plus the
#: sum over every leaf (what an enclosing span subtracts).
LEAVES: Dict[str, List[float]] = {}
LEAF_CLOCK: List[float] = [0, 0.0]
#: Seconds a leaf wrapper adds per call outside its own clock reads.
LEAF_CALL_COST = [0.0]


class Recorder:
    """In-memory spans, self times, counters and samples (thread-safe)."""

    def __init__(self, require_root: bool) -> None:
        self.require_root = require_root
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        _zero_leaves()

    def stack(self) -> list:
        """The calling thread's open probe frames."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             on_exit: Optional[Callable] = None, root: bool = False):
        stack = self.stack()
        if (not stack and self.require_root and not root) or any(
            frame[0] == name for frame in stack
        ):
            # Outside any operation, or re-entering the same layer:
            # pass through so nothing is counted twice.
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        op = stack[0][3] if stack else span_id
        # name, id, child seconds, op, leaf calls/seconds at entry,
        # leaf calls/seconds inside child spans.
        frame = [name, span_id, 0.0, op, LEAF_CLOCK[0], LEAF_CLOCK[1], 0, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            leaf_calls = LEAF_CLOCK[0] - frame[4]
            leaf_seconds = LEAF_CLOCK[1] - frame[5]
            own_leaf_calls = leaf_calls - frame[6]
            own_leaf_seconds = leaf_seconds - frame[7]
            self_time = (
                duration - frame[2] - own_leaf_seconds - own_leaf_calls * LEAF_CALL_COST[0]
            )
            if stack:
                parent = stack[-1]
                parent[2] += duration
                parent[6] += leaf_calls
                parent[7] += leaf_seconds
            pid = os.getpid()
            with self._lock:
                total = self.totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += self_time
                if name in SPAN_LAYERS:
                    self.spans.append(
                        {
                            "name": name,
                            "id": f"{pid}.{span_id}",
                            "parent": f"{pid}.{stack[-1][1]}" if stack else None,
                            "op": f"{pid}.{op}",
                            "pid": pid,
                            "start": start,
                            "end": end,
                        }
                    )
            if on_exit is not None:
                on_exit(self, args, result, stack)

    def export(self) -> dict:
        with self._lock:
            totals = {k: list(v) for k, v in self.totals.items()}
            for name, (calls, seconds) in LEAVES.items():
                if calls:
                    totals[name] = [calls, seconds, seconds]
            return {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "totals": totals,
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.totals.clear()
            self.counters.clear()
            self.samples.clear()
            _zero_leaves()

    def flush(self) -> None:
        """Append this process's data to the trace dir and start over.
        The directory comes from the environment, so forked and
        launched processes inherit it."""
        trace_dir = os.environ.get(TRACE_DIR_ENV)
        if not trace_dir:
            return
        payload = json.dumps(self.export())
        with open(Path(trace_dir) / f"spans-{os.getpid()}.jsonl", "a") as out:
            out.write(payload + "\n")
        self.reset()


RECORDER: Optional[Recorder] = None
_ORIGINALS: Dict[str, Callable] = {}


def _zero_leaves() -> None:
    for accumulator in LEAVES.values():
        accumulator[0] = 0
        accumulator[1] = 0.0
    LEAF_CLOCK[0] = 0
    LEAF_CLOCK[1] = 0.0


def merge(parts: List[dict]) -> dict:
    """Fold exported recorder payloads into one."""
    merged = {"spans": [], "totals": defaultdict(lambda: [0, 0.0, 0.0]),
              "counters": defaultdict(float), "samples": defaultdict(list)}
    for part in parts:
        merged["spans"].extend(part["spans"])
        for name, (calls, total, self_time) in part["totals"].items():
            slot = merged["totals"][name]
            slot[0] += calls
            slot[1] += total
            slot[2] += self_time
        for name, value in part["counters"].items():
            merged["counters"][name] += value
        for name, values in part["samples"].items():
            merged["samples"][name].extend(values)
    return merged


def load_dir(trace_dir: Path) -> List[dict]:
    """Every payload worker processes flushed into ``trace_dir``."""
    parts = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                parts.append(json.loads(line))
    return parts


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def wrap(name: str, fn: Callable, on_exit=None):
    """A span-level probe around ``fn``."""

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        recorder = RECORDER
        if recorder is None:
            return fn(*args, **kwargs)
        return recorder.call(name, fn, args, kwargs, on_exit=on_exit)

    probed.__perfbench_original__ = fn
    return probed


def leaf(name: str, fn: Callable):
    """A leaf probe around ``fn``: a call count and seconds, nothing else."""
    accumulator = LEAVES.setdefault(name, [0, 0.0])
    clock = LEAF_CLOCK
    now = time.perf_counter

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = now() - start
            accumulator[0] += 1
            accumulator[1] += elapsed
            clock[0] += 1
            clock[1] += elapsed

    probed.__perfbench_original__ = fn
    return probed


def _calibrate(rounds: int = 5, calls: int = 20000) -> float:
    """The cost a leaf wrapper adds per call outside its clock reads:
    the smallest of a few measurements of a wrapped no-op against the
    bare no-op."""

    def noop():
        return None

    probed = leaf("calibration", noop)
    accumulator = LEAVES["calibration"]
    best = float("inf")
    for _ in range(rounds):
        accumulator[1] = 0.0
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            probed()
        wrapped = time.perf_counter() - start
        best = min(best, (wrapped - bare - accumulator[1]) / calls)
    del LEAVES["calibration"]
    return max(best, 0.0)


def _patch_method(cls, attr: str, name: str, on_exit=None, is_leaf: bool = False) -> None:
    original = cls.__dict__[attr]
    if hasattr(original, "__perfbench_original__"):
        return
    probed = leaf(name, original) if is_leaf else wrap(name, original, on_exit)
    setattr(cls, attr, probed)


def _patch_function(module_name: str, attr: str, name: str, on_exit=None) -> None:
    module = sys.modules[module_name]
    original = getattr(module, attr)
    if hasattr(original, "__perfbench_original__"):
        return
    probed = wrap(name, original, on_exit)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, probed)


def install(require_root: bool) -> Recorder:
    """Import every probed layer, wrap it, and start recording."""
    global RECORDER
    import repro.app.fast_kernel
    import repro.app.runtime  # noqa: F401
    import repro.attacker.model
    import repro.core.schedule
    import repro.das
    import repro.experiments
    import repro.experiments.resilience
    import repro.experiments.schedule_cache
    import repro.scenarios
    import repro.service
    import repro.service.scheduler
    import repro.service.transport
    import repro.service.worker
    import repro.simulator.noise
    import repro.simulator.radio
    import repro.slp
    import repro.storage.io
    import repro.topology.grid

    LEAF_CALL_COST[0] = _calibrate()

    # Kernels and schedule construction.
    _patch_method(repro.topology.grid.GridTopology, "__init__", "topology.build")
    _patch_function("repro.das", "centralized_das_schedule", "das.build", _count_build)
    _patch_function("repro.slp", "build_slp_schedule", "slp.build", _count_build)
    _patch_function("repro.das", "run_das_setup", "setup.kernel", _count_setup_messages)
    _patch_function("repro.slp", "run_slp_setup", "setup.kernel", _count_setup_messages)
    _patch_cache_lookup(repro.experiments.schedule_cache.ScheduleCache)
    _patch_method(repro.core.schedule.Schedule, "children_of", "schedule.children_of",
                  is_leaf=True)
    noise = repro.simulator.noise
    for cls in (noise.NoiseModel, *noise.NoiseModel.__subclasses__()):
        for attr in ("delivers", "delivers_block"):
            if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False
            ):
                _patch_method(cls, attr, "noise.draw", is_leaf=True)
    _patch_method(repro.simulator.radio.RadioMedium, "audible_set", "radio.audible",
                  is_leaf=True)
    _patch_method(repro.attacker.model.AttackerState, "decide", "attacker.decide",
                  is_leaf=True)
    _patch_function("repro.app.runtime", "run_operational_phase", "app.run")
    _patch_function("repro.app.fast_kernel", "run_fast_kernel", "app.kernel")
    _patch_function("repro.app.fast_kernel", "compile_fast_lane", "app.lane_compile")

    # Sweep engine, results and storage.
    _patch_method(
        repro.experiments.resilience.WorkerSupervisor, "execute", "supervisor.execute"
    )
    _patch_method(repro.scenarios.ScenarioOutcome, "to_json", "scenarios.encode")
    _patch_function("repro.storage.io", "durable_append", "storage.append")

    # Service, lease board and workers.
    service = repro.service
    _patch_method(service.SweepService, "submit", "service.submit", _note_submit)
    _patch_method(service.JobStore, "claim_next", "service.claim", _note_claim)
    _patch_method(service.JobStore, "transition", "service.transition", _note_transition)
    _patch_method(service.transport.ShardBoard, "revoke_stale", "lease.revoke",
                  _count_revoked)
    _patch_method(service.worker.ShardWorker, "_run_shard", "worker.shard", _flush_after)
    _patch_upload(service.worker.WorkerTransport)
    scheduler = repro.service.scheduler
    if scheduler._run_shard is not traced_run_shard:
        _ORIGINALS["service.shard"] = scheduler._run_shard
        scheduler._run_shard = traced_run_shard

    RECORDER = Recorder(require_root=require_root)
    return RECORDER


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
def _count_build(recorder: Recorder, args, result, stack) -> None:
    if not any(frame[0] in _BUILD_LAYERS for frame in stack):
        recorder.count("schedule.builds")


def _count_setup_messages(recorder: Recorder, args, result, stack) -> None:
    if result is not None:
        recorder.count("setup.messages", result.messages_sent)


def _patch_cache_lookup(cache_cls) -> None:
    original = cache_cls.__dict__["get_or_build"]
    if hasattr(original, "__perfbench_original__"):
        return

    @functools.wraps(original)
    def lookup(self, key, build):
        recorder = RECORDER
        if recorder is None:
            return original(self, key, build)
        hits, misses = self.hits, self.misses
        result = recorder.call("schedule_cache.lookup", original, (self, key, build), {})
        if recorder.stack() or not recorder.require_root:
            recorder.count("schedule_cache.hits", self.hits - hits)
            recorder.count("schedule_cache.misses", self.misses - misses)
        return result

    lookup.__perfbench_original__ = original
    cache_cls.get_or_build = lookup


def _patch_upload(transport_cls) -> None:
    original = transport_cls.__dict__["post"]
    if hasattr(original, "__perfbench_original__"):
        return

    @functools.wraps(original)
    def post(self, path, payload):
        start = time.perf_counter()
        try:
            return original(self, path, payload)
        finally:
            recorder = RECORDER
            if recorder is not None and path.endswith("/seeds"):
                recorder.sample("lease.upload_rtt_ms", 1000 * (time.perf_counter() - start))

    post.__perfbench_original__ = original
    transport_cls.post = post


def _note_submit(recorder: Recorder, args, result, stack) -> None:
    record, created = result
    if created:
        recorder.sample(f"submitted:{record.job_id}", time.perf_counter())


def _note_claim(recorder: Recorder, args, result, stack) -> None:
    if result is not None:
        recorder.sample(f"claimed:{result.job_id}", time.perf_counter())


def _note_transition(recorder: Recorder, args, result, stack) -> None:
    job_id, state = args[1], args[2]
    if state in ("done", "quarantined", "failed"):
        recorder.sample(f"finished:{job_id}", time.perf_counter())


def _count_revoked(recorder: Recorder, args, result, stack) -> None:
    if result:
        recorder.count("lease.revoked", result)


def _flush_after(recorder: Recorder, args, result, stack) -> None:
    if not stack:
        recorder.flush()


# ----------------------------------------------------------------------
# Pool-task entry points (module level so they pickle by reference)
# ----------------------------------------------------------------------
def _process_recorder() -> Recorder:
    """This process's recorder: a forked pool worker starts a fresh one
    rather than re-flushing what it inherited from its parent."""
    global RECORDER
    if RECORDER.pid != os.getpid():
        RECORDER = Recorder(require_root=False)
    return RECORDER


def traced_task(name: str, fn: Callable, submitted_at: float, *args):
    """Run one pool task under a root span, charging its queue wait,
    then flush this worker's data for the parent to merge."""
    recorder = _process_recorder()
    recorder.sample("pool.wait_s", time.perf_counter() - submitted_at)
    try:
        return recorder.call(name, fn, args, {}, root=True)
    finally:
        recorder.flush()


def traced_run_shard(*args):
    """The local service's shard-pool entry point, as a root span."""
    recorder = _process_recorder()
    try:
        return recorder.call("service.shard", _ORIGINALS["service.shard"], args, {},
                             root=True)
    finally:
        recorder.flush()
