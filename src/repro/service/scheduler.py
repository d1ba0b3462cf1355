"""The shard scheduler, and the service's own shard workers.

A job's seed range is split into contiguous *shards*
(:func:`~repro.experiments.seed_chunks` — the same balanced partition
the parallel runner uses) and published on the service's
:class:`~repro.service.transport.ShardBoard`.  Workers lease shards
over HTTP, run them and upload every completed seed, which the board
appends to the job's :class:`~repro.experiments.SweepCheckpoint`:

* :class:`ShardScheduler` opens a job on the board, revokes stalled
  external leases blame-free, and merges the checkpoint into the job's
  report — bit-identical to an uninterrupted serial sweep, because
  every run re-seeds from scratch (the chaos drills assert it
  literally);
* :class:`OwnedWorkers` are the service's own ``--shard-workers``:
  ordinary :func:`~repro.service.worker.worker_main` processes, started
  with ``spawn`` (never ``fork`` — the service is threaded), that lease
  from the same board as any external worker.  One that exits holding
  a lease has it charged ``"crash"``; one whose lease stalls past the
  shard timeout is killed and charged ``"timeout"``; either way it is
  respawned.

Retry, backoff, bisection and quarantine are the board's
:class:`~repro.experiments.RetryLedger`.  The scheduler itself holds no
job state worth preserving: kill the process at any instant and the
(job store, checkpoint store) pair on disk is sufficient to resume.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..app import OperationalResult
from ..errors import invalid_field, sweep_failed
from ..experiments import (
    ExperimentConfig,
    FailedRun,
    RetryPolicy,
    ServiceHalt,
    SweepCheckpoint,
    configure_schedule_cache,
    seed_chunks,
)
from ..metrics import (
    capture_stats,
    first_capture_stats,
    per_source_capture_stats,
)
from ..scenarios import ScenarioOutcome, ScenarioSpec
from ..telemetry import default_registry
from ..topology import Topology
from .state import job_key
from .transport import DEFAULT_LEASE_TIMEOUT, ShardBoard

#: Shards a job's missing seeds are split into by default: enough slack
#: that one slow shard does not straggle the whole job.
DEFAULT_SHARDS_PER_JOB = 4

#: Seconds a draining owned worker gets to finish its seed in flight
#: before it is killed (a wedged one ignores SIGTERM).
DRAIN_GRACE_S = 5.0


class JobInterrupted(Exception):
    """The scheduler was asked to stop mid-job (graceful drain).

    The job's finished seeds are all in the checkpoint; the caller
    re-queues the job so the next service start finishes the rest.
    """


def lower_job(
    spec: ScenarioSpec,
    repeats: Optional[int] = None,
    base_seed: Optional[int] = None,
    kernel: Optional[str] = None,
    setup_kernel: Optional[str] = None,
) -> Tuple[Topology, ExperimentConfig]:
    """Lower a job's spec + knobs to ``(topology, config)``.

    One function used by the scheduler, the shard workers and the
    submit-time validator, so all three agree byte-for-byte with what
    ``ScenarioRunner.run`` would have executed directly — the
    byte-identity contract starts here.
    """
    topology = spec.build_topology()
    config = spec.to_config(repeats=repeats, base_seed=base_seed)
    if kernel is not None or setup_kernel is not None:
        config = replace(config, kernel=kernel, setup_kernel=setup_kernel)
    return topology, config


def _run_shard(*args: object) -> None:
    """Retired: shards no longer run on a private process pool.

    The name survives only because ``perfbench/probes.py`` (frozen with
    the benchmark's definition) patches it when tracing; drop it with
    the next change to the benchmark.
    """
    raise NotImplementedError("shards run on lease-board workers")


def merge_outcome(
    spec: ScenarioSpec,
    topology: Topology,
    config: ExperimentConfig,
    on_disk: Dict[int, OperationalResult],
    seeds: List[int],
    failures: List[FailedRun],
    max_attempts: int,
) -> ScenarioOutcome:
    """Seed-ordered reassembly of the checkpointed results ``on_disk``
    into the same :class:`~repro.scenarios.ScenarioOutcome` a direct
    ``ScenarioRunner.run`` builds — the report bytes cannot tell the
    difference, which is the whole point."""
    quarantined = {f.seed for f in failures}
    survivors = [s for s in seeds if s not in quarantined]
    lost = [s for s in survivors if s not in on_disk]
    if lost:
        raise sweep_failed(
            "ShardScheduler",
            seeds=lost,
            attempts=max_attempts,
            detail="seeds neither checkpointed nor quarantined",
        )
    results = tuple(on_disk[s] for s in survivors)
    if not results:
        raise sweep_failed(
            "ShardScheduler",
            seeds=[f.seed for f in failures] or seeds,
            attempts=max((f.attempts for f in failures), default=0),
            detail=failures[0].error if failures else "no seeds executed",
        )
    return ScenarioOutcome(
        spec=spec,
        topology_name=topology.name,
        config=config,
        results=results,
        stats=capture_stats(results),
        per_source=per_source_capture_stats(results),
        first_capture=first_capture_stats(results),
        failures=tuple(failures),
        guard=None,
    )


class ShardScheduler:
    """Executes one job through the workers leasing from a board.

    Parameters
    ----------
    data_dir:
        The service's data directory; the per-seed checkpoint store
        lives under ``<data_dir>/checkpoints``.
    board:
        The lease board the job's shards are published on.
    shards_per_job:
        How many shards to split a job's missing seeds into (default
        :data:`DEFAULT_SHARDS_PER_JOB`).
    retry:
        Backoff schedule for shard retries (default
        :class:`~repro.experiments.RetryPolicy`\\ ()).
    shard_timeout:
        Seconds an external lease may go *without landing a seed*
        before it is revoked blame-free (default
        :data:`~repro.service.transport.DEFAULT_LEASE_TIMEOUT`).  This
        is a stall timeout, not a total-duration cap.
    poll_interval:
        The supervision loop's tick (seconds).
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        board: ShardBoard,
        shards_per_job: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> None:
        if shard_timeout is not None and shard_timeout <= 0:
            raise invalid_field(
                "ShardScheduler", "shard_timeout", shard_timeout,
                "the lease timeout must be positive",
            )
        if shards_per_job is not None and shards_per_job < 1:
            raise invalid_field(
                "ShardScheduler", "shards_per_job", shards_per_job,
                "a job needs at least one shard",
            )
        self._checkpoint = SweepCheckpoint(Path(data_dir) / "checkpoints")
        self._board = board
        self._shards_per_job = shards_per_job or DEFAULT_SHARDS_PER_JOB
        self._retry = retry if retry is not None else RetryPolicy()
        self._lease_timeout = (
            shard_timeout if shard_timeout is not None else DEFAULT_LEASE_TIMEOUT
        )
        self._poll = poll_interval

    # ------------------------------------------------------------------
    def run_job(
        self,
        spec: ScenarioSpec,
        repeats: Optional[int] = None,
        base_seed: Optional[int] = None,
        kernel: Optional[str] = None,
        setup_kernel: Optional[str] = None,
        stop=None,
        on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> ScenarioOutcome:
        """Run one job to completion (or quarantine) and merge its report.

        ``stop`` is an optional ``threading.Event``: once set,
        :class:`JobInterrupted` is raised — the graceful drain path
        (finished seeds are already durable).  ``on_progress`` receives
        the board's progress document, which the HTTP status endpoint
        serves.
        """
        topology, config = lower_job(spec, repeats, base_seed, kernel, setup_kernel)
        key = self._checkpoint.key_for(topology, config)
        seeds = [config.base_seed + i for i in range(config.repeats)]
        default_registry().gauge("service.job.seeds_total", len(seeds))

        # Two passes at most: a seed can land while its checkpoint line
        # was silently corrupted (a lying disk — the chaos drill's
        # ``corrupt_checkpoint_seeds``); the line digest makes the
        # loader drop it, so a seed still missing after the first pass
        # gets one recovery pass before the merge may fail the job.
        done = self._checkpoint.load(key)
        failures: List[FailedRun] = []
        for recovery in (False, True):
            quarantined = {f.seed for f in failures}
            missing = [s for s in seeds if s not in done and s not in quarantined]
            if not missing:
                break
            if recovery:
                default_registry().inc("service.recovery_passes")
            failures += self._lease_out(
                spec, config, key, missing, set(done),
                kernel, setup_kernel, stop, on_progress,
            )
            done = self._checkpoint.load(key)
        failures.sort(key=lambda f: f.seed)
        return merge_outcome(
            spec, topology, config, done, seeds, failures,
            self._retry.max_attempts,
        )

    def _lease_out(
        self,
        spec: ScenarioSpec,
        config: ExperimentConfig,
        key: str,
        missing: List[int],
        done: Set[int],
        kernel: Optional[str],
        setup_kernel: Optional[str],
        stop,
        on_progress,
    ) -> List[FailedRun]:
        registry = default_registry()
        shards = [
            chunk
            for chunk in seed_chunks(missing, self._shards_per_job)
            if chunk
        ]
        job_id = job_key(spec, config.repeats, config.base_seed, kernel, setup_kernel)
        registry.inc("service.shards", len(shards))
        self._board.open_job(
            job_id, spec.to_json(indent=None), config.repeats,
            config.base_seed, kernel, setup_kernel, key,
            self._retry, shards, done,
        )
        try:
            while not self._board.job_finished(job_id):
                if self._board.job_halted(job_id):
                    raise ServiceHalt(f"injected service halt in job {job_id[:12]}")
                if stop is not None and stop.is_set():
                    raise JobInterrupted("service drain requested")
                self._board.revoke_stale(self._lease_timeout)
                progress = self._board.progress(job_id)
                if progress is not None:
                    registry.gauge(
                        "service.job.seeds_done", progress["seeds_done"]
                    )
                    registry.gauge(
                        "service.job.shards_active", len(progress["shards"])
                    )
                    if on_progress is not None:
                        on_progress(progress)
                time.sleep(self._poll)
            return self._board.take_failures(job_id)
        finally:
            self._board.close_job(job_id)


def _owned_worker(
    base_url: str,
    worker_id: str,
    token: Optional[str],
    schedule_store: Optional[str],
) -> None:
    """An owned worker process's body: attach the service's schedule
    store, then run the ordinary worker loop — exiting at once if the
    service dies (``kill -9`` leaves no one to stop an orphan)."""
    from .worker import worker_main  # worker imports this module

    def exit_with_parent() -> None:
        multiprocessing.parent_process().join()
        os._exit(0)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    if schedule_store is not None:
        configure_schedule_cache(store=schedule_store)
    worker_main(base_url, worker_id=worker_id, token=token)


class OwnedWorkers:
    """The service's own shard workers (``service start --shard-workers``).

    Each is a :func:`~repro.service.worker.worker_main` process started
    with the ``spawn`` method and given the service's token and
    schedule store; it claims, runs and uploads exactly like an
    external worker.  :meth:`supervise` (called on the service's
    dispatcher tick) is the only special treatment they get, because
    the service can see and kill its own processes:

    * a worker that has exited is charged ``"crash"`` on every lease it
      held and respawned;
    * a worker holding a lease that landed no seed for ``shard_timeout``
      seconds is killed, charged ``"timeout"`` and respawned.
    """

    def __init__(
        self,
        board: ShardBoard,
        count: int,
        shard_timeout: float,
        token: Optional[str] = None,
        schedule_store: Optional[str] = None,
    ) -> None:
        self._board = board
        self._timeout = shard_timeout
        self._token = token
        self._schedule_store = schedule_store
        self._context = multiprocessing.get_context("spawn")
        self._ids = [f"local-{slot}" for slot in range(count)]
        self._processes: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * count
        self._url: Optional[str] = None
        self._lock = threading.Lock()
        board.owned.update(self._ids)

    @property
    def pids(self) -> List[int]:
        """Process ids of the live workers."""
        return [p.pid for p in self._processes if p is not None and p.is_alive()]

    def start(self, base_url: str) -> None:
        """Spawn every worker against the service at ``base_url``."""
        self._url = base_url
        for slot in range(len(self._ids)):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        process = self._context.Process(
            target=_owned_worker,
            args=(self._url, self._ids[slot], self._token, self._schedule_store),
            name=self._ids[slot],
            daemon=True,
        )
        process.start()
        self._processes[slot] = process

    def supervise(self) -> None:
        """Charge and respawn dead or wedged workers (see the class
        docstring)."""
        with self._lock:
            if self._url is not None:
                self._reap()

    def _reap(self) -> None:
        for slot, worker in enumerate(self._ids):
            process = self._processes[slot]
            if process.is_alive():
                if not self._board.stalled(worker, self._timeout):
                    continue
                process.kill()
                process.join()
                kind, error = "timeout", f"no seed landed in {self._timeout}s"
            else:
                process.join()
                kind, error = "crash", f"worker exited with code {process.exitcode}"
            self._board.charge(worker, kind, error)
            default_registry().inc("service.respawns")
            self._spawn(slot)

    def stop(self) -> None:
        """Drain every worker (SIGTERM: finish the seed in flight,
        release the lease), kill any still running after
        :data:`DRAIN_GRACE_S`, and reap them all.  No respawns
        afterwards."""
        with self._lock:
            self._url = None
            processes = [p for p in self._processes if p is not None]
            for process in processes:
                if process.is_alive():
                    process.terminate()
            deadline = time.monotonic() + DRAIN_GRACE_S
            for process in processes:
                process.join(max(deadline - time.monotonic(), 0.0))
                if process.is_alive():
                    process.kill()
                    process.join()
