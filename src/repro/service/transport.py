"""The lease board: every shard the service runs is leased over HTTP.

The :class:`ShardBoard` is the service's lease table, and the only way
a job's seeds reach a worker — the service's own workers and external
``repro worker start --connect`` processes alike:

* workers ``POST /shards/claim`` to borrow a shard, and every completed
  seed they ``POST /shards/<id>/seeds`` is appended to the job's
  checkpoint *server-side*, so the durability write doubles as the
  lease renewal;
* retry, backoff, bisection and quarantine are the job's
  :class:`~repro.experiments.RetryLedger` — the same ladder
  :class:`~repro.experiments.WorkerSupervisor` walks for the CLI pool —
  charged with the failure's real kind: ``"error"`` when the worker
  reports the run raised, ``"crash"`` or ``"timeout"`` when the service
  finds one of its own workers dead or wedged (:meth:`ShardBoard.charge`);
* an *external* lease that lands no seed for ``shard_timeout`` seconds
  is revoked and its shard re-queued **blame-free** — a stalled remote
  lease convicts the network or the worker, never the seeds;
* seed uploads are **idempotent**: a seed already durable is never
  appended again, so a duplicated, replayed or post-revocation-stale
  upload is harmless and a revoked lease can never double-count a seed.

The board holds no state worth preserving: kill the service at any
instant and the (job store, checkpoint store) pair on disk is still
sufficient to resume — leases are deliberately *not* durable, because
a restarted service must re-issue them anyway.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from ..experiments import (
    FailedRun,
    RetryLedger,
    RetryPolicy,
    ServiceHalt,
    Shard,
    SweepCheckpoint,
    active_fault_plan,
    result_from_dict,
)
from ..telemetry import default_registry

#: The lease stall timeout when the operator gives none: a dead or
#: partitioned worker must never wedge a job forever.
DEFAULT_LEASE_TIMEOUT = 60.0


class _Lease:
    """One shard currently out with a worker."""

    __slots__ = ("shard_id", "shard", "worker", "last_advance")

    def __init__(self, shard_id: str, shard: Shard, worker: str, now: float):
        self.shard_id = shard_id
        self.shard = shard
        self.worker = worker
        self.last_advance = now


class _BoardJob:
    """Server-side context of one job open for lease."""

    __slots__ = (
        "job_id", "key", "ledger", "lease_doc", "leases", "next_shard", "halted",
    )

    def __init__(
        self, job_id: str, key: str, ledger: RetryLedger, lease_doc: Dict[str, object]
    ) -> None:
        self.job_id = job_id
        self.key = key
        self.ledger = ledger
        #: What every lease of the job tells its worker besides the seeds.
        self.lease_doc = lease_doc
        self.leases: Dict[str, _Lease] = {}
        self.next_shard = 0
        self.halted = False


class ShardBoard:
    """The service's lease table: shards out for claim by workers.

    Thread-safe (HTTP handler threads claim/upload while scheduler and
    supervision threads watch); supports several concurrently open jobs
    — claims drain jobs in open order, so ``--max-jobs`` and any number
    of workers compose.  The checkpoint append inside
    :meth:`record_seed` runs under the board lock, which also serialises
    writers to one job's checkpoint file.

    :attr:`owned` names the service's own workers: their stalled leases
    are not revoked blame-free by :meth:`revoke_stale` — the service
    kills the wedged process and charges the lease (:meth:`charge`)
    instead.
    """

    def __init__(self, checkpoint: SweepCheckpoint) -> None:
        self._checkpoint = checkpoint
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, _BoardJob]" = OrderedDict()
        self.owned: Set[str] = set()
        # Fleet bookkeeping for GET /workers: every worker id the board
        # has ever seen this process lifetime (leases are ephemeral, so
        # this is observability state, never scheduling state).
        self._worker_stats: Dict[str, Dict[str, float]] = {}

    def _stats_for(self, worker: str) -> Dict[str, float]:
        stats = self._worker_stats.get(worker)
        if stats is None:
            stats = {"claims": 0, "seeds_landed": 0, "last_upload": -1.0}
            self._worker_stats[worker] = stats
        return stats

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def open_job(
        self,
        job_id: str,
        spec_json: str,
        repeats: int,
        base_seed: int,
        kernel: Optional[str],
        setup_kernel: Optional[str],
        key: str,
        retry: RetryPolicy,
        shards: List[Tuple[int, ...]],
        done: Set[int],
    ) -> None:
        """Publish one job's missing shards for claim."""
        lease_doc = {
            "job": job_id,
            "spec": spec_json,
            "repeats": repeats,
            "base_seed": base_seed,
            "kernel": kernel,
            "setup_kernel": setup_kernel,
        }
        ledger = RetryLedger(shards, retry, "service", done=done)
        with self._lock:
            self._jobs[job_id] = _BoardJob(job_id, key, ledger, lease_doc)

    def close_job(self, job_id: str) -> None:
        """Withdraw a job (finished, interrupted or halted).  Uploads
        that arrive afterwards report ``known: false`` so stranded
        workers abandon the shard instead of reporting failures."""
        with self._lock:
            self._jobs.pop(job_id, None)

    def job_finished(self, job_id: str) -> bool:
        """Whether every outstanding seed is durable or quarantined."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job is None or job.ledger.finished()

    def job_halted(self, job_id: str) -> bool:
        """Whether a claim of this job hit the chaos harness's
        ``halt_seeds`` fault (the service must die right here)."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job is not None and job.halted

    def take_failures(self, job_id: str) -> List[FailedRun]:
        """The job's quarantine records, seed-ordered."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return []
            return sorted(job.ledger.failures, key=lambda f: f.seed)

    def revoke_stale(self, timeout: float, now: Optional[float] = None) -> int:
        """Revoke every external lease that has landed no seed for
        ``timeout`` seconds and re-queue its shard *blame-free*.
        Returns the number of leases revoked."""
        now = time.monotonic() if now is None else now
        revoked = 0
        with self._lock:
            for job in self._jobs.values():
                for lease in list(job.leases.values()):
                    if lease.worker in self.owned:
                        continue
                    if now - lease.last_advance <= timeout:
                        continue
                    del job.leases[lease.shard_id]
                    job.ledger.release(lease.shard, now)
                    revoked += 1
        if revoked:
            default_registry().inc("service.leases.revoked", revoked)
        return revoked

    def stalled(self, worker: str, timeout: float) -> bool:
        """Whether ``worker`` holds a lease that has landed no seed for
        ``timeout`` seconds."""
        now = time.monotonic()
        with self._lock:
            return any(
                lease.worker == worker and now - lease.last_advance > timeout
                for job in self._jobs.values()
                for lease in job.leases.values()
            )

    def charge(self, worker: str, kind: str, error: str) -> None:
        """Fail every lease ``worker`` holds with ``kind`` (the service
        found its own worker dead or wedged)."""
        now = time.monotonic()
        with self._lock:
            for job in self._jobs.values():
                for lease in list(job.leases.values()):
                    if lease.worker == worker:
                        del job.leases[lease.shard_id]
                        job.ledger.fail(lease.shard, kind, error, now)

    def progress(self, job_id: str) -> Optional[Dict[str, object]]:
        """The live-progress document the status endpoint serves."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            ledger = job.ledger
            return {
                "seeds_done": len(ledger.done & ledger.seeds),
                "seeds_total": len(ledger.seeds),
                "shards": [
                    {
                        "seeds": len(lease.shard.seeds),
                        "done": len(ledger.done.intersection(lease.shard.seeds)),
                        "attempt": lease.shard.attempt,
                        "worker": lease.worker,
                    }
                    for lease in job.leases.values()
                ],
                "pending_shards": ledger.pending,
                "workers": sorted({l.worker for l in job.leases.values()}),
            }

    def workers(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """The fleet summary behind ``GET /workers``: one entry per
        worker id the board has seen, with currently-held shards and
        upload recency (``seconds_since_upload`` is ``None`` for a
        worker that has claimed but never landed a seed)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            held: Dict[str, int] = {}
            for job in self._jobs.values():
                for lease in job.leases.values():
                    held[lease.worker] = held.get(lease.worker, 0) + 1
            summary = []
            for worker in sorted(self._worker_stats):
                stats = self._worker_stats[worker]
                last = stats["last_upload"]
                summary.append(
                    {
                        "worker": worker,
                        "claims": int(stats["claims"]),
                        "shards_held": held.get(worker, 0),
                        "seeds_landed": int(stats["seeds_landed"]),
                        "seconds_since_upload": (
                            None if last < 0 else round(now - last, 3)
                        ),
                    }
                )
        return summary

    # ------------------------------------------------------------------
    # Worker side (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def claim(self, worker: str, now: Optional[float] = None) -> Optional[Dict[str, object]]:
        """Lease the next ready shard to ``worker``, or ``None``.

        Seeds that became durable since the shard was queued are
        filtered out of the lease — a re-queued or bisected shard only
        ever costs its still-missing seeds.
        """
        now = time.monotonic() if now is None else now
        plan = active_fault_plan()
        with self._lock:
            for job in self._jobs.values():
                if job.halted:
                    continue
                shard = job.ledger.claim(now)
                if shard is None:
                    continue
                if plan is not None:
                    try:
                        # The kill -9 stand-in fires as a shard is
                        # dispatched; the job's scheduler raises it.
                        plan.before_shard(shard.seeds)
                    except ServiceHalt:
                        job.halted = True
                        job.ledger.release(shard, now)
                        continue
                job.next_shard += 1
                shard_id = f"{job.job_id[:12]}.{job.next_shard}"
                job.leases[shard_id] = _Lease(shard_id, shard, worker, now)
                self._stats_for(worker)["claims"] += 1
                default_registry().inc("service.leases.granted")
                return {
                    **job.lease_doc,
                    "shard": shard_id,
                    "seeds": list(shard.seeds),
                    "attempt": shard.attempt,
                }
        return None

    def record_seed(
        self,
        job_id: str,
        shard_id: str,
        worker: str,
        seed: int,
        result_doc: Dict[str, object],
    ) -> Dict[str, object]:
        """One uploaded seed result: append-if-new, renew the lease.

        The append is the durability write *and* the heartbeat; a seed
        already settled is never appended again (``duplicate: true``),
        and an upload against a revoked lease is still accepted (the
        result is deterministic, the bytes are the same) but marked
        ``stale: true`` and renews nothing.
        """
        # Parse outside the lock: a malformed document must not poison
        # the board, and ValueError/KeyError surface as a 400 upstream.
        result = result_from_dict(result_doc)
        registry = default_registry()
        with self._lock:
            stats = self._stats_for(worker)
            stats["last_upload"] = time.monotonic()
            job = self._jobs.get(job_id)
            if job is None:
                registry.inc("service.uploads.unknown")
                return {"accepted": False, "known": False}
            duplicate = job.ledger.settled(seed)
            if not duplicate:
                self._checkpoint.append(job.key, seed, result)
                job.ledger.land(seed)
                stats["seeds_landed"] += 1
            lease = job.leases.get(shard_id)
            stale = lease is None or lease.worker != worker
            if not stale:
                lease.last_advance = time.monotonic()
                if not job.ledger.missing(lease.shard.seeds):
                    del job.leases[shard_id]
                    job.ledger.release(lease.shard, lease.last_advance)
        registry.inc(
            "service.uploads.duplicate" if duplicate else "service.uploads.accepted"
        )
        if stale:
            registry.inc("service.uploads.stale")
        return {
            "accepted": not duplicate,
            "known": True,
            "duplicate": duplicate,
            "stale": stale,
        }

    def _end_lease(
        self, job_id: str, shard_id: str, worker: str
    ) -> Tuple[Optional[_BoardJob], Optional[_Lease]]:
        """Remove ``worker``'s lease ``shard_id`` (caller holds the
        lock); ``(None, None)`` for an unknown job, ``(job, None)`` for
        a lease revoked in the meantime."""
        job = self._jobs.get(job_id)
        if job is None:
            return None, None
        lease = job.leases.get(shard_id)
        if lease is None or lease.worker != worker:
            return job, None
        del job.leases[shard_id]
        return job, lease

    def fail_shard(
        self, job_id: str, shard_id: str, worker: str, error: str
    ) -> Dict[str, object]:
        """A worker-reported shard failure (the run raised): charge the
        shard an ``"error"`` attempt on the job's ledger."""
        with self._lock:
            job, lease = self._end_lease(job_id, shard_id, worker)
            if job is None:
                return {"known": False}
            if lease is None:
                # Revoked in the meantime: the shard is already queued
                # again, charging it would blame it twice.
                return {"known": True, "stale": True}
            job.ledger.fail(lease.shard, "error", error, time.monotonic())
        return {"known": True, "stale": False}

    def release_shard(
        self, job_id: str, shard_id: str, worker: str
    ) -> Dict[str, object]:
        """A worker handing its lease back voluntarily (graceful
        drain): re-queue the remainder blame-free, immediately."""
        with self._lock:
            job, lease = self._end_lease(job_id, shard_id, worker)
            if job is None:
                return {"known": False}
            if lease is None:
                return {"known": True, "stale": True}
            job.ledger.release(lease.shard, time.monotonic())
        default_registry().inc("service.leases.released")
        return {"known": True, "stale": False}

    def complete_shard(
        self, job_id: str, shard_id: str, worker: str
    ) -> Dict[str, object]:
        """A worker declaring its shard done (all seeds uploaded).  The
        last accepted upload usually released the lease already; this
        closes the loop when every seed was deduped away instead (any
        seed still missing is re-queued blame-free)."""
        with self._lock:
            job, lease = self._end_lease(job_id, shard_id, worker)
            if lease is not None:
                job.ledger.release(lease.shard, time.monotonic())
            return {"known": job is not None}
