"""The resilient experiment service: durable sweep jobs over HTTP.

The ROADMAP's "experiment service + sharded sweep backend" altitude,
assembled from the substrates the earlier PRs built:

* :mod:`repro.service.state` — content-addressed job identity
  (:func:`job_key`) and the ``queued→running→done/failed/quarantined``
  state machine;
* :mod:`repro.service.store` — the durable SQLite
  :class:`JobStore` (dedup by primary key, atomic claims, crash
  recovery via ``running→queued``);
* :mod:`repro.service.transport` — the :class:`ShardBoard` lease
  table, the one way a shard reaches a worker: claims, idempotent seed
  uploads that double as heartbeats, blame-free revocation of stalled
  external leases, and a per-job
  :class:`~repro.experiments.RetryLedger` (retry/backoff, bisection
  down to quarantined poison seeds — the same ladder the CLI pool
  walks);
* :mod:`repro.service.scheduler` — the :class:`ShardScheduler`, which
  publishes a job's seed-range shards on the board and merges the
  checkpoint into a report bit-identical to a serial run, and
  :class:`OwnedWorkers`, the service's own ``--shard-workers``
  processes (charged and respawned when they crash or wedge);
* :mod:`repro.service.api` — :class:`SweepService`, the stdlib
  ``ThreadingHTTPServer`` front (submit/status/result, shard leases,
  graceful drain, ``--max-jobs`` concurrent dispatch);
* :mod:`repro.service.worker` — the worker
  (``repro worker start --connect``, and every owned worker):
  :class:`WorkerTransport` with explicit timeouts, bounded
  retry/backoff and the injected network chaos, and the
  :class:`ShardWorker` pull-execute-upload loop with graceful SIGTERM
  drain;
* :mod:`repro.service.client` — the urllib :class:`ServiceClient`
  behind ``repro service submit|status|result`` (explicit timeouts,
  bounded retry with backoff on connection failures);
* :mod:`repro.service.fsck` — :func:`fsck_data_dir`, the offline
  auditor behind ``repro service fsck [--repair]``: cross-checks job
  rows, checkpoint files and result blobs, reports every inconsistency
  as a structured finding, and repairs conservatively (prune orphans,
  demote inconsistent jobs to ``queued``) so a restart reconverges.

The robustness contract, enforced by the chaos drills: worker death
(owned or external, ``kill -9``), a wedged worker, service death, network drops,
delays, duplicated uploads, partitions, duplicate submissions and
malformed specs never produce a report that differs from an
uninterrupted serial run — jobs either finish byte-identically or fail
loudly with structured quarantine records.
"""

from .api import SweepService
from .client import ServiceClient, ServiceError
from .fsck import fsck_data_dir
from .scheduler import JobInterrupted, OwnedWorkers, ShardScheduler, lower_job
from .transport import ShardBoard
from .worker import ShardWorker, TransportError, WorkerTransport, worker_main
from .state import (
    DONE,
    FAILED,
    JOB_STATES,
    QUARANTINED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRecord,
    check_transition,
    job_key,
)
from .store import JobStore

__all__ = [
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobInterrupted",
    "JobRecord",
    "JobStore",
    "OwnedWorkers",
    "QUARANTINED",
    "QUEUED",
    "RUNNING",
    "ServiceClient",
    "ServiceError",
    "ShardBoard",
    "ShardScheduler",
    "ShardWorker",
    "SweepService",
    "TERMINAL_STATES",
    "TransportError",
    "WorkerTransport",
    "check_transition",
    "fsck_data_dir",
    "job_key",
    "lower_job",
    "worker_main",
]
