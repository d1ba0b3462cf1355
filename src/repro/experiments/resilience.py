"""Fault-tolerant sweep execution: retries, checkpoints, divergence guard.

The parallel sweep engine's original failure story was all-or-nothing:
one crashed or hung pool worker aborted the whole sweep and threw away
every completed seed.  This module gives the experiment layer the same
degrade-gracefully-or-fail-loudly discipline the paper demands of its
setup phase, in four pieces:

:class:`WorkerSupervisor`
    Drives per-chunk futures with a configurable timeout, retries
    failed or hung chunks with exponential backoff and deterministic
    jitter (:class:`RetryPolicy`), has broken pools respawned, splits a
    repeatedly failing chunk to isolate poison seeds, and — instead of
    aborting — quarantines unrecoverable seeds as structured
    :class:`FailedRun` entries.  A sweep in which nothing fails is
    byte-identical to the pre-supervision engine.

:class:`SweepCheckpoint`
    An append-only on-disk store of completed per-seed results, keyed
    by a content digest of (topology fingerprint, canonicalised
    config).  An interrupted sweep resumed from its checkpoint re-runs
    only the missing seeds, and the merged report is bit-identical to
    an uninterrupted run (every run re-seeds from scratch, so result
    values cannot depend on which process executed them or when).

:func:`apply_divergence_guard`
    The runtime net under the fast kernels' compile-time gates: re-run
    a deterministic sample of a sweep's seeds on the legacy engines
    and compare results.  On mismatch it writes a reproducer bundle
    (topology fingerprint, seed, config, both results) and *degrades*
    the sweep to the legacy kernel instead of emitting silently wrong
    data.

:class:`FailedRun` / :class:`GuardReport`
    The structured records surfaced on
    :class:`~repro.experiments.ExperimentOutcome` (and from there in
    scenario reports) so partial results are always labelled as such.

The fault points the chaos tests drive through this machinery live in
:mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from concurrent.futures import BrokenExecutor, CancelledError, Future
from dataclasses import asdict, dataclass, replace
from hashlib import sha256
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..app import OperationalResult
from ..errors import invalid_field
from ..storage import atomic_write_text, durable_append
from ..telemetry import absorb_worker_payload, active_tracer, default_registry
from .faults import active_fault_plan
from .schedule_cache import ScheduleCache, topology_fingerprint

#: Divergence-guard modes accepted by ``run_resilient``/the CLI.
GUARD_DIFFERENTIAL = "differential"
GUARD_MODES = (GUARD_DIFFERENTIAL,)

#: Checkpoint on-disk format version; part of every store key so a
#: format change can never silently merge with old entries.
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt, key)`` grows as ``base_delay * 2**(attempt-1)``,
    capped at ``max_delay``, scaled by a jitter factor in ``[0.5, 1.0)``
    drawn from ``(seed, attempt, key)`` — deterministic, so a retried
    sweep sleeps the same amount every time it is replayed (no
    wall-clock enters any result, but reproducible chaos tests want
    reproducible schedules too).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise invalid_field(
                "RetryPolicy", "max_attempts", self.max_attempts,
                "a chunk must be attempted at least once",
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise invalid_field(
                "RetryPolicy", "base_delay", self.base_delay,
                "delays cannot be negative",
            )

    def delay(self, attempt: int, key: int = 0) -> float:
        """The back-off before retrying after failed ``attempt``."""
        raw = min(self.base_delay * (2 ** max(attempt - 1, 0)), self.max_delay)
        jitter = random.Random(f"{self.seed}:{attempt}:{key}").random()
        return raw * (0.5 + 0.5 * jitter)


# ----------------------------------------------------------------------
# Structured failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailedRun:
    """One quarantined seed: every recovery avenue was exhausted.

    Attributes
    ----------
    seed:
        The seed whose run never completed.
    attempts:
        Attempts made at the final (single-seed) isolation level.
    kind:
        ``"crash"`` (worker death broke the pool), ``"timeout"`` (hung
        past the chunk timeout), ``"error"`` (the run raised), or
        ``"submit"`` (the chunk could not even be dispatched, e.g. a
        pickling failure).
    error:
        ``TypeName: message`` of the last observed exception.
    """

    seed: int
    attempts: int
    kind: str
    error: str


@dataclass(frozen=True)
class GuardReport:
    """What the kernel-divergence guard saw on one sweep.

    ``degraded`` means a mismatch was found and the reported results
    were re-computed on the legacy engines; ``bundle_path`` then names
    the reproducer bundle written for the kernel bug hunt.
    """

    mode: str
    sampled_seeds: Tuple[int, ...]
    mismatched_seeds: Tuple[int, ...]
    degraded: bool
    bundle_path: Optional[str] = None


# ----------------------------------------------------------------------
# The retry ledger
# ----------------------------------------------------------------------
class Shard:
    """A run of seeds queued for, or out on, one (re-)execution attempt."""

    __slots__ = ("seeds", "attempt", "ready_at")

    def __init__(
        self, seeds: Tuple[int, ...], attempt: int = 1, ready_at: float = 0.0
    ) -> None:
        self.seeds = seeds
        self.attempt = attempt
        self.ready_at = ready_at


class RetryLedger:
    """The one retry → bisect → quarantine ladder, as pure bookkeeping.

    Every seed of a sweep is *pending* (in a queued :class:`Shard`),
    *leased* (in a shard a caller took with :meth:`claim`), *done* or
    *quarantined*.  The ledger never reads a clock and never runs
    anything: callers pass ``now`` in and execute the shards it hands
    out.  Two callers share it — :class:`WorkerSupervisor` (metric scope
    ``supervisor``) and the service's lease board (scope ``service``) —
    so a failure walks the same ladder however the seeds travelled:

    * :meth:`fail` with attempts left re-queues the still-missing seeds
      one attempt later, ready after the :class:`RetryPolicy` backoff;
    * out of attempts, a multi-seed shard is *bisected* — its
      still-missing seeds split into two fresh halves (suspects, not
      convicts), so repeated failures isolate the poison seed;
    * a single seed out of attempts is *quarantined* as a
      :class:`FailedRun`.

    :meth:`release` hands a shard back blame-free (revoked, drained or
    innocent) at the same attempt.  Only a shard currently leased can be
    failed or released, so a stale report never charges twice, and a
    seed lands at most once, so a late upload never double-counts.
    """

    def __init__(
        self,
        shards: Sequence[Sequence[int]],
        retry: RetryPolicy,
        scope: str,
        done: Sequence[int] = (),
    ) -> None:
        self._retry = retry
        self._scope = scope
        self._pending: Deque[Shard] = deque(
            Shard(tuple(seeds)) for seeds in shards if seeds
        )
        self._leased: Set[Shard] = set()
        self.seeds = frozenset(s for shard in self._pending for s in shard.seeds)
        self.done: Set[int] = set(done)
        self.quarantined: Set[int] = set()
        self.failures: List[FailedRun] = []

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Shards queued for (re-)execution."""
        return len(self._pending)

    def settled(self, seed: int) -> bool:
        """Whether ``seed`` is done or quarantined."""
        return seed in self.done or seed in self.quarantined

    def missing(self, seeds: Sequence[int]) -> Tuple[int, ...]:
        """The seeds of ``seeds`` that are neither done nor quarantined."""
        return tuple(s for s in seeds if not self.settled(s))

    def finished(self) -> bool:
        """Whether every seed is done or quarantined."""
        return all(self.settled(s) for s in self.seeds)

    def next_ready(self) -> Optional[float]:
        """When the earliest queued shard comes off backoff (``None``
        with nothing queued)."""
        return min((shard.ready_at for shard in self._pending), default=None)

    # ------------------------------------------------------------------
    def claim(self, now: float) -> Optional[Shard]:
        """Lease the next shard ready at ``now``, narrowed to its
        still-missing seeds (a shard satisfied while queued is dropped),
        or ``None``."""
        for _ in range(len(self._pending)):
            shard = self._pending.popleft()
            if shard.ready_at > now:
                self._pending.append(shard)
                continue
            shard.seeds = self.missing(shard.seeds)
            if shard.seeds:
                self._leased.add(shard)
                return shard
        return None

    def land(self, seed: int) -> bool:
        """Record ``seed`` as done; ``False`` if it was already settled."""
        if self.settled(seed):
            return False
        self.done.add(seed)
        return True

    def release(self, shard: Shard, now: float) -> None:
        """Hand a leased shard back blame-free: its still-missing seeds
        are queued again at the same attempt, ready at once."""
        if shard not in self._leased:
            return
        self._leased.discard(shard)
        missing = self.missing(shard.seeds)
        if missing:
            self._pending.append(Shard(missing, shard.attempt, now))

    def fail(self, shard: Shard, kind: str, error: str, now: float) -> None:
        """Charge a leased shard one failed attempt of ``kind``
        (``"error"``, ``"crash"``, ``"timeout"`` or ``"submit"``) and
        walk the ladder over its still-missing seeds."""
        if shard not in self._leased:
            return
        self._leased.discard(shard)
        missing = self.missing(shard.seeds)
        if not missing:
            return
        registry = default_registry()
        tracer = active_tracer()
        if kind == "timeout":
            registry.inc(f"{self._scope}.timeouts")
        if shard.attempt < self._retry.max_attempts:
            registry.inc(f"{self._scope}.retries")
            if tracer is not None:
                tracer.instant(
                    "chunk.retry", seeds=list(missing), attempt=shard.attempt, kind=kind
                )
            delay = self._retry.delay(shard.attempt, key=missing[0])
            self._pending.append(Shard(missing, shard.attempt + 1, now + delay))
            return
        if len(missing) > 1:
            registry.inc(f"{self._scope}.bisections")
            if tracer is not None:
                tracer.instant("chunk.bisect", seeds=list(missing))
            mid = len(missing) // 2
            self._pending.append(Shard(missing[:mid], 1, now))
            self._pending.append(Shard(missing[mid:], 1, now))
            return
        registry.inc(f"{self._scope}.quarantined")
        if tracer is not None:
            tracer.instant("chunk.quarantine", seed=missing[0], kind=kind)
        self.quarantined.add(missing[0])
        self.failures.append(
            FailedRun(seed=missing[0], attempts=shard.attempt, kind=kind, error=error)
        )


def describe_error(exc: BaseException) -> str:
    """``TypeName: message`` — how a failure is recorded on a ledger."""
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
class WorkerSupervisor:
    """Supervised gather of chunked seed runs over a worker pool.

    The supervisor owns *mechanism*: ``submit(seeds) -> Future``
    dispatches one chunk to the current pool, and ``respawn(kill)``
    discards a broken or hung pool so the next ``submit`` gets a fresh
    one (``kill=True`` additionally terminates the pool's processes —
    the only way to reclaim a hung worker).  *Policy* — retry, backoff,
    bisection, quarantine — is the :class:`RetryLedger`'s.

    Each round submits every chunk that is off backoff and blocks on
    their futures in turn:

    * a chunk future raising an ordinary exception is charged
      ``"error"``;
    * a broken pool (worker death) is respawned; the observed chunk
      *and every other unfinished in-flight chunk* are charged
      ``"crash"``, because the culprit cannot be identified — with one
      deterministic crasher this converges to isolating it, at worst
      quarantining the seeds that shared its rounds;
    * a chunk exceeding ``chunk_timeout`` has the pool killed and is
      charged ``"timeout"``; other in-flight chunks are released without
      blame (their worker was murdered, not wedged).

    Results are keyed by seed, so completion order — reshuffled by
    every retry — cannot affect the reassembled sweep.
    """

    def __init__(
        self,
        submit: Callable[[Tuple[int, ...]], Future],
        respawn: Callable[[bool], None],
        retry: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise invalid_field(
                "WorkerSupervisor", "chunk_timeout", chunk_timeout,
                "a timeout must be positive (None disables it)",
            )
        self._submit = submit
        self._respawn = respawn
        self._retry = retry if retry is not None else RetryPolicy()
        self._chunk_timeout = chunk_timeout
        self._on_result = on_result
        self._sleep = sleep
        self._plan = active_fault_plan()

    def execute(
        self, chunks: Sequence[Tuple[int, ...]]
    ) -> Tuple[Dict[int, OperationalResult], Tuple[FailedRun, ...]]:
        """Run every chunk to completion or quarantine.

        Returns results keyed by seed plus the quarantine records,
        ordered by seed.
        """
        results: Dict[int, OperationalResult] = {}
        ledger = RetryLedger(chunks, self._retry, "supervisor")
        while True:
            now = time.monotonic()
            batch: List[Shard] = []
            shard = ledger.claim(now)
            while shard is not None:
                batch.append(shard)
                shard = ledger.claim(now)
            if not batch:
                ready_at = ledger.next_ready()
                if ready_at is None:
                    break
                self._sleep(max(ready_at - now, 0.0))
                continue

            in_flight: List[Tuple[Shard, Future]] = []
            for shard in batch:
                future = self._try_submit(shard, ledger)
                if future is not None:
                    in_flight.append((shard, future))

            pool_dead = False
            blame_rest = False
            for shard, future in in_flight:
                if pool_dead:
                    # The pool died earlier in this round.  Harvest
                    # chunks that had already finished; charge the rest
                    # an attempt only when worker death left the
                    # culprit unidentifiable.
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        self._harvest(shard, future.result(), results, ledger)
                    elif blame_rest:
                        ledger.fail(
                            shard, "crash", "BrokenExecutor: pool broke mid-round",
                            time.monotonic(),
                        )
                    else:
                        ledger.release(shard, time.monotonic())
                    continue
                try:
                    chunk_results = future.result(timeout=self._chunk_timeout)
                except CancelledError:
                    ledger.release(shard, time.monotonic())
                except BrokenExecutor as exc:
                    pool_dead = True
                    blame_rest = True
                    self._note_respawn(False)
                    ledger.fail(shard, "crash", describe_error(exc), time.monotonic())
                except TimeoutError as exc:
                    pool_dead = True
                    self._note_respawn(True)
                    ledger.fail(shard, "timeout", describe_error(exc), time.monotonic())
                except Exception as exc:
                    ledger.fail(shard, "error", describe_error(exc), time.monotonic())
                else:
                    self._harvest(shard, chunk_results, results, ledger)

        return results, tuple(sorted(ledger.failures, key=lambda f: f.seed))

    # ------------------------------------------------------------------
    def _try_submit(self, shard: Shard, ledger: RetryLedger) -> Optional[Future]:
        try:
            if self._plan is not None:
                self._plan.before_submit(shard.seeds)
            future = self._submit(shard.seeds)
        except BrokenExecutor as exc:
            self._note_respawn(False)
            ledger.fail(shard, "crash", describe_error(exc), time.monotonic())
            return None
        except Exception as exc:
            ledger.fail(shard, "submit", describe_error(exc), time.monotonic())
            return None
        default_registry().inc("supervisor.chunks")
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "chunk.dispatch", seeds=list(shard.seeds), attempt=shard.attempt
            )
        return future

    def _note_respawn(self, kill: bool) -> None:
        default_registry().inc("supervisor.respawns")
        self._respawn(kill)

    def _harvest(
        self,
        shard: Shard,
        chunk_results: Sequence[OperationalResult],
        results: Dict[int, OperationalResult],
        ledger: RetryLedger,
    ) -> None:
        payload = getattr(chunk_results, "telemetry", None)
        if payload is not None:
            # A telemetry-enabled worker shipped its spans and metrics
            # with the chunk; merge them onto the parent's timeline.
            absorb_worker_payload(payload)
        for seed, result in zip(shard.seeds, chunk_results):
            ledger.land(seed)
            results[seed] = result
            if self._on_result is not None:
                self._on_result(seed, result)
        ledger.release(shard, time.monotonic())


# ----------------------------------------------------------------------
# Result (de)serialisation — the checkpoint store's line format
# ----------------------------------------------------------------------
def result_to_dict(result: OperationalResult) -> Dict[str, object]:
    """An :class:`OperationalResult` as JSON-ready primitives."""
    return asdict(result)


def encode_checkpoint_line(seed: int, result: OperationalResult) -> str:
    """One seed's checkpoint record: the JSON entry plus a ``check``
    digest over its canonical serialisation, so corruption *at rest*
    (bit rot, a lying disk) is detectable — not just torn writes."""
    entry = {"result": result_to_dict(result), "seed": seed}
    body = json.dumps(entry, sort_keys=True)
    check = sha256(body.encode()).hexdigest()[:16]
    entry["check"] = check
    return json.dumps(entry, sort_keys=True)


def decode_checkpoint_line(line: str) -> Tuple[int, OperationalResult]:
    """Invert :func:`encode_checkpoint_line`, verifying the digest.

    Raises ``ValueError``/``KeyError``/``TypeError`` for malformed or
    digest-mismatched lines (pre-digest lines, which carry no ``check``
    field, are accepted — old checkpoints stay resumable).
    """
    entry = json.loads(line)
    check = entry.pop("check", None)
    if check is not None:
        body = json.dumps(entry, sort_keys=True)
        if sha256(body.encode()).hexdigest()[:16] != check:
            raise ValueError("checkpoint line digest mismatch")
    return int(entry["seed"]), result_from_dict(entry["result"])


def result_from_dict(data: Dict[str, object]) -> OperationalResult:
    """Invert :func:`result_to_dict` exactly (tuples restored, so a
    round-tripped result compares equal to the original)."""
    return OperationalResult(
        captured=data["captured"],
        capture_period=data["capture_period"],
        capture_time=data["capture_time"],
        periods_run=data["periods_run"],
        safety_periods=data["safety_periods"],
        attacker_path=tuple(data["attacker_path"]),
        messages_sent=data["messages_sent"],
        aggregation_ratio=data["aggregation_ratio"],
        captured_source=data["captured_source"],
        source_pool=tuple(data["source_pool"]),
    )


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class SweepCheckpoint:
    """Append-only per-seed result store for interruptible sweeps.

    One sweep maps to one ``sweep-<digest>.jsonl`` file under ``root``;
    the digest (:meth:`key_for`) covers the topology's content
    fingerprint and the experiment config with ``repeats``/``base_seed``
    canonicalised away — so a resumed sweep, a re-run after reboot, or
    a widened seed range all hit the same store, while any change that
    could alter a result (algorithm, parameters, noise, perturbations,
    kernel selection) gets a fresh one.  Nothing
    machine- or git-dependent enters the key.

    Each line is ``{"check": digest, "result": {...}, "seed": s}``
    (:func:`encode_checkpoint_line`); appends go through the durable-IO
    seam (fsynced, torn-tail welding) and a torn or digest-mismatched
    line is skipped on load, so a crashed append — or silent corruption
    at rest — costs at most that one seed.  Float fields survive the
    JSON round trip exactly (shortest round-trip repr), which is what
    makes a resumed report bit-identical to an uninterrupted one.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def key_for(self, topology, config) -> str:
        """The sweep's content digest (see the class docstring)."""
        # Telemetry is canonicalised away with repeats/base_seed: it
        # never affects results, so instrumented and plain sweeps must
        # share one store.
        canonical = replace(config, repeats=1, base_seed=0, telemetry=False)
        digest = sha256()
        digest.update(topology_fingerprint(topology).encode())
        digest.update(repr(topology.source if topology.has_source else None).encode())
        digest.update(repr(canonical).encode())
        digest.update(f"v{CHECKPOINT_VERSION}".encode())
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        """The store file backing one sweep key."""
        return self._root / f"sweep-{key}.jsonl"

    def load(self, key: str) -> Dict[int, OperationalResult]:
        """Every completed seed on record for ``key``.

        Corrupt lines (a write torn by the interruption being resumed
        from) are skipped; a seed recorded twice keeps the last entry.
        """
        path = self.path_for(key)
        results: Dict[int, OperationalResult] = {}
        if not path.exists():
            return results
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                found, result = decode_checkpoint_line(line)
            except (ValueError, KeyError, TypeError):
                continue
            results[found] = result
        return results

    def append(self, key: str, seed: int, result: OperationalResult) -> None:
        """Record one completed seed through the durable-IO seam
        (:func:`~repro.storage.durable_append`: single-write append with
        torn-line welding, flushed and fsynced, so results survive
        whatever interrupts the sweep next — including the power).

        Raises :class:`~repro.errors.StorageError` if the disk fails
        the append; a seed whose result cannot be made durable must
        fail loudly, never report success.
        """
        line = encode_checkpoint_line(seed, result)
        plan = active_fault_plan()
        if plan is not None:
            line = plan.corrupt_checkpoint_line(seed, line)
        durable_append(self.path_for(key), line)

    def clear(self, key: str) -> None:
        """Drop the record of one sweep (``--checkpoint`` without
        ``--resume`` starts fresh)."""
        self.path_for(key).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Runtime kernel-divergence guard
# ----------------------------------------------------------------------
def guard_sample(seeds: Sequence[int], sample: int, base_seed: int) -> Tuple[int, ...]:
    """A deterministic sample of a sweep's seeds to re-check: drawn
    from the sweep's shape, not wall-clock, so the same sweep always
    audits the same seeds."""
    k = min(sample, len(seeds))
    if k <= 0:
        return ()
    rng = random.Random(f"guard:{base_seed}:{len(seeds)}")
    return tuple(sorted(rng.sample(list(seeds), k)))


def _legacy_config(config):
    """``config`` pinned to the legacy engines (the reference the guard
    trusts).  Safe to run through a schedule cache: a distributed
    build's key carries its setup engine, and a centralised schedule
    depends on no engine."""
    return replace(
        config,
        kernel="legacy",
        setup_kernel="legacy" if config.use_distributed else config.setup_kernel,
    )


def write_reproducer_bundle(
    bundle_dir: Union[str, Path],
    topology,
    config,
    mismatches: Sequence[Tuple[int, OperationalResult, OperationalResult]],
) -> str:
    """Persist everything needed to replay a kernel divergence:
    topology fingerprint, config, and both engines' results per
    mismatched seed.  Returns the bundle path."""
    directory = Path(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = topology_fingerprint(topology)
    payload = {
        "topology": {
            "name": topology.name,
            "fingerprint": fingerprint,
            "nodes": topology.num_nodes,
        },
        "config": repr(config),
        "mismatches": [
            {
                "seed": seed,
                "fast": result_to_dict(fast),
                "legacy": result_to_dict(legacy),
            }
            for seed, fast, legacy in mismatches
        ],
    }
    path = directory / (
        f"divergence-{fingerprint[:12]}-seed{mismatches[0][0]}.json"
    )
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def apply_divergence_guard(
    runner,
    config,
    outcome,
    sample: int = 3,
    bundle_dir: Union[str, Path] = "divergence",
):
    """Re-run a sampled subset of ``outcome``'s seeds on the legacy
    engines and compare.

    A clean audit returns the outcome annotated with a
    :class:`GuardReport` (``degraded=False``).  A mismatch writes a
    reproducer bundle and re-runs the *whole* sweep on the legacy
    engines — degraded, slower, but never silently wrong — returning
    the legacy outcome annotated accordingly.  The degraded re-run goes
    back through ``runner.run``, so it keeps the supervised-execution
    guarantees.  The probe builds on a private :class:`ScheduleCache`,
    so every sampled seed's schedule is rebuilt, never fetched.
    """
    from .runner import ExperimentRunner  # runner imports this module

    quarantined = {failure.seed for failure in outcome.failures}
    completed = [
        config.base_seed + i
        for i in range(config.repeats)
        if config.base_seed + i not in quarantined
    ]
    by_seed = dict(zip(completed, outcome.results))
    sampled = guard_sample(completed, sample, config.base_seed)
    legacy_cfg = _legacy_config(config)
    probe = ExperimentRunner(runner.topology, schedule_cache=ScheduleCache())
    mismatches: List[Tuple[int, OperationalResult, OperationalResult]] = []
    tracer = active_tracer()
    rerun_span = (
        tracer.begin("guard.rerun", sampled=list(sampled))
        if tracer is not None
        else None
    )
    try:
        for seed in sampled:
            reference = probe.run_once(legacy_cfg, seed)
            if reference != by_seed[seed]:
                mismatches.append((seed, by_seed[seed], reference))
    finally:
        if rerun_span is not None:
            tracer.end(rerun_span)
    registry = default_registry()
    registry.inc("guard.sampled", len(sampled))
    registry.inc("guard.mismatched", len(mismatches))
    if not mismatches:
        report = GuardReport(
            mode=GUARD_DIFFERENTIAL,
            sampled_seeds=sampled,
            mismatched_seeds=(),
            degraded=False,
        )
        return replace(outcome, guard=report)
    bundle_path = write_reproducer_bundle(
        bundle_dir, runner.topology, config, mismatches
    )
    degraded = runner.run(_legacy_config(config))
    report = GuardReport(
        mode=GUARD_DIFFERENTIAL,
        sampled_seeds=sampled,
        mismatched_seeds=tuple(seed for seed, _, _ in mismatches),
        degraded=True,
        bundle_path=bundle_path,
    )
    return replace(degraded, guard=report)
