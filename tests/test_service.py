"""The resilient experiment service: durable jobs, shard supervision,
crash-safe resume.

The contracts under test, in increasing order of violence:

* job identity is content-addressed — the same submission dedups, any
  knob change produces a different job;
* the durable store's state machine admits only legal edges, claims
  are atomic, and recovery re-queues whatever a dead process held;
* a shard-scheduled job's merged report is *byte-identical* to an
  uninterrupted serial run — including after a worker is killed
  mid-job (crash drill) and after the whole service "dies" and a
  fresh instance resumes from the same data dir (halt drill);
* malformed submissions are a 400 over HTTP, never a crash, and the
  result endpoint serves the report's exact bytes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentRunner,
    FaultPlan,
    RetryPolicy,
    ServiceHalt,
    SweepCheckpoint,
    result_to_dict,
)
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario
from repro.telemetry import MetricsRegistry, use_registry
from repro.service import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
    ServiceClient,
    ServiceError,
    ShardBoard,
    ShardScheduler,
    SweepService,
    check_transition,
    job_key,
    lower_job,
)

SEEDS = 5
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)


@pytest.fixture(scope="module")
def direct():
    """The uninterrupted serial run every service path must reproduce."""
    return ScenarioRunner().run("paper-baseline", seeds=SEEDS)


def make_record(spec=None, repeats=SEEDS, base_seed=0, **knobs):
    spec = spec if spec is not None else get_scenario("paper-baseline")
    return JobRecord(
        job_id=job_key(spec, repeats, base_seed, **knobs),
        spec_json=spec.to_json(indent=None),
        repeats=repeats,
        base_seed=base_seed,
        kernel=knobs.get("kernel"),
        setup_kernel=knobs.get("setup_kernel"),
        state=QUEUED,
    )


def start_service(tmp_path, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return SweepService(
        tmp_path / "svc", port=0, shard_workers=2, **kwargs
    ).start()


def wait_for(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(poll)


# ----------------------------------------------------------------------
# Content-addressed job identity
# ----------------------------------------------------------------------
class TestJobKey:
    def test_stable_across_equal_submissions(self):
        spec = get_scenario("paper-baseline")
        again = ScenarioSpec.from_json(spec.to_json())
        assert job_key(spec, 5, 0) == job_key(again, 5, 0)

    def test_every_knob_is_part_of_the_identity(self):
        spec = get_scenario("paper-baseline")
        base = job_key(spec, 5, 0)
        assert job_key(spec, 6, 0) != base
        assert job_key(spec, 5, 1) != base
        assert job_key(spec, 5, 0, kernel="legacy") != base
        assert job_key(spec, 5, 0, setup_kernel="legacy") != base
        assert job_key(get_scenario("two-sources"), 5, 0) != base


class TestSpecJsonRoundTrip:
    @pytest.mark.parametrize("name", ["paper-baseline", "two-sources", "mobile-source"])
    def test_json_round_trip_is_lossless(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json(json.dumps(["not", "an", "object"]))


# ----------------------------------------------------------------------
# The durable job store
# ----------------------------------------------------------------------
class TestJobStore:
    def test_submit_then_dedup(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        record, created = store.submit(make_record())
        assert created and record.state == QUEUED
        again, created = store.submit(make_record())
        assert not created
        assert again.job_id == record.job_id
        assert again.submit_order == record.submit_order
        assert len(store.list_jobs()) == 1

    def test_claim_is_fifo_and_exhaustible(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        first, _ = store.submit(make_record(repeats=2))
        second, _ = store.submit(make_record(repeats=3))
        assert store.claim_next().job_id == first.job_id
        assert store.claim_next().job_id == second.job_id
        assert store.claim_next() is None
        assert all(r.state == RUNNING for r in store.list_jobs())

    def test_transition_validates_edges(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        record, _ = store.submit(make_record())
        with pytest.raises(ConfigurationError):  # queued -> done skips running
            store.transition(record.job_id, DONE)
        store.claim_next()
        done = store.transition(record.job_id, DONE, result_json="{}")
        assert done.state == DONE and done.result_json == "{}"
        with pytest.raises(ConfigurationError):  # terminal states are immutable
            store.transition(record.job_id, QUEUED)
        with pytest.raises(KeyError):
            store.transition("no-such-job", DONE)

    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite")
        record, _ = store.submit(make_record())
        store.claim_next()
        # A second store over the same file is "the restarted process".
        restarted = JobStore(tmp_path / "jobs.sqlite")
        assert restarted.recover() == 1
        assert restarted.get(record.job_id).state == QUEUED
        assert restarted.recover() == 0

    def test_check_transition_rejects_unknown_states(self):
        with pytest.raises(ConfigurationError):
            check_transition(QUEUED, "paused")
        with pytest.raises(ConfigurationError):
            check_transition("limbo", DONE)
        check_transition(RUNNING, FAILED)
        check_transition(RUNNING, QUARANTINED)


# ----------------------------------------------------------------------
# The shard scheduler (no HTTP involved)
# ----------------------------------------------------------------------
class TestShardScheduler:
    @staticmethod
    def run_with_board_worker(tmp_path, spec, repeats):
        """Run one job through a :class:`ShardScheduler`, with an
        in-process thread leasing from the board directly in place of
        a worker process."""
        board = ShardBoard(SweepCheckpoint(tmp_path / "checkpoints"))
        scheduler = ShardScheduler(
            tmp_path, board, retry=FAST_RETRY, poll_interval=0.01
        )
        stop = threading.Event()

        def lease_loop():
            while not stop.is_set():
                claim = board.claim("w")
                if claim is None:
                    stop.wait(0.01)
                    continue
                topology, config = lower_job(
                    ScenarioSpec.from_json(claim["spec"]),
                    claim["repeats"], claim["base_seed"],
                )
                runner = ExperimentRunner(topology)
                for seed in claim["seeds"]:
                    board.record_seed(
                        claim["job"], claim["shard"], "w", seed,
                        result_to_dict(runner.run_once(config, seed)),
                    )

        thread = threading.Thread(target=lease_loop, daemon=True)
        thread.start()
        try:
            return scheduler.run_job(spec, repeats=repeats)
        finally:
            stop.set()
            thread.join(timeout=10.0)

    def test_clean_job_is_byte_identical_to_serial(self, tmp_path, direct):
        outcome = self.run_with_board_worker(
            tmp_path, get_scenario("paper-baseline"), SEEDS
        )
        assert not outcome.failures
        assert outcome.to_json() == direct.to_json()

    def test_second_run_merges_from_checkpoint(self, tmp_path, direct):
        self.run_with_board_worker(tmp_path, get_scenario("paper-baseline"), SEEDS)
        # Every seed is checkpointed now; the re-run must merge without
        # a single lease (no worker serves this board).
        board = ShardBoard(SweepCheckpoint(tmp_path / "checkpoints"))
        outcome = ShardScheduler(tmp_path, board, retry=FAST_RETRY).run_job(
            get_scenario("paper-baseline"), repeats=SEEDS
        )
        assert outcome.to_json() == direct.to_json()

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SweepService(tmp_path, shard_workers=-1)
        board = ShardBoard(SweepCheckpoint(tmp_path / "c"))
        with pytest.raises(ConfigurationError):
            ShardScheduler(tmp_path, board, shard_timeout=-1.0)

    def test_lower_job_matches_scenario_runner(self):
        spec = get_scenario("paper-baseline")
        topology, config = lower_job(spec, repeats=SEEDS)
        assert config.repeats == SEEDS
        assert config.kernel is None  # no knobs -> spec's own config
        _, overridden = lower_job(spec, repeats=SEEDS, kernel="legacy")
        assert overridden.kernel == "legacy"


# ----------------------------------------------------------------------
# The HTTP front
# ----------------------------------------------------------------------
class TestServiceHttp:
    def test_submit_run_result_and_dedup(self, tmp_path, direct):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            assert client.health() == {"ok": True}
            submitted = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            assert submitted["created"] is True
            duplicate = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            assert duplicate["created"] is False
            assert duplicate["job"] == submitted["job"]

            status = client.wait(submitted["job"], timeout=120.0)
            assert status["state"] == "done"
            assert "service.submissions.created" in status["metrics"]["counters"]
            # The result endpoint serves the direct run's exact bytes.
            assert client.result_text(submitted["job"]) == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_malformed_submissions_are_400_never_a_crash(self, tmp_path):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            cases = [
                {},  # neither scenario nor spec
                {"scenario": "x", "spec": {}},  # both
                {"scenario": "no-such-scenario"},
                {"scenario": "paper-baseline", "bogus": 1},
                {"scenario": "paper-baseline", "seeds": "five"},
                {"scenario": "paper-baseline", "seeds": 0},
                {"spec": "not-an-object"},
                {"spec": {"name": "x", "algorithm": "rot13"}},
                {"scenario": "paper-baseline", "kernel": "fast-object"},
            ]
            for payload in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(payload)
                assert excinfo.value.status == 400, payload
            # A body that is not JSON at all is a 400 too.
            request = urllib.request.Request(
                f"{service.url}/jobs",
                data=b"{definitely not json",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            # ...and the service is still alive and empty afterwards.
            assert client.health() == {"ok": True}
            assert service.store.list_jobs() == []
        finally:
            service.drain()

    def test_unknown_job_is_404_and_pending_result_is_409(self, tmp_path):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            for probe in (client.status, client.result):
                with pytest.raises(ServiceError) as excinfo:
                    probe("0" * 64)
                assert excinfo.value.status == 404
            # A job that only exists in the store (the drain loop never
            # saw it) serves 409 from the result endpoint.
            record, _ = service.store.submit(make_record(repeats=2))
            service.store.claim_next()
            with pytest.raises(ServiceError) as excinfo:
                client.result(record.job_id)
            assert excinfo.value.status == 409
        finally:
            service.drain()


# ----------------------------------------------------------------------
# Chaos drills
# ----------------------------------------------------------------------
class TestChaosDrills:
    def test_worker_killed_mid_job_still_byte_identical(self, tmp_path, direct):
        """A shard worker dies with ``kill -9`` semantics mid-job; the
        pool is respawned, the shard retried, and the merged report is
        indistinguishable from a run in which nothing happened."""
        plan = FaultPlan(crash_seeds=(2,), marker_dir=str(tmp_path / "markers"))
        with plan.activated():
            service = start_service(tmp_path)
            try:
                record, created = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                assert created
                wait_for(
                    lambda: service.store.get(record.job_id).state == DONE,
                    timeout=120.0,
                )
            finally:
                service.drain()
        # The fault really fired (a vacuous pass would prove nothing).
        assert (tmp_path / "markers" / "crash-2").exists()
        final = service.store.get(record.job_id)
        assert final.result_json == direct.to_json()

    def test_service_killed_mid_job_resumes_byte_identical(self, tmp_path, direct):
        """The whole service "dies" (ServiceHalt, the in-process kill -9
        stand-in: the job record is left ``running``, nothing is
        flushed); a fresh instance over the same data dir recovers,
        finishes only the missing seeds and serves the same bytes."""
        plan = FaultPlan(halt_seeds=(3,), marker_dir=str(tmp_path / "markers"))
        with plan.activated():
            service = start_service(tmp_path)
            try:
                record, _ = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                wait_for(lambda: service.halted, timeout=120.0)
            finally:
                service.drain()
            # The fault really fired, and the dead service never
            # touched the record: still running.
            assert (tmp_path / "markers" / "halt-3").exists()
            assert service.store.get(record.job_id).state == RUNNING

            restarted = start_service(tmp_path)
            try:
                client = ServiceClient(restarted.url)
                status = client.wait(record.job_id, timeout=120.0)
                assert status["state"] == "done"
                assert client.result_text(record.job_id) == direct.to_json() + "\n"
            finally:
                restarted.drain()

    def test_halt_plan_env_round_trip(self, tmp_path):
        plan = FaultPlan(halt_seeds=(1, 2), marker_dir=str(tmp_path))
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_before_shard_halts_once_only(self, tmp_path):
        plan = FaultPlan(halt_seeds=(7,), marker_dir=str(tmp_path))
        with pytest.raises(ServiceHalt):
            plan.before_shard((6, 7, 8))
        plan.before_shard((6, 7, 8))  # the restart proceeds
        plan.before_shard((0, 1))  # unlisted seeds never halt

    def test_service_halt_is_not_an_exception(self):
        # The kill -9 stand-in must escape every `except Exception`
        # in the supervision ladder.
        assert not issubclass(ServiceHalt, Exception)
        assert issubclass(ServiceHalt, BaseException)


# ----------------------------------------------------------------------
# Service-owned workers
# ----------------------------------------------------------------------
def proc_stat(pid):
    """``(state, ppid)`` from ``/proc/<pid>/stat``, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return fields[0], int(fields[1])


def children_of(pid):
    return {
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and (proc_stat(entry) or ("", -1))[1] == pid
    }


def running(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestOwnedWorkers:
    def test_hung_owned_worker_is_killed_charged_and_respawned(
        self, tmp_path, direct
    ):
        """An owned worker wedges mid-shard: its lease stalls past the
        shard timeout, the service kills it, charges the shard one
        ``timeout`` and respawns it; the retried shard finishes and the
        report is byte-identical."""
        plan = FaultPlan(
            hang_seeds=(2,), hang_seconds=120.0,
            marker_dir=str(tmp_path / "markers"),
        )
        with use_registry(MetricsRegistry()), plan.activated():
            service = start_service(tmp_path, shard_timeout=1.0)
            try:
                wait_for(lambda: len(service.worker_pids) == 2)
                spawned = set(service.worker_pids)
                record, _ = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                wait_for(
                    lambda: service.store.get(record.job_id).state == DONE,
                    timeout=120.0,
                )
                counters = ServiceClient(service.url).status(record.job_id)[
                    "metrics"
                ]["counters"]
                assert counters.get("service.timeouts") == 1
                assert counters.get("service.respawns") == 1
                assert len(service.worker_pids) == 2
                assert set(service.worker_pids) != spawned
            finally:
                service.drain()
        assert (tmp_path / "markers" / "hang-2").exists()
        assert service.store.get(record.job_id).result_json == direct.to_json()

    def test_drain_reaps_every_owned_worker(self, tmp_path):
        service = start_service(tmp_path)
        try:
            record, _ = service.submit({"scenario": "paper-baseline", "seeds": 2})
            wait_for(
                lambda: service.store.get(record.job_id).state == DONE,
                timeout=120.0,
            )
            pids = service.worker_pids
            assert len(pids) == 2
        finally:
            service.drain()
        assert service.worker_pids == []
        assert not any(running(pid) for pid in pids)

    def test_start_up_deaths_back_off(self, monkeypatch):
        """A worker that dies at start-up is respawned only after
        ``RetryPolicy().delay(n, slot)`` following its n-th consecutive
        exit, however often the dispatcher ticks; n resets once a
        worker in the slot outlives that delay."""
        from types import SimpleNamespace

        from repro.service import scheduler

        clock = [1000.0]
        monkeypatch.setattr(
            scheduler, "time", SimpleNamespace(monotonic=lambda: clock[0])
        )

        class FakeProcess:
            pid = 0
            exitcode = 1

            def __init__(self):
                self.alive = False

            def is_alive(self):
                return self.alive

            def join(self, timeout=None):
                pass

        spawned = []

        def spawn(self, slot):
            spawned.append(FakeProcess())
            self._processes[slot] = spawned[-1]

        monkeypatch.setattr(scheduler.OwnedWorkers, "_spawn", spawn)
        board = SimpleNamespace(
            owned=set(), charges=[], stalled=lambda worker, timeout: False,
        )
        board.charge = lambda worker, kind, error: board.charges.append(kind)
        workers = scheduler.OwnedWorkers(board, count=1, shard_timeout=1.0)
        workers.start("http://127.0.0.1:9")
        policy = RetryPolicy()

        def ticks_until_respawn(n):
            """The first tick charges the n-th exit; ticks within the
            next delay spawn nothing, the one after it exactly one."""
            before, start = len(spawned), clock[0]
            delay = policy.delay(n, 0)
            for step in range(20):
                clock[0] = start + delay * step / 20
                workers.supervise()
            assert len(spawned) == before
            clock[0] = start + delay
            workers.supervise()
            assert len(spawned) == before + 1

        for n in (1, 2, 3):
            ticks_until_respawn(n)
        assert board.charges == ["crash"] * 3

        # A worker that stays up longer than its back-off resets n.
        spawned[-1].alive = True
        clock[0] += policy.delay(4, 0) + 1.0
        workers.supervise()
        spawned[-1].alive = False
        ticks_until_respawn(1)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigterm_service_leaves_no_child_processes(
        self, tmp_path, cli_service
    ):
        process, url = cli_service(tmp_path / "svc", dict(os.environ))
        client = ServiceClient(url)
        job = client.submit({"scenario": "paper-baseline", "seeds": 2})
        assert client.wait(job["job"], timeout=120.0)["state"] == "done"
        children = children_of(process.pid)
        assert len(children) >= 2  # the owned workers, at least
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60.0) == 0
        wait_for(lambda: not any(running(pid) for pid in children), timeout=15.0)


# ----------------------------------------------------------------------
# The service CLI
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_scenario_export_then_run_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        assert (
            main(["scenario", "export", "paper-baseline", "--out", str(spec_file)])
            == 0
        )
        capsys.readouterr()
        assert ScenarioSpec.from_json(spec_file.read_text()) == get_scenario(
            "paper-baseline"
        )
        assert main(["scenario", "run", str(spec_file), "--seeds", "2"]) == 0
        from_file = capsys.readouterr().out
        assert main(["scenario", "run", "paper-baseline", "--seeds", "2"]) == 0
        assert from_file == capsys.readouterr().out

    def test_export_to_stdout(self, capsys):
        assert main(["scenario", "export", "two-sources"]) == 0
        out = capsys.readouterr().out
        assert ScenarioSpec.from_json(out) == get_scenario("two-sources")

    def test_unknown_scenario_is_a_config_error_exit(self, capsys):
        assert main(["scenario", "export", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_status_result_against_live_service(
        self, tmp_path, capsys, direct
    ):
        service = start_service(tmp_path)
        try:
            url = service.url
            assert (
                main(
                    [
                        "service", "submit", "paper-baseline",
                        "--url", url, "--seeds", str(SEEDS), "--wait",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert out.endswith(direct.to_json() + "\n")
            job_id = service.store.list_jobs()[0].job_id
            assert main(["service", "status", job_id, "--url", url]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "done"
            result_file = tmp_path / "result.json"
            assert (
                main(
                    [
                        "service", "result", job_id,
                        "--url", url, "--out", str(result_file),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            assert result_file.read_text() == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_client_errors_exit_2(self, tmp_path, capsys):
        service = start_service(tmp_path)
        try:
            url = service.url
            assert (
                main(["service", "submit", "no-such-scenario", "--url", url]) == 2
            )
            assert "error:" in capsys.readouterr().err
            assert main(["service", "status", "bogus-job", "--url", url]) == 2
        finally:
            service.drain()
        capsys.readouterr()
