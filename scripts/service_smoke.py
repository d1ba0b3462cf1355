#!/usr/bin/env python
"""End-to-end smoke drill for the resilient sweep service (CI leg).

Runs the full robustness story against *real processes*:

1. start the service as a subprocess (``repro service start``);
2. submit the paper-baseline sweep over HTTP, plus a duplicate (must
   dedup) and a malformed submission (must 400);
3. a :class:`~repro.experiments.FaultPlan` in the subprocess
   environment kills a shard worker mid-job (``crash_seeds``) and then
   halts the whole service mid-job (``halt_seeds`` — the ``kill -9``
   stand-in, leaving the job record ``running``);
4. restart the service over the same ``--data-dir``; recovery re-queues
   the job and the shard scheduler finishes only the missing seeds;
5. poll to completion and diff the served report against a direct
   in-process ``ScenarioRunner`` run — the bytes must be identical.

Exit code 0 iff every check passes.  No timing: this is a correctness
drill, shaped like the supervised-sweep chaos tests
(``tests/test_resilience.py``) but one layer up.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import FAULT_PLAN_ENV, FaultPlan  # noqa: E402
from repro.scenarios import ScenarioRunner  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402

SEEDS = 8
CRASH_SEED = 2  # a shard worker dies here (BrokenProcessPool drill)
HALT_SEED = 5  # the whole service "dies" before this seed's shard


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_service(data_dir: Path, port: int, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "service", "start",
            "--data-dir", str(data_dir),
            "--port", str(port),
            "--shard-workers", "2",
            "--max-attempts", "3",
        ],
        env=env,
        cwd=REPO_ROOT,
    )


def wait_for_health(client: ServiceClient, deadline: float) -> None:
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def main() -> int:
    checks: dict = {}

    def check(name: str, passed: bool) -> None:
        checks[name] = passed
        print(f"service {name}: {'ok' if passed else 'FAILED'}", file=sys.stderr)

    direct = ScenarioRunner().run("paper-baseline", seeds=SEEDS)
    expected = direct.to_json() + "\n"

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        data_dir = tmp_path / "service-data"
        plan = FaultPlan(
            crash_seeds=(CRASH_SEED,),
            halt_seeds=(HALT_SEED,),
            marker_dir=str(tmp_path / "markers"),
        )
        env = dict(os.environ)
        env[FAULT_PLAN_ENV] = plan.to_env()
        env["PYTHONPATH"] = str(REPO_ROOT / "src")

        port = free_port()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)

        # --- First life: submit, lose a worker, then lose the service.
        process = start_service(data_dir, port, env)
        try:
            wait_for_health(client, time.monotonic() + 30.0)

            try:
                client.submit({"scenario": "no-such-scenario"})
                check("malformed_submission_is_400", False)
            except ServiceError as exc:
                check("malformed_submission_is_400", exc.status == 400)

            submitted = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            job = submitted["job"]
            check("submission_created", submitted["created"] is True)
            duplicate = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            check(
                "duplicate_dedups",
                duplicate["created"] is False and duplicate["job"] == job,
            )

            # The injected halt stops the service mid-job; the CLI loop
            # notices, drains and exits on its own — that exit is the
            # drill's "the process died" event.
            process.wait(timeout=120.0)
            check("service_died_mid_job", process.returncode == 0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        fired = {p.name for p in (tmp_path / "markers").glob("*")}
        check("worker_kill_fired", f"crash-{CRASH_SEED}" in fired)
        check("service_halt_fired", f"halt-{HALT_SEED}" in fired)

        # --- Second life: same data dir, recovery finishes the job.
        process = start_service(data_dir, port, env)
        try:
            wait_for_health(client, time.monotonic() + 30.0)
            deadline = time.monotonic() + 300.0
            while True:
                status = client.status(job)
                if status["state"] in ("done", "failed", "quarantined"):
                    break
                if time.monotonic() > deadline:
                    break
                time.sleep(0.2)
            check("resumed_job_done", status["state"] == "done")
            served = client.result_text(job)
            check("report_byte_identical_to_direct_run", served == expected)
        finally:
            process.terminate()
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    if not all(checks.values()):
        failed = [name for name, passed in checks.items() if not passed]
        print(f"SERVICE SMOKE FAILED: {failed}", file=sys.stderr)
        return 1
    print("service smoke drill passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
