"""Shared fixtures: small topologies and schedules used across the suite,
and a real ``repro service start`` subprocess for the service drills."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Schedule
from repro.das import centralized_das_schedule
from repro.topology import GridTopology, LineTopology, RingTopology, Topology


@pytest.fixture
def line5() -> LineTopology:
    """A 5-node line: 0(source) - 1 - 2 - 3 - 4(sink)."""
    return LineTopology(5)


@pytest.fixture
def ring8() -> RingTopology:
    """An 8-node ring, sink at 0, source antipodal at 4."""
    return RingTopology(8)


@pytest.fixture
def grid5() -> GridTopology:
    """A 5x5 grid with the paper's role placement (source 0, sink centre)."""
    return GridTopology(5)


@pytest.fixture
def grid7() -> GridTopology:
    """A 7x7 grid — big enough for search distance 3 redirections."""
    return GridTopology(7)


@pytest.fixture
def tee() -> Topology:
    """A 7-node tee: two branches joining into a stem toward the sink.

    ::

        0   2
         \\ /
          1
          |
          3 - 4 - 5(sink)
          |
          6
    """
    edges = [(0, 1), (2, 1), (1, 3), (3, 4), (4, 5), (3, 6)]
    return Topology.from_edges(edges, sink=5, source=0, name="tee")


@pytest.fixture
def grid5_schedule(grid5: GridTopology) -> Schedule:
    """A deterministic (jitter-free) strong DAS schedule on grid5."""
    return centralized_das_schedule(grid5, seed=None, jitter=False)


@pytest.fixture
def line5_schedule(line5: LineTopology) -> Schedule:
    """The canonical line schedule: slots descend away from the sink."""
    return centralized_das_schedule(line5, seed=None, jitter=False)


@pytest.fixture
def cli_service():
    """Start ``repro service start --data-dir DIR --port 0 [ARGS]`` as a
    subprocess with environment ``env``; returns ``(process, url)``.
    Any service still running at teardown is killed."""
    started = []
    src = str(Path(__file__).resolve().parent.parent / "src")

    def start(data_dir, env, *args):
        env = dict(env, PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "service", "start",
             "--data-dir", str(data_dir), "--port", "0", *args],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        started.append(process)
        match = re.search(r"listening on (http://\S+)", process.stderr.readline())
        assert match, "the service did not start"
        return process, match.group(1)

    yield start
    for process in started:
        if process.poll() is None:
            process.kill()
            process.wait()
