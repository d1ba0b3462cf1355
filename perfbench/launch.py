"""Run the ``repro`` CLI with the layer probes installed.

Usage (from the repository root)::

    PERFBENCH_TRACE_DIR=<dir> python3 perfbench/launch.py service start ...
    PERFBENCH_TRACE_DIR=<dir> python3 perfbench/launch.py worker start ...

The traced benchmark phase starts the service and its remote workers
through this file instead of ``python -m repro.cli``: the probes wrap
the public functions first, then the CLI entry point runs unchanged.
The process appends what it recorded to the trace directory on exit;
its pool workers do so after every shard.
"""

import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import probes  # noqa: E402


def main() -> int:
    probes.install(require_root=False)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        probes.RECORDER.flush()


if __name__ == "__main__":
    sys.exit(main())
