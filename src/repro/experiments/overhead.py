"""The message-overhead experiment (§I / §VII: "negligible overhead").

Runs the two distributed setups — protectionless Phase 1 and the full
3-phase SLP protocol — under identical seeds and counts every broadcast,
yielding the :class:`~repro.metrics.MessageOverhead` the claim is about.

Seeds are independent, so the sweep optionally fans out over a process
pool (``workers``); per-seed measurements come back in seed order and
are identical to a serial sweep.  Under a telemetry session each
worker ships its spans and metrics back with its measurement.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

from ..das import run_das_setup
from ..metrics import MessageOverhead
from ..simulator import NoiseModel
from ..slp import SlpProtocolConfig, run_slp_setup
from ..telemetry import absorb_worker_payload, active_tracer
from ..topology import Topology
from .config import PAPER, PaperParameters
from .parallel import call_with_worker_telemetry, resolve_workers


@dataclass(frozen=True)
class OverheadMeasurement:
    """Setup overhead for one topology across seeds."""

    topology_name: str
    per_seed: Tuple[MessageOverhead, ...]

    @property
    def mean_extra_messages(self) -> float:
        """Mean absolute overhead across seeds."""
        return sum(m.extra_messages for m in self.per_seed) / len(self.per_seed)

    @property
    def mean_overhead_percent(self) -> float:
        """Mean relative overhead across seeds."""
        return sum(m.overhead_percent for m in self.per_seed) / len(self.per_seed)


def _measure_one_seed(
    topology: Topology,
    seed: int,
    search_distance: int,
    setup_periods: Optional[int],
    refinement_periods: int,
    noise: Optional[NoiseModel],
    parameters: PaperParameters,
    setup_kernel: Optional[str] = None,
) -> MessageOverhead:
    """One seed's baseline-vs-SLP setup comparison.

    Under an active telemetry session the whole measurement runs in an
    ``overhead.seed`` span (the setup kernels add their own
    ``setup.phase*`` children).
    """
    tracer = active_tracer()
    span = (
        tracer.span("overhead.seed", seed=seed)
        if tracer is not None
        else nullcontext()
    )
    with span:
        das_cfg = parameters.das_config(setup_periods=setup_periods)
        baseline = run_das_setup(
            topology, config=das_cfg, seed=seed, noise=noise, setup_kernel=setup_kernel
        )
        slp_cfg = SlpProtocolConfig(
            das=das_cfg,
            search_distance=search_distance,
            change_length=parameters.change_length(topology, search_distance),
            refinement_periods=refinement_periods,
        )
        slp = run_slp_setup(
            topology, config=slp_cfg, seed=seed, noise=noise, setup_kernel=setup_kernel
        )
    return MessageOverhead(
        baseline_messages=baseline.messages_sent,
        slp_messages=slp.messages_sent,
        search_messages=slp.search_messages,
        change_messages=slp.change_messages,
    )


def measure_setup_overhead(
    topology: Topology,
    seeds: Sequence[int] = (0, 1, 2),
    search_distance: int = 3,
    setup_periods: Optional[int] = None,
    refinement_periods: int = 20,
    noise: Optional[NoiseModel] = None,
    parameters: PaperParameters = PAPER,
    workers: Optional[int] = None,
    setup_kernel: Optional[str] = None,
) -> OverheadMeasurement:
    """Measure SLP setup overhead over protectionless setup.

    ``setup_periods`` defaults to the paper's MSP (80); tests pass a
    smaller value to keep runtime down — overhead ratios are unaffected
    because both protocols share the same Phase 1.  ``workers`` spreads
    the seeds over that many processes (``None`` or ``1`` = serial).
    ``setup_kernel`` selects the setup engine (``"fast"``/``"legacy"``/
    ``None`` for the default; bit-identical either way).
    """
    seeds = list(seeds)
    workers = resolve_workers(workers)
    if workers is not None and workers > 1 and len(seeds) > 1:
        # Each worker returns its measurement plus its telemetry payload.
        in_worker = partial(
            call_with_worker_telemetry, active_tracer() is not None, _measure_one_seed
        )
        with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            shipped = list(
                pool.map(
                    in_worker,
                    (topology,) * len(seeds),
                    seeds,
                    (search_distance,) * len(seeds),
                    (setup_periods,) * len(seeds),
                    (refinement_periods,) * len(seeds),
                    (noise,) * len(seeds),
                    (parameters,) * len(seeds),
                    (setup_kernel,) * len(seeds),
                )
            )
        measurements = []
        for measurement, payload in shipped:
            if payload is not None:
                absorb_worker_payload(payload)
            measurements.append(measurement)
    else:
        measurements = [
            _measure_one_seed(
                topology,
                seed,
                search_distance,
                setup_periods,
                refinement_periods,
                noise,
                parameters,
                setup_kernel,
            )
            for seed in seeds
        ]
    return OverheadMeasurement(
        topology_name=topology.name,
        per_seed=tuple(measurements),
    )


def format_overhead(measurement: OverheadMeasurement) -> str:
    """Render the overhead experiment as fixed-width text."""
    lines = [
        f"Setup message overhead on {measurement.topology_name} "
        f"({len(measurement.per_seed)} seeds)",
        "",
        f"{'Seed':<6} {'Baseline':>10} {'SLP':>10} {'Extra':>8} {'Overhead':>10}",
        "-" * 48,
    ]
    for i, m in enumerate(measurement.per_seed):
        lines.append(
            f"{i:<6} {m.baseline_messages:>10} {m.slp_messages:>10} "
            f"{m.extra_messages:>8} {m.overhead_percent:>9.1f}%"
        )
    lines.append("-" * 48)
    lines.append(
        f"mean: +{measurement.mean_extra_messages:.0f} msgs "
        f"({measurement.mean_overhead_percent:+.1f}%)"
    )
    return "\n".join(lines)
