#!/usr/bin/env python
"""Regenerate every paper artefact at full scale.

Writes a plain-text report to stdout: Table I, both Figure 5 panels,
the verifier-based estimates and the distributed setup overhead.

``--workers N`` fans the seed sweeps out over N processes (0 = one per
CPU); results are identical to a serial run, only faster.
"""

import argparse
import time

from repro.core import safety_period
from repro.das import centralized_das_schedule
from repro.experiments import (
    PAPER,
    format_figure5,
    format_overhead,
    format_table1,
    measure_setup_overhead,
    run_figure5,
    workers_argument,
)
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import paper_grid
from repro.verification import verify_schedule

REPEATS = 30
VERIFIER_SEEDS = 200


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=workers_argument,
        default=None,
        help="worker processes for seed sweeps (default: serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=REPEATS,
        help=f"runs per Figure 5 bar (default {REPEATS})",
    )
    def non_negative(value: str) -> int:
        count = int(value)
        if count < 0:
            raise argparse.ArgumentTypeError("--verifier-seeds must be >= 0")
        return count

    parser.add_argument(
        "--verifier-seeds",
        type=non_negative,
        default=VERIFIER_SEEDS,
        help=(
            f"seeds for the verifier-based estimates "
            f"(default {VERIFIER_SEEDS}; 0 skips the section)"
        ),
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    t0 = time.time()
    print(format_table1())
    print()

    for sd in (3, 5):
        panel = run_figure5(
            sd, repeats=args.repeats, noise="casino", workers=args.workers
        )
        print(format_figure5(panel))
        print()

    n = args.verifier_seeds
    sizes = (11, 15, 21) if n else ()
    if n:
        print(f"Verifier-based estimates ({n} seeds, deterministic, ideal links):")
    for size in sizes:
        grid = paper_grid(size)
        delta = safety_period(grid, PAPER.frame().period_length).periods
        base = s3 = s5 = 0
        for seed in range(n):
            schedule = centralized_das_schedule(grid, seed=seed)
            base += not verify_schedule(grid, schedule, delta).slp_aware
            for sd in (3, 5):
                refined = build_slp_schedule(
                    grid, SlpParameters(sd), seed=seed, baseline=schedule
                ).schedule
                captured = not verify_schedule(grid, refined, delta).slp_aware
                if sd == 3:
                    s3 += captured
                else:
                    s5 += captured
        def red(captured: int) -> str:
            # With few seeds the baseline may capture nothing; a
            # reduction against zero captures is undefined.
            if base == 0:
                return "n/a"
            return f"{100 * (1 - captured / base):.0f}%"

        print(
            f"  {size}x{size}: base {100 * base / n:.1f}%  "
            f"SD=3 {100 * s3 / n:.1f}% (red {red(s3)})  "
            f"SD=5 {100 * s5 / n:.1f}% (red {red(s5)})"
        )
    print()

    print("Distributed setup overhead (full MSP = 80, 11x11):")
    measurement = measure_setup_overhead(
        paper_grid(11), seeds=(0, 1, 2), workers=args.workers
    )
    print(format_overhead(measurement))
    print(f"\n(total {time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
