"""Tests for radio energy accounting."""

import pytest

from repro.das import DasProtocolConfig, run_das_setup
from repro.errors import ConfigurationError
from repro.metrics import (
    EnergyModel,
    EnergyReport,
    estimate_lifetime_periods,
    measure_energy,
)
from repro.simulator import DELIVER, SEND, TraceRecorder
from repro.slp import SlpProtocolConfig, run_slp_setup
from repro.topology import GridTopology


def trace_with(sends: int, delivers: int) -> TraceRecorder:
    t = TraceRecorder(kinds=frozenset())  # counts only, nothing retained
    for _ in range(sends):
        t.record(0.0, SEND)
    for _ in range(delivers):
        t.record(0.0, DELIVER)
    return t


class TestEnergyModel:
    def test_defaults_positive(self):
        m = EnergyModel()
        assert m.tx_microjoules > m.rx_microjoules > 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(tx_microjoules=-1)


class TestMeasurement:
    def test_counts_folded(self):
        report = measure_energy(trace_with(10, 30), EnergyModel(50.0, 25.0))
        assert report.transmissions == 10
        assert report.receptions == 30
        assert report.tx_microjoules == pytest.approx(500.0)
        assert report.rx_microjoules == pytest.approx(750.0)
        assert report.total_microjoules == pytest.approx(1250.0)
        assert report.total_millijoules == pytest.approx(1.25)

    def test_filtered_trace_still_counts(self):
        # kinds filter retains nothing, but counts survive.
        report = measure_energy(trace_with(5, 5))
        assert report.transmissions == 5

    def test_overhead_versus(self):
        base = measure_energy(trace_with(100, 300))
        slp = measure_energy(trace_with(110, 330))
        assert slp.overhead_versus(base) == pytest.approx(0.10)

    def test_overhead_zero_baseline(self):
        zero = measure_energy(trace_with(0, 0))
        assert zero.overhead_versus(zero) == 0.0
        assert measure_energy(trace_with(1, 0)).overhead_versus(zero) == float("inf")


class TestLifetime:
    def test_estimate(self):
        # 1 J per period from an 8640 J budget -> 8640 periods.
        assert estimate_lifetime_periods(1e6, battery_joules=8640.0) == pytest.approx(
            8640.0
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_lifetime_periods(0.0)
        with pytest.raises(ConfigurationError):
            estimate_lifetime_periods(1.0, battery_joules=0.0)


class TestEndToEnd:
    def test_slp_energy_overhead_is_small(self):
        """The energy form of the paper's overhead claim."""
        grid = GridTopology(5)
        das_cfg = DasProtocolConfig(setup_periods=35)
        baseline = run_das_setup(grid, config=das_cfg, seed=0)
        slp = run_slp_setup(
            grid,
            config=SlpProtocolConfig(
                das=das_cfg, search_distance=2, change_length=3,
                refinement_periods=20,
            ),
            seed=0,
        )
        base_energy = measure_energy(baseline.simulator.trace)
        slp_energy = measure_energy(slp.simulator.trace)
        assert slp_energy.total_microjoules >= base_energy.total_microjoules
        # At this deliberately tiny scale (5x5, 35-round setup) the
        # refinement's update disseminations weigh relatively heavily;
        # at the paper's scale (MSP = 80, 11x11) the measured overhead
        # is under 10% (see the setup-overhead section of the report
        # scripts/generate_experiments.py prints).  Guard the order of
        # magnitude here, not the paper-scale figure.
        assert slp_energy.overhead_versus(base_energy) < 0.5
