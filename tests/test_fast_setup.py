"""Differential tests for the setup-phase fast kernel.

The contract: ``run_das_setup`` / ``run_slp_setup`` with the flat-round
setup kernel (:mod:`repro.das.fast_setup`, the default) are
*bit-identical* to the legacy event-heap engine — same RNG stream, same
``Schedule``, same retained trace records and per-kind counters, same
``messages_sent``, same final process state — across topologies, noise
models and seeds, and the kernel falls back to the heap automatically
for protocol subclasses and round geometries it cannot prove safe.
"""

from __future__ import annotations

import pytest

import repro.das.fast_setup as fs
from repro.das import (
    DasNodeProcess,
    DasProtocolConfig,
    fast_setup_compilable,
    fast_setup_supported,
    run_das_setup,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.simulator import BernoulliNoise, CasinoLabNoise, IdealNoise
from repro.simulator import trace as trace_kinds
from repro.slp.distributed import SlpNodeProcess, SlpProtocolConfig, run_slp_setup
from repro.topology import (
    GridTopology,
    LineTopology,
    RingTopology,
    random_geometric_topology,
)

#: Seeds per (topology, noise) cell.  The issue's floor is 10.
SEEDS = range(10)

#: A trimmed round count keeps the legacy reference runs affordable;
#: the engines must agree for *any* config, so nothing is lost.
DAS_CFG = DasProtocolConfig(setup_periods=24)
SLP_CFG = SlpProtocolConfig(
    das=DAS_CFG, search_distance=2, change_length=3, refinement_periods=8
)

TOPOLOGIES = {
    "grid5": lambda: GridTopology(5),
    "line9": lambda: LineTopology(9),
    "ring8": lambda: RingTopology(8),
    "random16": lambda: random_geometric_topology(
        16, area_side=100.0, communication_range=40.0, seed=7
    ),
}

NOISES = {
    "ideal": lambda: IdealNoise(),
    "bernoulli": lambda: BernoulliNoise(0.1),
    "casino": lambda: CasinoLabNoise(),
}

#: The DAS differential's (topology, noise, config, seeds) cells: every
#: noise on every small topology at the trimmed config, plus the paper's
#: 15×15 grid at 20 setup rounds, casino and ideal, on one seed (the
#: legacy heap is the costly side there).
DAS_CELLS = [
    pytest.param(TOPOLOGIES[topo], NOISES[noise], DAS_CFG, SEEDS, id=f"{noise}-{topo}")
    for noise in sorted(NOISES)
    for topo in sorted(TOPOLOGIES)
] + [
    pytest.param(
        lambda: GridTopology(15),
        NOISES[noise],
        DasProtocolConfig(setup_periods=20),
        (0,),
        id=f"{noise}-grid15",
    )
    for noise in ("casino", "ideal")
]

COUNTED_KINDS = (
    trace_kinds.SEND,
    trace_kinds.DELIVER,
    trace_kinds.DROP,
    trace_kinds.SLOT_ASSIGNED,
    trace_kinds.SLOT_CHANGED,
    trace_kinds.PHASE,
)

#: Every observable attribute the harness or result extraction reads.
DAS_ATTRS = (
    "slot",
    "hop",
    "parent",
    "normal",
    "my_neighbours",
    "potential_parents",
    "children",
    "others",
    "ninfo",
    "_round",
    "_quiet_rounds",
    "_weak_mode",
)
SLP_ATTRS = DAS_ATTRS + (
    "from_set",
    "is_start_node",
    "is_decoy",
    "search_forwarded",
    "redirect_length",
    "search_sent",
    "change_sent",
)


def _counts(result):
    return {kind: result.simulator.trace.count(kind) for kind in COUNTED_KINDS}


def _assert_identical(fast, legacy, attrs=DAS_ATTRS):
    assert fast.schedule.slots() == legacy.schedule.slots()
    assert fast.schedule.parents() == legacy.schedule.parents()
    assert fast.messages_sent == legacy.messages_sent
    assert _counts(fast) == _counts(legacy)
    assert fast.simulator.trace.records == legacy.simulator.trace.records
    for node in legacy.simulator.topology.nodes:
        fp = fast.simulator.process_at(node)
        lp = legacy.simulator.process_at(node)
        for attr in attrs:
            assert getattr(fp, attr) == getattr(lp, attr), (node, attr)


class TestDasDifferential:
    @pytest.mark.parametrize("make_topo, make_noise, config, seeds", DAS_CELLS)
    def test_fast_matches_legacy(self, make_topo, make_noise, config, seeds):
        for seed in seeds:
            fast = run_das_setup(
                make_topo(),
                config=config,
                seed=seed,
                noise=make_noise(),
                setup_kernel="fast",
            )
            legacy = run_das_setup(
                make_topo(),
                config=config,
                seed=seed,
                noise=make_noise(),
                setup_kernel="legacy",
            )
            _assert_identical(fast, legacy)

    def test_default_config_matches_legacy(self, grid7):
        """One cell at the paper's full Table I parameters (80 rounds)."""
        fast = run_das_setup(GridTopology(7), seed=0, setup_kernel="fast")
        legacy = run_das_setup(GridTopology(7), seed=0, setup_kernel="legacy")
        _assert_identical(fast, legacy)


class TestSlpDifferential:
    @pytest.mark.parametrize("topo_name", ["grid5", "random16"])
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_fast_matches_legacy(self, topo_name, noise_name):
        make_topo = TOPOLOGIES[topo_name]
        make_noise = NOISES[noise_name]
        for seed in SEEDS:
            fast = run_slp_setup(
                make_topo(),
                config=SLP_CFG,
                seed=seed,
                noise=make_noise(),
                setup_kernel="fast",
            )
            legacy = run_slp_setup(
                make_topo(),
                config=SLP_CFG,
                seed=seed,
                noise=make_noise(),
                setup_kernel="legacy",
            )
            _assert_identical(fast, legacy, attrs=SLP_ATTRS)
            assert fast.search_messages == legacy.search_messages
            assert fast.change_messages == legacy.change_messages
            assert fast.start_node == legacy.start_node
            assert fast.decoy_path == legacy.decoy_path

    def test_default_config_matches_legacy(self, grid7):
        """The harness-computed CL/SD defaults, full 80 + 20 rounds."""
        fast = run_slp_setup(GridTopology(7), seed=1, setup_kernel="fast")
        legacy = run_slp_setup(GridTopology(7), seed=1, setup_kernel="legacy")
        _assert_identical(fast, legacy, attrs=SLP_ATTRS)


class TestProtocolErrors:
    """Failure parity: both engines raise the same ProtocolError."""

    def test_unassigned_nodes_raise_identically(self):
        """Too few rounds for the assignment wave to cross the line:
        distant nodes never obtain a slot, under either engine."""
        cfg = DasProtocolConfig(setup_periods=3, neighbour_discovery_periods=1)
        errors = []
        for kernel in ("fast", "legacy"):
            with pytest.raises(ProtocolError) as exc:
                run_das_setup(LineTopology(9), config=cfg, seed=0, setup_kernel=kernel)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert "never obtained a slot" in errors[0]

    def test_invalid_setup_kernel_rejected(self, grid5):
        with pytest.raises(ConfigurationError, match="setup_kernel"):
            run_das_setup(grid5, seed=0, setup_kernel="warp")
        with pytest.raises(ConfigurationError, match="setup_kernel"):
            run_slp_setup(grid5, seed=0, setup_kernel="warp")


class TestFallbackGates:
    def test_subclass_is_not_compilable(self):
        class CustomProcess(DasNodeProcess):
            pass

        processes = {
            0: CustomProcess(0, is_sink=True, config=DAS_CFG),
            1: DasNodeProcess(1, is_sink=False, config=DAS_CFG),
        }
        assert not fast_setup_compilable(processes, DasNodeProcess)
        assert fast_setup_compilable(
            {n: DasNodeProcess(n, is_sink=n == 0, config=DAS_CFG) for n in (0, 1)},
            DasNodeProcess,
        )

    def test_subclass_falls_back_to_heap_with_identical_results(
        self, grid5, monkeypatch
    ):
        """A process_factory subclass must never enter the fast kernel —
        and the heap run it falls back to equals an explicit legacy run."""

        class CustomProcess(DasNodeProcess):
            pass

        called = []
        real = fs.run_fast_setup
        monkeypatch.setattr(
            fs, "run_fast_setup", lambda *a, **k: called.append(True) or real(*a, **k)
        )
        import repro.das.protocol as protocol

        monkeypatch.setattr(
            protocol, "run_fast_setup", fs.run_fast_setup, raising=True
        )
        fell_back = run_das_setup(
            grid5,
            config=DAS_CFG,
            seed=3,
            process_factory=CustomProcess,
            setup_kernel="fast",
        )
        assert not called
        legacy = run_das_setup(
            grid5, config=DAS_CFG, seed=3, setup_kernel="legacy"
        )
        assert fell_back.schedule.slots() == legacy.schedule.slots()
        assert fell_back.messages_sent == legacy.messages_sent

    def test_degenerate_jitter_is_not_supported(self):
        """jitter_fraction == 1.0 lets a broadcast land past the round
        boundary; the static gate must refuse it."""
        cfg = DasProtocolConfig(jitter_fraction=1.0)
        assert not fast_setup_supported(cfg, 1e-4)
        assert fast_setup_supported(DasProtocolConfig(), 1e-4)

    def test_slp_chain_budget_counts_against_the_round(self):
        """The SLP search/change chain tightens the timing gate: a huge
        propagation delay passes the plain-DAS check but not SLP's."""
        cfg = DasProtocolConfig()  # 0.5 s period, 0.8 jitter
        delay = 0.05  # one hop fits (0.4 + 0.05 < 0.5) ...
        assert fast_setup_supported(cfg, delay)
        # ... but a 40+-hop search chain does not.
        assert not fast_setup_supported(
            cfg, delay, search_distance=3, change_length=5
        )

    def test_default_run_uses_the_fast_kernel(self, grid5, monkeypatch):
        """The default engages the kernel (not a silent permanent
        fallback)."""
        import repro.das.protocol as protocol

        called = []
        real = fs.run_fast_setup

        def spy(*args, **kwargs):
            called.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol, "run_fast_setup", spy)
        run_das_setup(grid5, config=DAS_CFG, seed=0)
        assert called


class TestExperimentThreading:
    """setup_kernel travels through ExperimentConfig and the runners."""

    def test_distributed_builds_identical_across_kernels(self, grid5):
        from repro.experiments import ExperimentConfig, ExperimentRunner

        params_kwargs = dict(
            algorithm="slp",
            use_distributed=True,
            repeats=1,
            use_schedule_cache=False,
        )
        runner = ExperimentRunner(grid5)
        fast = runner.build_schedule(
            ExperimentConfig(setup_kernel="fast", **params_kwargs), seed=4
        )
        legacy = runner.build_schedule(
            ExperimentConfig(setup_kernel="legacy", **params_kwargs), seed=4
        )
        assert fast.slots() == legacy.slots()
        assert fast.parents() == legacy.parents()

    def test_cache_keys_never_share_entries_across_setup_kernels(self, grid5):
        """Selecting legacy is a bisection: it must not be handed a
        fast-built cache entry (and vice versa)."""
        from repro.experiments import ExperimentConfig, ExperimentRunner

        runner = ExperimentRunner(grid5)
        kf = runner.schedule_key_for(
            ExperimentConfig(use_distributed=True, setup_kernel="fast"), 0
        )
        kl = runner.schedule_key_for(
            ExperimentConfig(use_distributed=True, setup_kernel="legacy"), 0
        )
        kd = runner.schedule_key_for(
            ExperimentConfig(use_distributed=True), 0
        )
        assert kf != kl
        assert kd == kf  # None resolves to the default engine (fast)
        # Centralised builds ignore the knob entirely.
        kc1 = runner.schedule_key_for(ExperimentConfig(setup_kernel="fast"), 0)
        kc2 = runner.schedule_key_for(ExperimentConfig(setup_kernel="legacy"), 0)
        assert kc1 == kc2

    def test_scenario_runner_override_is_bit_identical(self):
        from repro.scenarios import ScenarioRunner

        fast = ScenarioRunner(setup_kernel="fast").run("paper-baseline", seeds=2)
        legacy = ScenarioRunner(setup_kernel="legacy").run("paper-baseline", seeds=2)
        assert fast.to_json() == legacy.to_json()


class TestScheduleShipping:
    """Satellite: the parallel runner ships already-built schedules with
    each worker chunk, and the accounting stays truthful."""

    def _distributed_config(self):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig(
            algorithm="protectionless",
            use_distributed=True,
            repeats=3,
            max_periods=4,
        )

    def test_parent_ships_only_warm_entries_counter_neutrally(self, grid5):
        from repro.experiments import ParallelExperimentRunner
        from repro.experiments.schedule_cache import ScheduleCache

        cache = ScheduleCache()
        runner = ParallelExperimentRunner(grid5, workers=2, schedule_cache=cache)
        config = self._distributed_config()
        # Cold parent: nothing to ship.
        assert runner._cached_schedules_for(config, (0, 1, 2)) is None
        # Warm one seed; exactly that entry travels.
        built = runner.build_schedule(config, 1)
        before = cache.stats()
        shipped = runner._cached_schedules_for(config, (0, 1, 2))
        assert cache.stats() == before  # peek is counter-neutral
        assert shipped is not None and len(shipped) == 1
        key = runner.schedule_key_for(config, 1)
        assert shipped[key] is built

    def test_worker_chunk_reuses_preloaded_schedules(self, grid5):
        """_run_seed_chunk with a shipped payload takes cache hits, not
        rebuilds — run in-process so the default cache is observable."""
        from repro.experiments import ExperimentRunner
        from repro.experiments.parallel import _run_seed_chunk
        from repro.experiments.schedule_cache import (
            default_schedule_cache,
            reset_default_cache,
        )

        config = self._distributed_config()
        parent = ExperimentRunner(grid5)
        shipped = {
            parent.schedule_key_for(config, seed): parent._build_schedule(
                config, seed
            )
            for seed in (0, 1)
        }
        reset_default_cache()
        try:
            results = _run_seed_chunk(grid5, config, (0, 1), shipped)
            stats = default_schedule_cache().stats()
            assert len(results) == 2
            assert stats["hits"] == 2  # both lookups found shipped entries
            assert stats["misses"] == 0  # preload itself counted nothing
        finally:
            reset_default_cache()

    def test_pool_results_identical_with_warm_and_cold_parent(self, grid5):
        from repro.experiments import (
            ExperimentRunner,
            ParallelExperimentRunner,
        )

        config = self._distributed_config()
        serial = ExperimentRunner(grid5).run(config)
        with ParallelExperimentRunner(grid5, workers=2) as pool_runner:
            # Warm the parent cache so chunks ship real payloads.
            for i in range(config.repeats):
                pool_runner.build_schedule(config, config.base_seed + i)
            warm = pool_runner.run(config)
        assert warm.results == serial.results
        assert warm.stats == serial.stats
