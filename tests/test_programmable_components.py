"""Tests for the programmable prefetcher's building blocks.

Covers the EWMA calculators, droppable queues, global registers, address
filter, PPU bookkeeping, scheduling policies and the configuration API.  The
filter and PPU bookkeeping are observed through the engine that drives them.
"""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.programmable.config_api import PrefetcherConfiguration
from repro.programmable.ewma import EWMA, MAX_LOOKAHEAD, MIN_LOOKAHEAD, LookaheadCalculator
from repro.programmable.events import Observation, ObservationKind, PrefetchRequest
from repro.programmable.filter import AddressFilter
from repro.programmable.kernel import KernelBuilder
from repro.programmable.ppu import EVENT_DISPATCH_OVERHEAD_PPU_CYCLES, PPU
from repro.programmable.prefetcher import EventTriggeredPrefetcher
from repro.programmable.queues import ObservationQueue, PrefetchRequestQueue
from repro.programmable.registers import GlobalRegisterFile
from repro.programmable.scheduler import LowestFreeIdPolicy, RoundRobinPolicy


def simple_kernel(name="k"):
    builder = KernelBuilder(name)
    builder.prefetch(builder.get_vaddr())
    return builder.build()


class TestEWMA:
    def test_first_sample_sets_value(self):
        ewma = EWMA(alpha=0.5)
        assert ewma.update(10.0) == 10.0

    def test_smoothing(self):
        ewma = EWMA(alpha=0.5)
        ewma.update(10.0)
        assert ewma.update(20.0) == pytest.approx(15.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            EWMA().update(-1.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            EWMA(alpha=0.0)


class TestLookaheadCalculator:
    def test_default_distance_before_samples(self):
        calc = LookaheadCalculator(default_distance=6)
        assert calc.lookahead() == 6

    def test_lookahead_ratio(self):
        calc = LookaheadCalculator(iteration_window=1)
        for i in range(20):
            calc.observe_iteration(i * 50.0)
        calc.observe_chain(0.0, 400.0)
        # chain 400 / iteration 50 → 8 (+1 margin)
        assert 8 <= calc.lookahead() <= 10

    def test_lookahead_clamped(self):
        calc = LookaheadCalculator(iteration_window=1)
        calc.observe_iteration(0.0)
        calc.observe_iteration(1.0)
        calc.observe_chain(0.0, 1e9)
        assert calc.lookahead() == MAX_LOOKAHEAD
        calc2 = LookaheadCalculator(iteration_window=1)
        calc2.observe_iteration(0.0)
        calc2.observe_iteration(1000.0)
        calc2.observe_chain(0.0, 0.0)
        assert calc2.lookahead() >= MIN_LOOKAHEAD

    def test_bursty_observations_smoothed(self):
        calc = LookaheadCalculator(iteration_window=4)
        # 4 observations almost together, then a long gap, repeatedly: the
        # averaged iteration time should be ≈ gap / 4, not ≈ 0.
        time = 0.0
        for _ in range(8):
            for burst in range(4):
                calc.observe_iteration(time + burst)
            time += 400.0
        assert calc.iteration_time.value == pytest.approx(100.0, rel=0.3)

    def test_reset(self):
        calc = LookaheadCalculator(iteration_window=1)
        calc.observe_iteration(0.0)
        calc.observe_iteration(10.0)
        calc.observe_chain(0.0, 100.0)
        calc.reset()
        assert calc.lookahead() == calc.default_distance


class TestQueues:
    def _observation(self, addr=0):
        return Observation(
            kind=ObservationKind.LOAD,
            addr=addr,
            time=0.0,
            kernel_name="k",
            line_base=0,
        )

    def test_fifo_order(self):
        queue = ObservationQueue(4)
        for i in range(3):
            queue.push(self._observation(i))
        assert queue.pop().addr == 0
        assert queue.pop().addr == 1

    def test_oldest_dropped_on_overflow(self):
        queue = ObservationQueue(2)
        for i in range(3):
            queue.push(self._observation(i))
        assert queue.dropped == 1
        assert queue.pop().addr == 1

    def test_pop_empty_returns_none(self):
        assert ObservationQueue(2).pop() is None

    def test_request_queue_capacity(self):
        queue = PrefetchRequestQueue(3)
        for i in range(5):
            queue.push(PrefetchRequest(addr=i, tag=-1, issue_time=0.0))
        assert len(queue) == 3
        assert queue.dropped == 2
        assert queue.pushed == 5

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ObservationQueue(0)


class TestGlobalRegisters:
    def test_define_and_read(self):
        regs = GlobalRegisterFile(4)
        index = regs.define("base_A", 0x1234)
        assert regs.read(index) == 0x1234
        assert regs.index_of("base_A") == index

    def test_redefine_updates_value(self):
        regs = GlobalRegisterFile(4)
        index = regs.define("x", 1)
        assert regs.define("x", 2) == index
        assert regs.read(index) == 2

    def test_capacity_enforced(self):
        regs = GlobalRegisterFile(2)
        regs.define("a", 1)
        regs.define("b", 2)
        with pytest.raises(ConfigurationError):
            regs.define("c", 3)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            GlobalRegisterFile(2).index_of("missing")

    def test_snapshot_is_copy(self):
        regs = GlobalRegisterFile(2)
        regs.define("a", 5)
        snapshot = regs.snapshot()
        snapshot[0] = 99
        assert regs.read(0) == 5


class TestConfigurationAPI:
    def test_round_trip(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("on_load"))
        config.add_stream("s", default_distance=8)
        config.set_global("base", 0x1000)
        tag = config.add_tag("fill", "on_load", stream="s")
        config.add_range("A", 0x1000, 0x2000, load_kernel="on_load", stream="s")
        config.validate()
        assert config.tag(tag).kernel == "on_load"
        assert config.global_index("base") == 0
        assert config.stream_index("s") == 0
        assert config.config_instruction_count() > 0
        assert config.code_footprint_bytes() > 0

    def test_duplicate_kernel_rejected(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("k"))
        with pytest.raises(ConfigurationError):
            config.add_kernel(simple_kernel("k"))

    def test_unknown_kernel_reference_rejected(self):
        config = PrefetcherConfiguration()
        config.add_range("A", 0, 64, load_kernel="missing")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_unknown_stream_reference_rejected(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("k"))
        config.add_range("A", 0, 64, load_kernel="k", stream="ghost")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_invalid_range_rejected(self):
        config = PrefetcherConfiguration()
        with pytest.raises(ConfigurationError):
            config.add_range("A", 100, 100)

    def test_tag_ids_stable_by_name(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("k"))
        first = config.add_tag("t", "k")
        assert config.add_tag("t", "k") == first
        assert config.tag_by_name("t") == first


def filter_config():
    """Range A triggers on loads, overlapping range B on prefetch fills.

    A's load kernel prefetches 0x400 bytes past the loaded address, so a load
    in the top of A raises a fill inside B; B's fill kernel prefetches nothing.
    """

    config = PrefetcherConfiguration()
    on_load = KernelBuilder("on_load")
    on_load.prefetch(on_load.add(on_load.get_vaddr(), 0x400))
    config.add_kernel(on_load.build())
    on_fill = KernelBuilder("on_fill")
    on_fill.get_data()
    config.add_kernel(on_fill.build())
    config.add_stream("s")
    config.add_range("A", 0x1000, 0x2000, load_kernel="on_load", stream="s", time_iterations=True)
    config.add_range("B", 0x1800, 0x3000, prefetch_kernel="on_fill")
    config.validate()
    return config


def attached_engine(config=None):
    """An engine on a hierarchy whose memory maps 0x1000-0x4000."""

    system = SystemConfig.scaled()
    space = AddressSpace(heap_base=0x1000)
    space.allocate_array("mapped", 0x3000 // 8)
    hierarchy = MemoryHierarchy(system, space)
    engine = EventTriggeredPrefetcher(system, config or filter_config())
    engine.attach(hierarchy)
    return engine, hierarchy


class TestAddressFilter:
    def test_load_matching(self):
        engine, hierarchy = attached_engine()
        hierarchy.demand_access(0x1100, 0.0)
        assert engine.stats.observations_created == 1
        hierarchy.demand_access(0x4000, 10.0)
        assert engine.stats.observations_created == 1
        engine.finalize(10_000.0)
        # A's kernel ran once; its prefetch (0x1500) lies outside B.
        assert engine.stats.events_executed == 1
        assert engine.stats.fills_observed == 0

    def test_overlapping_ranges_both_match(self):
        engine, hierarchy = attached_engine()
        hierarchy.demand_access(0x1900, 0.0)  # in A and B; B has no load kernel
        assert engine.stats.observations_created == 1
        engine.finalize(10_000.0)
        # The prefetch of 0x1d00 returns inside B and raises B's fill kernel.
        assert engine.stats.fills_observed == 1
        assert engine.stats.observations_created == 2
        assert engine.stats.events_executed == 2
        # B matched once when the request issued and once when it filled.
        assert engine.filter.stats.prefetch_matches == 2

    def test_prefetch_matching(self):
        engine, hierarchy = attached_engine()
        hierarchy.demand_access(0x1c00, 0.0)
        engine.finalize(10_000.0)
        # The prefetch of 0x2000 lies in B only: B's fill kernel runs on it.
        assert engine.stats.fills_observed == 1
        assert engine.stats.events_executed == 2

    def test_capacity_enforced(self):
        with pytest.raises(ConfigurationError):
            AddressFilter(filter_config(), max_entries=1)

    def test_stats_recorded(self):
        engine, hierarchy = attached_engine()
        hierarchy.demand_access(0x1100, 0.0)
        hierarchy.demand_access(0x9000, 10.0)
        assert engine.filter.stats.load_snoops == 2
        assert engine.filter.stats.load_matches == 1
        assert engine.stats.loads_snooped == 2


class TestPPUAndScheduling:
    def test_ppu_busy_accounting(self):
        engine, hierarchy = attached_engine()
        hierarchy.demand_access(0x1100, 100.0)
        engine.advance_to(10_000.0)
        first, second = engine.ppus[:2]
        duration = (
            engine.stats.ppu_instructions + EVENT_DISPATCH_OVERHEAD_PPU_CYCLES
        ) * engine.cycle_ratio
        assert first.stats.busy_cycles == pytest.approx(duration)
        assert first.busy_until >= 100.0 + duration
        assert first.stats.events_executed == 1
        assert second.busy_until == 0.0
        assert first.activity_factor(first.busy_until) > 0

    def test_activity_factor_clamped(self):
        ppu = PPU(0)
        ppu.stats.busy_cycles = 500.0
        assert ppu.activity_factor(100.0) == 1.0
        assert PPU(1).activity_factor(0.0) == 0.0

    def test_lowest_free_id_policy(self):
        ppus = [PPU(0), PPU(1), PPU(2)]
        ppus[0].busy_until = 100.0
        policy = LowestFreeIdPolicy()
        assert policy.select(ppus, 50.0).ppu_id == 1
        assert policy.select(ppus, 200.0).ppu_id == 0

    def test_lowest_free_id_returns_none_when_all_busy(self):
        ppus = [PPU(0)]
        ppus[0].busy_until = 10.0
        assert LowestFreeIdPolicy().select(ppus, 5.0) is None

    def test_round_robin_spreads_work(self):
        ppus = [PPU(i) for i in range(3)]
        policy = RoundRobinPolicy()
        picks = [policy.select(ppus, 0.0).ppu_id for _ in range(3)]
        assert picks == [0, 1, 2]
