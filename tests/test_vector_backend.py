"""Tests for the vectorized replay backend.

Three layers of evidence that the backend is a pure wall-clock change:

1. a *differential harness* — hypothesis-generated op sequences replayed
   through both backends over identical hierarchies, on the default and on
   three other cache geometries, must produce identical core and hierarchy
   statistics, floats included;
2. the *golden fingerprints* — every non-programmable golden entry must be
   reproduced bit-for-bit with the vector backend forced on;
3. *geometry requests* — engine requests that differ only in cache geometry
   must equal direct simulations.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import TraceBuilder
from repro.errors import VectorBackendUnsupported
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.stride import StridePrefetcher
from repro.sim import (
    PrefetchMode,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
    mode_available,
    simulate,
    vector_backend_enabled,
)
from repro.sim.vector import BACKEND_ENV_VAR, TraceColumnPlan
from repro.sim.vector import columns as vector_columns
from repro.sim.vector.replay import replay_trace
from repro.workloads import registry

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_stats.json"


@pytest.fixture(scope="module")
def config():
    return SystemConfig.scaled()


@pytest.fixture(scope="module")
def golden_stats():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestBackendSelection:
    def test_default_is_vector_when_numpy_present(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert vector_backend_enabled()

    @pytest.mark.parametrize("value", ["interp", "interpreter", "off", "0", "false", "NO"])
    def test_off_values_force_the_interpreter(self, monkeypatch, value):
        monkeypatch.setenv(BACKEND_ENV_VAR, value)
        assert not vector_backend_enabled()

    @pytest.mark.parametrize("value", ["vector", "", "on", "anything-else"])
    def test_other_values_keep_the_backend_on(self, monkeypatch, value):
        monkeypatch.setenv(BACKEND_ENV_VAR, value)
        assert vector_backend_enabled()

    def test_numpy_absent_disables_the_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(vector_columns, "_np", None)
        assert not vector_backend_enabled()

    def test_numpy_absent_still_simulates(self, tiny_workloads, config, monkeypatch):
        workload = tiny_workloads.get("randacc")
        with_numpy = simulate(workload, PrefetchMode.NONE, config)
        monkeypatch.setattr(vector_columns, "_np", None)
        without = simulate(workload, PrefetchMode.NONE, config)
        assert without.as_dict() == with_numpy.as_dict()

    def test_plan_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(vector_columns, "_np", None)
        trace = TraceBuilder().build()
        with pytest.raises(VectorBackendUnsupported):
            TraceColumnPlan(
                trace, page_bytes=4096, line_shift=6, set_mask=63, set_shift=6, issue_width=3
            )


class TestLaneSupport:
    def test_programmable_hierarchy_is_rejected(self, tiny_workloads, config):
        from repro.programmable.prefetcher import EventTriggeredPrefetcher

        workload = tiny_workloads.get("intsort")
        workload.build()
        hierarchy = MemoryHierarchy(config, workload.space)
        engine = EventTriggeredPrefetcher(config, workload.manual_configuration())
        engine.attach(hierarchy)
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(workload.trace("plain"), hierarchy, config.core)

    def test_l1_l2_line_size_mismatch_is_rejected(self, tiny_workloads, config, monkeypatch):
        mismatched = config.with_caches(l2={"line_bytes": 128})
        workload = tiny_workloads.get("intsort")
        workload.build()
        hierarchy = MemoryHierarchy(mismatched, workload.space)
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(workload.trace("plain"), hierarchy, mismatched.core)
        # simulate() falls back to the interpreter with identical results.
        vector = simulate(workload, PrefetchMode.NONE, mismatched)
        monkeypatch.setenv(BACKEND_ENV_VAR, "interp")
        assert vector.as_dict() == simulate(workload, PrefetchMode.NONE, mismatched).as_dict()

    def test_negative_addresses_are_rejected(self, config):
        builder = TraceBuilder()
        builder._emit(1, -64, 1, ())  # loads never emit negative addresses
        trace = builder.build()
        hierarchy = MemoryHierarchy(config, AddressSpace())
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(trace, hierarchy, config.core)

    def test_rejection_happens_before_any_state_mutation(self, config):
        builder = TraceBuilder()
        builder.load(0)
        builder._emit(1, -64, 1, ())
        trace = builder.build()
        hierarchy = MemoryHierarchy(config, AddressSpace())
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(trace, hierarchy, config.core)
        stats = hierarchy.collect_stats()
        assert stats.l1["demand_read_accesses"] == 0
        assert stats.dram["demand_accesses"] == 0


#: Addresses confined to two line slots of 32 page-sized blocks.  Every
#: tested L1 and L2 way size is a multiple of 4 KB, so these lines fall into
#: at most eight sets of any geometry: short traces then evict from both
#: levels and hit in L2 after an L1 eviction, and a wrong set/tag split for
#: the geometry changes the outcome.
_CONFLICTING_ADDR = st.builds(
    lambda block, slot, offset: block * 4096 + slot * 64 + offset,
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=56),
)

# One generated op: (kind, raw address, compute size, raw dependence seeds).
_OP = st.tuples(
    st.sampled_from(["load", "store", "compute", "branch", "swpf"]),
    st.one_of(st.integers(min_value=0, max_value=(1 << 16) - 8), _CONFLICTING_ADDR),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=1 << 30), max_size=2),
)


def _build_trace(ops):
    """Deterministically map generated op specs onto a valid trace."""

    builder = TraceBuilder()
    for index, (kind, addr, count, dep_seeds) in enumerate(ops):
        deps = [seed % index for seed in dep_seeds] if index else []
        if kind == "load":
            builder.load(addr, deps)
        elif kind == "store":
            builder.store(addr, deps)
        elif kind == "compute":
            builder.compute(count, deps)
        elif kind == "branch":
            builder.branch(deps)
        else:
            builder.software_prefetch(addr, deps)
    return builder.build()


GEOMETRIES = [
    {"l1": {"size_bytes": 8 * 1024}},
    {"l1": {"size_bytes": 32 * 1024}},
    {"l1": {"size_bytes": 16 * 1024, "associativity": 4}, "l2": {"size_bytes": 128 * 1024}},
]

#: The default configuration plus three other cache geometries.
HARNESS_CONFIGS = [SystemConfig.scaled()] + [
    SystemConfig.scaled().with_caches(**geometry) for geometry in GEOMETRIES
]
HARNESS_IDS = ["default", "l1-8k", "l1-32k", "l1-4way-l2-128k"]


def _run_both(trace, config, *, with_stride):
    """Replay ``trace`` through interpreter and vector backends."""

    outcomes = []
    for backend in ("interp", "vector"):
        hierarchy = MemoryHierarchy(config, AddressSpace())
        if with_stride:
            StridePrefetcher(config.stride).attach(hierarchy)
        if backend == "interp":
            core_stats = OutOfOrderCore(config.core, hierarchy).run(trace)
        else:
            # A tiny chunk size forces several chunk crossings per example,
            # covering the carried-state (ROB window, MSHR, TLB) seams.
            core_stats = replay_trace(trace, hierarchy, config.core, chunk_ops=17)
        hierarchy.finalize()
        outcomes.append((core_stats.as_dict(), hierarchy.collect_stats()))
    return outcomes


class TestDifferentialHarness:
    """Random op sequences must replay identically through both backends."""

    @pytest.mark.parametrize("config", HARNESS_CONFIGS, ids=HARNESS_IDS)
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, max_size=120))
    def test_pure_lane_matches_interpreter(self, config, ops):
        trace = _build_trace(ops)
        (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
            trace, config, with_stride=False
        )
        assert vector_core == interp_core
        assert vector_hier == interp_hier

    @pytest.mark.parametrize("config", HARNESS_CONFIGS, ids=HARNESS_IDS)
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, max_size=120))
    def test_snooped_lane_matches_interpreter(self, config, ops):
        # A stride prefetcher installs a demand snoop, driving the shared
        # (attribute-backed) loop variant plus the prefetch interactions.
        trace = _build_trace(ops)
        (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
            trace, config, with_stride=True
        )
        assert vector_core == interp_core
        assert vector_hier == interp_hier


class TestGoldenParity:
    """Every non-programmable golden fingerprint, vector backend forced."""

    @pytest.mark.parametrize("name", registry.names())
    def test_vector_backend_reproduces_golden_stats(
        self, name, tiny_workloads, config, golden_stats, monkeypatch
    ):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
        workload = tiny_workloads.get(name)
        checked = 0
        for mode in PrefetchMode:
            if mode.uses_programmable_prefetcher or not mode_available(workload, mode):
                continue
            expected = golden_stats[f"{name}/{mode.value}"]
            result = simulate(workload, mode, config)
            measured = json.loads(json.dumps(result.as_dict()))
            assert measured == expected, (
                f"{name}/{mode.value}: vector backend diverged from the "
                f"golden fingerprint"
            )
            checked += 1
        assert checked > 0


class TestGeometryRequests:
    def test_engine_requests_differing_only_in_geometry_match_direct_simulations(
        self, config
    ):
        # Each request runs its own replay; nothing is shared between them
        # beyond the group's resolved trace.
        configs = [
            config.with_caches(l1={"size_bytes": size})
            for size in (8 * 1024, 16 * 1024, 32 * 1024)
        ]
        plan = SimPlan(
            SimRequest(workload="intsort", mode="none", scale="tiny", config=cfg)
            for cfg in configs
        )
        batch = SimEngine(runner=SerialRunner()).run(plan)
        for request, cfg in zip(plan, configs):
            direct = simulate(
                registry.build("intsort", scale="tiny", seed=42), request.prefetch_mode, cfg
            )
            assert batch[request].as_dict() == direct.as_dict()
