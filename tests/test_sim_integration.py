"""Integration tests: full simulations of tiny workloads under every mode."""

import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.sim import PrefetchMode, mode_available, run_comparison, simulate
from repro.sim.engine.request import resolve_policy
from repro.sim.modes import FIGURE7_MODES
from repro.sim.results import geometric_mean
from repro.sim.sweeps import ppu_count_frequency_sweep, ppu_frequency_sweep
from repro.workloads import registry

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_stats.json"
STRESS_PATH = GOLDEN_PATH.with_name("engine_stress_stats.json")


@pytest.fixture(scope="module")
def config():
    return SystemConfig.scaled()


class TestSimulateBasics:
    def test_baseline_result_structure(self, tiny_workloads, config):
        workload = tiny_workloads.get("intsort")
        result = simulate(workload, PrefetchMode.NONE, config)
        assert result.cycles > 0
        assert result.instructions > 0
        assert 0 <= result.l1_read_hit_rate <= 1
        assert result.prefetcher is None
        assert result.mode == "none"
        assert result.as_dict()["workload"] == "intsort"

    def test_manual_mode_attaches_engine(self, tiny_workloads, config):
        workload = tiny_workloads.get("intsort")
        result = simulate(workload, PrefetchMode.MANUAL, config)
        assert result.prefetcher is not None
        assert result.prefetcher["prefetches_issued"] > 0

    def test_unavailable_mode_raises(self, tiny_workloads, config):
        workload = tiny_workloads.get("pagerank")
        assert not mode_available(workload, PrefetchMode.SOFTWARE)
        with pytest.raises(WorkloadError):
            simulate(workload, PrefetchMode.SOFTWARE, config)

    def test_deterministic_across_repeats(self, tiny_workloads, config):
        workload = tiny_workloads.get("randacc")
        first = simulate(workload, PrefetchMode.MANUAL, config)
        second = simulate(workload, PrefetchMode.MANUAL, config)
        assert first.cycles == second.cycles
        assert first.dram_accesses == second.dram_accesses

    def test_speedup_and_traffic_helpers(self, tiny_workloads, config):
        workload = tiny_workloads.get("conjgrad")
        baseline = simulate(workload, PrefetchMode.NONE, config)
        manual = simulate(workload, PrefetchMode.MANUAL, config)
        assert manual.speedup_over(baseline) == pytest.approx(baseline.cycles / manual.cycles)
        assert manual.extra_memory_accesses(baseline) > -0.5


class TestBehaviouralShape:
    """The qualitative results the paper's evaluation establishes."""

    @pytest.mark.parametrize("name", ["intsort", "randacc", "conjgrad", "hj2", "hj8"])
    def test_manual_prefetching_speeds_up_irregular_workloads(self, tiny_workloads, config, name):
        workload = tiny_workloads.get(name)
        baseline = simulate(workload, PrefetchMode.NONE, config)
        manual = simulate(workload, PrefetchMode.MANUAL, config)
        assert manual.cycles < baseline.cycles
        assert manual.l1_read_hit_rate > baseline.l1_read_hit_rate

    def test_ghb_regular_gains_nothing(self, tiny_workloads, config):
        workload = tiny_workloads.get("randacc")
        baseline = simulate(workload, PrefetchMode.NONE, config)
        ghb = simulate(workload, PrefetchMode.GHB_REGULAR, config)
        assert ghb.speedup_over(baseline) == pytest.approx(1.0, abs=0.15)

    def test_manual_beats_stride_on_pointer_chasing(self, tiny_workloads, config):
        workload = tiny_workloads.get("hj8")
        baseline = simulate(workload, PrefetchMode.NONE, config)
        stride = simulate(workload, PrefetchMode.STRIDE, config)
        manual = simulate(workload, PrefetchMode.MANUAL, config)
        assert manual.speedup_over(baseline) > stride.speedup_over(baseline)

    def test_blocking_removes_benefit_for_chained_patterns(self, tiny_workloads, config):
        workload = tiny_workloads.get("hj8")
        manual = simulate(workload, PrefetchMode.MANUAL, config)
        blocked = simulate(workload, PrefetchMode.MANUAL_BLOCKED, config)
        assert blocked.cycles > manual.cycles

    def test_prefetching_adds_little_memory_traffic(self, tiny_workloads, config):
        workload = tiny_workloads.get("intsort")
        baseline = simulate(workload, PrefetchMode.NONE, config)
        manual = simulate(workload, PrefetchMode.MANUAL, config)
        assert manual.extra_memory_accesses(baseline) < 0.25

    def test_software_prefetch_increases_instruction_count(self, tiny_workloads, config):
        workload = tiny_workloads.get("intsort")
        baseline = simulate(workload, PrefetchMode.NONE, config)
        software = simulate(workload, PrefetchMode.SOFTWARE, config)
        assert software.instructions > baseline.instructions

    def test_activity_concentrated_on_low_id_ppus(self, tiny_workloads, config):
        workload = tiny_workloads.get("conjgrad")
        manual = simulate(workload, PrefetchMode.MANUAL, config)
        factors = manual.activity_factors
        assert len(factors) == config.prefetcher.num_ppus
        assert factors[0] >= factors[-1]


@pytest.fixture(scope="module")
def golden_stats():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenStats:
    """Bit-identical equivalence against the pinned pre-refactor fingerprints.

    The golden file (regenerated only via ``tools/update_golden_stats.py``)
    records the full ``SimulationResult`` — cycles, every core and hierarchy
    counter, and the prefetcher engine statistics — for every registered
    workload under every available mode at tiny scale.  Any hot-path
    optimisation must reproduce these numbers *exactly*; a mismatch means
    the timing model changed, not just its speed.
    """

    def test_golden_file_covers_every_registered_workload(self, golden_stats):
        covered = {key.split("/", 1)[0] for key in golden_stats}
        assert covered == set(registry.names())

    @pytest.mark.parametrize("name", registry.names())
    def test_bit_identical_results_for_every_available_mode(
        self, name, tiny_workloads, config, golden_stats
    ):
        workload = tiny_workloads.get(name)
        checked = 0
        for mode in PrefetchMode:
            if not mode_available(workload, mode):
                assert f"{name}/{mode.value}" not in golden_stats
                continue
            expected = golden_stats[f"{name}/{mode.value}"]
            result = simulate(workload, mode, config)
            measured = json.loads(json.dumps(result.as_dict()))
            assert measured == expected, (
                f"{name}/{mode.value}: simulation diverged from the golden "
                f"fingerprint — the timing model changed"
            )
            checked += 1
        assert checked > 0


@pytest.fixture(scope="module")
def stress_stats():
    return json.loads(STRESS_PATH.read_text(encoding="utf-8"))


class TestEngineStressStats:
    """Bit-identical equivalence on event-engine paths the golden file misses.

    No default-configuration fingerprint drops a prefetch request or uses a
    non-default scheduling policy.  ``engine_stress_stats.json`` (written by
    ``tools/update_golden_stats.py`` next to the golden file) pins every
    programmable mode of the paper workloads under a two-entry request
    queue, a two-entry observation queue on one PPU, round-robin scheduling,
    and the blocking ablation on one PPU; each configuration is stored with
    its fingerprints.
    """

    def test_stress_file_covers_every_configuration(self, stress_stats):
        labels = {key.split("/", 1)[0] for key in stress_stats["fingerprints"]}
        assert labels == set(stress_stats["configurations"])

    def test_stress_reaches_request_drops(self, stress_stats):
        fingerprints = stress_stats["fingerprints"]
        assert fingerprints["prefetch-queue-2/g500-csr/manual"]["prefetcher"][
            "request_queue_dropped"
        ] > 0

    @pytest.mark.parametrize("name", registry.paper_names())
    def test_bit_identical_results_under_stress(self, name, tiny_workloads, stress_stats):
        workload = tiny_workloads.get(name)
        base = SystemConfig.scaled()
        checked = 0
        for label, spec in stress_stats["configurations"].items():
            config = base.with_prefetcher(**spec["prefetcher"])
            for mode_name in spec["modes"]:
                mode = PrefetchMode(mode_name)
                key = f"{label}/{name}/{mode_name}"
                if not mode_available(workload, mode):
                    assert key not in stress_stats["fingerprints"]
                    continue
                result = simulate(workload, mode, config, policy=resolve_policy(spec["policy"]))
                measured = json.loads(json.dumps(result.as_dict()))
                assert measured == stress_stats["fingerprints"][key], (
                    f"{key}: simulation diverged from the engine-stress fingerprint"
                )
                checked += 1
        assert checked > 0


class TestComparisonDriver:
    def test_run_comparison_subset(self, config):
        comparison = run_comparison(
            ["intsort"], [PrefetchMode.STRIDE, PrefetchMode.MANUAL], config=config, scale="tiny"
        )
        assert "intsort" in comparison.workloads
        assert comparison.speedup("intsort", PrefetchMode.MANUAL) is not None
        assert comparison.speedup("intsort", PrefetchMode.CONVERTED) is None
        assert comparison.geomean_speedup(PrefetchMode.MANUAL) > 0

    def test_unavailable_modes_skipped_silently(self, config):
        comparison = run_comparison(
            ["pagerank"], [PrefetchMode.SOFTWARE, PrefetchMode.MANUAL], config=config, scale="tiny"
        )
        assert comparison.speedup("pagerank", PrefetchMode.SOFTWARE) is None
        assert comparison.speedup("pagerank", PrefetchMode.MANUAL) is not None

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0


class TestSweeps:
    def test_frequency_sweep_returns_all_points(self, tiny_workloads, config):
        workload = tiny_workloads.get("randacc")
        sweep = ppu_frequency_sweep(workload, frequencies=[0.5, 2.0], config=config)
        assert set(sweep) == {0.5, 2.0}
        assert all(value > 0 for value in sweep.values())

    def test_count_frequency_sweep_shape(self, tiny_workloads, config):
        workload = tiny_workloads.get("intsort")
        sweep = ppu_count_frequency_sweep(
            workload, counts=[3, 12], frequencies=[1.0], config=config
        )
        assert set(sweep) == {(3, 1.0), (12, 1.0)}
        assert sweep[(12, 1.0)] >= 0.8 * sweep[(3, 1.0)]
