"""Output checks and simulated (deterministic) figures of a benchmark run.

The checks never compare against stored ``small``-scale numbers, so a
legitimate model change cannot read as a failure.  They check:

* every request ends ``ok``, or unavailable exactly where
  ``mode_available`` says the mode cannot be built;
* conservation identities on every result: DRAM accesses are demand plus
  prefetch accesses, and at each cache level every prefetch fill ends
  used, evicted unused or unused at the end;
* result fingerprints repeat across the passes of a run, between the
  traced and untraced passes, and across runs of the same seed and code.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

from repro.eval.paper_values import FIGURE7_SPEEDUPS
from repro.sim.engine.request import code_fingerprint
from repro.sim.modes import mode_available
from repro.sim.results import SimulationResult, geometric_mean
from repro.workloads import build_workload

from scenarios import SCALE, PassData

PAPER_GAP_NOTE = (
    "The model is unvalidated beyond these approximate readings of the paper's "
    "Figure 7, and the measured bars come from the reduced 'small' scale."
)


def fingerprint(result: SimulationResult) -> str:
    payload = json.dumps(result.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprints(data: PassData) -> dict[str, str]:
    return {digest: fingerprint(result) for digest, result in data.results.items()}


def identity_violations(result: SimulationResult) -> list[str]:
    """Conservation identities the result breaks (empty when it holds)."""

    hierarchy = result.hierarchy.as_dict()
    label = f"{result.workload}/{result.mode}"
    problems = []
    dram = hierarchy["dram"]
    if dram["total_accesses"] != dram["demand_accesses"] + dram["prefetch_accesses"]:
        problems.append(f"{label}: DRAM total != demand + prefetch")
    for level in ("l1", "l2"):
        stats = hierarchy[level]
        ends = (
            stats["prefetch_used"]
            + stats["prefetch_evicted_unused"]
            + stats["prefetch_unused_at_end"]
        )
        if stats["prefetch_fills"] != ends:
            problems.append(f"{label}: {level} prefetch fills != used + evicted + unused")
    return problems


def availability(data: PassData, seed: int) -> dict[str, bool]:
    """Whether each request's mode can be built, per ``mode_available``."""

    workloads = {}
    available = {}
    for request in data.requests:
        workload = workloads.get(request.workload)
        if workload is None:
            workload = workloads[request.workload] = build_workload(
                request.workload, scale=SCALE, seed=seed
            )
        available[request.digest] = mode_available(workload, request.prefetch_mode)
    return available


def pass_problems(data: PassData, available: dict[str, bool]) -> dict[str, list[str]]:
    """Problems per request of ``data`` that failed or failed the output check."""

    problems: dict[str, list[str]] = {}
    for request in data.requests:
        digest = request.digest
        label = f"{request.workload}/{request.mode}"
        result = data.results.get(digest)
        if digest in data.failures:
            found = [f"{label}: failed: {data.failures[digest]}"]
        elif available[digest] and result is None:
            found = [f"{label}: no result for an available mode"]
        elif not available[digest] and result is not None:
            found = [f"{label}: result for a mode mode_available rejects"]
        elif result is not None:
            found = identity_violations(result)
        else:
            found = []
        if found:
            problems[digest] = found
    return problems


def fingerprint_mismatches(reference: dict[str, str], other: dict[str, str]) -> set[str]:
    digests = reference.keys() | other.keys()
    return {digest for digest in digests if reference.get(digest) != other.get(digest)}


def recorded_mismatches(
    state_dir: Path, workload: str, seed: int, prints: dict[str, str]
) -> set[str]:
    """Compare with (or record) the fingerprints of earlier runs of this seed.

    The record is keyed by the simulator's source hash, so it only ever
    compares runs of identical code.
    """

    path = state_dir / "fingerprints" / f"{code_fingerprint()[:16]}-{workload}-{seed}.json"
    if path.exists():
        return fingerprint_mismatches(json.loads(path.read_text(encoding="utf-8")), prints)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(prints, sort_keys=True), encoding="utf-8")
    return set()


# ----------------------------------------------------------------- fidelity


def _by_point(data: PassData) -> dict[tuple[str, str], SimulationResult]:
    return {(result.workload, result.mode): result for result in data.results.values()}


def paper_rows(data: PassData) -> list[tuple[str, str, float, float]]:
    """``(workload, mode, measured, paper)`` per Figure 7 bar the pass simulated."""

    points = _by_point(data)
    rows = []
    for (workload, mode), result in sorted(points.items()):
        paper = FIGURE7_SPEEDUPS.get(workload, {}).get(mode)
        baseline = points.get((workload, "none"))
        if paper is None or baseline is None or mode == "none":
            continue
        rows.append((workload, mode, result.speedup_over(baseline), paper))
    return rows


def paper_gap(data: PassData) -> float:
    """ln of the geometric-mean factor by which the simulated bars miss the paper.

    That is the mean of |ln(measured / paper)| over the Figure 7 bars the
    pass simulated.  A geometric mean of the |ln| terms themselves would be
    dominated by whichever bar happens to land nearest its paper value, and
    so would swing with the workload seed.
    """

    return statistics.fmean(
        abs(math.log(measured / paper)) for _w, _m, measured, paper in paper_rows(data)
    )


def paper_table(data: PassData) -> str:
    lines = [
        f"{'benchmark':<12}{'mode':<12}{'measured':>10}{'paper':>8}{'|ln ratio|':>12}"
    ]
    for workload, mode, measured, paper in paper_rows(data):
        lines.append(
            f"{workload:<12}{mode:<12}{measured:>9.3f}x{paper:>7.1f}x"
            f"{abs(math.log(measured / paper)):>12.3f}"
        )
    lines.append(f"paper_gap (mean |ln ratio|): {paper_gap(data):.4f}")
    lines.append(PAPER_GAP_NOTE)
    return "\n".join(lines)


def simulated_instructions(data: PassData) -> int:
    return sum(result.instructions for result in data.results.values())


def _l1_utilisation(results: list[SimulationResult]) -> float:
    fills = sum(result.hierarchy.l1.get("prefetch_fills", 0) for result in results)
    used = sum(result.hierarchy.l1.get("prefetch_used", 0) for result in results)
    return used / fills if fills else 0.0


def simulated_layer_metrics(data: PassData) -> dict[str, float]:
    """The per-layer figures that come from the simulation itself."""

    results = list(data.results.values())
    programmable = [result for result in results if result.prefetcher]
    hardware = [
        result for result in results if result.mode in ("stride", "ghb-regular", "ghb-large")
    ]
    reads = sum(result.hierarchy.l1.get("demand_read_accesses", 0) for result in results)
    read_hits = sum(result.hierarchy.l1.get("demand_read_hits", 0) for result in results)
    activity = [
        factor
        for result in programmable
        if result.mode == "manual"
        for factor in result.activity_factors
    ]

    def engine_total(key: str) -> float:
        return sum(result.prefetcher.get(key, 0) for result in programmable)

    return {
        "cpu.ipc_geomean": geometric_mean([result.ipc for result in results]),
        "memory.l1_read_hit_rate": read_hits / reads if reads else 0.0,
        "memory.dram_accesses": sum(result.dram_accesses for result in results),
        "prefetch.l1_prefetch_utilisation": _l1_utilisation(hardware),
        "programmable.events_executed": engine_total("events_executed"),
        "programmable.observations_dropped": engine_total("observations_dropped"),
        "programmable.prefetches_issued": engine_total("prefetches_issued"),
        "programmable.l1_prefetch_utilisation": _l1_utilisation(programmable),
        "programmable.ppu_activity_median": statistics.median(activity) if activity else 0.0,
        "kernels.ppu_instructions": sum(
            ppu.get("instructions_executed", 0)
            for result in programmable
            for ppu in result.prefetcher.get("per_ppu", [])
        ),
    }
