#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload programmable-serial --seed 42 --seconds 10 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), then runs whole measured passes until ``--seconds`` have
elapsed (at least one) and prints the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` runs one untraced pass and then one
pass with every layer's entry points wrapped (see ``tracing.py``), prints
the per-layer metrics, the measured-vs-paper speedup table and the
per-layer aggregate table, and writes the spans as Chrome Trace Event JSON
under ``.perfbench/traces/``.

Either way the outputs are checked (see ``checks.py``), and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"

#: Set-ups per untraced run: this many probe processes plus the run's own.
SETUP_PROBES = 2


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up in a fresh process and print it.
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ set-up


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and prepare ``name``; return it and the seconds taken."""

    start = time.perf_counter()
    from scenarios import SCENARIOS

    scenario = SCENARIOS[name](seed, workdir)
    try:
        scenario.prepare()
    except BaseException:
        scenario.close()
        raise
    return scenario, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter (imports are not yet cached)."""

    workdir = STATE / "work" / f"probe-{name}-{os.getpid()}"
    try:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--probe-setup", str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------- passes


def measure(scenario, seconds: float) -> list:
    """Run passes until ``seconds`` have elapsed; the first reuses the set-up."""

    passes = []
    started = time.perf_counter()
    while True:
        if passes:
            scenario.prepare()
        try:
            wall_s = scenario.run()
            passes.append(scenario.collect(wall_s))
        finally:
            scenario.close()
        if time.perf_counter() - started >= seconds:
            return passes


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_tree_cpu_seconds(root_pid: int) -> float:
    """User + system CPU of ``root_pid`` and its live descendants, from /proc."""

    stats = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields[0] is the state (stat field 3); ppid, utime, stime are 4, 14, 15.
        stats[int(entry.name)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
    tree, frontier, ticks = {root_pid}, [root_pid], 0
    while frontier:
        pid = frontier.pop()
        ticks += stats.get(pid, (0, 0))[1]
        for child, (parent, _ticks) in stats.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    return ticks / os.sysconf("SC_CLK_TCK")


def trace_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*.trace"))


def traced_pass(scenario):
    """One set-up and pass with every layer wrapped; return data and tracer."""

    from tracing import Tracer

    tracer = Tracer(parent_only=scenario.remote_simulation)
    bytes_before = trace_bytes(scenario.workdir)
    try:
        tracer.install()
        try:
            scenario.prepare()
            daemon = getattr(scenario, "daemon", None)
            children_before = children_cpu_seconds()
            daemon_before = process_tree_cpu_seconds(daemon.pid) if daemon else 0.0
            wall_s = scenario.run()
            daemon_cpu = process_tree_cpu_seconds(daemon.pid) - daemon_before if daemon else 0.0
            worker_cpu = children_cpu_seconds() - children_before
        finally:
            tracer.uninstall()
        data = scenario.collect(wall_s)
    finally:
        scenario.close()
    extra = {
        "trace_store.bytes_written": trace_bytes(scenario.workdir) - bytes_before,
        "sim.engine.worker_cpu_s": worker_cpu,
        "service.cpu_s": daemon_cpu,
    }
    return data, tracer, extra


# ---------------------------------------------------------------- metrics


def layer_metrics(tracer, data, extra: dict, untraced_wall_s: float, workers: int) -> dict:
    import checks

    simulated = checks.simulated_layer_metrics(data)
    server = data.server
    events = simulated["programmable.events_executed"]
    advance_self = tracer.self_time("programmable.advance")
    capacity = data.wall_s * workers
    return {
        "cpu.run_self_s": tracer.self_time("cpu.run"),
        "cpu.ops": tracer.tallies.get("cpu.ops", 0),
        "cpu.ipc_geomean": simulated["cpu.ipc_geomean"],
        "memory.demand_calls": tracer.calls("memory.demand"),
        "memory.demand_self_s": tracer.self_time("memory.demand"),
        "memory.prefetch_calls": tracer.calls("memory.prefetch"),
        "memory.prefetch_s": tracer.self_time("memory.prefetch"),
        "memory.l1_read_hit_rate": simulated["memory.l1_read_hit_rate"],
        "memory.dram_accesses": simulated["memory.dram_accesses"],
        "prefetch.snoop_calls": tracer.calls("prefetch.snoop"),
        "prefetch.snoop_self_s": tracer.self_time("prefetch.snoop"),
        "prefetch.l1_prefetch_utilisation": simulated["prefetch.l1_prefetch_utilisation"],
        "sim.vector.replay_self_s": tracer.self_time("sim.vector.replay"),
        "sim.vector.requests": tracer.calls("sim.vector.replay"),
        "sim.vector.fallbacks": tracer.tallies.get("sim.vector.fallbacks", 0),
        "programmable.advance_calls": tracer.calls("programmable.advance"),
        "programmable.advance_self_s": advance_self,
        "programmable.snoop_self_s": tracer.self_time("programmable.snoop"),
        "programmable.us_per_event": advance_self / events * 1e6 if events else 0.0,
        "programmable.events_executed": events,
        "programmable.observations_dropped": simulated["programmable.observations_dropped"],
        "programmable.prefetches_issued": simulated["programmable.prefetches_issued"],
        "programmable.l1_prefetch_utilisation": simulated["programmable.l1_prefetch_utilisation"],
        "programmable.ppu_activity_median": simulated["programmable.ppu_activity_median"],
        "kernels.compile_s": tracer.total("kernels.compile"),
        "kernels.calls": tracer.calls("kernels.run"),
        "kernels.self_s": tracer.self_time("kernels.run"),
        "kernels.ppu_instructions": simulated["kernels.ppu_instructions"],
        "compiler.configure_s": tracer.self_time("compiler.configure"),
        "workloads.build_s": tracer.self_time("workloads.build"),
        "workloads.emit_s": tracer.self_time("workloads.emit"),
        "workloads.trace_ops": tracer.tallies.get("workloads.trace_ops", 0),
        "trace_store.hits": tracer.tallies.get("trace_store.hits", 0),
        "trace_store.misses": tracer.tallies.get("trace_store.misses", 0),
        "trace_store.read_s": tracer.self_time("trace_store.read"),
        "trace_store.write_s": tracer.self_time("trace_store.write"),
        "trace_store.bytes_written": extra["trace_store.bytes_written"],
        "sim.engine.plan_s": tracer.self_time("sim.engine.plan"),
        "sim.engine.run_s": tracer.total("sim.engine.run"),
        "sim.engine.cache_get_s": tracer.self_time("sim.engine.cache_get"),
        "sim.engine.cache_put_s": tracer.self_time("sim.engine.cache_put"),
        "sim.engine.executed": data.stats.executed,
        "sim.engine.requeues": data.stats.requeues,
        "sim.engine.worker_cpu_s": extra["sim.engine.worker_cpu_s"],
        "sim.engine.cpu_util": extra["sim.engine.worker_cpu_s"] / capacity,
        "service.connect_s": tracer.total("service.connect"),
        "service.first_outcome_s": tracer.first_outcome_s,
        "service.run_s": tracer.total("service.run"),
        "service.executed": server.get("executed", 0),
        "service.rejected": server.get("rejected_quota", 0) + server.get("rejected_queue", 0),
        "service.requeued": server.get("requeued", 0),
        "service.cpu_util": extra["service.cpu_s"] / capacity,
        "eval.figures_s": tracer.total("eval.figures"),
        "bench.trace_overhead_frac": data.wall_s / untraced_wall_s - 1.0,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ------------------------------------------------------------------- main


def check_passes(name: str, seed: int, passes: list) -> dict[tuple[int, str], list[str]]:
    """Output-check problems keyed by (pass index, request digest)."""

    import checks

    available = checks.availability(passes[0], seed)
    reference = checks.fingerprints(passes[0])
    problems: dict[tuple[int, str], list[str]] = {}
    for index, data in enumerate(passes):
        for digest, found in checks.pass_problems(data, available).items():
            problems[(index, digest)] = found
        drift = checks.fingerprint_mismatches(reference, checks.fingerprints(data))
        for digest in drift:
            problems.setdefault((index, digest), []).append(
                f"{digest[:12]}: fingerprint differs from the first pass"
            )
    for digest in checks.recorded_mismatches(STATE, name, seed, reference):
        problems.setdefault((0, digest), []).append(
            f"{digest[:12]}: fingerprint differs from an earlier run of this seed"
        )
    return problems


def emit(metrics: dict, units: dict, *, attempted: int, failed: int) -> None:
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )


def run(args, spec: dict) -> int:
    workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_samples = []
        if not args.trace:
            setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        scenario, own_setup_s = set_up(args.workload, args.seed, workdir)
        setup_samples.append(own_setup_s)
        passes = measure(scenario, args.seconds)
        rss_mb = peak_rss_mb()
        traced = traced_pass(scenario) if args.trace else None
        checked = passes + ([traced[0]] if traced else [])
        problems = check_passes(args.workload, args.seed, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import checks

    attempted = sum(len(data.requests) for data in checked)
    for found in list(problems.values())[:20]:
        print("check failed: " + "; ".join(found), file=sys.stderr)
    wall_s = statistics.median(data.wall_s for data in passes)
    if traced is None:
        print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), wall {wall_s:.3f} s, "
              f"set-up samples {[round(s, 3) for s in setup_samples]}")
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_samples),
            "sim_minstr_per_s": statistics.median(
                checks.simulated_instructions(data) / data.wall_s / 1e6 for data in passes
            ),
            "peak_rss_mb": rss_mb,
            "ok_frac": (attempted - len(problems)) / attempted,
            "paper_gap": checks.paper_gap(passes[0]),
        }
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    else:
        data, tracer, extra = traced
        metrics = layer_metrics(tracer, data, extra, wall_s, scenario.workers)
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(
            path, metadata={"workload": args.workload, "seed": args.seed, "metrics": metrics}
        )
        print(f"Figure 7 bars simulated by {args.workload} (seed {args.seed}):")
        print(checks.paper_table(data))
        print()
        print(f"Per-layer aggregate (traced pass, {data.wall_s:.3f} s; untraced {wall_s:.3f} s):")
        print(tracer.layer_table())
        print(f"Chrome trace (open in https://ui.perfetto.dev): {path.relative_to(ROOT)}")
    if set(metrics) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    emit(metrics, units, attempted=attempted, failed=len(problems))
    return 0


def main(argv: list[str]) -> int:
    source = ROOT / "src"
    benchmark = ROOT / "BENCHMARK.json"
    if not (source / "repro").is_dir() or not benchmark.is_file():
        print(f"error: {ROOT} holds no program to benchmark (src/repro missing)", file=sys.stderr)
        return 2
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    args = parse_args(argv, [workload["name"] for workload in spec["workloads"]])
    sys.path.insert(0, str(source))
    if args.probe_setup:
        scenario, setup_s = set_up(args.workload, args.seed, Path(args.probe_setup))
        scenario.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
