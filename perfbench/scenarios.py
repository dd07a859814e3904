"""The benchmark's four workloads.

Each workload is a closed loop: one client submits one plan of simulation
requests for the eight paper benchmarks at ``small`` scale and waits for
every result.  The workload seed reaches the program only through
``build_workload``, ``comparison_plan`` and ``run_report``.

A workload goes through ``prepare`` (set-up: engine, trace-store fill or
daemon start), ``run`` (the timed pass, from plan submission to the last
result), ``collect`` (read the results back, untimed) and ``close``.
Importing this module imports the program, so the benchmark times the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.eval import report
from repro.service import ServiceEngine, spawn_local_daemon
from repro.sim import comparison
from repro.sim.engine import EngineStats, SerialRunner, SimEngine, SimRequest
from repro.sim.modes import FIGURE7_MODES, PrefetchMode
from repro.sim.results import SimulationResult
from repro.trace_store import TraceArtifact, TraceStore
from repro.workloads import build_workload, registry

SCALE = "small"
#: Worker processes of the parallel and service workloads (the host's nproc).
WORKERS = 2

#: The modes of ``run_report``'s plan: the Figure 7 bars plus the blocked
#: ablation (Figure 9 is not part of any workload).
PAPER_MODES = tuple(FIGURE7_MODES) + (PrefetchMode.MANUAL_BLOCKED,)
PROGRAMMABLE_MODES = tuple(mode for mode in PAPER_MODES if mode.uses_programmable_prefetcher)
CONVENTIONAL_MODES = tuple(mode for mode in PAPER_MODES if not mode.uses_programmable_prefetcher)


@dataclass
class PassData:
    """What one measured pass produced."""

    wall_s: float
    requests: list[SimRequest]
    results: dict[str, SimulationResult]
    skipped: set[str]
    failures: dict[str, str]
    stats: EngineStats
    #: Daemon-side counters (``paper-service`` only).
    server: dict[str, Any] = field(default_factory=dict)


class Scenario:
    """One benchmark workload bound to a seed and a scratch directory."""

    name = ""
    modes: tuple[PrefetchMode, ...] = PAPER_MODES
    workers = 1
    #: The simulations run outside the benchmark process, so a traced run
    #: can only wrap the layers on the client side.
    remote_simulation = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._serial = itertools.count()
        self.engine: Any = None
        self._outcome: Any = None

    def fresh_dir(self, kind: str) -> str:
        path = self.workdir / f"{kind}-{next(self._serial)}"
        path.mkdir(parents=True)
        return str(path)

    def names(self) -> list[str]:
        return registry.paper_names()

    def plan(self):
        return comparison.comparison_plan(
            self.names(), self.modes, scale=SCALE, seed=self.seed
        )

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self) -> float:
        """Run one pass; return host seconds from submission to last result."""

        start = time.perf_counter()
        self._outcome = self.engine.run(self.plan())
        return time.perf_counter() - start

    def collect(self, wall_s: float) -> PassData:
        plan = self.plan()
        batch = self._outcome
        return PassData(
            wall_s, list(plan), batch.results, batch.skipped, batch.failures, batch.stats
        )

    def close(self) -> None:
        self.engine = None
        self._outcome = None


class ProgrammableSerial(Scenario):
    """The programmable modes, in-process, emitting every trace."""

    name = "programmable-serial"
    modes = PROGRAMMABLE_MODES

    def prepare(self) -> None:
        self.engine = SimEngine(runner=SerialRunner(trace_store=None))


class ConventionalWarm(Scenario):
    """The conventional modes, in-process, replaying a filled trace store."""

    name = "conventional-warm"
    modes = CONVENTIONAL_MODES

    def prepare(self) -> None:
        store = TraceStore(self.fresh_dir("traces"))
        for name in self.names():
            workload = build_workload(name, scale=SCALE, seed=self.seed)
            store.put(TraceArtifact.from_workload(workload, "plain"))
            if workload.supports_software_prefetch():
                store.put(TraceArtifact.from_workload(workload, "software"))
        self.engine = SimEngine(runner=SerialRunner(trace_store=store))


class PaperParallelCold(Scenario):
    """The ``run_report`` plan on two worker processes, cold store and cache."""

    name = "paper-parallel-cold"
    workers = WORKERS
    remote_simulation = True

    def prepare(self) -> None:
        self.engine = report.build_engine(
            parallel=True,
            workers=self.workers,
            cache_dir=self.fresh_dir("results"),
            trace_store_dir=self.fresh_dir("traces"),
        )

    def run(self) -> float:
        start = time.perf_counter()
        self._outcome = report.run_report(
            scale=SCALE, seed=self.seed, include_figure9=False, engine=self.engine
        )
        return time.perf_counter() - start

    def collect(self, wall_s: float) -> PassData:
        # Every point is in the engine's memo by now: this re-run of the
        # report's plan simulates nothing and only reads the results back.
        plan = self.plan()
        batch = self.engine.run(plan)
        return PassData(
            wall_s,
            list(plan),
            batch.results,
            batch.skipped,
            batch.failures,
            self._outcome.engine_stats,
        )


class PaperService(PaperParallelCold):
    """The ``run_report`` plan through a two-worker ``repro serve`` daemon."""

    name = "paper-service"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._daemon = contextlib.ExitStack()
        self.daemon = None

    def prepare(self) -> None:
        self.daemon, address = self._daemon.enter_context(
            spawn_local_daemon(
                workers=self.workers,
                cache_dir=self.fresh_dir("results"),
                trace_store=self.fresh_dir("traces"),
            )
        )
        # No local fallback: a daemon failure must fail the run, not
        # silently move the work into the benchmark process.
        self.engine = ServiceEngine(address)
        self.engine.client  # noqa: B018 - connect and handshake: the service is ready

    def collect(self, wall_s: float) -> PassData:
        server = self.engine.client.server_stats()
        data = super().collect(wall_s)
        data.server = server
        return data

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        try:
            if self.daemon is not None and self.daemon.poll() is None:
                self.daemon.terminate()  # SIGTERM drains the daemon and its pool
                self.daemon.wait(timeout=60)
        finally:
            self._daemon.close()  # reaps the daemon, killing it if still up
            self.daemon = None
        super().close()


SCENARIOS: dict[str, type[Scenario]] = {
    scenario.name: scenario
    for scenario in (ProgrammableSerial, ConventionalWarm, PaperParallelCold, PaperService)
}

