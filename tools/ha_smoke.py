#!/usr/bin/env python3
"""End-to-end smoke test of the high-availability service fabric.

Spawns **two** real daemon subprocesses on one ``--cache`` directory and
asserts the HA contract:

1. warming daemon A and replaying the same plan against daemon B serves
   every request from the shared result cache (``cache_hits``),
   bit-identically and without executing anything on B;
2. ``repro status`` sees both daemons ready;
3. SIGKILLing daemon A mid-plan (on the first ``chunk-started`` event —
   work is provably in flight) makes the failover client complete the plan
   against B, bit-identical to a local serial run, with ``executed``
   proving no request ran twice from the caller's view;
4. after the kill the status table shows A unreachable and B still ready.

Used by the CI ``ha`` job; also a quick local fleet check::

    PYTHONPATH=src python tools/ha_smoke.py
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import (  # noqa: E402
    ServiceEngine,
    format_health_table,
    probe_endpoints,
    spawn_local_daemon,
)
from repro.sim.comparison import comparison_plan  # noqa: E402
from repro.sim.engine import SerialRunner, SimEngine  # noqa: E402


def main() -> int:
    with contextlib.ExitStack() as stack:
        cache_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-ha-"))
        process_a, addr_a = stack.enter_context(spawn_local_daemon(
            workers=1, cache_dir=cache_dir, extra_args=["--chunk-size", "2"],
        ))
        process_b, addr_b = stack.enter_context(spawn_local_daemon(
            workers=1, cache_dir=cache_dir, extra_args=["--chunk-size", "2"],
        ))
        print(f"daemon A pid={process_a.pid} at {addr_a}")
        print(f"daemon B pid={process_b.pid} at {addr_b}")

        # 1) Warm A, then replay against B: served from the shared cache.
        plan = lambda: comparison_plan(["intsort"], scale="tiny")  # noqa: E731
        engine_a = ServiceEngine(addr_a, timeout=600.0)
        cold = engine_a.run(plan())
        print(f"A cold: {cold.stats.summary()}")
        assert cold.stats.executed == cold.stats.unique - cold.stats.unavailable
        engine_a.close()

        engine_b = ServiceEngine(addr_b, timeout=600.0)
        shared = engine_b.run(plan())
        print(f"B from the shared cache: {shared.stats.summary()}")
        assert shared.stats.cache_hits == shared.stats.unique, "B must read A's results"
        assert shared.stats.executed == 0, "B must not re-execute warm work"
        assert {d: r.as_dict() for d, r in shared.results.items()} == {
            d: r.as_dict() for d, r in cold.results.items()
        }, "shared-cache results must be bit-identical"
        engine_b.close()

        # 2) Both daemons ready.
        reports = probe_endpoints([addr_a, addr_b], timeout=30.0)
        print(format_health_table(reports))
        assert all(report.ready for report in reports), "fleet must be ready"

        # 3) SIGKILL A on the first chunk-started of a fresh plan: the
        # failover engine completes it against B, bit-identically.
        reference = SimEngine(runner=SerialRunner()).run(
            comparison_plan(["randacc"], scale="tiny")
        )
        killed = False

        def kill_primary(event: dict) -> None:
            nonlocal killed
            if event.get("type") == "chunk-started" and not killed:
                killed = True
                os.kill(process_a.pid, signal.SIGKILL)
                print("SIGKILLed daemon A mid-plan")

        fleet = ServiceEngine(f"{addr_a},{addr_b}", timeout=600.0)
        survived = fleet.run(
            comparison_plan(["randacc"], scale="tiny"), on_event=kill_primary
        )
        print(f"failover run: {survived.stats.summary()}")
        assert killed, "the kill must have been triggered mid-plan"
        assert survived.stats.failed_over >= 1, "the client must have failed over"
        assert not survived.failures, survived.failures
        assert {d: r.as_dict() for d, r in survived.results.items()} == {
            d: r.as_dict() for d, r in reference.results.items()
        }, "failover results must be bit-identical to a local serial run"
        assert survived.stats.executed == survived.stats.unique - survived.stats.unavailable, (
            "every request must execute exactly once across the fleet"
        )
        fleet.close()

        # 4) The fleet's status reflects the kill.
        reports = probe_endpoints([addr_a, addr_b], timeout=30.0)
        print(format_health_table(reports))
        assert not reports[0].ok, "killed daemon A must be unreachable"
        assert reports[1].ready, "daemon B must still be ready"
    print("ha smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
