"""Integration tests for the simulation service over a loopback socket.

Every test runs a real :class:`~repro.service.ReproServer` on a background
event loop (:class:`tests.service_utils.ServerThread`) and talks to it with
the blocking :class:`~repro.service.ServiceClient`.  Ordering is always
established through protocol events (``accepted``, ``chunk-started``,
``done``) and hold-files — never through sleeps.
"""

from __future__ import annotations

import os

import pytest

from repro.config import SystemConfig
from repro.service import ServiceClient, ServiceEngine, run_plan
from repro.sim.comparison import comparison_plan
from repro.sim.engine import SerialRunner, SimEngine, SimPlan, SimRequest

from service_utils import SVC_TEST_DIR_ENV, ServerThread, registered_test_workloads


@pytest.fixture
def svc_dir(tmp_path, monkeypatch):
    """Coordination directory for instrumented workloads (inherited on fork)."""

    directory = tmp_path / "svc"
    directory.mkdir()
    monkeypatch.setenv(SVC_TEST_DIR_ENV, str(directory))
    return directory


def gated_request(seed: int, workload: str = "svcgate") -> SimRequest:
    return SimRequest(
        workload=workload,
        mode="none",
        scale="tiny",
        seed=seed,
        config=SystemConfig.scaled(),
    )


def read_until(client: ServiceClient, kind: str, sid=None) -> dict:
    """Read events until one of type ``kind`` (for ``sid``, when given)."""

    while True:
        event = client.read_event()
        if event.get("type") == kind and (sid is None or event.get("id") == sid):
            return event


# --------------------------------------------------------------- identity


def test_service_results_bit_identical_to_direct_engine():
    plan = comparison_plan(["intsort", "randacc"], scale="tiny")
    direct = SimEngine(runner=SerialRunner()).run(
        comparison_plan(["intsort", "randacc"], scale="tiny")
    )
    with ServerThread(workers=2) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        batch = engine.run(plan)
        engine.close()

    assert set(batch.results) == set(direct.results)
    assert batch.skipped == direct.skipped
    for digest, result in direct.results.items():
        assert batch.results[digest].as_dict() == result.as_dict()
    assert batch.stats.executed == batch.stats.unique - batch.stats.unavailable
    assert batch.stats.runner == "service"


def test_second_submission_is_served_entirely_from_memo():
    plan = comparison_plan(["intsort"], scale="tiny")
    with ServerThread(workers=2) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        cold = engine.run(comparison_plan(["intsort"], scale="tiny"))
        warm = engine.run(comparison_plan(["intsort"], scale="tiny"))
        with ServiceClient(daemon.address) as probe:
            counters = probe.server_stats()
        engine.close()

    assert warm.stats.executed == 0
    assert warm.stats.memo_hits == warm.stats.unique
    assert {d: r.as_dict() for d, r in warm.results.items()} == {
        d: r.as_dict() for d, r in cold.results.items()
    }
    assert counters["executed"] == cold.stats.executed
    assert counters["memo_hits"] == warm.stats.unique


def test_daemon_restart_served_from_persistent_cache(tmp_path):
    cache_dir = str(tmp_path / "results")
    plan = comparison_plan(["intsort"], scale="tiny")
    with ServerThread(workers=2, cache_dir=cache_dir) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        cold = engine.run(comparison_plan(["intsort"], scale="tiny"))
        engine.close()

    # A brand-new daemon process state, same cache directory: everything
    # must come from disk, nothing re-simulates.
    with ServerThread(workers=2, cache_dir=cache_dir) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        warm = engine.run(comparison_plan(["intsort"], scale="tiny"))
        with ServiceClient(daemon.address) as probe:
            counters = probe.server_stats()
        engine.close()

    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == warm.stats.unique
    assert counters["executed"] == 0
    assert {d: r.as_dict() for d, r in warm.results.items()} == {
        d: r.as_dict() for d, r in cold.results.items()
    }
    assert len(warm.results) == len(plan) - cold.stats.unavailable


# ------------------------------------------------------------ singleflight


def test_concurrent_clients_share_one_execution(svc_dir):
    """Two clients submitting the same point → exactly one simulation."""

    request = gated_request(seed=101)
    hold = svc_dir / "hold-101"
    hold.touch()
    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            first = ServiceClient(daemon.address, timeout=120.0)
            second = ServiceClient(daemon.address, timeout=120.0)

            sid_a = first.submit_nowait([request])
            accepted_a = read_until(first, "accepted", sid_a)
            assert accepted_a["scheduled"] == 1
            # The chunk must be *running* (held at the gate) before the
            # second client submits, so the join is genuinely in-flight.
            read_until(first, "chunk-started", sid_a)

            sid_b = second.submit_nowait([request])
            accepted_b = read_until(second, "accepted", sid_b)
            assert accepted_b["joined"] == 1
            assert accepted_b["scheduled"] == 0

            hold.unlink()
            done_a = read_until(first, "done", sid_a)
            done_b = read_until(second, "done", sid_b)

            with ServiceClient(daemon.address) as probe:
                counters = probe.server_stats()
            first.close()
            second.close()

    assert counters["executed"] == 1
    assert counters["joined"] == 1
    (outcome_a,) = done_a["outcomes"]
    (outcome_b,) = done_b["outcomes"]
    assert outcome_a["status"] == outcome_b["status"] == "ok"
    assert outcome_a["result"] == outcome_b["result"]
    assert done_b["stats"]["executed"] == 1  # the shared result reached B


def test_duplicate_requests_within_one_submission_deduplicate():
    request = comparison_plan(["intsort"], scale="tiny")
    points = list(request)[:2]
    with ServerThread(workers=1) as daemon:
        with ServiceClient(daemon.address, timeout=600.0) as client:
            batch = run_plan(client, SimPlan(points + points + points))
    assert batch.stats.submitted == 6
    assert batch.stats.unique == 2
    assert batch.stats.deduplicated == 4
    assert len(batch.results) == 2


def test_plain_run_plan_sees_one_outcome_event_per_executed_request():
    events = []
    with ServerThread(workers=2) as daemon:
        with ServiceClient(daemon.address, timeout=600.0) as client:
            batch = run_plan(
                client, comparison_plan(["intsort"], scale="tiny"), on_event=events.append
            )
    outcomes = [event for event in events if event.get("type") == "outcome"]
    assert batch.stats.executed == batch.stats.unique > 0
    assert len(outcomes) == batch.stats.executed
    positions = sorted(position for event in outcomes for position in event["positions"])
    assert positions == list(range(batch.stats.unique))


# ---------------------------------------------------------------- fairness


def test_chunks_interleave_fairly_across_clients(svc_dir):
    """A bulk client does not starve a small one: round-robin dispatch."""

    hold = svc_dir / "hold-201"
    hold.touch()
    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            bulk = ServiceClient(daemon.address, timeout=120.0)
            small = ServiceClient(daemon.address, timeout=120.0)

            # Three workload groups → three chunks for the bulk client; the
            # first is gated so it occupies the single worker.
            sid_bulk = bulk.submit_nowait(
                [gated_request(201), gated_request(202), gated_request(203)]
            )
            read_until(bulk, "accepted", sid_bulk)
            read_until(bulk, "chunk-started", sid_bulk)

            sid_small = small.submit_nowait([gated_request(204)])
            accepted = read_until(small, "accepted", sid_small)
            assert accepted["chunks"] == 1

            hold.unlink()

            bulk_seqs = []
            while True:
                event = bulk.read_event()
                if event.get("type") == "chunk-started":
                    bulk_seqs.append(event["seq"])
                elif event.get("type") == "done":
                    break
            small_started = read_until(small, "chunk-started", sid_small)
            read_until(small, "done", sid_small)
            bulk.close()
            small.close()

    # Round-robin: the bulk client gets one more turn (it was at the
    # rotation head), then the small client's chunk dispatches — strictly
    # before the bulk backlog ends.  FIFO would dispatch it last.
    assert len(bulk_seqs) == 2, "bulk client should see its 2nd and 3rd dispatches"
    assert small_started["seq"] < max(bulk_seqs)


# ------------------------------------------------------------------ driver


def test_reproduce_paper_driver_accepts_service_flag():
    from repro.eval.report import build_engine

    with ServerThread(workers=2) as daemon:
        engine = build_engine(service=daemon.address)
        batch = engine.run(comparison_plan(["intsort"], scale="tiny"))
        assert batch.stats.runner == "service"
        assert len(batch.results) > 0
        engine.close()
