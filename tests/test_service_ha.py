"""High-availability fabric tests: failover, health, protocol, degrade.

All synchronisation is deterministic: protocol events, hold files and
bounded polling of *state the daemons report* — never sleeps that assume an
ordering.  The chaos tier SIGKILLs a real spawned daemon mid-plan at an
event-synchronised instant (a streamed ``outcome`` proves partial progress
landed; a hold file proves the rest cannot have), so the failover path is
exercised with work provably in flight.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.config import SystemConfig
from repro.cli import status_main
from repro.errors import ServiceError, ServiceProtocolError
from repro.eval.report import build_engine
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceEngine,
    format_health_table,
    parse_endpoints,
    probe_endpoint,
    spawn_local_daemon,
)
from repro.sim.engine import ResultCache, SerialRunner, SimEngine, SimPlan, SimRequest

from service_utils import SVC_TEST_DIR_ENV, ServerThread, registered_test_workloads

#: A loopback port nothing listens on in the test environment.
DEAD = "127.0.0.1:1"


@pytest.fixture
def svc_dir(tmp_path, monkeypatch):
    directory = tmp_path / "svc"
    directory.mkdir()
    monkeypatch.setenv(SVC_TEST_DIR_ENV, str(directory))
    return directory


def request_for(workload: str, seed: int, mode: str = "none") -> SimRequest:
    return SimRequest(
        workload=workload, mode=mode, scale="tiny", seed=seed,
        config=SystemConfig.scaled(),
    )


def small_plan(workload: str = "intsort", seeds=(1, 2)) -> SimPlan:
    return SimPlan([request_for(workload, seed) for seed in seeds])


# ------------------------------------------------------------ endpoint lists


def test_parse_endpoints_orders_dedupes_and_validates():
    assert parse_endpoints("a:1, b:2 ,a:1,") == ["a:1", "b:2"]
    assert parse_endpoints(["unix:/tmp/x.sock"]) == ["unix:/tmp/x.sock"]
    with pytest.raises(ServiceError):
        parse_endpoints("not-an-address")
    with pytest.raises(ServiceError):
        parse_endpoints(",,")


# ------------------------------------------------------------ health probes


def test_health_probe_reports_daemon_readiness():
    with ServerThread(workers=1) as daemon:
        report = probe_endpoint(daemon.address)
        assert report.ok and report.ready
        assert report.status == "ok"
        assert report.protocol == PROTOCOL_VERSION
        assert report.workers == 1
        assert report.pool_generation == 0
        assert report.uptime is not None and report.uptime >= 0.0
        table = format_health_table([report])
        assert daemon.address in table and "ENDPOINT" in table


def test_health_probe_unreachable_endpoint_never_raises():
    report = probe_endpoint(DEAD, timeout=5.0)
    assert not report.ok and not report.ready
    assert report.error and "connect" in report.error
    table = format_health_table([report])
    assert "unreachable" in table


def test_status_cli_exit_codes(capsys):
    with ServerThread(workers=1) as daemon:
        assert status_main(daemon.address) == 0
        assert status_main(f"{daemon.address},{DEAD}") == 1
    assert status_main("garbage") == 2
    out = capsys.readouterr().out
    assert "ENDPOINT" in out and "unreachable" in out


def test_draining_daemon_reports_not_ready_on_live_connection(svc_dir):
    """A draining daemon answers ``health`` with ``draining`` to connected
    clients (new connections are refused outright — the listener closes)."""

    hold = svc_dir / "hold-601"
    hold.touch()
    with registered_test_workloads():
        daemon = ServerThread(workers=1)
        with daemon:
            with ServiceClient(daemon.address, timeout=120.0) as client:
                client.submit_nowait([request_for("svcgate", seed=601)])
                while True:
                    if client.read_event().get("type") == "chunk-started":
                        break
                # Work is gated in flight: ask for a drain, which cannot
                # complete until the hold lifts.  The drain flag flips on
                # the daemon's loop; poll the reported state (bounded).
                daemon.loop.call_soon_threadsafe(daemon.server.request_shutdown)
                deadline = time.monotonic() + 30.0
                while client.health()["status"] != "draining":
                    assert time.monotonic() < deadline, "drain flag never reported"
                    time.sleep(0.01)
                # And a fresh probe sees the closed listener: not ready.
                assert not probe_endpoint(daemon.address, timeout=5.0).ready
                hold.unlink()
                while True:
                    if client.read_event().get("type") == "done":
                        break


# ---------------------------------------------------------- protocol version


@pytest.fixture
def other_protocol(monkeypatch):
    """Daemons started under this fixture announce a different version."""

    import repro.service.server as server_module

    monkeypatch.setattr(server_module, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)


def test_client_refuses_a_server_speaking_another_protocol(other_protocol):
    """One protocol, no negotiation: a version mismatch fails loudly."""

    with ServerThread(workers=1) as daemon:
        with pytest.raises(ServiceProtocolError, match="speaks protocol"):
            ServiceClient(daemon.address, timeout=120.0)


def test_probe_reports_a_server_speaking_another_protocol_not_ok(other_protocol):
    with ServerThread(workers=1) as daemon:
        report = probe_endpoint(daemon.address)
        assert not report.ok and not report.ready
        assert "speaks protocol" in report.error


def test_engine_never_submits_to_a_server_speaking_another_protocol(other_protocol):
    """The failover engine treats the daemon as unusable."""

    with ServerThread(workers=1) as daemon:
        engine = ServiceEngine(daemon.address, timeout=120.0)
        with pytest.raises(ServiceError, match="no healthy service endpoint"):
            engine.run(small_plan())
        assert daemon.server.stats.submissions == 0


def test_removed_fetch_message_is_an_error_and_the_connection_survives():
    """``fetch`` left the protocol with peer replication; a stray one is refused."""

    with ServerThread(workers=1) as daemon:
        with ServiceClient(daemon.address, timeout=120.0) as client:
            client._send({"type": "fetch", "digests": ["0" * 64]})
            reply = client.read_event()
            assert reply["type"] == "error"
            assert "unknown message type 'fetch'" in reply["message"]
            client.ping()


# ----------------------------------------------------------------- failover


def test_failover_skips_dead_primary():
    with ServerThread(workers=1) as secondary:
        engine = ServiceEngine(f"{DEAD},{secondary.address}", timeout=120.0)
        batch = engine.run(small_plan())
        engine.close()
        assert len(batch.results) == 2 and not batch.failures
        assert batch.stats.failed_over >= 1
        assert engine.breakers[DEAD].failures >= 1
        assert engine.breakers[secondary.address].state == "closed"


def test_failover_away_from_draining_primary(svc_dir):
    """Daemon drain: new plans are resubmitted to the next healthy endpoint."""

    hold = svc_dir / "hold-611"
    hold.touch()
    with registered_test_workloads():
        primary = ServerThread(workers=1)
        with primary, ServerThread(workers=1) as secondary:
            with ServiceClient(primary.address, timeout=120.0) as gate_client:
                gate_client.submit_nowait([request_for("svcgate", seed=611)])
                while True:
                    if gate_client.read_event().get("type") == "chunk-started":
                        break
                primary.loop.call_soon_threadsafe(primary.server.request_shutdown)
                deadline = time.monotonic() + 30.0
                while gate_client.health()["status"] != "draining":
                    assert time.monotonic() < deadline, "drain flag never reported"
                    time.sleep(0.01)

                engine = ServiceEngine(
                    f"{primary.address},{secondary.address}", timeout=120.0
                )
                batch = engine.run(small_plan())
                engine.close()
                assert len(batch.results) == 2 and not batch.failures
                assert batch.stats.failed_over == 1
                assert secondary.server.stats.executed == 2
                assert primary.server.stats.executed == 0

                hold.unlink()
                while True:
                    if gate_client.read_event().get("type") == "done":
                        break


def test_sigkill_mid_plan_fails_over_with_banked_partial_progress(svc_dir):
    """Chaos: SIGKILL the primary daemon with one outcome streamed and one
    provably gated; the client completes bit-identically on the secondary,
    and executed counts prove the banked result never ran twice."""

    hold = svc_dir / "hold-702"
    hold.touch()
    requests = [request_for("svcgate", seed=701), request_for("svcgate", seed=702)]
    with registered_test_workloads():
        daemon_env = {
            "REPRO_WORKLOAD_PLUGINS": "svc_plugin",
            "PYTHONPATH": os.path.dirname(os.path.abspath(__file__)),
            SVC_TEST_DIR_ENV: os.environ[SVC_TEST_DIR_ENV],
        }
        with spawn_local_daemon(
            workers=1, extra_args=["--chunk-size", "1"], env=daemon_env
        ) as (process, primary_address):
            with ServerThread(workers=1) as secondary:
                killed = {"pid": None}

                def kill_after_first_outcome(event):
                    # Seed 701's streamed outcome proves partial progress
                    # landed; seed 702 is still gated behind the hold file,
                    # so the kill is mid-plan by construction.
                    if event.get("type") == "outcome" and killed["pid"] is None:
                        killed["pid"] = process.pid
                        os.kill(process.pid, signal.SIGKILL)
                        hold.unlink()

                engine = ServiceEngine(
                    f"{primary_address},{secondary.address}", timeout=120.0
                )
                batch = engine.run(
                    SimPlan(list(requests)), on_event=kill_after_first_outcome
                )
                engine.close()

                assert killed["pid"] is not None, "the streamed outcome must arrive"
                assert not batch.failures and len(batch.results) == 2
                # The hold is gone now, so the bit-identical reference can
                # run locally (it would have blocked on it beforehand).
                local = SimEngine(runner=SerialRunner()).run(SimPlan(list(requests)))
                assert {d: r.as_dict() for d, r in batch.results.items()} == {
                    d: r.as_dict() for d, r in local.results.items()
                }
                assert batch.stats.failed_over == 1
                # Exactly-once: one execution banked from the dead primary,
                # one on the secondary — never the same digest twice.
                assert batch.stats.executed == 2
                assert secondary.server.stats.executed == 1, (
                    "the banked outcome must not re-execute after failover"
                )


def test_failover_reuses_shared_cache_without_reexecuting(tmp_path):
    """Two daemons over one result cache: killing the warm one costs nothing
    — the survivor serves the whole plan from disk."""

    cache_dir = str(tmp_path / "shared-cache")
    with spawn_local_daemon(workers=1, cache_dir=cache_dir) as (process, primary):
        warm_engine = ServiceEngine(primary, timeout=120.0)
        cold = warm_engine.run(small_plan("randacc"))
        warm_engine.close()
        assert cold.stats.executed == 2
        with ServerThread(workers=1, cache_dir=cache_dir) as secondary:
            os.kill(process.pid, signal.SIGKILL)
            engine = ServiceEngine(f"{primary},{secondary.address}", timeout=120.0)
            warm = engine.run(small_plan("randacc"))
            engine.close()
            assert warm.stats.failed_over >= 1
            assert warm.stats.executed == 0, "shared cache must prevent re-execution"
            assert warm.stats.cache_hits == 2
            assert {d: r.as_dict() for d, r in warm.results.items()} == {
                d: r.as_dict() for d, r in cold.results.items()
            }


# ------------------------------------------------------------ degrade local


def test_degrade_to_local_when_fleet_unreachable():
    fallback_used = {"count": 0}

    def factory():
        fallback_used["count"] += 1
        return SimEngine(runner=SerialRunner())

    engine = ServiceEngine(
        f"{DEAD},127.0.0.1:2", timeout=5.0, local_engine_factory=factory
    )
    reference = SimEngine(runner=SerialRunner()).run(small_plan())
    batch = engine.run(small_plan())
    assert fallback_used["count"] == 1
    assert batch.stats.degraded_local == 2
    assert batch.stats.failed_over == 2
    assert {d: r.as_dict() for d, r in batch.results.items()} == {
        d: r.as_dict() for d, r in reference.results.items()
    }, "degraded execution must be bit-identical to a local run"
    # The factory's engine is reused, not rebuilt per run.
    engine.run(small_plan())
    assert fallback_used["count"] == 1


def test_degrade_without_fallback_raises():
    engine = ServiceEngine(DEAD, timeout=5.0)
    with pytest.raises(ServiceError, match="no healthy service endpoint"):
        engine.run(small_plan())


def test_degrade_to_local_honors_resume(tmp_path):
    """`build_engine(service=...)` wires the full local configuration into
    the fallback: a degraded run resumes from the prior checkpoint."""

    cache_dir = str(tmp_path / "cache")
    checkpoint_dir = str(tmp_path / "ckpt")
    first = SimEngine(
        runner=SerialRunner(),
        cache=ResultCache(cache_dir),
        checkpoint_dir=checkpoint_dir,
    ).run(small_plan())
    assert first.stats.executed == 2

    engine = build_engine(
        service=f"{DEAD},127.0.0.1:2",
        cache_dir=cache_dir,
        checkpoint_dir=checkpoint_dir,
        resume=True,
    )
    assert isinstance(engine, ServiceEngine)
    batch = engine.run(small_plan())
    assert batch.stats.degraded_local == 2
    assert batch.stats.resumed == 2, "the fallback must replay the checkpoint"
    assert batch.stats.executed == 0, "resume + cache must re-execute nothing"
    assert {d: r.as_dict() for d, r in batch.results.items()} == {
        d: r.as_dict() for d, r in first.results.items()
    }


# ------------------------------------------------------------ spawn hygiene


def test_spawn_local_daemon_kills_child_on_exit():
    with spawn_local_daemon(workers=1) as (process, address):
        assert address
        assert process.poll() is None, "daemon must be running inside the block"
    assert process.poll() is not None, "daemon must be reaped on exit"


def test_spawn_local_daemon_kills_child_when_body_raises():
    leaked = {}
    with pytest.raises(RuntimeError, match="boom"):
        with spawn_local_daemon(workers=1) as (process, _address):
            leaked["process"] = process
            raise RuntimeError("boom")
    assert leaked["process"].poll() is not None, "daemon must be reaped on error"


def _live_group_members(pgid: int) -> list[int]:
    """Pids of the live (not zombie) processes in process group ``pgid``."""

    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # After the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists process groups through /proc")
def test_spawn_local_daemon_kills_pool_workers_of_a_sigkilled_daemon():
    with spawn_local_daemon(workers=1) as (process, address):
        engine = ServiceEngine(address, timeout=120.0)
        assert not engine.run(small_plan("randacc")).failures
        engine.close()
        pgid = process.pid
        assert len(_live_group_members(pgid)) >= 2, "the daemon and its pool worker"
        os.kill(process.pid, signal.SIGKILL)
    # SIGKILL is delivered asynchronously; give the group a moment to die.
    deadline = time.monotonic() + 10.0
    while _live_group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_group_members(pgid) == [], "a pool worker outlived its daemon"
