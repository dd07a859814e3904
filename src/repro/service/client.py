"""Client library for the simulation service daemon(s).

Four layers, lowest to highest:

* :class:`ServiceClient` — a blocking socket client speaking the
  newline-delimited JSON protocol: connect (with exponential-backoff
  retries), handshake, :meth:`~ServiceClient.submit` a list of requests and
  stream progress events until ``done``.  The split
  :meth:`~ServiceClient.submit_nowait` / :meth:`~ServiceClient.read_event`
  pair exposes individual protocol events for tests that synchronise on
  them (the fault-injection tier never sleeps for ordering).
* :func:`run_plan` — execute one plan through one client, mapping remote
  outcomes back onto local digests.
* :class:`ServiceEngine` — the drop-in
  :class:`~repro.sim.engine.SimEngine` facade, now a **failover engine**:
  it accepts an ordered endpoint list (``ADDR,ADDR,...``), health-probes
  endpoints for selection, quarantines flapping daemons
  behind per-endpoint :class:`~repro.service.breaker.CircuitBreaker`\\ s,
  banks streamed per-digest outcomes so a daemon dying mid-plan costs only
  the unresolved remainder, and — when every endpoint is down — degrades
  to a caller-supplied local engine (which honors ``--resume``
  checkpoints).  From the caller's view a plan completes bit-identically
  and each digest resolves exactly once, whatever the fleet did.
* :func:`spawn_local_daemon` — a context manager starting
  ``python -m repro.service`` as a subprocess; the child is killed on exit
  even when startup fails or the body raises.

Requests travel as declarative wire payloads (never digests), so client and
server agree on *what* to simulate even across source revisions; results
come back as exact-round-trip :meth:`~repro.sim.results.SimulationResult.
as_dict` payloads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..errors import ServiceError, ServiceProtocolError
from ..resilience import RetryPolicy
from ..sim.engine import BatchResult, EngineStats, SimPlan, SimRequest
from ..sim.results import SimulationResult
from .breaker import CircuitBreaker
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    request_to_wire,
)

#: Event callback: receives every server message for one submission.
EventCallback = Callable[[dict[str, Any]], None]

#: Upper bound on admission-control rejections one ``submit`` call will
#: retry through before giving up.  Deliberately generous: each retry waits
#: at least the server's ``retry_after``, so a busy-but-progressing daemon
#: is eventually admitted, while a wedged one still cannot loop forever.
DEFAULT_REJECTION_LIMIT = 100


def parse_address(address: str) -> Union[tuple[str, int], str]:
    """Parse ``host:port`` or ``unix:/path`` into connectable form."""

    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ServiceError(f"empty UNIX socket path in address {address!r}")
        return path
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ServiceError(
            f"service address {address!r} is not 'host:port' or 'unix:/path'"
        )
    try:
        return (host, int(port))
    except ValueError as error:
        raise ServiceError(f"bad port in service address {address!r}") from error


def parse_endpoints(spec: Union[str, Sequence[str]]) -> list[str]:
    """Split ``ADDR,ADDR,...`` (or a sequence) into an ordered endpoint list.

    Order is preference order — the first endpoint is the primary.
    Duplicates collapse to their first occurrence; every endpoint is
    syntax-checked up front so a typo fails loudly, not at failover time.
    """

    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",")]
    else:
        parts = [part.strip() for part in spec]
    endpoints: list[str] = []
    for part in parts:
        if not part:
            continue
        parse_address(part)  # validate syntax eagerly
        if part not in endpoints:
            endpoints.append(part)
    if not endpoints:
        raise ServiceError(f"no service endpoints in {spec!r}")
    return endpoints


class ServiceClient:
    """Blocking NDJSON client for one daemon connection."""

    def __init__(
        self,
        address: str,
        *,
        timeout: Optional[float] = 300.0,
        connect_retries: int = 5,
        backoff: float = 0.05,
        name: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rejection_limit: int = DEFAULT_REJECTION_LIMIT,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.backoff = backoff
        self.name = name or f"client-{os.getpid()}"
        #: Backoff schedule shared by connects, resubmits after connection
        #: loss, and admission-control rejections.  Capped and seeded with
        #: the client name, so concurrent clients decorrelate their retries
        #: instead of hammering the daemon in lockstep.
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=connect_retries + 1,
                base_delay=backoff,
                seed=self.name,
            )
        )
        self.rejection_limit = rejection_limit
        self.welcome: Optional[dict[str, Any]] = None
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)
        self._sleep: Callable[[float], None] = time.sleep
        self.connect()

    # ------------------------------------------------------------ transport

    def connect(self) -> None:
        """(Re)connect with capped, jittered backoff, then handshake.

        A server announcing a protocol version other than
        :data:`~repro.service.protocol.PROTOCOL_VERSION` is refused with
        :class:`ServiceProtocolError`; there is no negotiation.
        """

        self.close()
        target = parse_address(self.address)
        last_error: Optional[Exception] = None
        for attempt in range(self.retry_policy.max_attempts):
            if attempt:
                self._sleep(self.retry_policy.delay(attempt - 1))
            try:
                if isinstance(target, str):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(self.timeout)
                    sock.connect(target)
                else:
                    sock = socket.create_connection(target, timeout=self.timeout)
            except OSError as error:
                last_error = error
                continue
            self._sock = sock
            self._file = sock.makefile("rb")
            self._send({"type": "hello", "client": self.name})
            welcome = self.read_event()
            if welcome.get("type") != "welcome":
                self.close()
                raise ServiceProtocolError(f"expected welcome, got {welcome.get('type')!r}")
            if welcome.get("protocol") != PROTOCOL_VERSION:
                self.close()
                raise ServiceProtocolError(
                    f"service at {self.address!r} speaks protocol "
                    f"{welcome.get('protocol')!r}; this client speaks {PROTOCOL_VERSION}"
                )
            self.welcome = welcome
            return
        raise ServiceError(
            f"could not connect to service at {self.address!r} "
            f"after {self.retry_policy.max_attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, message: dict[str, Any]) -> None:
        if self._sock is None:
            raise ServiceError("client is not connected")
        try:
            self._sock.sendall(encode_message(message))
        except OSError as error:
            raise ServiceError(f"send to service failed: {error}") from error

    def read_event(self) -> dict[str, Any]:
        """Read one server message (blocking up to ``timeout``)."""

        if self._file is None:
            raise ServiceError("client is not connected")
        try:
            line = self._file.readline(MAX_MESSAGE_BYTES)
        except socket.timeout as error:
            raise ServiceError(
                f"timed out after {self.timeout}s waiting for the service"
            ) from error
        except OSError as error:
            raise ServiceError(f"read from service failed: {error}") from error
        if not line:
            raise ServiceError("service closed the connection")
        return decode_message(line)

    # ------------------------------------------------------------- requests

    def submit_nowait(
        self,
        requests: Sequence[SimRequest],
        *,
        deadline: Optional[float] = None,
    ) -> int:
        """Send one submission; returns its id.  Events via :meth:`read_event`."""

        sid = next(self._ids)
        message: dict[str, Any] = {
            "type": "submit",
            "id": sid,
            "requests": [request_to_wire(request) for request in requests],
        }
        if deadline is not None:
            message["deadline"] = deadline
        self._send(message)
        return sid

    def submit(
        self,
        requests: Sequence[SimRequest],
        on_event: Optional[EventCallback] = None,
        *,
        deadline: Optional[float] = None,
    ) -> dict[str, Any]:
        """Submit and block until ``done``; returns the done message.

        If the connection dies before the submission is ``accepted`` (the
        daemon restarted, a transient network fault), the client reconnects
        and resubmits — safe because nothing was scheduled yet.  After
        acceptance a connection loss is surfaced as :class:`ServiceError`:
        the server has cancelled our pending work on disconnect, and the
        caller decides whether to retry the whole plan (a retry is cheap —
        completed digests are served from the daemon's memo) or, as the
        failover :class:`ServiceEngine` does, to resubmit the unresolved
        remainder to another endpoint.

        A ``rejected`` answer (admission control) is honored
        by sleeping at least the server's ``retry_after`` — and at least
        this client's own backoff for the attempt — then resubmitting, up
        to :attr:`rejection_limit` times.  Rejections do not consume
        connection-retry attempts: being told "later" is flow control, not
        a fault.

        The server emits a per-digest ``outcome`` event as each result
        lands; the events flow through ``on_event`` like every other
        message, which is how the failover engine banks partial progress.
        """

        rejections = 0
        attempt = 0
        while attempt < self.retry_policy.max_attempts:
            if self._sock is None:
                self.connect()
            try:
                sid = self.submit_nowait(requests, deadline=deadline)
            except ServiceError:
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.close()
                continue
            accepted = False
            rejected = False
            while True:
                try:
                    event = self.read_event()
                except ServiceError:
                    attempt += 1
                    if accepted or attempt >= self.retry_policy.max_attempts:
                        raise
                    self.close()
                    break
                if event.get("id") not in (None, sid):
                    continue
                if on_event is not None:
                    on_event(event)
                kind = event.get("type")
                if kind == "accepted":
                    accepted = True
                elif kind == "rejected":
                    rejections += 1
                    if rejections > self.rejection_limit:
                        raise ServiceError(
                            f"service kept rejecting submission "
                            f"({event.get('reason')}: {event.get('message')}) "
                            f"after {self.rejection_limit} retries"
                        )
                    retry_after = float(event.get("retry_after") or 0.0)
                    backoff = self.retry_policy.delay(
                        min(rejections - 1, self.retry_policy.retries)
                    )
                    self._sleep(max(retry_after, backoff))
                    rejected = True
                    break
                elif kind == "done":
                    return event
                elif kind == "error":
                    raise ServiceError(f"service rejected submission: {event.get('message')}")
            if rejected:
                continue  # backed off; resubmit without burning an attempt
            # fell out of the read loop pre-acceptance: reconnect + resubmit
        raise ServiceError("submission retries exhausted")  # pragma: no cover

    def server_stats(self) -> dict[str, Any]:
        self._send({"type": "stats"})
        while True:
            event = self.read_event()
            if event.get("type") == "stats":
                return event

    def ping(self) -> None:
        self._send({"type": "ping"})
        while True:
            if self.read_event().get("type") == "pong":
                return

    def health(self) -> dict[str, Any]:
        """One ``health`` round-trip."""

        self._send({"type": "health"})
        while True:
            event = self.read_event()
            kind = event.get("type")
            if kind == "health":
                return event
            if kind == "error":
                raise ServiceError(f"health probe refused: {event.get('message')}")

    def shutdown_server(self) -> None:
        """Ask the daemon to drain and exit (best-effort)."""

        try:
            self._send({"type": "shutdown"})
            while True:
                if self.read_event().get("type") == "draining":
                    return
        except ServiceError:
            pass


# -------------------------------------------------------- engine-level API


def _outcome_error(request: SimRequest, outcome: dict[str, Any]) -> str:
    return outcome.get("failure") or f"{request.workload}/{request.mode}: service failure"


def _absorb_outcome(
    batch: BatchResult, request: SimRequest, outcome: dict[str, Any]
) -> None:
    """Materialise one wire outcome into the batch (results/skips/failures)."""

    stats = batch.stats
    status = outcome.get("status")
    if status == "ok":
        batch.results[request.digest] = SimulationResult.from_dict(outcome["result"])
    elif status == "unavailable":
        batch.skipped.add(request.digest)
        stats.unavailable += 1
    elif status == "failed":
        label = _outcome_error(request, outcome)
        batch.skipped.add(request.digest)
        batch.failures[request.digest] = label
        stats.failed += 1
        stats.failures[label] = stats.failures.get(label, 0) + 1
    else:
        raise ServiceProtocolError(f"unknown outcome status {status!r}")


def run_plan(
    client: ServiceClient,
    plan: SimPlan,
    *,
    on_event: Optional[EventCallback] = None,
    deadline: Optional[float] = None,
) -> BatchResult:
    """Execute ``plan`` through one service client; results keyed by local digests.

    Outcomes are positional in the wire protocol, so the mapping back to
    local digests never depends on client and server computing identical
    content hashes (they may run different source revisions).
    """

    requests = list(plan)
    batch = BatchResult()
    stats = batch.stats
    stats.runner = "service"
    stats.submitted = plan.submitted
    stats.unique = len(requests)
    stats.deduplicated = stats.submitted - stats.unique
    if not requests:
        return batch

    def counting_on_event(event: dict[str, Any]) -> None:
        if event.get("type") == "rejected":
            stats.rejected += 1
        if on_event is not None:
            on_event(event)

    done = client.submit(requests, on_event=counting_on_event, deadline=deadline)
    outcomes = done.get("outcomes")
    if not isinstance(outcomes, list) or len(outcomes) != len(requests):
        raise ServiceProtocolError(
            f"service returned {len(outcomes) if isinstance(outcomes, list) else 'no'} "
            f"outcomes for {len(requests)} requests"
        )
    remote = done.get("stats", {})
    # The daemon distinguishes its own reuse tiers (memo, disk cache, joined
    # in-flight work); locally they are all avoided simulations.
    stats.memo_hits = int(remote.get("memo_hits", 0))
    stats.cache_hits = int(remote.get("cache_hits", 0))
    stats.deduplicated += int(remote.get("joined", 0))
    stats.executed = int(remote.get("executed", 0))

    for request, outcome in zip(requests, outcomes):
        _absorb_outcome(batch, request, outcome)
    return batch


class ServiceEngine:
    """Failover :class:`~repro.sim.engine.SimEngine` facade over a fleet.

    Presents the same ``run(plan)`` / ``simulate(request)`` / lifetime
    ``stats`` surface, so report drivers take ``--service ADDR[,ADDR...]``
    without special-casing.  Endpoints are tried in order; a failing one is
    skipped for the rest of the run and quarantined by its circuit breaker
    across runs.  Mid-plan progress streamed by a dying daemon is banked,
    so only the unresolved remainder is resubmitted — each digest resolves
    exactly once from the caller's view.  With ``local_engine_factory``
    set, a fleet that is entirely unreachable degrades to local execution
    (the factory's engine carries the caller's cache/checkpoint/resume
    configuration).

    Args:
        address: One endpoint or an ordered comma-separated list.
        timeout: Socket timeout per endpoint connection.
        deadline: Per-``run`` submission deadline forwarded to the daemon.
        local_engine_factory: Zero-argument callable building the local
            fallback engine; invoked at most once, on first degrade.
        connect_retries: Connect attempts per endpoint per run (kept low —
            failover to the next endpoint beats hammering a dead one).
        breaker_failure_threshold / breaker_reset_timeout: Per-endpoint
            circuit-breaker tuning (see :class:`CircuitBreaker`).
        probe_timeout: Budget for one health probe.
        clock: Injectable monotonic clock for the breakers (tests).
    """

    def __init__(
        self,
        address: Union[str, Sequence[str]],
        *,
        timeout: Optional[float] = 600.0,
        deadline: Optional[float] = None,
        local_engine_factory: Optional[Callable[[], Any]] = None,
        connect_retries: int = 2,
        breaker_failure_threshold: int = 2,
        breaker_reset_timeout: float = 5.0,
        probe_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.endpoints = parse_endpoints(address)
        self.address = ",".join(self.endpoints)
        self.timeout = timeout
        self.deadline = deadline
        self.local_engine_factory = local_engine_factory
        self.connect_retries = connect_retries
        self.probe_timeout = probe_timeout
        self.breakers: dict[str, CircuitBreaker] = {
            endpoint: CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                reset_timeout=breaker_reset_timeout,
                clock=clock,
            )
            for endpoint in self.endpoints
        }
        self._clients: dict[str, ServiceClient] = {}
        self._local_engine: Optional[Any] = None
        self.stats = EngineStats(runner="service")

    # ------------------------------------------------------------ endpoints

    @property
    def client(self) -> ServiceClient:
        """A connected client for the primary endpoint (compat accessor)."""

        return self._client_for(self.endpoints[0])

    def _client_for(self, endpoint: str) -> ServiceClient:
        client = self._clients.get(endpoint)
        if client is not None and client.connected:
            return client
        client = ServiceClient(
            endpoint, timeout=self.timeout, connect_retries=self.connect_retries
        )
        self._clients[endpoint] = client
        return client

    def _drop_client(self, endpoint: str) -> None:
        client = self._clients.pop(endpoint, None)
        if client is not None:
            client.close()

    def _select_endpoint(
        self, tried: set[str], stats: Optional[EngineStats] = None
    ) -> Optional[str]:
        """First endpoint, in preference order, that is currently usable.

        Skips endpoints already failed this run and endpoints whose
        breaker refuses traffic.  A breaker in half-open (and any endpoint
        without a live connection) is validated with a health probe first:
        unreachable or draining endpoints are failed without submitting a
        plan to them, and so are endpoints speaking another protocol
        version.
        """

        from .health import probe_endpoint  # local import: health imports client

        for endpoint in self.endpoints:
            if endpoint in tried:
                continue
            breaker = self.breakers[endpoint]
            if not breaker.allow():
                continue
            needs_probe = breaker.state != "closed" or not (
                endpoint in self._clients and self._clients[endpoint].connected
            )
            if needs_probe:
                report = probe_endpoint(endpoint, timeout=self.probe_timeout)
                if not report.ready:
                    # An unreachable or draining endpoint skipped at
                    # selection time is a failover too — just a cheap one.
                    breaker.record_failure()
                    tried.add(endpoint)
                    if stats is not None:
                        stats.failed_over += 1
                    continue
            return endpoint
        return None

    # ------------------------------------------------------------------ run

    def run(
        self,
        plan: SimPlan,
        *,
        progress: bool = False,
        on_event: Optional[EventCallback] = None,
    ) -> BatchResult:
        requests = list(plan)
        batch = BatchResult()
        stats = batch.stats
        stats.runner = "service"
        stats.submitted = plan.submitted
        stats.unique = len(requests)
        stats.deduplicated = stats.submitted - stats.unique
        if not requests:
            self.stats.merge(batch.stats)
            return batch

        user_on_event = on_event
        if progress:
            def user_on_event(event: dict[str, Any]) -> None:  # noqa: F811
                if event.get("type") == "progress":
                    print(
                        f"  [service] {event['completed']}/{event['total']} resolved",
                        file=sys.stderr,
                    )
                if on_event is not None:
                    on_event(event)

        #: Final wire outcome per local digest, across every attempt.
        resolved: dict[str, dict[str, Any]] = {}
        tried: set[str] = set()

        while True:
            pending = [r for r in requests if r.digest not in resolved]
            if not pending:
                break
            endpoint = self._select_endpoint(tried, stats)
            if endpoint is None:
                self._degrade_to_local(batch, pending)
                break
            breaker = self.breakers[endpoint]
            #: Outcomes streamed by THIS attempt, banked by position.  Each
            #: was executed by the daemon that streamed it.
            attempt_banked: dict[str, dict[str, Any]] = {}

            def banking_on_event(event: dict[str, Any]) -> None:
                kind = event.get("type")
                if kind == "rejected":
                    stats.rejected += 1
                elif kind == "outcome":
                    outcome = event.get("outcome")
                    positions = event.get("positions") or []
                    if isinstance(outcome, dict):
                        for position in positions:
                            if isinstance(position, int) and 0 <= position < len(pending):
                                attempt_banked[pending[position].digest] = outcome
                if user_on_event is not None:
                    user_on_event(event)

            try:
                client = self._client_for(endpoint)
                done = client.submit(
                    pending, on_event=banking_on_event, deadline=self.deadline
                )
            except ServiceError:
                # Connect failure, mid-plan disconnect, drain refusal:
                # quarantine the endpoint, keep what it streamed, move on.
                breaker.record_failure()
                tried.add(endpoint)
                self._drop_client(endpoint)
                stats.failed_over += 1
                resolved.update(attempt_banked)
                stats.executed += len(attempt_banked)
                continue

            breaker.record_success()
            outcomes = done.get("outcomes")
            if not isinstance(outcomes, list) or len(outcomes) != len(pending):
                raise ServiceProtocolError(
                    f"service returned "
                    f"{len(outcomes) if isinstance(outcomes, list) else 'no'} "
                    f"outcomes for {len(pending)} requests"
                )
            remote = done.get("stats", {})
            stats.memo_hits += int(remote.get("memo_hits", 0))
            stats.cache_hits += int(remote.get("cache_hits", 0))
            stats.deduplicated += int(remote.get("joined", 0))
            stats.executed += int(remote.get("executed", 0))
            for request, outcome in zip(pending, outcomes):
                resolved[request.digest] = outcome
            break

        for request in requests:
            outcome = resolved.get(request.digest)
            if outcome is not None and request.digest not in batch.results:
                if request.digest in batch.skipped:
                    continue  # already absorbed (duplicate digest in plan)
                _absorb_outcome(batch, request, outcome)

        self.stats.merge(batch.stats)
        return batch

    def _degrade_to_local(
        self, batch: BatchResult, pending: list[SimRequest]
    ) -> None:
        """Every endpoint is down or draining: run ``pending`` locally.

        The fallback engine is built once from ``local_engine_factory``
        and carries the caller's cache / checkpoint / ``--resume``
        configuration, so a degraded run banks its progress exactly like a
        direct local run would.  Without a factory the degradation is a
        hard error naming the endpoints — silently hanging would be worse.
        """

        if self.local_engine_factory is None:
            states = ", ".join(
                f"{endpoint} ({self.breakers[endpoint].state})"
                for endpoint in self.endpoints
            )
            raise ServiceError(
                f"no healthy service endpoint and no local fallback: {states}"
            )
        if self._local_engine is None:
            self._local_engine = self.local_engine_factory()
        local = self._local_engine.run(SimPlan(pending))
        batch.results.update(local.results)
        batch.skipped.update(local.skipped)
        batch.failures.update(local.failures)
        stats = batch.stats
        stats.degraded_local += len(pending)
        for attribute in (
            "memo_hits", "cache_hits", "executed", "unavailable", "failed",
            "trace_hits", "trace_built", "trace_stored", "resumed",
            "retried", "requeues", "hung_killed", "expired",
        ):
            setattr(
                stats, attribute,
                getattr(stats, attribute) + getattr(local.stats, attribute),
            )
        for label, count in local.stats.failures.items():
            stats.failures[label] = stats.failures.get(label, 0) + count

    def simulate(self, request: SimRequest) -> Optional[SimulationResult]:
        batch = self.run(SimPlan([request]))
        return batch.get(request)

    def close(self) -> None:
        for endpoint in list(self._clients):
            self._drop_client(endpoint)


# ------------------------------------------------------------ local daemon


@contextlib.contextmanager
def spawn_local_daemon(
    *,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    trace_store: Optional[str] = "off",
    extra_args: Sequence[str] = (),
    startup_timeout: float = 60.0,
    env: Optional[dict[str, str]] = None,
) -> Iterator[tuple[subprocess.Popen, str]]:
    """Start ``python -m repro.service``; yield ``(process, address)``.

    A context manager so the child can never be leaked: the daemon starts
    in its own session, and on exit — normal, test failure, or an exception
    during startup itself — its whole process group is killed and the daemon
    reaped.  The group kill also runs when the daemon is already dead: a
    daemon that was SIGKILLed cannot stop its pool workers, which ignore
    SIGTERM.  A body that already shut the daemon down (drain, SIGTERM) sees
    no interference: its workers exited with it.
    Used by the smoke/HA tools and the fault-injection tests;
    ``trace_store`` defaults to ``"off"`` so spawning a daemon never
    touches the per-user store.  ``env`` entries are overlaid on the
    inherited environment (``PYTHONPATH`` is *prepended* to the one that
    makes ``repro`` importable, not replaced).
    """

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.dirname(package_root)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = src_root + os.pathsep + child_env.get("PYTHONPATH", "")
    if env:
        for key, value in env.items():
            if key == "PYTHONPATH":
                child_env["PYTHONPATH"] = value + os.pathsep + child_env["PYTHONPATH"]
            else:
                child_env[key] = value
    command = [sys.executable, "-m", "repro.service", "--workers", str(workers)]
    if cache_dir is not None:
        command += ["--cache", cache_dir]
    if trace_store is not None:
        command += ["--trace-store", trace_store]
    command += list(extra_args)
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env,
        start_new_session=True,
    )
    try:
        yield process, _read_announcement(process, startup_timeout)
    finally:
        # The group id is the daemon's pid, which stays reserved while any
        # member lives or the daemon is unreaped, so kill before reaping.
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(process.pid, signal.SIGKILL)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill must reap
            pass
        if process.stdout is not None:
            process.stdout.close()


def _read_announcement(process: subprocess.Popen, startup_timeout: float) -> str:
    """Wait for the daemon's ``listening`` line; return its address."""

    assert process.stdout is not None
    deadline = time.monotonic() + startup_timeout
    line = b""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line:
            break
        if process.poll() is not None:
            raise ServiceError(
                f"service daemon exited during startup (code {process.returncode})"
            )
    try:
        announcement = json.loads(line)
        if announcement.get("event") != "listening":
            raise ValueError(announcement)
        return announcement["address"]
    except (ValueError, KeyError) as error:
        raise ServiceError(f"bad daemon announcement {line!r}") from error
