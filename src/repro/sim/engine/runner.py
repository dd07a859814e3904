"""Plan executors: serial, and multiprocessing across cores.

Requests are grouped by :attr:`SimRequest.workload_key` so each group's
expensive inputs — workload data structures and dynamic traces — are
resolved exactly once.  Resolution goes through the **trace artifact tier**
(:mod:`repro.trace_store`): each group's trace artifacts are looked up front
in the digest-keyed on-disk store; warm artifacts replay directly (no
workload rebuild at all for the non-programmable modes, traces injected
instead of re-emitted for the programmable ones), and anything missing is
built once, emitted, and persisted so the next run — or the next worker —
starts warm.  The serial and parallel runners execute the same per-request
code path, so for a given request set they produce bit-identical results;
the parallel runner merely farms chunks of those groups out to worker
processes, shipping each chunk the compact encoded trace columns it found
warm instead of a rebuild recipe.

A request whose mode cannot be built for its workload (the missing Figure 7
bars, e.g. software prefetching on PageRank) executes to ``None`` with no
failure label, mirroring the drivers' historical "skip the bar" behaviour.
Any *other* :class:`~repro.errors.WorkloadError` also executes to ``None``
but carries a failure label, which the engine counts and surfaces — failed
requests are no longer silently indistinguishable from unavailable ones.

Both runners are resilience-aware (see ``docs/resilience.md``):

* ``run`` accepts an ``on_executed`` callback invoked with each batch of
  completed requests *as they finish*, which the engine uses to persist
  results and checkpoint-manifest entries incrementally — a killed run
  keeps everything completed so far.
* ``run`` accepts a :class:`~repro.resilience.Deadline`; once it expires,
  remaining requests complete as labelled failures (never cached, so a
  resumed run retries exactly the expired work).
* a :class:`~repro.resilience.RetryPolicy` retries individual failed
  requests in place, and :class:`MultiprocessRunner` requeues the chunk of
  a crashed or hung worker with bounded attempts.
"""

from __future__ import annotations

import math
import os
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

try:  # POSIX shared memory; absent on some minimal platforms.
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exercised via monkeypatched tests
    _shared_memory = None

from ...errors import WorkerCrashedError, WorkerHungError, WorkloadError
from ...resilience import Deadline, DeadlineLike, RetryPolicy
from ...trace_store import (
    GroupResolver,
    TraceStore,
    TraceStoreStats,
    default_trace_store,
    trace_digest,
    validate_artifact_bytes,
    variants_needed,
)
from ...workloads.base import Workload
from ..modes import mode_available
from ..results import SimulationResult
from ..system import simulate
from .pool import WorkerPool
from .request import SimRequest, resolve_policy

#: One executed request: ``(digest, result, failure)``.  ``result`` is
#: ``None`` both for unavailable modes (``failure is None``) and for genuine
#: failures (``failure`` holds the error text).
ExecutedRequest = tuple[str, Optional[SimulationResult], Optional[str]]

#: Callback receiving each batch of completed requests as it finishes.
ExecutedCallback = Callable[[Sequence[ExecutedRequest]], None]


#: One encoded trace column set as shipped to a worker: either the raw
#: bytes pickled inline (``("bytes", data)``) or the name and size of a
#: shared-memory segment holding them (``("shm", name, size)``), which every
#: worker attaches zero-copy instead of receiving its own pickled copy.
EncodedRef = Union[tuple[str, bytes], tuple[str, str, int]]

#: Sentinel distinguishing "no store passed" (resolve from the environment)
#: from an explicit ``trace_store=None`` (tier disabled).
_DEFAULT_STORE = object()

#: Marker text present in every deadline-expiry failure label; the engine
#: uses it to count expirations separately from ordinary failures.
DEADLINE_FAILURE_TEXT = "deadline exceeded"


def _resolve_store(trace_store) -> Optional[TraceStore]:
    return default_trace_store() if trace_store is _DEFAULT_STORE else trace_store


@dataclass
class ResilienceStats:
    """What a runner's resilience machinery did during one ``run``.

    Attributes:
        retried: Individual failed requests retried in place under a
            :class:`~repro.resilience.RetryPolicy` (one count per retry).
        expired: Requests completed as failures because a deadline expired
            before they ran.
        hung_killed: Workers killed by the heartbeat watchdog.
        requeues: Chunks requeued after their worker hung or crashed.
        degraded_serial: Chunks executed in-parent after the worker pool
            was exhausted.
    """

    retried: int = 0
    expired: int = 0
    hung_killed: int = 0
    requeues: int = 0
    degraded_serial: int = 0

    def merge(self, other: "ResilienceStats") -> None:
        self.retried += other.retried
        self.expired += other.expired
        self.hung_killed += other.hung_killed
        self.requeues += other.requeues
        self.degraded_serial += other.degraded_serial


def group_requests(requests: Sequence[SimRequest]) -> list[list[SimRequest]]:
    """Group requests by workload key, preserving first-seen order."""

    groups: dict[tuple[str, str, int], list[SimRequest]] = {}
    for request in requests:
        groups.setdefault(request.workload_key, []).append(request)
    return list(groups.values())


def execute_request(
    request: SimRequest, workload: Workload
) -> tuple[Optional[SimulationResult], Optional[str]]:
    """Run one request against a resolved workload.

    Returns ``(result, failure)``: a successful simulation carries no
    failure text; an unavailable mode returns ``(None, None)``; any other
    workload error returns ``(None, <message>)`` so the engine can count
    and label it instead of dropping it on the floor.
    """

    try:
        result = simulate(
            workload,
            request.prefetch_mode,
            request.config,
            policy=resolve_policy(request.policy),
            kernel_source=request.kernel_source,
        )
        return result, None
    except WorkloadError as error:
        try:
            if not mode_available(workload, request.prefetch_mode):
                return None, None
        except WorkloadError:
            pass  # availability itself failed: report the original error
        return None, f"{request.workload}/{request.mode}: {error}"


def _deadline_failure(request: SimRequest, deadline: Deadline) -> ExecutedRequest:
    return (
        request.digest,
        None,
        f"{request.workload}/{request.mode}: {DEADLINE_FAILURE_TEXT} "
        f"({deadline.seconds:g}s budget)",
    )


def execute_group(
    requests: Sequence[SimRequest],
    workloads: Optional[Mapping[str, Workload]] = None,
    *,
    store: Optional[TraceStore] = None,
    encoded: Optional[Mapping[str, bytes]] = None,
    deadline: Optional[Deadline] = None,
    retry_policy: Optional[RetryPolicy] = None,
    on_executed: Optional[Callable[[ExecutedRequest], None]] = None,
    resilience: Optional[ResilienceStats] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[ExecutedRequest], TraceStoreStats]:
    """Execute one workload group, resolving its trace artifacts up front.

    ``workloads`` may supply pre-built objects keyed by workload name; one
    is used only when its scale and seed match the request, otherwise the
    group resolves independently so results stay independent of what was
    passed in.  ``encoded`` carries store-encoded trace columns a parent
    process shipped (keyed by variant); ``store`` is consulted for anything
    else and receives freshly-emitted traces.

    The resilience hooks are all optional: once ``deadline`` expires the
    remaining requests complete as labelled failures instead of running;
    ``retry_policy`` retries each *failed* request in place (unavailable
    modes are never retried — they are answers, not errors);
    ``on_executed`` is called with each request as it completes (a pool
    worker's heartbeat); ``resilience`` accumulates retry/expiry counters
    for the caller.

    Returns the executed requests in submission order and the trace-tier
    counters.
    """

    executed: list[ExecutedRequest] = []
    stats = TraceStoreStats()

    def finish(done: ExecutedRequest) -> None:
        executed.append(done)
        if on_executed is not None:
            on_executed(done)

    for group in group_requests(requests):
        first = group[0]
        if deadline is not None and deadline.expired:
            # Do not even build the resolver: fail the whole group fast so
            # an expired run returns promptly with retryable failures.
            for request in group:
                if resilience is not None:
                    resilience.expired += 1
                finish(_deadline_failure(request, deadline))
            continue
        resolver = GroupResolver(
            first.workload,
            first.scale,
            first.seed,
            store=store,
            prebuilt=(workloads or {}).get(first.workload),
            encoded=encoded if first.workload_key == requests[0].workload_key else None,
        )
        for request in group:
            if deadline is not None and deadline.expired:
                if resilience is not None:
                    resilience.expired += 1
                finish(_deadline_failure(request, deadline))
                continue
            workload = resolver.workload_for_mode(request.prefetch_mode)
            result, failure = execute_request(request, workload)
            if failure is not None and retry_policy is not None:
                for attempt in range(retry_policy.retries):
                    if deadline is not None and deadline.expired:
                        break
                    sleep(retry_policy.delay(attempt))
                    if resilience is not None:
                        resilience.retried += 1
                    result, failure = execute_request(request, workload)
                    if failure is None:
                        break
            finish((request.digest, result, failure))
        resolver.persist(variants_needed([r.prefetch_mode for r in group]))
        stats.merge(resolver.stats)
    return executed, stats


class Runner(ABC):
    """Executes the pending requests of a plan."""

    #: Human-readable label recorded in engine statistics.
    label: str = "runner"

    #: Trace-artifact resolution counters of the most recent :meth:`run`.
    trace_stats: TraceStoreStats

    #: Retry/watchdog/deadline counters of the most recent :meth:`run`.
    resilience: ResilienceStats

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        """Clear the per-run counters; every :meth:`run` starts here."""

        self.trace_stats = TraceStoreStats()
        self.resilience = ResilienceStats()

    @abstractmethod
    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        ...


class SerialRunner(Runner):
    """Execute every request in-process, in submission order."""

    label = "serial"

    def __init__(
        self,
        workloads: Optional[Mapping[str, Workload]] = None,
        *,
        trace_store=_DEFAULT_STORE,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__()
        self.workloads = workloads
        self.trace_store = _resolve_store(trace_store)
        self.retry_policy = retry_policy

    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        self._reset()
        budget = Deadline.after(deadline)
        per_request = None
        if on_executed is not None:
            per_request = lambda done: on_executed([done])  # noqa: E731
        executed: list[ExecutedRequest] = []
        for group in group_requests(requests):
            chunk, stats = execute_group(
                group,
                self.workloads,
                store=self.trace_store,
                deadline=budget,
                retry_policy=self.retry_policy,
                on_executed=per_request,
                resilience=self.resilience,
            )
            executed.extend(chunk)
            self.trace_stats.merge(stats)
        return executed


def _share_artifacts(
    group_artifacts: Mapping[tuple[str, str, int], Mapping[str, bytes]]
) -> tuple[dict[tuple[str, str, int], dict[str, EncodedRef]], list]:
    """Stage warm artifact bytes for shipping to worker processes.

    Each artifact's bytes are copied once into a shared-memory segment and
    every chunk payload carries only its ``("shm", name, size)`` reference —
    a group split across K workers costs one resident copy, not K pickled
    ones.  When shared memory is unavailable (platform without it, creation
    failure) the bytes ship pickled inline as before.  Returns the
    per-group reference mappings and the created segments, which the caller
    must close and unlink once the pool has drained.
    """

    refs_by_key: dict[tuple[str, str, int], dict[str, EncodedRef]] = {}
    segments: list = []
    for key, encoded in group_artifacts.items():
        refs: dict[str, EncodedRef] = {}
        for variant, data in encoded.items():
            ref: EncodedRef = ("bytes", data)
            if _shared_memory is not None and data:
                try:
                    segment = _shared_memory.SharedMemory(create=True, size=len(data))
                except (OSError, ValueError):
                    pass  # no room / no support: pickle the bytes instead
                else:
                    segment.buf[: len(data)] = data
                    segments.append(segment)
                    ref = ("shm", segment.name, len(data))
            refs[variant] = ref
        refs_by_key[key] = refs
    return refs_by_key, segments


def _attach_encoded(
    refs: Mapping[str, EncodedRef]
) -> tuple[dict[str, object], list]:
    """Materialise shipped encoded-column references in a worker.

    ``("bytes", ...)`` entries pass through; ``("shm", name, size)`` entries
    attach the named shared-memory segment and expose it as a zero-copy
    ``memoryview`` (the buffer-friendly ``decode_artifact`` consumes it
    directly).  A segment that cannot be attached is simply dropped — the
    worker then resolves that variant through the store or a rebuild, the
    same degradation as a corrupt shipped blob.  Returns the encoded mapping
    plus the resources to release once the group has executed.
    """

    encoded: dict[str, object] = {}
    attached: list = []
    for variant, ref in refs.items():
        if ref[0] == "shm":
            try:
                segment = _shared_memory.SharedMemory(name=ref[1])
            except (OSError, ValueError):
                continue
            # NOTE: attaching re-registers the name with the resource
            # tracker, but pool workers share the parent's tracker process,
            # so the duplicate registration is a set no-op — the single
            # entry is retired by the parent's unlink.  Do NOT unregister
            # here: that would remove the parent's entry instead.
            view = memoryview(segment.buf)[: ref[2]]
            attached.append((view, segment))
            encoded[variant] = view
        else:
            encoded[variant] = ref[1]
    return encoded, attached


class MultiprocessRunner(SerialRunner):
    """Farm independent request chunks across watchdogged worker processes.

    Each chunk ships with the compact encoded trace columns the parent
    found warm in the store — workers decode a few flat arrays instead of
    regenerating graphs and re-running emission loops.  The bytes travel
    through ``multiprocessing.shared_memory`` when available: one resident
    copy per artifact, attached zero-copy by every worker, instead of one
    pickled copy per chunk (see :func:`_share_artifacts`).  On a store miss the
    *worker* builds the workload locally, emits, and persists the artifact
    (the store directory is shared on disk), so cold-store builds still
    happen in parallel and every later run is warm.  Only compact values
    cross the process boundary: requests, encoded columns, results.
    Workload groups that dominate the plan — a Figure 9(b) sweep is dozens
    of points on one workload — are split into several chunks in proportion
    to their share of the plan, trading a few redundant artifact decodes
    for keeping every core busy.  Runs in-process, as the
    :class:`SerialRunner` it extends, when there is nothing to parallelise.

    Chunks run on a :class:`~repro.sim.engine.pool.WorkerPool` that lives
    for one :meth:`run`.  The chunk of a worker that crashes or hangs for
    ``hang_timeout`` seconds is requeued, at most ``max_attempts`` times,
    then fails with a label.  After twice the worker count in losses each
    further loss shrinks the fleet; chunks left when no worker remains run
    serially in-parent.
    """

    label = "multiprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        workloads: Optional[Mapping[str, Workload]] = None,
        trace_store=_DEFAULT_STORE,
        hang_timeout: float = WorkerPool.hang_timeout,
        max_attempts: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        # Pre-built workloads are reused by the in-process paths only;
        # worker processes resolve through the trace store instead.
        super().__init__(workloads, trace_store=trace_store, retry_policy=retry_policy)
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("MultiprocessRunner needs at least one worker")
        if hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.hang_timeout = hang_timeout
        self.max_attempts = max_attempts

    def _chunk(self, requests: Sequence[SimRequest]) -> list[list[SimRequest]]:
        total = len(requests)
        chunks: list[list[SimRequest]] = []
        for group in group_requests(requests):
            parts = min(len(group), max(1, round(len(group) * self.workers / total)))
            size = math.ceil(len(group) / parts)
            chunks.extend(group[start : start + size] for start in range(0, len(group), size))
        return chunks

    def _group_artifacts(
        self, requests: Sequence[SimRequest]
    ) -> dict[tuple[str, str, int], dict[str, bytes]]:
        """Read each group's warm artifacts from the store exactly once.

        Every chunk of a split group shares the same bytes objects, and the
        parent counts one store hit per (group, variant) here — workers
        decoding their shipped copy do not count again, so engine stats
        report warm traces, not warm decodes.
        """

        by_key: dict[tuple[str, str, int], dict[str, bytes]] = {}
        if self.trace_store is None:
            return by_key
        for group in group_requests(requests):
            first = group[0]
            encoded: dict[str, bytes] = {}
            for variant in variants_needed([r.prefetch_mode for r in group]):
                data = self.trace_store.get_bytes(
                    trace_digest(first.workload, variant, first.scale, first.seed)
                )
                # A corrupt entry is a miss here too — shipping it would
                # count a warm trace that every worker then re-emits.
                if data is not None and validate_artifact_bytes(data):
                    encoded[variant] = data
                    self.trace_stats.hits += 1
            by_key[first.workload_key] = encoded
        return by_key

    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        self._reset()
        if not requests:
            return []
        chunks = self._chunk(requests)
        budget = Deadline.after(deadline)
        if self.workers == 1 or len(chunks) <= 1:
            # Nothing to parallelise: run in-process, where any pre-built
            # workloads spare a redundant rebuild.
            return super().run(requests, on_executed=on_executed, deadline=budget)
        # NOTE: ``is not None`` — TraceStore defines __len__, so an empty
        # (cold) store is falsy and a bare truthiness test would silently
        # disable worker-side persistence on exactly the runs that need it.
        store_dir = (
            str(self.trace_store.directory) if self.trace_store is not None else None
        )
        group_refs, segments = _share_artifacts(self._group_artifacts(requests))
        try:
            return self._run_pool(chunks, group_refs, store_dir, budget, on_executed)
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def _run_pool(
        self,
        chunks: list[list[SimRequest]],
        group_refs: Mapping[tuple[str, str, int], Mapping[str, EncodedRef]],
        store_dir: Optional[str],
        budget: Optional[Deadline],
        on_executed: Optional[ExecutedCallback],
    ) -> list[ExecutedRequest]:
        """Run every chunk on a :class:`WorkerPool` until each has an outcome.

        One thread per worker blocks in :meth:`WorkerPool.run`; this thread
        keeps the books and is the only one calling ``on_executed``.
        """

        pending, attempts = deque(range(len(chunks))), [0] * len(chunks)
        outcomes: dict[int, list[ExecutedRequest]] = {}
        capacity = min(self.workers, len(chunks))
        respawns_left = 2 * capacity

        def finish(
            index: int,
            executed: list[ExecutedRequest],
            stats: Optional[TraceStoreStats] = None,
        ) -> None:
            outcomes[index] = executed
            if stats is not None:
                self.trace_stats.merge(stats)
            if on_executed is not None and executed:
                on_executed(executed)

        def fail(index: int, reason: str) -> None:
            label = f"{reason} (chunk gave up after {attempts[index]} attempts)"
            chunk = chunks[index]
            finish(index, [(r.digest, None, f"{r.workload}/{r.mode}: {label}") for r in chunk])

        running: dict[Future, tuple[int, ResilienceStats]] = {}
        # The pool closes before the threads are joined, killing any worker
        # still busy when the deadline expired.
        with ThreadPoolExecutor(capacity) as threads, WorkerPool(
            capacity, hang_timeout=self.hang_timeout
        ) as pool:
            while budget is None or not budget.expired:
                while pending and len(running) < capacity:
                    index = pending.popleft()
                    attempts[index] += 1
                    chunk, counters = chunks[index], ResilienceStats()
                    future = threads.submit(
                        pool.run,
                        chunk,
                        refs=group_refs.get(chunk[0].workload_key, {}),
                        store_dir=store_dir,
                        retry_policy=self.retry_policy,
                        resilience=counters,
                    )
                    running[future] = (index, counters)
                if not running:
                    break  # all done, or no worker left: the serial tail runs the rest
                timeout = budget.remaining() if budget is not None else None
                for future in wait(running, timeout, FIRST_COMPLETED).done:
                    index, counters = running.pop(future)
                    try:
                        outcome = future.result()
                    except WorkerCrashedError as error:
                        hung = isinstance(error, WorkerHungError)
                        self.resilience.hung_killed += hung
                        reason = "worker hung (no heartbeat)" if hung else "worker crashed"
                        if respawns_left > 0:
                            respawns_left -= 1
                        else:
                            capacity -= 1  # replacement budget spent: the fleet shrinks
                    except Exception as error:  # noqa: BLE001 - the chunk itself raised
                        reason = str(error)
                    else:
                        self.resilience.merge(counters)
                        finish(index, *outcome)
                        continue
                    if attempts[index] >= self.max_attempts:
                        fail(index, reason)
                    else:
                        self.resilience.requeues += 1
                        pending.append(index)

        # Anything the pool never finished: expired under the deadline, or
        # left when no worker remained (degrade to in-parent serial).
        for index, chunk in enumerate(chunks):
            if index in outcomes:
                continue
            if budget is not None and budget.expired:
                self.resilience.expired += len(chunk)
                finish(index, [_deadline_failure(r, budget) for r in chunk])
            elif attempts[index] >= self.max_attempts:
                fail(index, "worker pool exhausted")
            else:
                self.resilience.degraded_serial += 1
                store = TraceStore(store_dir) if store_dir else None
                finish(index, *execute_group(
                    chunk,
                    self.workloads,
                    store=store,
                    deadline=budget,
                    retry_policy=self.retry_policy,
                    resilience=self.resilience,
                ))
        return [done for index in range(len(chunks)) for done in outcomes[index]]
