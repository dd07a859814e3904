"""The one supervised pool of simulation worker processes.

Both process-parallel paths run their chunks here: :class:`~repro.sim.
engine.MultiprocessRunner` (``--parallel``) and the ``repro serve`` daemon.
Each worker is forked (spawned where fork is unavailable), talks to the
parent over a duplex pipe, runs :func:`~repro.sim.engine.runner.
execute_group` on one chunk at a time and sends a heartbeat after every
completed request.  A worker that dies mid-chunk, or stays silent for
``hang_timeout`` seconds, is killed and replaced; whether its chunk is
requeued or failed is the caller's policy.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import stat
import threading
import time
from multiprocessing import connection as _mp_connection
from typing import NamedTuple, Optional, Sequence

from ...errors import WorkerCrashedError, WorkerHungError


def _close_inherited_sockets(keep: int) -> None:
    """Drop every socket fd a forked worker inherited, except ``keep``.

    A forked worker inherits every open descriptor, including the daemon's
    accepted client connections.  A worker holding a duplicate of a client
    socket keeps the TCP connection established after the client's own
    ``close()``, so the daemon never reads EOF and cannot cancel that
    client's pending work on disconnect.  The only socket a worker uses is
    its own pipe to the parent (a socketpair), passed as ``keep``.
    """

    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no /proc (non-Linux)
        return
    for fd in fds:
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn) -> None:
    """Worker-process loop.

    Receives ``(requests, refs, store_dir, retry_policy)`` tasks and answers
    ``("hb",)`` after every completed request, then ``("done", outcome,
    resilience)`` — or ``("err", message)`` if the chunk raised something
    the per-request machinery does not absorb.  ``None`` means exit.
    """

    # Imported here: the runner imports this module.
    from ...trace_store import TraceStore
    from .runner import ResilienceStats, _attach_encoded, execute_group

    _close_inherited_sockets(keep=conn.fileno())
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            requests, refs, store_dir, retry_policy = task
            store = TraceStore(store_dir) if store_dir else None
            encoded, attached = _attach_encoded(refs)
            resilience = ResilienceStats()
            try:
                outcome = execute_group(
                    requests,
                    store=store,
                    encoded=encoded,
                    retry_policy=retry_policy,
                    on_executed=lambda _done: conn.send(("hb",)),
                    resilience=resilience,
                )
                conn.send(("done", outcome, resilience))
            except Exception as error:  # noqa: BLE001 - forwarded to parent
                conn.send(("err", f"{type(error).__name__}: {error}"))
            finally:
                encoded.clear()
                for view, segment in attached:
                    try:
                        view.release()
                        segment.close()
                    except BufferError:  # pragma: no cover - a dangling export
                        pass  # the mapping is freed with the worker process instead
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return


class _Worker(NamedTuple):
    process: multiprocessing.process.BaseProcess
    conn: _mp_connection.Connection


class WorkerPool:
    """A fixed number of supervised worker processes; see the module docstring.

    Workers start with the pool and stop at :meth:`close`.  A worker lost to
    a crash or hang is replaced by the next call that needs it.
    """

    #: Seconds a busy worker may stay silent before it is declared hung.  It
    #: must comfortably exceed the longest *single* simulation, since a
    #: worker only beats between requests.
    hang_timeout: float = 300.0

    def __init__(
        self, workers: Optional[int] = None, *, hang_timeout: Optional[float] = None
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        if hang_timeout is not None:
            self.hang_timeout = hang_timeout
        #: Workers killed after a crash or hang (the daemon's pool generation).
        self.replaced = 0
        # Fork where available: workers inherit the parent's registered
        # workloads (plugins included) and imported modules without a
        # fresh import per worker.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        # Forks are serialised so no child inherits a sibling's half-set-up
        # pipe, which would hide that sibling's death from the parent.
        self._lock = threading.Lock()
        self._live: set[_Worker] = set()
        self._closed = False
        # One slot per worker; ``None`` is a worker still to be started.
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(self.workers):
            self._idle.put(self._spawn())

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> Optional[_Worker]:
        """Start a worker; ``None`` when the pool is closed or the OS refuses."""

        with self._lock:
            if self._closed:
                return None
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(target=_worker_main, args=(child_conn,), daemon=True)
            try:
                process.start()
            except OSError:
                parent_conn.close()
                return None
            finally:
                child_conn.close()
            worker = _Worker(process, parent_conn)
            self._live.add(worker)
            return worker

    def run(
        self,
        requests: Sequence,
        *,
        refs=None,
        store_dir: Optional[str] = None,
        retry_policy=None,
        resilience=None,
    ):
        """Execute one chunk on an idle worker.

        Returns ``(executed, trace_stats)`` as
        :func:`~repro.sim.engine.runner.execute_group` does.  ``refs`` are
        the chunk's shipped encoded trace columns, ``store_dir`` the shared
        trace store, and ``retry_policy`` applies per request inside the
        worker, whose retry and expiry counters are merged into
        ``resilience`` when given.  Raises :class:`WorkerCrashedError` when
        the worker dies, hangs or cannot start, and :class:`RuntimeError`
        with the worker's message when the chunk itself raised.
        """

        worker = self._idle.get() or self._spawn()
        try:
            if worker is None:
                raise WorkerCrashedError("could not start a worker process")
            task = (list(requests), refs or {}, store_dir, retry_policy)
            return self._call(worker, task, resilience)
        except WorkerCrashedError:
            if worker is not None:
                _kill(worker)
                with self._lock:
                    if worker in self._live:  # not already taken by close()
                        self._live.discard(worker)
                        self.replaced += 1
                worker = None
            raise
        finally:
            self._idle.put(worker)

    def _call(self, worker: _Worker, task, resilience):
        process, conn = worker
        try:
            conn.send(task)
            while True:
                ready = _mp_connection.wait([conn, process.sentinel], self.hang_timeout)
                if not ready:
                    raise WorkerHungError(
                        f"worker {process.pid} sent no heartbeat for {self.hang_timeout:g}s"
                    )
                if conn not in ready:
                    raise EOFError
                message = conn.recv()
                if message[0] == "done":
                    if resilience is not None:
                        resilience.merge(message[2])
                    return message[1]
                if message[0] == "err":
                    raise RuntimeError(message[1])
        except (EOFError, OSError) as error:
            raise WorkerCrashedError(f"worker {process.pid} died mid-chunk") from error

    def close(self) -> None:
        """Stop every worker; calls still running raise :class:`WorkerCrashedError`.

        Idle workers are asked to exit; any still running half a second
        later is killed.  All are reaped before this returns, so their CPU
        time and peak RSS count in the parent's ``RUSAGE_CHILDREN``.
        """

        with self._lock:
            self._closed = True
            workers, self._live = list(self._live), set()
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        grace = time.monotonic() + 0.5
        for worker in workers:
            worker.process.join(max(0.0, grace - time.monotonic()))
            _kill(worker)


def _kill(worker: _Worker) -> None:
    """Kill ``worker`` if it still runs, reap it and close its pipe."""

    if worker.process.is_alive():
        worker.process.kill()
    worker.process.join()
    worker.conn.close()
