"""Outside-in per-layer tracing for the benchmark's traced run.

:class:`Tracer` swaps the public entry points of each simulator layer for
timing wrappers while it is installed and restores the originals on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited: the wrappers
are set on the classes and modules the program looks its callees up in.

Two kinds of wrapper exist:

* **counters** for calls made once per simulated access (demand loads,
  prefetches, prefetcher hooks, PPU kernels): a call count, total time and
  self time per layer, and no span;
* **spans** for calls made once per request or coarser (core replay, trace
  emission, engine runs, figure assembly): the same totals plus one span
  each, kept in memory and written out as Chrome Trace Event JSON.

A layer's self time is its total time minus the time of the wrapped calls
nested inside it.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.cpu.core import OutOfOrderCore
from repro import errors
from repro.eval import report
from repro.memory.hierarchy import MemoryHierarchy
from repro.programmable import prefetcher as programmable_prefetcher
from repro.programmable.prefetcher import EventTriggeredPrefetcher
from repro.service import ServiceClient, ServiceEngine
from repro.sim import comparison, system
from repro.sim.engine import ResultCache, SimEngine
from repro.sim.engine import runner as engine_runner
from repro.trace_store import TraceStore
from repro.workloads.base import Workload

#: Raised by the vector tier when it cannot replay a request (the core
#: model then replays it); ``()`` catches nothing once the tier is gone.
VECTOR_UNSUPPORTED = getattr(errors, "VectorBackendUnsupported", ())

#: The figure readers ``run_report`` calls once the plan has executed.
FIGURE_READERS = ("run_figure7", "run_figure8", "run_figure10", "run_figure11", "run_memtraffic")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    duration: float
    span_id: int
    parent: Optional[int]
    request: Optional[int]


class Tracer:
    """Per-layer counters and spans gathered by temporary wrappers.

    Args:
        parent_only: Wrap only the layers that run in the benchmark
            process when the simulations themselves run in worker or
            daemon processes (the wrappers would die with those).
    """

    def __init__(self, *, parent_only: bool = False) -> None:
        self.parent_only = parent_only
        #: layer -> [calls, total seconds, self seconds]
        self.layers: dict[str, list[float]] = {}
        #: Named tallies the wrappers accumulate (core ops, store hits, ...).
        self.tallies: dict[str, float] = {}
        self.spans: list[Span] = []
        self._nested = [0.0]
        self._stack: list[int] = []
        self._request: list[Optional[int]] = [None]
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._patched: list[tuple[Any, str, Any]] = []
        self._first_outcome: list[float] = []

    # ------------------------------------------------------------ wrappers

    def _acc(self, layer: str) -> list[float]:
        return self.layers.setdefault(layer, [0, 0.0, 0.0])

    def tally(self, name: str, amount: float) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def counter(self, layer: str, fn: Callable) -> Callable:
        """Count calls and time of a per-access function, without spans."""

        acc = self._acc(layer)
        nested = self._nested
        clock = time.perf_counter

        def counted(*args, **kwargs):
            outer = nested[0]
            nested[0] = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - nested[0]
                nested[0] = outer + elapsed

        return counted

    def span(
        self,
        layer: str,
        fn: Callable,
        *,
        label: Union[str, Callable[..., str], None] = None,
        on_result: Optional[Callable[[Any], None]] = None,
        request: bool = False,
    ) -> Callable:
        """Time a coarse call as a span (and as a layer counter).

        ``request`` marks the span as the root of one simulation request:
        spans nested inside it carry its identifier.
        """

        acc = self._acc(layer)
        nested = self._nested
        stack = self._stack
        current_request = self._request
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        origin = self._origin
        fixed_name = label if isinstance(label, str) else layer
        name_of = None if isinstance(label, str) else label

        def spanned(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            outer_request = current_request[0]
            if request:
                current_request[0] = span_id
            stack.append(span_id)
            outer = nested[0]
            nested[0] = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - nested[0]
                nested[0] = outer + elapsed
                stack.pop()
                spans.append(
                    Span(
                        name_of(*args, **kwargs) if name_of is not None else fixed_name,
                        layer,
                        start - origin,
                        elapsed,
                        span_id,
                        parent,
                        current_request[0],
                    )
                )
                current_request[0] = outer_request
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    # ------------------------------------------------------------- install

    def _wrap(self, owner: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attribute`` with ``make(original)``.

        An entry point the program no longer has is skipped, so its layer
        reads zero instead of the benchmark failing.
        """

        original = vars(owner).get(attribute)
        if original is None:
            return
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def install(self) -> None:
        """Swap every entry point for its wrapper."""

        if not self.parent_only:
            self._install_simulation_layers()
        self._install_parent_layers()

    def uninstall(self) -> None:
        """Restore every original entry point (reverse order)."""

        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _install_simulation_layers(self) -> None:
        self._wrap(
            OutOfOrderCore,
            "run",
            lambda run: self.span(
                "cpu.run", run, on_result=lambda stats: self.tally("cpu.ops", stats.ops)
            ),
        )
        self._wrap(
            MemoryHierarchy,
            "demand_access_time",
            lambda access: self.counter("memory.demand", access),
        )
        self._wrap(
            MemoryHierarchy, "prefetch_access", lambda access: self.counter("memory.prefetch", access)
        )

        def hook_setter(set_hook, layer_of):
            def set_wrapped_hook(hierarchy, hook):
                if hook is not None:
                    hook = self.counter(layer_of(hook), hook)
                return set_hook(hierarchy, hook)

            return set_wrapped_hook

        def snoop_layer(hook):
            owner = getattr(hook, "__self__", None)
            if isinstance(owner, EventTriggeredPrefetcher):
                return "programmable.snoop"
            return "prefetch.snoop"

        self._wrap(
            MemoryHierarchy, "set_demand_snoop", lambda setter: hook_setter(setter, snoop_layer)
        )
        self._wrap(
            MemoryHierarchy,
            "set_advance_hook",
            lambda setter: hook_setter(setter, lambda _hook: "programmable.advance"),
        )

        def vector_replay(replay_trace):
            replay = self.span("sim.vector.replay", replay_trace)

            def counted_replay(*args, **kwargs):
                try:
                    return replay(*args, **kwargs)
                except VECTOR_UNSUPPORTED:
                    self.tally("sim.vector.fallbacks", 1)
                    raise

            return counted_replay

        self._wrap(system, "replay_trace", vector_replay)

        def kernel_executors(kernel_executor):
            compile_executor = self.counter("kernels.compile", kernel_executor)
            return lambda program: self.counter("kernels.run", compile_executor(program))

        self._wrap(programmable_prefetcher, "kernel_executor", kernel_executors)

        for attribute in (
            "manual_configuration_for",
            "converted_configuration",
            "pragma_configuration",
        ):
            self._wrap(Workload, attribute, lambda method: self.span("compiler.configure", method))

        self._wrap(
            engine_runner,
            "execute_request",
            lambda execute: self.span(
                "request",
                execute,
                label=lambda request, _workload: f"{request.workload}/{request.mode}",
                request=True,
            ),
        )

    def _install_parent_layers(self) -> None:
        def traced_emission(trace_method):
            emit = self.span(
                "workloads.emit",
                trace_method,
                label=lambda workload, variant="plain": f"emit {workload.name}/{variant}",
            )

            def trace(workload, variant="plain"):
                # Only the first call per variant emits; later ones hit the
                # workload's own trace cache.
                emitted = variant not in vars(workload).get("_traces", {})
                result = emit(workload, variant)
                if emitted:
                    self.tally("workloads.trace_ops", len(result))
                return result

            return trace

        self._wrap(Workload, "trace", traced_emission)
        self._wrap(
            Workload,
            "build",
            lambda build: self.span(
                "workloads.build", build, label=lambda workload: f"build {workload.name}"
            ),
        )

        def count_read(data):
            self.tally("trace_store.hits" if data is not None else "trace_store.misses", 1)

        self._wrap(TraceStore, "get", lambda get: self.counter("trace_store.read", get))
        self._wrap(
            TraceStore,
            "get_bytes",
            lambda get_bytes: self.span("trace_store.read", get_bytes, on_result=count_read),
        )
        self._wrap(TraceStore, "put", lambda put: self.counter("trace_store.write", put))
        self._wrap(
            TraceStore, "put_bytes", lambda put_bytes: self.span("trace_store.write", put_bytes)
        )

        planner = vars(comparison).get("comparison_plan")
        if planner is not None:
            plan_span = self.span("sim.engine.plan", planner)
            self._wrap(comparison, "comparison_plan", lambda _original: plan_span)
            self._wrap(report, "comparison_plan", lambda _original: plan_span)
        self._wrap(SimEngine, "run", lambda run: self.span("sim.engine.run", run))
        self._wrap(ResultCache, "get", lambda get: self.counter("sim.engine.cache_get", get))
        for attribute in ("put", "put_unavailable"):
            self._wrap(
                ResultCache,
                attribute,
                lambda put: self.span(
                    "sim.engine.cache_put",
                    put,
                    label=lambda _cache, request, *_result: (
                        f"bank {request.workload}/{request.mode}"
                    ),
                ),
            )

        for reader in FIGURE_READERS:
            self._wrap(
                report,
                reader,
                lambda run_figure: self.span("eval.figures", run_figure, label=reader),
            )

        self._wrap(
            ServiceClient, "connect", lambda connect: self.span("service.connect", connect)
        )
        self._wrap(ServiceEngine, "run", lambda run: self.span("service.run", run))
        self._wrap(ServiceClient, "submit", self._timed_submit)

    def _timed_submit(self, submit: Callable) -> Callable:
        """Wrap ``ServiceClient.submit``: one span per streamed outcome."""

        first_outcome = self._first_outcome
        clock = time.perf_counter

        def timed_submit(client, requests, **kwargs):
            start = clock()
            user_on_event = kwargs.get("on_event")

            def on_event(event):
                if event.get("type") == "outcome":
                    # One span per request: submission to its streamed outcome.
                    now = clock()
                    if not first_outcome:
                        first_outcome.append(now - start)
                    for position in event.get("positions") or []:
                        if not (isinstance(position, int) and 0 <= position < len(requests)):
                            continue
                        request = requests[position]
                        span_id = next(self._ids)
                        self.spans.append(
                            Span(
                                f"{request.workload}/{request.mode}",
                                "service.request",
                                start - self._origin,
                                now - start,
                                span_id,
                                self._stack[-1] if self._stack else None,
                                span_id,
                            )
                        )
                if user_on_event is not None:
                    user_on_event(event)

            kwargs["on_event"] = on_event
            return submit(client, requests, **kwargs)

        return timed_submit

    # ------------------------------------------------------------- reports

    def calls(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[0]

    def total(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[1]

    def self_time(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[2]

    @property
    def first_outcome_s(self) -> float:
        return self._first_outcome[0] if self._first_outcome else 0.0

    def layer_table(self) -> str:
        """The per-layer aggregate table, heaviest self time first."""

        rows = sorted(self.layers.items(), key=lambda item: -item[1][2])
        lines = [f"{'layer':<24}{'calls':>12}{'total s':>12}{'self s':>12}"]
        for layer, (calls, total, own) in rows:
            lines.append(f"{layer:<24}{int(calls):>12}{total:>12.4f}{own:>12.4f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: Path, *, metadata: dict[str, Any]) -> None:
        """Write the spans as Chrome Trace Event JSON (opens in Perfetto)."""

        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                # Streamed service outcomes overlap one another: own track.
                "tid": 2 if span.layer == "service.request" else 1,
                "args": {"span": span.span_id, "parent": span.parent, "request": span.request},
            }
            for span in sorted(self.spans, key=lambda span: (span.start, -span.duration))
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
            for tid, name in ((1, "benchmark process"), (2, "service requests"))
        ]
        layers = {
            layer: {"calls": int(calls), "total_s": total, "self_s": own}
            for layer, (calls, total, own) in self.layers.items()
        }
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "layers": layers, "tallies": self.tallies},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
