"""The event-triggered programmable prefetcher engine.

This module ties together every structure of Figure 3: the address filter
snoops demand loads, observations queue up for the scheduler, free PPUs run
kernels that generate prefetch requests, the request queue drains into the L1
when MSHRs are free, and returned prefetches trigger further events (via the
memory-request tags of Section 4.7 or the filter table's ``PF Ptr`` entries).
EWMA calculators (Section 4.5) turn observed iteration times and prefetch
chain latencies into dynamic look-ahead distances that kernels can read.

The engine is a discrete-event model sharing the simulation's global clock
(main-core cycles).  It is driven lazily: the memory hierarchy calls
:meth:`EventTriggeredPrefetcher.advance_to` with the current time before every
demand access, so the prefetcher's state (including lines it has filled into
the cache model) is up to date whenever the core looks.

A *blocking* variant (``ProgrammablePrefetcherConfig.blocking_mode``) models
the Figure 11 ablation: instead of scheduling a fresh event when a prefetch
returns, the PPU that issued it stalls until the data arrives and continues
the chain itself, exactly like a helper thread that must wait on intermediate
loads.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..config import CACHE_LINE_BYTES, SystemConfig
from ..errors import ConfigurationError
from ..memory.hierarchy import MemoryHierarchy
from .compiler import kernel_executor
from .config_api import PrefetcherConfiguration
from .ewma import LookaheadCalculator
from .events import Observation, ObservationKind, PrefetchRequest
from .filter import AddressFilter
from .ppu import EVENT_DISPATCH_OVERHEAD_PPU_CYCLES, PPU
from .queues import ObservationQueue, PrefetchRequestQueue
from .registers import GlobalRegisterFile
from .scheduler import LowestFreeIdPolicy, SchedulingPolicy

# Event kinds on the engine's heap, whose entries are flat
# ``(time, seq, kind, a, b)`` tuples.  ``seq`` is unique and increasing, so
# events due at the same time run in the order they were scheduled and the
# payload fields are never compared:
#
# * ``_EV_OBSERVATION`` — ``a`` is the :class:`Observation` of a snooped load;
# * ``_EV_PPU_DONE`` — a kernel finished: ``a`` is its ``(addr, tag)``
#   prefetches, ``b`` the :class:`Observation` it ran for;
# * ``_EV_DRAIN`` — retry the request queue (an L1 MSHR may be free);
# * ``_EV_FILL`` — ``a`` is the :class:`PrefetchRequest` whose data arrived.
_EV_OBSERVATION = 0
_EV_PPU_DONE = 1
_EV_DRAIN = 2
_EV_FILL = 3

# What a PPU-done event queues: nothing, but the freed PPU dispatches once.
_FREED = (None,)

_OBS_LOAD = ObservationKind.LOAD


@dataclass(slots=True)
class EventEngineStats:
    """Aggregate statistics of one run of the programmable prefetcher."""

    loads_snooped: int = 0
    observations_created: int = 0
    observations_dropped: int = 0
    events_executed: int = 0
    kernel_aborts: int = 0
    ppu_instructions: int = 0
    prefetches_generated: int = 0
    prefetches_dropped: int = 0
    prefetches_issued: int = 0
    prefetches_discarded: int = 0
    fills_observed: int = 0
    activity_factors: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


class EventTriggeredPrefetcher:
    """The paper's programmable prefetcher, attached to a memory hierarchy."""

    name = "programmable"

    def __init__(
        self,
        system_config: SystemConfig,
        configuration: PrefetcherConfiguration,
        *,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        configuration.validate()
        self.system_config = system_config
        self.config = system_config.prefetcher
        self.configuration = configuration
        self.cycle_ratio = system_config.ppu_cycle_ratio
        self.blocking = self.config.blocking_mode

        self.filter = AddressFilter(configuration, self.config.filter_table_entries)
        self.observation_queue = ObservationQueue(self.config.observation_queue_entries)
        self.request_queue = PrefetchRequestQueue(self.config.prefetch_queue_entries)
        self.ppus = [PPU(index) for index in range(self.config.num_ppus)]
        self.policy = policy if policy is not None else LowestFreeIdPolicy()

        self.globals = GlobalRegisterFile(self.config.global_registers)
        for name, index in sorted(configuration.global_names.items(), key=lambda item: item[1]):
            assigned = self.globals.define(name, configuration.global_values()[index])
            if assigned != index:
                raise ConfigurationError(
                    f"global register {name!r} assigned index {assigned}, expected {index}"
                )
        # The *live* register list: kernels cannot write globals.
        self._globals_view = self.globals.values_view()

        streams = configuration.streams
        self._lookaheads: dict[str, LookaheadCalculator] = {
            name: LookaheadCalculator(
                alpha=self.config.ewma_alpha, default_distance=stream.default_distance
            )
            for name, stream in streams.items()
        }
        self._calc_by_index = {
            stream.index: self._lookaheads[name] for name, stream in streams.items()
        }
        self._unconfigured_distance = LookaheadCalculator().default_distance
        # Kernels are resolved to executors once, here — compiled closures by
        # default (cached process-wide by program digest), or interpreter
        # wrappers under ``REPRO_KERNEL_COMPILER=off``.
        self._executors = {
            name: kernel_executor(program)
            for name, program in configuration.kernels.items()
        }

        self.stats = EventEngineStats()
        self._hierarchy: Optional[MemoryHierarchy] = None
        self._heap: list[tuple] = []
        self._sequence = 0

    # ------------------------------------------------------------- attachment

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        """Attach to ``hierarchy``: snoop demand loads and advance with the clock."""

        self._hierarchy = hierarchy
        hierarchy.set_demand_snoop(self._on_snoop)
        hierarchy.set_advance_hook(self.advance_to)

    def detach(self) -> None:
        if self._hierarchy is not None:
            self._hierarchy.set_demand_snoop(None)
            self._hierarchy.set_advance_hook(None)
            self._hierarchy = None

    # ------------------------------------------------------------------ snoop

    def _on_snoop(self, addr: int, time: float, level: str) -> None:
        """Filter one demand load: schedule an observation per matching load kernel."""

        del level  # The address filter watches every demand load.
        self.stats.loads_snooped += 1
        address_filter = self.filter
        address_filter.stats.load_snoops += 1
        if not address_filter.load_lo <= addr < address_filter.load_hi:
            return
        matched = False
        line_words: Optional[tuple[int, ...]] = None
        for base, end, entry in address_filter.load_entries:
            if not base <= addr < end:
                continue
            if not matched:
                matched = True
                address_filter.stats.load_matches += 1
            if entry.time_iterations and entry.stream is not None:
                self._lookaheads[entry.stream].observe_iteration(time)
            if entry.load_kernel is None:
                continue
            if line_words is None:  # read the snooped line once, not per match
                line_words = self._hierarchy.read_line_words(addr)
            observation = Observation(
                _OBS_LOAD,
                addr,
                time,
                entry.load_kernel,
                addr - addr % CACHE_LINE_BYTES,
                line_words,
                entry.stream,
                time if entry.chain_start else None,
            )
            self.stats.observations_created += 1
            self._sequence = sequence = self._sequence + 1
            heapq.heappush(self._heap, (time, sequence, _EV_OBSERVATION, observation, None))

    # ------------------------------------------------------------------ clock

    def advance_to(self, time: float) -> None:
        """Process every internal event scheduled at or before ``time``.

        This is the engine's only loop, called before every demand access
        and shared by every scheduling policy and the blocking ablation.  An
        event first gathers what it queues — the snooped observation, or all
        the observations a fill raises — and then queues them one at a time,
        dispatching after each: the scheduling policy picks a free PPU for the
        oldest waiting observation until none is free.  A PPU-done event
        queues its prefetch requests, dispatches once (its PPU is free again)
        and then issues requests into free L1 MSHRs, through a drain event at
        the same time when other events are already due then.  A drain event
        only issues requests.  Every result is pinned by the ``(time, seq)``
        order of the heap.
        """

        heap = self._heap
        if not heap or heap[0][0] > time:
            return
        stats = self.stats
        hierarchy = self._hierarchy
        address_filter = self.filter
        lookaheads = self._lookaheads
        obs_queue = self.observation_queue
        obs_entries = obs_queue.entries
        obs_capacity = obs_queue.capacity
        req_queue = self.request_queue
        req_entries = req_queue.entries
        req_capacity = req_queue.capacity
        ppus = self.ppus
        select = self.policy.select
        blocking = self.blocking
        executors = self._executors
        globals_view = self._globals_view
        lookahead = self._lookahead_by_index
        cycle_ratio = self.cycle_ratio
        heappop = heapq.heappop
        heappush = heapq.heappush

        while heap and heap[0][0] <= time:
            now, _seq, kind, a, b = heappop(heap)
            if kind == _EV_OBSERVATION:
                incoming = (a,)
            elif kind == _EV_PPU_DONE:
                for addr, tag in a:
                    req_queue.pushed += 1
                    if len(req_entries) >= req_capacity:
                        req_entries.popleft()
                        req_queue.dropped += 1
                        stats.prefetches_dropped += 1
                    req_entries.append(
                        PrefetchRequest(addr, tag, now, b.stream, b.chain_start_time)
                    )
                incoming = _FREED
            elif kind == _EV_FILL:
                stats.fills_observed += 1
                incoming = address_filter.fill_observations(
                    a, now, hierarchy.read_line_words(a.addr), lookaheads
                )
                stats.observations_created += len(incoming)
            else:  # _EV_DRAIN
                incoming = ()

            for queued in incoming:
                if queued is not None:
                    obs_queue.pushed += 1
                    if len(obs_entries) >= obs_capacity:
                        obs_entries.popleft()
                        obs_queue.dropped += 1
                        stats.observations_dropped += 1
                    obs_entries.append(queued)
                while obs_entries:
                    ppu = select(ppus, now)
                    if ppu is None:
                        break
                    observation = obs_entries.popleft()
                    if blocking:
                        self._run_blocking(ppu, observation, now)
                        continue
                    prefetches, instructions, aborted = executors[observation.kernel_name](
                        observation.addr,
                        observation.line_base,
                        observation.line_words,
                        globals_view,
                        lookahead,
                    )
                    ppu_stats = ppu.stats
                    stats.events_executed += 1
                    stats.ppu_instructions += instructions
                    if aborted:
                        stats.kernel_aborts += 1
                        ppu_stats.kernel_aborts += 1
                    duration = (instructions + EVENT_DISPATCH_OVERHEAD_PPU_CYCLES) * cycle_ratio
                    finish = now + duration
                    ppu.busy_until = finish
                    ppu_stats.events_executed += 1
                    ppu_stats.instructions_executed += instructions
                    ppu_stats.busy_cycles += duration
                    generated = len(prefetches)
                    ppu_stats.prefetches_generated += generated
                    stats.prefetches_generated += generated
                    self._sequence = sequence = self._sequence + 1
                    heappush(heap, (finish, sequence, _EV_PPU_DONE, prefetches, observation))

            # Only PPU-done and drain events issue requests.
            if kind == _EV_OBSERVATION or kind == _EV_FILL or not req_entries:
                continue
            if kind == _EV_PPU_DONE and heap and heap[0][0] <= now:
                # Events already due at ``now`` were scheduled first, so
                # they run before the requests issue.
                self._sequence = sequence = self._sequence + 1
                heappush(heap, (now, sequence, _EV_DRAIN, None, None))
                continue
            next_free = hierarchy.l1_mshrs.next_free_time
            while req_entries:
                free_at = next_free(now)
                if free_at > now:
                    self._sequence = sequence = self._sequence + 1
                    heappush(heap, (free_at, sequence, _EV_DRAIN, None, None))
                    break
                request = req_entries.popleft()
                stats.prefetches_issued += 1
                fill_time = hierarchy.prefetch_access(request.addr, now)
                if fill_time is None:
                    stats.prefetches_discarded += 1
                elif address_filter.wants_fill(request):
                    self._sequence = sequence = self._sequence + 1
                    heappush(heap, (fill_time, sequence, _EV_FILL, request, None))

    def drain(self, until: float) -> None:
        """Run the engine past the end of the core trace (end-of-run cleanup)."""

        self.advance_to(until)

    # --------------------------------------------------------------- blocking

    def _run_blocking(self, ppu: PPU, observation: Observation, start: float) -> None:
        """Figure 11 ablation: the PPU stalls on every intermediate load.

        Instead of scheduling a PPU-done event, the PPU issues its kernel's
        prefetches straight into the L1, waits for each fill the filter
        wants, and runs the kernels that fill raises itself.
        """

        hierarchy = self._hierarchy
        address_filter = self.filter
        stats = self.stats
        ppu_stats = ppu.stats
        time = start
        instructions = 0
        events = 0
        pending = [observation]
        for current in pending:  # grows while it is walked
            prefetches, executed, aborted = self._executors[current.kernel_name](
                current.addr,
                current.line_base,
                current.line_words,
                self._globals_view,
                self._lookahead_by_index,
            )
            events += 1
            instructions += executed
            if aborted:
                stats.kernel_aborts += 1
                ppu_stats.kernel_aborts += 1
            time += (executed + EVENT_DISPATCH_OVERHEAD_PPU_CYCLES) * self.cycle_ratio
            stats.prefetches_generated += len(prefetches)
            ppu_stats.prefetches_generated += len(prefetches)

            for addr, tag in prefetches:
                stats.prefetches_issued += 1
                fill_time = hierarchy.prefetch_access(addr, time)
                if fill_time is None:
                    stats.prefetches_discarded += 1
                    continue
                request = PrefetchRequest(
                    addr, tag, time, current.stream, current.chain_start_time
                )
                if not address_filter.wants_fill(request):
                    continue
                # Blocking: wait for the data before running the next kernel.
                time = max(time, fill_time)
                pending.extend(
                    address_filter.fill_observations(
                        request, fill_time, hierarchy.read_line_words(addr), self._lookaheads
                    )
                )
                stats.fills_observed += 1

        stats.events_executed += events
        stats.ppu_instructions += instructions
        ppu_stats.events_executed += events
        ppu_stats.instructions_executed += instructions
        ppu_stats.busy_cycles += time - start
        ppu.busy_until = time

    # ------------------------------------------------------------------ EWMAs

    def _lookahead_by_index(self, index: int) -> int:
        calculator = self._calc_by_index.get(index)
        if calculator is None:
            return self._unconfigured_distance
        return calculator.lookahead()

    def lookahead_distance(self, stream: str) -> int:
        """Current look-ahead distance for ``stream`` (exposed for analysis/tests)."""

        calculator = self._lookaheads.get(stream)
        if calculator is None:
            raise ConfigurationError(f"stream {stream!r} was never configured")
        return calculator.lookahead()

    # -------------------------------------------------------------- finalising

    def finalize(self, end_time: float) -> None:
        """Process trailing events and compute per-PPU activity factors."""

        self.drain(end_time + 1.0)
        self.stats.activity_factors = [
            ppu.activity_factor(end_time) for ppu in self.ppus
        ]

    def collect_stats(self) -> dict[str, object]:
        stats = self.stats.as_dict()
        stats["observation_queue_dropped"] = self.observation_queue.dropped
        stats["request_queue_dropped"] = self.request_queue.dropped
        stats["filter"] = self.filter.stats.as_dict()
        stats["per_ppu"] = [ppu.stats.as_dict() for ppu in self.ppus]
        stats["kernel_code_bytes"] = self.configuration.code_footprint_bytes()
        stats["lookahead"] = {
            name: calculator.lookahead() for name, calculator in self._lookaheads.items()
        }
        return stats
