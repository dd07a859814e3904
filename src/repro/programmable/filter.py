"""Address filter and filter table (Section 4.2).

The filter snoops every demand load from the main core and every prefetch
fill arriving at the L1, and matches the address against the configured
virtual-address ranges.  Matching observations are forwarded to the
observation queue together with the registered kernel entry point (``Load
Ptr`` for demand loads, ``PF Ptr`` for completed prefetches).  Ranges may
overlap; an address inside several ranges produces one observation per range,
as in the paper.  Fills of tagged requests (Section 4.7) raise the tag's
kernel first, whatever their address.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..config import CACHE_LINE_BYTES
from ..errors import ConfigurationError
from .config_api import PrefetcherConfiguration
from .ewma import LookaheadCalculator
from .events import Observation, ObservationKind, PrefetchRequest

_OBS_PREFETCH = ObservationKind.PREFETCH


@dataclass(slots=True)
class FilterStats:
    load_snoops: int = 0
    load_matches: int = 0
    prefetch_matches: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class AddressFilter:
    """The filter table and tag table: what turns memory traffic into observations.

    * ``load_entries`` — ``(base, end, range)`` for every range a demand load
      triggers (a load kernel, or iteration timing for an EWMA stream);
    * ``load_lo``/``load_hi`` — the hull of those ranges: a snooped address
      outside ``[load_lo, load_hi)`` matches nothing;
    * ``prefetch_entries`` — ``(base, end, range)`` for every range a prefetch
      fill triggers (a prefetch kernel or a chain start/end flag);
    * ``tags`` — the memory-request tag table, by tag id.

    The engine's snoop path reads the load table and its hull directly;
    fills go through :meth:`wants_fill` and :meth:`fill_observations`.
    """

    def __init__(self, configuration: PrefetcherConfiguration, max_entries: int) -> None:
        ranges = configuration.ranges
        if len(ranges) > max_entries:
            raise ConfigurationError(
                f"configuration declares {len(ranges)} address ranges, but the filter "
                f"table only has {max_entries} entries"
            )
        # The kernel/timing predicates are static per entry, so they are
        # evaluated once here; per-access matching then only compares the
        # address against (base, end) bounds.
        self.load_entries = [
            (entry.base, entry.end, entry)
            for entry in ranges
            if entry.load_kernel is not None or entry.time_iterations
        ]
        self.load_lo = min((base for base, _end, _entry in self.load_entries), default=0)
        self.load_hi = max((end for _base, end, _entry in self.load_entries), default=0)
        self.prefetch_entries = [
            (entry.base, entry.end, entry)
            for entry in ranges
            if entry.prefetch_kernel is not None or entry.chain_end or entry.chain_start
        ]
        self.tags = configuration.tags
        self.stats = FilterStats()

    def wants_fill(self, request: PrefetchRequest) -> bool:
        """Whether ``request``'s fill must come back to the filter as an event.

        It must when its tag is configured, when its address lies in a
        prefetch-triggered range (counted as a prefetch match), or when it
        carries a timed chain.
        """

        if request.tag >= 0 and request.tag in self.tags:
            return True
        addr = request.addr
        for base, end, _entry in self.prefetch_entries:
            if base <= addr < end:
                self.stats.prefetch_matches += 1
                return True
        return request.chain_start_time is not None

    def fill_observations(
        self,
        request: PrefetchRequest,
        time: float,
        line_words: tuple[int, ...],
        lookaheads: dict[str, LookaheadCalculator],
    ) -> list[Observation]:
        """The observations a fill of ``request`` at ``time`` raises, in order.

        The tag's kernel comes first, then one per matching range.  A tag or
        range flagged as a chain end feeds the chain latency into its
        stream's EWMA here, before any of the observations runs.
        """

        addr = request.addr
        line_base = addr - (addr % CACHE_LINE_BYTES)
        observations: list[Observation] = []
        tag_config = self.tags.get(request.tag) if request.tag >= 0 else None
        if tag_config is not None:
            stream = tag_config.stream or request.stream
            chain = request.chain_start_time
            if tag_config.chain_end and chain is not None and stream is not None:
                lookaheads[stream].observe_chain(chain, time)
                chain = None
            observations.append(
                Observation(
                    _OBS_PREFETCH, addr, time, tag_config.kernel, line_base, line_words,
                    stream, chain,
                )
            )
        matched = False
        for base, end, entry in self.prefetch_entries:
            if not base <= addr < end:
                continue
            if not matched:
                matched = True
                self.stats.prefetch_matches += 1
            stream = entry.stream or request.stream
            chain = request.chain_start_time
            if entry.chain_end and chain is not None and stream is not None:
                lookaheads[stream].observe_chain(chain, time)
                chain = None
            if entry.chain_start:
                chain = time
            if entry.prefetch_kernel is not None:
                observations.append(
                    Observation(
                        _OBS_PREFETCH, addr, time, entry.prefetch_kernel, line_base,
                        line_words, stream, chain,
                    )
                )
        return observations
