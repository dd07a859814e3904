"""Observation queue and prefetch request queue (Sections 4.3 and 4.6).

Both are bounded FIFOs.  Because prefetching is only a performance hint,
overflowing entries are dropped rather than exerting back-pressure on the
core or the PPUs; the paper drops the *oldest* entries ("old observations can
be safely dropped with no impact on correctness"), and so do these queues.
Drop counts are recorded so experiments can report how often each queue was
the bottleneck.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from ..errors import ConfigurationError
from .events import Observation, PrefetchRequest

T = TypeVar("T")


class _DroppableFIFO(Generic[T]):
    """A bounded FIFO that drops its oldest entry when full."""

    __slots__ = ("_capacity", "entries", "pushed", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be at least 1")
        self._capacity = capacity
        #: The backing deque, oldest first.  Public so hot paths (the
        #: prefetcher's dispatch/drain loops) can test emptiness and pop
        #: without per-iteration method calls; use :meth:`push` to add.
        self.entries: Deque[T] = deque()
        self.pushed = 0
        self.dropped = 0

    def push(self, entry: T) -> None:
        self.pushed += 1
        if len(self.entries) >= self._capacity:
            self.entries.popleft()
            self.dropped += 1
        self.entries.append(entry)

    def pop(self) -> Optional[T]:
        if not self.entries:
            return None
        return self.entries.popleft()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def capacity(self) -> int:
        return self._capacity


class ObservationQueue(_DroppableFIFO[Observation]):
    """FIFO of filtered observations waiting for a free PPU."""

    __slots__ = ()


class PrefetchRequestQueue(_DroppableFIFO[PrefetchRequest]):
    """FIFO of generated prefetch addresses waiting for a free L1 MSHR."""

    __slots__ = ()
