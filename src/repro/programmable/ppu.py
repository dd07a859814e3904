"""Programmable prefetch units (Section 4.4).

Each PPU is a tiny in-order core.  The model tracks when each unit is busy and
how much work it has done.  The engine runs the kernels (compiled closures or
:func:`repro.programmable.interpreter.execute_kernel`) and turns each event's
dynamic instruction count, plus :data:`EVENT_DISPATCH_OVERHEAD_PPU_CYCLES`,
into busy time using the PPU/core clock ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: Fixed per-event overhead, in PPU cycles, covering the scheduler writing the
#: observation into the PPU's registers and setting its program counter.
EVENT_DISPATCH_OVERHEAD_PPU_CYCLES = 2


@dataclass(slots=True)
class PPUStats:
    events_executed: int = 0
    instructions_executed: int = 0
    prefetches_generated: int = 0
    kernel_aborts: int = 0
    busy_cycles: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(slots=True)
class PPU:
    """One programmable prefetch unit."""

    ppu_id: int
    busy_until: float = 0.0
    stats: PPUStats = field(default_factory=PPUStats)

    def activity_factor(self, total_cycles: float) -> float:
        """Fraction of the run this PPU spent awake (Figure 10)."""

        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / total_cycles)
