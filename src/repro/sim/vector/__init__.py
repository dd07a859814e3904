"""Vectorized numpy replay backend for the non-programmable prefetch modes.

The package replays :class:`~repro.cpu.trace.Trace` columns through the
memory hierarchy with chunked numpy precomputation
(:mod:`~repro.sim.vector.columns`) feeding a fused, bit-identical state
machine (:mod:`~repro.sim.vector.replay`), one request at a time
(:func:`replay_trace`).

Backend selection mirrors the kernel compiler's environment switch: the
vector backend is on by default whenever numpy is importable, and
``REPRO_REPLAY_BACKEND=interp`` (or ``off``/``0``/``false``/``no``) forces
the interpreter.  ``REPRO_REPLAY_BACKEND=vector`` states the default
explicitly — useful in CI matrices.  When numpy is missing, or a specific
request falls outside the supported envelope (programmable modes,
non-power-of-two line sizes, L1/L2 line-size mismatch), the caller falls
back to the interpreter silently: the backend changes wall-clock time, never
results, and the golden-stats suite pins that equivalence.
"""

from __future__ import annotations

import os

from .columns import CHUNK_OPS, TraceColumnPlan, numpy_available
from .replay import replay_trace

#: Environment variable selecting the replay backend per request.
BACKEND_ENV_VAR = "REPRO_REPLAY_BACKEND"

#: Values that force the interpreter path (mirrors the kernel compiler's
#: ``REPRO_KERNEL_COMPILER`` off-values; ``interp`` is the documented one).
_OFF_VALUES = frozenset({"interp", "interpreter", "off", "0", "false", "no"})


def vector_backend_enabled() -> bool:
    """Whether requests should try the vector backend before the interpreter.

    True when numpy imported and :data:`BACKEND_ENV_VAR` is unset or set to
    anything but an off-value.  A true return is an *attempt*, not a
    guarantee: per-request support checks may still fall back.
    """

    value = os.environ.get(BACKEND_ENV_VAR, "")
    if value.strip().lower() in _OFF_VALUES:
        return False
    return numpy_available()


__all__ = [
    "BACKEND_ENV_VAR",
    "CHUNK_OPS",
    "TraceColumnPlan",
    "numpy_available",
    "replay_trace",
    "vector_backend_enabled",
]
