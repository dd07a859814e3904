"""Per-endpoint circuit breaker: quarantine flapping daemons, probe gently.

A :class:`CircuitBreaker` guards one remote endpoint (a service daemon the
client may fail over to).  Instead of hammering a dead or flapping endpoint in a hot retry
loop, callers ask :meth:`~CircuitBreaker.allow` before each use and report
the outcome with :meth:`~CircuitBreaker.record_success` /
:meth:`~CircuitBreaker.record_failure`.

The classic three-state machine:

* **closed** — healthy.  Every call is allowed.  Consecutive failures are
  counted; reaching ``failure_threshold`` trips the breaker open.
* **open** — quarantined.  Calls are refused outright (no connection
  attempt, no timeout burned) until ``reset_timeout`` seconds have passed
  on the injected clock.
* **half-open** — probation.  After the cooldown, up to
  ``half_open_probes`` trial calls are allowed through.  One success
  closes the breaker (full health); one failure re-opens it and restarts
  the cooldown.

Transitions happen only inside :meth:`allow`, :meth:`record_success` and
:meth:`record_failure` — never on a background timer — so the machine is a
pure function of its call sequence and clock readings.  The clock is
injectable (``clock=``), which is how the hypothesis property test in
``tests/test_service_properties.py`` drives it against a reference model
without a single sleep.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-counting quarantine gate for one endpoint.

    Args:
        failure_threshold: Consecutive failures (while closed) that trip
            the breaker open.  ``1`` opens on the first failure — the
            right setting for fast client failover, where retrying the
            same endpoint means re-waiting a connect timeout.
        reset_timeout: Cooldown in seconds an open breaker holds before
            letting probe traffic through (half-open).
        half_open_probes: Trial calls admitted while half-open before
            :meth:`allow` starts refusing again (bounds concurrent probes
            against a maybe-recovered endpoint).
        clock: Monotonic time source; injectable so tests advance time
            explicitly instead of sleeping.
    """

    __slots__ = (
        "failure_threshold",
        "reset_timeout",
        "half_open_probes",
        "_clock",
        "_state",
        "_failures",
        "_opened_at",
        "_probes",
        "opened_count",
    )

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = float(reset_timeout)
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0
        #: Lifetime count of closed/half-open → open transitions.
        self.opened_count = 0

    # ---------------------------------------------------------------- state

    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half-open``).

        Purely observational: reading the state never transitions it (an
        open breaker whose cooldown has elapsed still reports ``open``
        until :meth:`allow` admits the first probe).
        """

        return self._state

    @property
    def failures(self) -> int:
        """Consecutive failures recorded since the last success."""

        return self._failures

    def cooldown_remaining(self) -> float:
        """Seconds until an open breaker starts admitting probes (else 0)."""

        if self._state != OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.reset_timeout - self._clock())

    # ----------------------------------------------------------- the gate

    def allow(self) -> bool:
        """May the caller use the endpoint now?

        Closed: always.  Open: refuse until the cooldown elapses, then
        transition to half-open and admit the first probe.  Half-open:
        admit while fewer than ``half_open_probes`` probes are out.
        """

        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            if self._clock() - self._opened_at < self.reset_timeout:
                return False
            self._state = HALF_OPEN
            self._probes = 0
        if self._probes >= self.half_open_probes:
            return False
        self._probes += 1
        return True

    # ------------------------------------------------------------ outcomes

    def record_success(self) -> None:
        """A call to the endpoint succeeded: reset to fully closed."""

        self._state = CLOSED
        self._failures = 0
        self._probes = 0

    def record_failure(self) -> None:
        """A call failed: count it, trip or re-open as the state demands.

        While closed, the ``failure_threshold``-th consecutive failure
        opens the breaker.  While half-open, any failure re-opens it
        immediately (the probe disproved recovery).  While open — a late
        failure from a call admitted earlier — the cooldown restarts.
        """

        now = self._clock()
        if self._state == CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip(now)
        else:
            self._failures += 1
            self._trip(now)

    def _trip(self, now: float) -> None:
        if self._state != OPEN:
            self.opened_count += 1
        self._state = OPEN
        self._opened_at = now
        self._probes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self._state}, failures={self._failures}, "
            f"cooldown={self.cooldown_remaining():.3f}s)"
        )
