"""The simulation clock."""

from __future__ import annotations

from repro.errors import SimulationError


class SimulationClock:
    """A monotonically non-decreasing clock measured in simulated seconds."""

    def __init__(self, start_time_s: float = 0.0) -> None:
        if start_time_s < 0:
            raise SimulationError(
                f"start_time_s must be non-negative, got {start_time_s}"
            )
        self._now = float(start_time_s)

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def advance_to(self, time_s: float) -> float:
        """Move the clock forward to ``time_s`` and return the elapsed interval.

        Raises:
            SimulationError: if ``time_s`` is in the past.
        """
        if time_s < self._now - 1e-9:
            raise SimulationError(
                f"cannot move the clock backwards: now={self._now}, target={time_s}"
            )
        elapsed = max(0.0, time_s - self._now)
        self._now = max(self._now, time_s)
        return elapsed

