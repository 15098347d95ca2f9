"""Unit tests for the simulation clock."""

import pytest

from repro.errors import SimulationError
from repro.simulator.clock import SimulationClock


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock().now == 0.0

    def test_advance_to_returns_elapsed(self):
        clock = SimulationClock(10.0)
        assert clock.advance_to(25.0) == pytest.approx(15.0)
        assert clock.now == 25.0

    def test_advance_to_same_time_is_zero(self):
        clock = SimulationClock(5.0)
        assert clock.advance_to(5.0) == 0.0

    def test_cannot_move_backwards(self):
        clock = SimulationClock(100.0)
        with pytest.raises(SimulationError):
            clock.advance_to(50.0)

    def test_cannot_start_in_the_past(self):
        with pytest.raises(SimulationError):
            SimulationClock(-1.0)
