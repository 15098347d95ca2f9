"""Result object returned by a simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.policies.base import SchemeStep
from repro.simulator.metrics import MetricsSummary


@dataclass(frozen=True)
class SimulationResult:
    """The summary plus the raw per-query steps of one run."""

    summary: MetricsSummary
    steps: Tuple[SchemeStep, ...]

    @property
    def scheme_name(self) -> str:
        """Name of the scheme that produced the result."""
        return self.summary.scheme_name

    @property
    def operating_cost(self) -> float:
        """Figure 4's metric: total operating cost in dollars."""
        return self.summary.operating_cost

    @property
    def mean_response_time_s(self) -> float:
        """Figure 5's metric: average response time in seconds."""
        return self.summary.mean_response_time_s

