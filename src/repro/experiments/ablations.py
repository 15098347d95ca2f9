"""Ablation studies on the design choices DESIGN.md calls out.

These are not figures from the paper; they probe the sensitivity of the
economy to its main knobs:

* the regret-threshold fraction ``a`` of Eq. 3,
* the amortisation horizon ``n`` of Eq. 7 (and the declining-balance
  alternative),
* the workload's locality (Section VI argues the economy needs it),
* the bypass baseline's cache budget (the paper fixes 30 %).

Each ablation returns rows ``[knob value, operating cost, mean response,
hit rate, builds]`` for one scheme at one inter-arrival time, so the effect
of the knob is isolated from the figure sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.cache.manager import CacheConfig
from repro.economy.engine import EconomyConfig
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentProfile, QUICK_PROFILE
from repro.experiments.runner import build_system
from repro.policies.bypass_yield import BypassYieldConfig
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.simulation import CloudSimulation
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


def _run_scheme(system, profile: ExperimentProfile, scheme_name: str,
                interarrival_s: float,
                economic_config: Optional[EconomicSchemeConfig] = None,
                bypass_config: Optional[BypassYieldConfig] = None,
                workload_spec: Optional[WorkloadSpec] = None) -> List[object]:
    spec = workload_spec or WorkloadSpec(
        query_count=profile.query_count,
        interarrival_s=interarrival_s,
        seed=profile.seed,
    )
    workload = WorkloadGenerator(spec.with_interarrival(interarrival_s)).generate()
    scheme = system.scheme(scheme_name, economic_config=economic_config,
                           bypass_config=bypass_config)
    summary = CloudSimulation(scheme).run(workload).summary
    return [summary.operating_cost, summary.mean_response_time_s,
            summary.cache_hit_rate, summary.builds]


def regret_fraction_ablation(
        fractions: Sequence[float] = (0.005, 0.01, 0.05, 0.2),
        profile: ExperimentProfile = QUICK_PROFILE,
        scheme_name: str = "econ-cheap",
        interarrival_s: float = 1.0) -> List[List[object]]:
    """Sweep the regret-threshold fraction ``a`` (Eq. 3)."""
    if not fractions:
        raise ExperimentError("at least one fraction is required")
    system = build_system(profile)
    rows: List[List[object]] = []
    for fraction in fractions:
        config = EconomicSchemeConfig(
            economy=EconomyConfig(regret_fraction=fraction),
        )
        rows.append([fraction] + _run_scheme(
            system, profile, scheme_name, interarrival_s, economic_config=config,
        ))
    return rows


def amortization_ablation(
        horizons: Sequence[int] = (100, 1_000, 5_000, 20_000),
        profile: ExperimentProfile = QUICK_PROFILE,
        scheme_name: str = "econ-cheap",
        interarrival_s: float = 1.0) -> List[List[object]]:
    """Sweep the amortisation horizon ``n`` (Eq. 7)."""
    if not horizons:
        raise ExperimentError("at least one horizon is required")
    system = build_system(profile)
    rows: List[List[object]] = []
    for horizon in horizons:
        config = EconomicSchemeConfig(
            economy=EconomyConfig(amortization_horizon=horizon),
        )
        rows.append([horizon] + _run_scheme(
            system, profile, scheme_name, interarrival_s, economic_config=config,
        ))
    return rows


def locality_ablation(
        hot_probabilities: Sequence[float] = (0.3, 0.6, 0.85, 0.95),
        profile: ExperimentProfile = QUICK_PROFILE,
        scheme_name: str = "econ-cheap",
        interarrival_s: float = 1.0) -> List[List[object]]:
    """Sweep the workload's temporal locality (Section VI viability argument).

    Lower hot-set probability means queries are spread more evenly over the
    templates, so investments pay off more slowly.
    """
    if not hot_probabilities:
        raise ExperimentError("at least one probability is required")
    system = build_system(profile)
    rows: List[List[object]] = []
    for probability in hot_probabilities:
        spec = WorkloadSpec(
            query_count=profile.query_count,
            interarrival_s=interarrival_s,
            seed=profile.seed,
            hot_template_probability=probability,
        )
        rows.append([probability] + _run_scheme(
            system, profile, scheme_name, interarrival_s, workload_spec=spec,
        ))
    return rows


def bypass_budget_ablation(
        cache_fractions: Sequence[float] = (0.1, 0.3, 0.6),
        profile: ExperimentProfile = QUICK_PROFILE,
        interarrival_s: float = 1.0) -> List[List[object]]:
    """Sweep the bypass baseline's cache budget (the paper fixes 30 %)."""
    if not cache_fractions:
        raise ExperimentError("at least one cache fraction is required")
    system = build_system(profile)
    rows: List[List[object]] = []
    for fraction in cache_fractions:
        config = BypassYieldConfig(cache_fraction=fraction)
        rows.append([fraction] + _run_scheme(
            system, profile, "bypass", interarrival_s, bypass_config=config,
        ))
    return rows


ABLATION_HEADERS = ["knob", "operating_cost", "mean_response_s", "hit_rate", "builds"]
