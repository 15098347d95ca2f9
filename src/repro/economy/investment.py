"""The investment rule (Eq. 3).

A structure ``S`` becomes a candidate for imminent investment once its
accumulated regret reaches a fraction ``a`` of the cloud credit ``CR``:

    InvestIn(S) = round(regretS[S] / (a * CR)) >= 1,   0 < a < 1.

Section VII-A adds that the provider is conservative and "builds structures
only when her profit exceeds the cost of building them"; the policy therefore
also requires that the account can pay the build cost outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import constants
from repro.economy.account import CloudAccount
from repro.economy.regret import RegretTracker
from repro.errors import ConfigurationError
from repro.structures.base import CacheStructure


@dataclass(frozen=True)
class InvestmentDecision:
    """The outcome of evaluating one structure for investment."""

    structure: CacheStructure
    regret: float
    invest_score: int
    build_cost: float
    affordable: bool

    @property
    def should_build(self) -> bool:
        """Whether the cloud should build the structure now."""
        return self.invest_score >= 1 and self.affordable


class InvestmentPolicy:
    """Evaluates the regret array against the credit and decides what to build.

    Args:
        regret_fraction: ``a`` of Eq. 3, in (0, 1).
        require_affordable: the conservative-provider rule — only build when
            the account can pay the full build cost.
        minimum_credit: credit below which the invest score is reported as 0
            (guards the division in Eq. 3).

    Example:
        >>> policy = InvestmentPolicy(regret_fraction=0.1)
        >>> policy.invest_score(regret=5.0, credit=10.0)   # 5 / (0.1 * 10)
        5
        >>> policy.invest_score(regret=0.4, credit=10.0)
        0
    """

    def __init__(self, regret_fraction: float = constants.DEFAULT_REGRET_FRACTION,
                 require_affordable: bool = True,
                 minimum_credit: float = 1e-9) -> None:
        if not 0.0 < regret_fraction < 1.0:
            raise ConfigurationError(
                f"regret_fraction must be in (0, 1), got {regret_fraction}"
            )
        if minimum_credit <= 0:
            raise ConfigurationError("minimum_credit must be positive")
        self._regret_fraction = regret_fraction
        self._require_affordable = require_affordable
        self._minimum_credit = minimum_credit

    @property
    def regret_fraction(self) -> float:
        """``a`` of Eq. 3."""
        return self._regret_fraction

    def invest_score(self, regret: float, credit: float) -> int:
        """``InvestIn(S)`` of Eq. 3; 0 when the credit is (near) zero.

        With no credit the cloud has nothing to invest, so rather than
        dividing by zero the score is reported as 0.

        Args:
            regret: the structure's accumulated regret.
            credit: the current cloud credit ``CR``.

        Returns:
            ``round(regret / (a * CR))`` as an int (>= 1 means "build").
        """
        if regret < 0:
            raise ConfigurationError(f"regret must be non-negative, got {regret}")
        if credit < self._minimum_credit:
            return 0
        return int(round(regret / (self._regret_fraction * credit)))

    def evaluate(self, structure: CacheStructure, regret: float,
                 build_cost: float, account: CloudAccount) -> InvestmentDecision:
        """Evaluate one structure for investment.

        Args:
            structure: the candidate structure.
            regret: its accumulated regret.
            build_cost: its estimated build cost.
            account: the cloud account providing ``CR``.

        Returns:
            The :class:`InvestmentDecision` (check ``should_build``).

        Example:
            >>> from repro.structures.cached_column import CachedColumn
            >>> policy = InvestmentPolicy(regret_fraction=0.1)
            >>> decision = policy.evaluate(
            ...     CachedColumn("lineitem", "l_quantity"), regret=5.0,
            ...     build_cost=2.0, account=CloudAccount(initial_credit=10.0))
            >>> decision.invest_score, decision.affordable, decision.should_build
            (5, True, True)
        """
        score = self.invest_score(regret, account.credit)
        affordable = (not self._require_affordable) or account.can_afford(build_cost)
        return InvestmentDecision(
            structure=structure,
            regret=regret,
            invest_score=score,
            build_cost=build_cost,
            affordable=affordable,
        )

    def candidates(self, tracker: RegretTracker, account: CloudAccount,
                   build_cost_of, built_keys=()) -> List[InvestmentDecision]:
        """All structures whose regret currently justifies building them.

        Args:
            tracker: the regret array.
            account: the cloud account (provides ``CR``).
            build_cost_of: callable mapping a structure to its build cost.
            built_keys: keys of structures already in the cache (skipped);
                any container, such as the cache's live keys view.

        Returns decisions with ``should_build`` true, sorted by descending
        regret so the most-regretted structure is built first.
        """
        credit = account.credit
        if credit < self._minimum_credit:
            # invest_score is 0 for every structure: nothing can qualify.
            return []
        # Filter before sorting: most structures miss the invest-score
        # threshold, and most that reach it are built, pooled out or
        # unaffordable. No filter depends on order, so a stable sort of
        # the survivors yields the same descending-regret order ranked()
        # would have produced. The threshold is invest_score's
        # expression, with ``a * CR`` computed once.
        scale = self._regret_fraction * credit
        kept = []
        for key, regret in tracker.items():
            if int(round(regret / scale)) < 1 or key in built_keys:
                continue
            structure = tracker.structure(key)
            if structure is None:
                continue
            build_cost = build_cost_of(structure)
            if self._require_affordable and not account.can_afford(build_cost):
                continue
            kept.append((regret, structure, build_cost))
        kept.sort(key=lambda item: -item[0])
        return [self.evaluate(structure, regret, build_cost, account)
                for regret, structure, build_cost in kept]
