"""The cloud account (credit ``CR``).

User payments for query services are deposited here; investments in new
cache structures and maintenance losses are paid from here. The account
keeps a full transaction ledger so experiments can report where the money
went, and :func:`audit_conservation` checks, bitwise, that the ledgers and
the charged queries tell the same story.

Example:
    >>> account = CloudAccount(initial_credit=10.0)
    >>> account.deposit(5.0, time_s=1.0, category="query_payment")
    >>> account.withdraw(3.0, time_s=2.0, category="structure_build")
    >>> round(account.credit, 6)
    12.0
    >>> len(account.transactions)
    3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Type

from repro.errors import EconomyError, InsufficientCreditError

if TYPE_CHECKING:  # tenancy imports this module
    from repro.economy.tenancy import TenantRegistry


@dataclass(frozen=True)
class Transaction:
    """One ledger entry: a signed amount with a category and a note."""

    time_s: float
    category: str
    amount: float
    note: str = ""


class CloudAccount:
    """Tracks the cloud credit ``CR`` and every deposit/withdrawal.

    Args:
        initial_credit: seed working capital; booked as a ``seed_capital``
            ledger entry when non-zero.
        allow_negative: permit withdrawals past zero (used for tenant
            wallets, which go into debt instead of dropping charges).

    Example:
        >>> account = CloudAccount(initial_credit=2.0)
        >>> account.can_afford(3.0)
        False
        >>> CloudAccount(initial_credit=2.0, allow_negative=True).can_afford(3.0)
        True
    """

    #: Ledger categories used by the engine; free-form strings are allowed
    #: but these are the ones reports aggregate on.
    CATEGORY_SEED = "seed_capital"
    CATEGORY_QUERY_PAYMENT = "query_payment"
    CATEGORY_EXECUTION_COST = "execution_cost"
    CATEGORY_BUILD = "structure_build"
    CATEGORY_MAINTENANCE_RECOVERED = "maintenance_recovered"
    CATEGORY_MAINTENANCE_LOSS = "maintenance_loss"

    def __init__(self, initial_credit: float = 0.0,
                 allow_negative: bool = False) -> None:
        if initial_credit < 0:
            raise EconomyError(
                f"initial_credit must be non-negative, got {initial_credit}"
            )
        self._credit = float(initial_credit)
        self._allow_negative = allow_negative
        self._transactions: List[Transaction] = []
        if initial_credit:
            self._transactions.append(Transaction(
                time_s=0.0, category=self.CATEGORY_SEED,
                amount=initial_credit, note="initial working capital",
            ))

    @property
    def credit(self) -> float:
        """The current credit ``CR``."""
        return self._credit

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """The full ledger, oldest first."""
        return tuple(self._transactions)

    def deposit(self, amount: float, time_s: float, category: str,
                note: str = "") -> None:
        """Add money to the account (user payments, recovered maintenance).

        Args:
            amount: the (non-negative) amount to credit.
            time_s: simulated instant of the deposit.
            category: ledger category (see the ``CATEGORY_*`` constants).
            note: free-form ledger note.

        Example:
            >>> account = CloudAccount()
            >>> account.deposit(1.5, time_s=0.0, category="query_payment")
            >>> account.credit
            1.5
        """
        if amount < 0:
            raise EconomyError(f"deposit amount must be non-negative, got {amount}")
        self._credit += amount
        self._transactions.append(Transaction(
            time_s=time_s, category=category, amount=amount, note=note,
        ))

    def withdraw(self, amount: float, time_s: float, category: str,
                 note: str = "") -> None:
        """Spend money (structure builds, execution costs, maintenance losses).

        Args:
            amount: the (non-negative) amount to debit.
            time_s: simulated instant of the withdrawal.
            category: ledger category (see the ``CATEGORY_*`` constants).
            note: free-form ledger note.

        Raises:
            InsufficientCreditError: if the account would go negative and
                was created with ``allow_negative=False``.

        Example:
            >>> account = CloudAccount(initial_credit=1.0)
            >>> account.withdraw(2.0, time_s=0.0, category="structure_build")
            Traceback (most recent call last):
                ...
            repro.errors.InsufficientCreditError: cannot withdraw 2.0000: credit is 1.0000
        """
        if amount < 0:
            raise EconomyError(f"withdraw amount must be non-negative, got {amount}")
        if not self._allow_negative and amount > self._credit + 1e-12:
            raise InsufficientCreditError(
                f"cannot withdraw {amount:.4f}: credit is {self._credit:.4f}"
            )
        self._credit -= amount
        self._transactions.append(Transaction(
            time_s=time_s, category=category, amount=-amount, note=note,
        ))

    def can_afford(self, amount: float) -> bool:
        """Whether a withdrawal of ``amount`` would be allowed."""
        if self._allow_negative:
            return True
        return amount <= self._credit + 1e-12

    def totals_by_category(self) -> Dict[str, float]:
        """Signed totals per ledger category.

        Returns:
            ``category -> signed total`` over the full ledger.

        Example:
            >>> account = CloudAccount()
            >>> account.deposit(4.0, 0.0, "query_payment")
            >>> account.withdraw(1.0, 1.0, "execution_cost")
            >>> account.totals_by_category() == {
            ...     "query_payment": 4.0, "execution_cost": -1.0}
            True
        """
        totals: Dict[str, float] = {}
        for transaction in self._transactions:
            totals[transaction.category] = (
                totals.get(transaction.category, 0.0) + transaction.amount
            )
        return totals

    def total_deposited(self) -> float:
        """Sum of all positive ledger entries."""
        return sum(t.amount for t in self._transactions if t.amount > 0)

    def total_withdrawn(self) -> float:
        """Sum of the magnitudes of all negative ledger entries."""
        return sum(-t.amount for t in self._transactions if t.amount < 0)


def ledger_fold(account: CloudAccount) -> float:
    """Left fold of an account's ledger, in ledger order.

    Bitwise equal to the live credit when (and only when) every mutation
    went through the ledger: IEEE-754 addition is deterministic, and the
    live credit is maintained by exactly these additions in this order.
    """
    credit = 0.0
    for transaction in account.transactions:
        credit += transaction.amount
    return credit


def query_payment_fold(account: CloudAccount) -> float:
    """Provider side of payment conservation: the ``query_payment``
    deposits folded in ledger order (bitwise their category total)."""
    total = 0.0
    for transaction in account.transactions:
        if transaction.category == CloudAccount.CATEGORY_QUERY_PAYMENT:
            total += transaction.amount
    return total


def outcome_charge_fold(outcomes: Iterable) -> float:
    """Tenant side of payment conservation: the per-query charges folded
    in processing order. An engine deposits each charge, in this order,
    so this equals :func:`query_payment_fold` of its account bitwise."""
    total = 0.0
    for outcome in outcomes:
        total += outcome.charge
    return total


@dataclass(frozen=True)
class ConservationAudit:
    """Bitwise conservation evidence: every identity is an exact claim.

    ``query_payments`` and ``outcome_charges`` are the provider side and
    the tenant side of the same money stream, folded independently;
    ``provider_ledger`` is the provider ledger's fold and
    ``provider_credit`` the live credit it must reproduce.
    ``wallets_audited`` counts the wallet ledgers folded (a registry
    folds each wallet churn drops, so a tenant that churns twice is
    folded twice) and ``wallet_ledger_mismatches`` those whose balance
    did not fold bitwise from their own ledger.
    """

    query_payments: float
    outcome_charges: float
    provider_ledger: float
    provider_credit: float
    wallets_audited: int = 0
    wallet_ledger_mismatches: int = 0

    @property
    def violation(self) -> Optional[str]:
        """The first identity that failed, as ``lhs != rhs``; ``None``
        when every identity held bitwise."""
        if self.query_payments != self.outcome_charges:
            return (f"query payments {self.query_payments!r} != "
                    f"outcome charges {self.outcome_charges!r}")
        if self.provider_ledger != self.provider_credit:
            return (f"provider ledger {self.provider_ledger!r} != "
                    f"provider credit {self.provider_credit!r}")
        if self.wallet_ledger_mismatches:
            return (f"{self.wallet_ledger_mismatches} of "
                    f"{self.wallets_audited} wallet ledgers do not fold "
                    f"to their balance")
        return None

    @property
    def exact(self) -> bool:
        """Whether every conservation identity held bitwise."""
        return self.violation is None

    def require(self, where: str, error_type: Type[Exception]) -> None:
        """Raise ``error_type`` naming ``where`` unless the audit is exact."""
        violation = self.violation
        if violation is not None:
            raise error_type(f"conservation violated on {where}: {violation}")


def audit_conservation(account: CloudAccount, outcomes: Iterable,
                       registry: Optional["TenantRegistry"] = None
                       ) -> ConservationAudit:
    """Audit one engine's books: the provider side against the tenant side,
    the provider ledger against its credit, and, given the engine's
    :class:`~repro.economy.tenancy.TenantRegistry`, every wallet ledger
    against its balance (the held wallets here; the ones churn dropped
    were folded as they were dropped).

    Example:
        >>> from types import SimpleNamespace as Outcome
        >>> account = CloudAccount()
        >>> account.deposit(0.1, time_s=1.0, category="query_payment")
        >>> account.deposit(0.2, time_s=2.0, category="query_payment")
        >>> audit = audit_conservation(
        ...     account, [Outcome(charge=0.1), Outcome(charge=0.2)])
        >>> audit.exact, render_conservation(audit)
        (True, 'exact')
        >>> short = audit_conservation(account, [Outcome(charge=0.3)])
        >>> short.exact                       # 0.1 + 0.2 != 0.3, bitwise
        False
        >>> short.require("partition 0", EconomyError)
        Traceback (most recent call last):
            ...
        repro.errors.EconomyError: conservation violated on partition 0: query payments 0.30000000000000004 != outcome charges 0.3
    """
    wallets_audited = mismatches = 0
    if registry is not None:
        states = registry.states()
        wallets_audited = len(states) + registry.churned_ledgers_folded
        mismatches = registry.churned_ledger_mismatches + sum(
            1 for state in states
            if ledger_fold(state.account) != state.account.credit)
    return ConservationAudit(
        query_payments=query_payment_fold(account),
        outcome_charges=outcome_charge_fold(outcomes),
        provider_ledger=ledger_fold(account),
        provider_credit=account.credit,
        wallets_audited=wallets_audited,
        wallet_ledger_mismatches=mismatches,
    )


def render_conservation(audit: Optional[ConservationAudit],
                        detail: bool = False) -> str:
    """The printed verdict: ``exact``, ``n/a`` (no economy to audit) or
    ``VIOLATED (lhs != rhs)``; ``detail`` adds the wallet count to
    ``exact`` and the reason to ``n/a``."""
    if audit is None:
        return "n/a (no economy)" if detail else "n/a"
    if audit.exact:
        return (f"exact ({audit.wallets_audited} wallets audited)"
                if detail else "exact")
    return f"VIOLATED ({audit.violation})"
