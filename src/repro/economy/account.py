"""The cloud account (credit ``CR``).

User payments for query services are deposited here; investments in new
cache structures and maintenance losses are paid from here. The account
keeps a full transaction ledger so experiments can report where the money
went.

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
from typing import Dict, Iterable, List, Tuple

from repro.errors import EconomyError, InsufficientCreditError


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
