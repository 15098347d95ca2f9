"""Unit tests for the cloud account."""

import pytest

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.economy.account import (
    CloudAccount,
    ConservationFolds,
    Transaction,
    audit_conservation,
    outcome_charge_fold,
    query_payment_fold,
)
from repro.errors import EconomyError, InsufficientCreditError


class TestCloudAccount:
    def test_starts_with_seed_capital(self):
        account = CloudAccount(initial_credit=50.0)
        assert account.credit == 50.0
        assert account.transactions[0].category == CloudAccount.CATEGORY_SEED

    def test_starts_empty_without_seed(self):
        account = CloudAccount()
        assert account.credit == 0.0
        assert account.transactions == ()

    def test_deposit_and_withdraw(self):
        account = CloudAccount()
        account.deposit(10.0, 1.0, CloudAccount.CATEGORY_QUERY_PAYMENT)
        account.withdraw(4.0, 2.0, CloudAccount.CATEGORY_BUILD)
        assert account.credit == pytest.approx(6.0)
        assert [t.amount for t in account.transactions] == [10.0, -4.0]

    def test_overdraft_rejected_by_default(self):
        account = CloudAccount(initial_credit=1.0)
        with pytest.raises(InsufficientCreditError):
            account.withdraw(2.0, 0.0, CloudAccount.CATEGORY_BUILD)

    def test_overdraft_allowed_when_requested(self):
        account = CloudAccount(initial_credit=1.0, allow_negative=True)
        account.withdraw(2.0, 0.0, CloudAccount.CATEGORY_BUILD)
        assert account.credit == pytest.approx(-1.0)

    def test_can_afford(self):
        account = CloudAccount(initial_credit=5.0)
        assert account.can_afford(5.0)
        assert not account.can_afford(5.1)
        assert CloudAccount(allow_negative=True).can_afford(1e9)

    def test_negative_amounts_rejected(self):
        account = CloudAccount()
        with pytest.raises(EconomyError):
            account.deposit(-1.0, 0.0, "x")
        with pytest.raises(EconomyError):
            account.withdraw(-1.0, 0.0, "x")
        with pytest.raises(EconomyError):
            CloudAccount(initial_credit=-1.0)

    def test_totals_by_category(self):
        account = CloudAccount()
        account.deposit(10.0, 0.0, CloudAccount.CATEGORY_QUERY_PAYMENT)
        account.deposit(5.0, 1.0, CloudAccount.CATEGORY_QUERY_PAYMENT)
        account.withdraw(3.0, 2.0, CloudAccount.CATEGORY_BUILD)
        totals = account.totals_by_category()
        assert totals[CloudAccount.CATEGORY_QUERY_PAYMENT] == pytest.approx(15.0)
        assert totals[CloudAccount.CATEGORY_BUILD] == pytest.approx(-3.0)

    def test_conservation_folds_are_bitwise_left_folds(self):
        # Charges whose sum depends on the order they are added in.
        charges = [1e16, 1.0, 1.0]
        account = CloudAccount(initial_credit=7.0)
        assert query_payment_fold(account) == 0.0
        for index, charge in enumerate(charges):
            account.deposit(charge, index,
                            CloudAccount.CATEGORY_QUERY_PAYMENT)
            account.withdraw(0.5, index, CloudAccount.CATEGORY_BUILD)
        folded = query_payment_fold(account)
        assert folded == account.totals_by_category()[
            CloudAccount.CATEGORY_QUERY_PAYMENT]
        outcomes = [SimpleNamespace(charge=charge) for charge in charges]
        assert outcome_charge_fold(outcomes) == folded
        assert outcome_charge_fold(reversed(outcomes)) != folded
        assert outcome_charge_fold([]) == 0.0

    def test_ledger_preserves_order_and_notes(self):
        account = CloudAccount()
        account.deposit(1.0, 0.0, "a", note="first")
        account.deposit(2.0, 1.0, "b", note="second")
        assert [t.note for t in account.transactions] == ["first", "second"]
        assert [t.time_s for t in account.transactions] == [0.0, 1.0]

    def test_credit_never_lost_by_bookkeeping(self):
        account = CloudAccount(initial_credit=100.0)
        account.deposit(20.0, 0.0, "in")
        account.withdraw(30.0, 1.0, "out")
        assert account.credit == pytest.approx(
            sum(t.amount for t in account.transactions))


# -- running category totals ----------------------------------------------------

CATEGORIES = [CloudAccount.CATEGORY_QUERY_PAYMENT, CloudAccount.CATEGORY_BUILD,
              CloudAccount.CATEGORY_SEED, "other"]
amounts = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 1e16, 1.0]),
                    st.floats(min_value=0.0, max_value=1e6))


class TestCategoryTotal:
    @settings(max_examples=200, deadline=None)
    @given(initial=st.sampled_from([0.0, 7.0, 0.1]),
           allow_negative=st.booleans(),
           operations=st.lists(st.tuples(
               st.booleans(), st.sampled_from(CATEGORIES), amounts),
               max_size=40))
    def test_running_total_is_the_ledger_fold(self, initial, allow_negative,
                                              operations):
        account = CloudAccount(initial_credit=initial,
                               allow_negative=allow_negative)
        for is_deposit, category, amount in operations:
            if is_deposit:
                account.deposit(amount, 0.0, category)
            else:
                try:
                    account.withdraw(amount, 0.0, category)
                except InsufficientCreditError:
                    pass  # refused withdrawals leave no ledger entry
        totals = account.totals_by_category()
        for category in CATEGORIES:
            # hex() tells 0.0 from -0.0: the claim is bitwise.
            assert (account.category_total(category).hex()
                    == totals.get(category, 0.0).hex())
        assert (account.category_total(CloudAccount.CATEGORY_QUERY_PAYMENT)
                .hex() == query_payment_fold(account).hex())


class TestConservationFolds:
    @settings(max_examples=200, deadline=None)
    @given(initial=st.sampled_from([0.0, 7.0, 0.1]),
           operations=st.lists(st.tuples(
               st.booleans(), st.sampled_from(CATEGORIES), amounts,
               st.booleans()), max_size=40))
    def test_resumed_folds_are_the_full_folds(self, initial, operations):
        """Audited at arbitrary points, the resumed folds give bitwise
        the figures a fold from the first record gives."""
        account = CloudAccount(initial_credit=initial, allow_negative=True)
        outcomes, new_outcomes = [], []
        folds = ConservationFolds()
        for is_deposit, category, amount, audit_here in operations:
            if is_deposit:
                account.deposit(amount, 0.0, category)
            else:
                account.withdraw(amount, 0.0, category)
            if category == CloudAccount.CATEGORY_QUERY_PAYMENT:
                new_outcomes.append(SimpleNamespace(
                    charge=amount if is_deposit else -amount))
            if audit_here:
                resumed = folds.audit(account, new_outcomes)
                outcomes += new_outcomes
                new_outcomes = []
                full = audit_conservation(account, outcomes)
                for name in ("query_payments", "outcome_charges",
                             "provider_ledger", "provider_credit"):
                    assert (getattr(resumed, name).hex()
                            == getattr(full, name).hex()), name
        assert folds.entries_folded <= len(account.transactions)

    def test_a_rewrite_behind_the_position_needs_the_full_fold(self):
        account = CloudAccount(initial_credit=1.0)
        account.deposit(0.5, 0.0, CloudAccount.CATEGORY_QUERY_PAYMENT)
        folds = ConservationFolds()
        charged = [SimpleNamespace(charge=0.5)]
        assert folds.audit(account, charged).exact
        account._transactions[1] = Transaction(
            0.0, CloudAccount.CATEGORY_QUERY_PAYMENT, 0.25)
        assert folds.audit(account, []).exact
        assert not audit_conservation(account, charged).exact
