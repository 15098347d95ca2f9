"""The one conservation auditor: every identity is bitwise, and every mode
that runs it raises its own typed error when the books are tampered with."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.distcache import DistCacheRunner
from repro.distcache import runner as distcache_runner
from repro.economy.account import (
    CloudAccount,
    ConservationAudit,
    audit_conservation,
    render_conservation,
)
from repro.economy.tenancy import TenantProfile, TenantRegistry
from repro.errors import DistCacheError, EconomyError, ShardingError
from repro.experiments.tenants import TenantCell, TenantExperimentConfig
from repro.sharding import ShardCoordinator
from repro.sharding import worker as sharding_worker
from repro.simulator.events import MaintenanceSettlementEvent
from repro.workload.population import GenerativeProfileSource, PopulationSpec


def paid_account(*payments):
    account = CloudAccount(initial_credit=5.0)
    for time_s, amount in enumerate(payments):
        account.deposit(amount, time_s=float(time_s),
                        category=CloudAccount.CATEGORY_QUERY_PAYMENT)
    account.withdraw(0.5, time_s=9.0, category=CloudAccount.CATEGORY_BUILD)
    return account


def outcomes(*charges):
    return [SimpleNamespace(charge=charge) for charge in charges]


class TestAuditConservation:
    def test_balanced_books_are_exact(self):
        audit = audit_conservation(paid_account(0.1, 0.2, 0.7),
                                   outcomes(0.1, 0.2, 0.7))
        assert audit.exact
        assert audit.violation is None
        assert audit.query_payments == audit.outcome_charges
        assert audit.provider_ledger == audit.provider_credit
        assert audit.wallets_audited == 0
        audit.require("anywhere", EconomyError)      # does not raise

    def test_a_payment_one_ulp_off_is_a_violation(self):
        charge = 0.7
        audit = audit_conservation(paid_account(0.1, charge),
                                   outcomes(0.1, charge + 2**-52))
        assert not audit.exact
        assert "query payments" in audit.violation

    def test_credit_mutated_outside_the_ledger_is_a_violation(self):
        account = paid_account(0.1, 0.2)
        account._credit += 1e-12
        audit = audit_conservation(account, outcomes(0.1, 0.2))
        assert audit.query_payments == audit.outcome_charges
        assert not audit.exact
        assert "provider ledger" in audit.violation

    def test_a_held_wallet_mismatch_is_a_violation(self):
        registry = TenantRegistry()
        state = registry.register(TenantProfile("alice", initial_credit=8.0))
        registry.register(TenantProfile("bob", initial_credit=2.0))
        registry.charge("alice", 3.0, now=0.0)
        account = paid_account(0.1)
        assert audit_conservation(account, outcomes(0.1), registry).exact
        state.account._credit -= 1e-9
        audit = audit_conservation(account, outcomes(0.1), registry)
        assert not audit.exact
        assert audit.wallets_audited == 2
        assert audit.wallet_ledger_mismatches == 1

    def test_a_churned_wallet_mismatch_is_a_violation(self):
        registry = TenantRegistry(GenerativeProfileSource(PopulationSpec(
            tenant_count=4, initial_credit=10.0)))
        registry.activate("t00001", now=0.0)
        registry.charge("t00001", 2.5, now=1.0)
        registry.states()[0].account._credit += 1e-9
        registry.deactivate("t00001", now=2.0)      # folded as it drops
        assert registry.states() == ()
        audit = audit_conservation(paid_account(0.1), outcomes(0.1),
                                   registry)
        assert not audit.exact
        assert (audit.wallets_audited, audit.wallet_ledger_mismatches) == (1, 1)

    @pytest.mark.parametrize("error_type",
                             [EconomyError, DistCacheError, ShardingError])
    def test_require_raises_the_callers_type_naming_site_and_values(
            self, error_type):
        audit = audit_conservation(paid_account(0.5), outcomes(0.25))
        with pytest.raises(error_type) as excinfo:
            audit.require("partition 3", error_type)
        message = str(excinfo.value)
        assert "partition 3" in message
        assert "0.5" in message and "0.25" in message

    def test_renderer(self):
        exact = ConservationAudit(1.0, 1.0, 2.0, 2.0, wallets_audited=4)
        broken = ConservationAudit(1.0, 1.5, 2.0, 2.0)
        assert render_conservation(None) == "n/a"
        assert render_conservation(None, detail=True) == "n/a (no economy)"
        assert render_conservation(exact) == "exact"
        assert (render_conservation(exact, detail=True)
                == "exact (4 wallets audited)")
        assert render_conservation(broken) == (
            "VIOLATED (query payments 1.0 != outcome charges 1.5)")


CELL = TenantExperimentConfig(tenant_count=12, query_count=60,
                              interarrival_s=5.0, settlement_period_s=25.0,
                              seed=3)


def _nudge_credit(account):
    account._credit += 1e-9


def _uncharged_payment(account):
    account.deposit(1e-9, time_s=0.0,
                    category=CloudAccount.CATEGORY_QUERY_PAYMENT)


class TestDistCacheAudit:
    @pytest.mark.parametrize("tamper", [_nudge_credit, _uncharged_payment],
                             ids=["credit", "payment"])
    def test_tampered_subaccount_raises_naming_the_partition(
            self, monkeypatch, tamper):
        epoch = distcache_runner.run_partition_epoch

        def tampering(task):
            engine = distcache_runner._engine_of(task.scheme)
            if task.epoch > 1 and engine.partition_index == 1:
                tamper(engine.account)
            return epoch(task)

        monkeypatch.setattr(distcache_runner, "run_partition_epoch",
                            tampering)
        with pytest.raises(DistCacheError,
                           match=r"conservation violated on partition 1"):
            DistCacheRunner(2, compare_baseline=False).run_cell(CELL)

    def test_rewritten_audited_record_fails_the_end_of_run_audit(
            self, monkeypatch):
        """Barrier audits fold only what each epoch added, so a record
        rewritten after barrier 1 audited it slips past them; the full
        re-fold at the end of the run still catches it."""
        final = DistCacheRunner(2, compare_baseline=False).run_cell(
            CELL).barriers_verified
        epoch = distcache_runner.run_partition_epoch
        barriers = []

        def tampering(task):
            engine = distcache_runner._engine_of(task.scheme)
            if task.epoch == 2 and engine.partition_index == 1:
                ledger = engine.account._transactions
                position = next(
                    index for index, record in enumerate(ledger)
                    if record.category
                    == CloudAccount.CATEGORY_QUERY_PAYMENT)
                assert position < engine.barrier_folds.entries_folded
                ledger[position] = replace(
                    ledger[position], amount=ledger[position].amount * 2)
            result = epoch(task)
            barriers.append(task.epoch)
            return result

        monkeypatch.setattr(distcache_runner, "run_partition_epoch",
                            tampering)
        with pytest.raises(DistCacheError,
                           match=r"conservation violated on partition 1: "
                                 r"query payments"):
            DistCacheRunner(2, compare_baseline=False).run_cell(CELL)
        # Every barrier passed its own audit; the end of the run raised.
        assert barriers.count(final) == 2

    def test_tampered_wallet_fails_the_end_of_run_audit(self, monkeypatch):
        final = DistCacheRunner(2, compare_baseline=False).run_cell(
            CELL).barriers_verified
        epoch = distcache_runner.run_partition_epoch

        def tampering(task):
            result = epoch(task)
            scheme = result.scheme
            engine = distcache_runner._engine_of(scheme)
            if task.epoch == final and engine.partition_index == 0:
                scheme.tenant_registry.states()[0].account._credit += 1e-9
            return result

        monkeypatch.setattr(distcache_runner, "run_partition_epoch",
                            tampering)
        with pytest.raises(DistCacheError,
                           match=r"partition 0: .*wallet ledgers"):
            DistCacheRunner(2, compare_baseline=False).run_cell(CELL)

    def test_untampered_run_is_audited_at_every_barrier(self):
        report = DistCacheRunner(2, compare_baseline=False).run_cell(CELL)
        assert report.barriers_verified > 1
        for point in report.checkpoints:
            assert point.query_payments == point.outcome_charges


def _tampering_cell(tamper):
    """A ``TenantCell`` whose first settlement barrier tampers with the
    books after the shard's own recorder has audited them."""

    class TamperedCell(TenantCell):
        def run(self, observers=(), recorder=None):
            fired = []

            def observe(event, kernel):
                if not fired:
                    fired.append(event)
                    tamper(self)

            return super().run(
                list(observers) + [(MaintenanceSettlementEvent, observe)],
                recorder=recorder)

    return TamperedCell


class TestShardingAudit:
    def test_tampered_provider_account_raises(self, monkeypatch):
        monkeypatch.setattr(
            sharding_worker, "TenantCell",
            _tampering_cell(lambda cell: _nudge_credit(
                cell.scheme.engine.account)))
        with pytest.raises(ShardingError,
                           match=r"tenant shard 0 of 2.*provider ledger"):
            ShardCoordinator(2).run_cell(CELL)

    def test_tampered_wallet_fails_the_final_barrier(self, monkeypatch):
        def tamper(cell):
            cell.registry.states()[0].account._credit += 1e-9

        monkeypatch.setattr(sharding_worker, "TenantCell",
                            _tampering_cell(tamper))
        with pytest.raises(ShardingError, match=r"wallet ledgers"):
            ShardCoordinator(2).run_cell(CELL)
