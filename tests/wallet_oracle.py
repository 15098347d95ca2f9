"""The registry's wallet fold as it was written before
:class:`repro.economy.tenancy.WalletView` existed, kept as the oracle the
view is checked against (``tests/test_wallet_view.py``).

It builds one ``(tenant id, book)`` pair per owned tenant by walking every
minted population index, then each ad-hoc wallet; the sharded merge
concatenated each shard's ``(global index, tenant id, credit)`` entries
and re-sorted them.
"""

from itertools import compress

from repro.economy.tenancy import WalletBook
from repro.workload.population import tenant_id_for


def population_books(registry):
    """``(index, tenant id, book)`` per owned population tenant, in mint
    order: a held state's live wallet, a churned wallet's archive, or the
    seed credit of a tenant never charged."""
    states, archived = registry._states, registry._archived
    source = registry._source
    for index in compress(range(registry._minted), registry._owned):
        tenant_id = tenant_id_for(index)
        state = states.get(tenant_id)
        if state is not None:
            book = WalletBook.of(state)
        else:
            book = archived.get(index)
            if book is None:
                seed = source.initial_credit_for(index, registry._tier(index))
                book = WalletBook(seed, seed, 0.0)
        yield index, tenant_id, book


def wallet_books(registry):
    """Every owned tenant's book, population first, then ad-hoc."""
    books = {tenant_id: book
             for _, tenant_id, book in population_books(registry)}
    for tenant_id in registry._adhoc_ids:
        books[tenant_id] = WalletBook.of(registry._states[tenant_id])
    return books


def credit_by_tenant(registry):
    """Wallet balance per owned tenant, in ``tenant_ids`` order."""
    return {tenant_id: book.credit
            for tenant_id, book in wallet_books(registry).items()}


def owned_wallets(registry):
    """A shard registry's ``(global index, tenant id, credit)`` entries:
    population tenants by mint index, ad-hoc ones after the population by
    global first-touch order."""
    entries = [(index, tenant_id, book.credit)
               for index, tenant_id, book in population_books(registry)]
    base = registry.population_minted
    entries.extend(
        (base + registry._adhoc_index[tenant_id], tenant_id,
         registry._states[tenant_id].account.credit)
        for tenant_id in registry._adhoc_ids)
    return entries


def merged_shard_wallets(registries):
    """The sharded merge: every shard's entries, re-sorted."""
    entries = sorted((entry for registry in registries
                      for entry in owned_wallets(registry)),
                     key=lambda entry: (entry[0], entry[1]))
    return [(tenant_id, credit) for _, tenant_id, credit in entries]


def merged_partition_wallets(registries, steps):
    """The partitioned merge: ``seed - sum of charged totals`` over every
    partition's book of every tenant, population first, then ad-hoc ids
    by first appearance in the merged steps."""
    if len(registries) == 1:
        return list(credit_by_tenant(registries[0]).items())
    books = [wallet_books(registry) for registry in registries]
    ordered = list(books[0])
    known = set(ordered)
    extra = {tid for book in books for tid in book if tid not in known}
    for step in steps:
        if step.tenant_id in extra:
            ordered.append(step.tenant_id)
            extra.discard(step.tenant_id)
    ordered.extend(sorted(extra))
    merged = []
    for tenant_id in ordered:
        seed = 0.0
        charged = 0.0
        for book in books:
            wallet = book.get(tenant_id)
            if wallet is None:
                continue
            seed = wallet.seed
            charged += wallet.charged
        merged.append((tenant_id, seed - charged))
    return merged
