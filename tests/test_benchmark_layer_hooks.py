"""Every frame the end-to-end benchmark's layer clock installs wraps a
callable of the program.

``benchmarks/e2e/e2e_clock.py`` wraps functions by name with ``setattr``
and silently skips a name with nothing behind it, so a refactor that
renames or removes a hooked function would zero a per-layer metric
without failing anything. This test reads the clock's table; it does not
install it.
"""

import importlib.util
import os

import pytest

from repro.distcache import runner as distcache_runner
from repro.sharding import coordinator as sharding_coordinator
from repro.simulator.kernel import SimulationKernel
from repro.workload.population import PopulationStream

CLOCK_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "benchmarks", "e2e", "e2e_clock.py")


def _load_clock():
    spec = importlib.util.spec_from_file_location("layer_clock_under_test",
                                                  CLOCK_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLOCK = _load_clock()

#: Entries that wrap nothing. ``TenantRegistry.register_all`` went when
#: every cell moved to one tenant registry, so the benchmark's
#: ``tenancy:register_all`` frame measures nothing; the entry waits for a
#: change to the benchmark.
KNOWN_UNRESOLVED = {("repro.economy.tenancy.TenantRegistry", "register_all")}

#: What the clock installs outside ``LAYERS``: the population stream's
#: pulls, the set-up marks and the inline pool tasks.
EXTRA_INSTALLS = [
    (PopulationStream, "__iter__"),
    (SimulationKernel, "run"),
    (sharding_coordinator, "run_shard"),
    (distcache_runner, "run_partition_epoch"),
]


def _name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _resolves(owner, attribute: str) -> bool:
    """What ``e2e_clock._install`` would wrap: a module's callable, or the
    method on the class and every loaded subclass whose body defines it."""
    if isinstance(owner, type):
        return bool(CLOCK._defining_classes(owner, attribute))
    return callable(getattr(owner, attribute, None))


def test_every_layer_wraps_a_callable_but_the_known_dead_one():
    unresolved = {(_name(owner), attribute)
                  for owner, attribute, _, _ in CLOCK.LAYERS
                  if not _resolves(owner, attribute)}
    assert unresolved == KNOWN_UNRESOLVED


@pytest.mark.parametrize("owner, attribute", EXTRA_INSTALLS,
                         ids=[f"{_name(owner)}.{attribute}"
                              for owner, attribute in EXTRA_INSTALLS])
def test_extra_installs_wrap_a_callable(owner, attribute):
    assert _resolves(owner, attribute)


def test_engine_reads_the_wrapped_rules_as_module_globals():
    """The clock wraps negotiation and the skyline where the engine looks
    them up: as globals of ``repro.economy.engine``, which the engine's
    methods read by name at each call."""
    from repro.economy import engine as engine_module

    hooked = {attribute for owner, attribute, _, _ in CLOCK.LAYERS
              if owner is engine_module}
    assert hooked == {"negotiate", "skyline_filter", "skyline_indices"}
    read = set()
    for member in vars(engine_module.EconomyEngine).values():
        code = getattr(member, "__code__", None)
        if code is not None:
            read.update(code.co_names)
    assert hooked <= read
