"""Permutation-invariance regression for the aggregate-table mean.

``distribution_cells`` used ``sum(data)/len(data)``, whose result depends
on summation order — so two byte-identical runs whose per-tenant rows
arrived in different orders could render different aggregate tables. The
``math.fsum`` mean is exact and therefore permutation-invariant, matching
the placement layer's fsum-exact bid folding.
"""

import math
import random

from repro.experiments.reporting import distribution_cells, format_table

#: Values chosen so naive left-to-right float summation is order-sensitive
#: (large magnitude spread forces rounding in some association orders).
ORDER_SENSITIVE = [1e16, 1.0, -1e16, 1.0, 3.14159, 1e-8, 2.71828, -1.0]


class TestDistributionCells:
    def test_mean_is_permutation_invariant(self):
        rng = random.Random(0)
        baseline = distribution_cells(ORDER_SENSITIVE)
        for _ in range(50):
            shuffled = ORDER_SENSITIVE[:]
            rng.shuffle(shuffled)
            assert distribution_cells(shuffled) == baseline

    def test_naive_sum_would_have_failed(self):
        """The bug this regression pins: plain sum() is order-sensitive."""
        reordered = sorted(ORDER_SENSITIVE)
        assert sum(ORDER_SENSITIVE) != sum(reordered)
        assert math.fsum(ORDER_SENSITIVE) == math.fsum(reordered)

    def test_mean_is_exact(self):
        values = ORDER_SENSITIVE
        assert distribution_cells(values)[0] == (
            math.fsum(values) / len(values))

    def test_empty_renders_dashes(self):
        assert distribution_cells([]) == ["-", "-", "-"]

    def test_min_max_unchanged(self):
        cells = distribution_cells([3.0, 1.0, 2.0])
        assert cells[1:] == [1.0, 3.0]

    def test_one_pass_over_an_iterator_is_the_list_rule(self):
        """Read in several chunks, an iterator gives the list's cells bit
        for bit, and a tie keeps its first occurrence (``0.0`` before a
        later ``-0.0``, as ``min`` over the list does)."""
        rng = random.Random(2)
        values = [rng.uniform(1.0, 1e6) for _ in range(10_000)]
        values[100], values[9_000] = 0.0, -0.0
        expected = [math.fsum(values) / len(values), min(values), max(values)]
        assert [float.hex(cell) for cell in distribution_cells(iter(values))] \
            == [float.hex(cell) for cell in expected]


class TestRenderedTablesAreShuffleInvariant:
    def test_rendered_table_bytes_survive_shuffles(self):
        rng = random.Random(1)
        headers = ["metric", "mean", "min", "max"]

        def render(values):
            rows = [["credit", *distribution_cells(values)]]
            return format_table(headers, rows, title="aggregate")

        baseline = render(ORDER_SENSITIVE)
        for _ in range(20):
            shuffled = ORDER_SENSITIVE[:]
            rng.shuffle(shuffled)
            assert render(shuffled) == baseline
