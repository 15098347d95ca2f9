"""Tests for the experiment profiles, runner, figures and reporting."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentProfile, PAPER_PROFILE, QUICK_PROFILE
from repro.experiments.figure4 import figure4_rows, figure4_table
from repro.experiments.figure5 import figure5_rows, figure5_table
from repro.experiments.headline import headline_ratios, headline_table
from repro.experiments.reporting import format_table
from repro.experiments import runner
from repro.experiments.runner import build_system, run_cell, run_grid


#: A deliberately tiny profile so the experiment machinery can be exercised
#: inside the unit-test budget; the numbers it produces are not meaningful.
TINY_PROFILE = ExperimentProfile(
    name="tiny",
    query_count=40,
    interarrival_times_s=(1.0, 30.0),
    schemes=("bypass", "econ-col", "econ-cheap", "econ-fast"),
)


@pytest.fixture(scope="module")
def tiny_grid():
    runner._GRID_CACHE.clear()
    return run_grid(TINY_PROFILE)


class TestProfiles:
    def test_paper_profile_matches_the_figure_sweep(self):
        assert PAPER_PROFILE.interarrival_times_s == (1.0, 10.0, 30.0, 60.0)
        assert PAPER_PROFILE.schemes == ("bypass", "econ-col", "econ-cheap", "econ-fast")

    def test_quick_profile_is_smaller(self):
        assert QUICK_PROFILE.query_count < PAPER_PROFILE.query_count

    @pytest.mark.parametrize("kwargs", [
        {"query_count": 0},
        {"interarrival_times_s": ()},
        {"interarrival_times_s": (0.0,)},
        {"schemes": ()},
        {"schemes": ("econ-magic",)},
        {"disk_duration_scale": 0.0},
    ])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            ExperimentProfile(name="bad", **kwargs)

    def test_with_overrides(self):
        profile = QUICK_PROFILE.with_overrides(query_count=10)
        assert profile.query_count == 10
        assert profile.name == QUICK_PROFILE.name


class TestRunner:
    def test_grid_has_every_cell(self, tiny_grid):
        assert len(tiny_grid.cells) == 8
        for scheme in TINY_PROFILE.schemes:
            for interval in TINY_PROFILE.interarrival_times_s:
                cell = tiny_grid.cell(scheme, interval)
                assert cell.summary.query_count == TINY_PROFILE.query_count

    def test_missing_cell_raises(self, tiny_grid):
        with pytest.raises(ExperimentError):
            tiny_grid.cell("bypass", 123.0)

    def test_series_follows_the_interval_order(self, tiny_grid):
        series = tiny_grid.series("bypass", lambda s: s.operating_cost)
        assert len(series) == 2
        assert all(value > 0 for value in series)

    def test_grid_is_cached_per_profile(self):
        first = run_grid(TINY_PROFILE)
        second = run_grid(TINY_PROFILE)
        assert first is second
        runner._GRID_CACHE.clear()
        third = run_grid(TINY_PROFILE, use_cache=False)
        assert third is not first

    def test_run_cell_standalone(self):
        system = build_system(TINY_PROFILE)
        cell = run_cell(system, TINY_PROFILE, "bypass", 1.0)
        assert cell.scheme == "bypass"
        assert cell.summary.operating_cost > 0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid(TINY_PROFILE, use_cache=False, jobs=0)

    def test_grid_cache_is_bounded(self):
        runner._GRID_CACHE.clear()
        profiles = [
            TINY_PROFILE.with_overrides(name=f"bound-{index}", query_count=2)
            for index in range(runner._GRID_CACHE_MAX_ENTRIES + 2)
        ]
        small = [profile.with_overrides(interarrival_times_s=(1.0,),
                                        schemes=("bypass",))
                 for profile in profiles]
        for profile in small:
            run_grid(profile)
        assert len(runner._GRID_CACHE) == runner._GRID_CACHE_MAX_ENTRIES
        # The oldest entries were evicted; the newest are still cached.
        assert small[0] not in runner._GRID_CACHE
        assert small[-1] in runner._GRID_CACHE
        runner._GRID_CACHE.clear()


class TestParallelRunner:
    """The grid is embarrassingly parallel; fan-out must not change results."""

    PARALLEL_PROFILE = ExperimentProfile(
        name="parallel-check",
        query_count=40,
        interarrival_times_s=(1.0, 30.0),
        schemes=("bypass", "econ-cheap"),
    )

    def test_parallel_grid_is_cell_for_cell_identical(self):
        sequential = run_grid(self.PARALLEL_PROFILE, use_cache=False)
        parallel = run_grid(self.PARALLEL_PROFILE, use_cache=False, jobs=2)
        assert len(parallel.cells) == len(sequential.cells)
        for seq_cell, par_cell in zip(sequential.cells, parallel.cells):
            assert par_cell.scheme == seq_cell.scheme
            assert par_cell.interarrival_s == seq_cell.interarrival_s
            # MetricsSummary is a frozen dataclass: equality is exact,
            # field by field, no tolerance.
            assert par_cell.summary == seq_cell.summary


class TestFigures:
    def test_figure4_rows_shape(self, tiny_grid):
        rows = figure4_rows(tiny_grid)
        assert len(rows) == 2
        assert all(len(row) == 1 + len(TINY_PROFILE.schemes) for row in rows)
        assert all(isinstance(value, float) for row in rows for value in row[1:])

    def test_figure5_rows_shape(self, tiny_grid):
        rows = figure5_rows(tiny_grid)
        assert len(rows) == 2
        assert all(value > 0 for row in rows for value in row[1:])

    def test_tables_render(self, tiny_grid):
        cost_table = figure4_table(grid=tiny_grid)
        response_table = figure5_table(grid=tiny_grid)
        assert "Figure 4" in cost_table and "bypass" in cost_table
        assert "Figure 5" in response_table and "econ-fast" in response_table

    def test_headline_ratios_computable(self, tiny_grid):
        ratios = headline_ratios(grid=tiny_grid)
        assert ratios.econ_col_vs_bypass_cost > 0
        assert ratios.econ_cheap_vs_econ_col_response > 0
        assert "claim" in headline_table(grid=tiny_grid)

    def test_headline_requires_all_schemes(self):
        partial = TINY_PROFILE.with_overrides(name="partial", schemes=("bypass",))
        grid = run_grid(partial, use_cache=False)
        with pytest.raises(ExperimentError):
            headline_ratios(grid=grid)


class TestReporting:
    def test_format_table_renders_floats(self):
        table = format_table(["a", "b"], [[1, 2.345], [3, 4.0]], title="demo")
        assert "demo" in table
        assert "2.35" in table
        assert table.count("\n") == 4

    def test_format_table_validates_row_width(self):
        with pytest.raises(ExperimentError):
            format_table(["a"], [[1, 2]])

    def test_format_table_requires_headers(self):
        with pytest.raises(ExperimentError):
            format_table([], [])

    def test_booleans_render_as_yes_no(self):
        table = format_table(["flag"], [[True], [False]])
        assert "yes" in table and "no" in table
