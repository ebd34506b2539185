"""Tests for the experiment harness and the paper's headline claims at
test scale."""

import pytest

from repro.analysis import experiments
from repro.core import locality_fraction
from repro.runtime import (FirstTouch, NumaAwareScheduler, RandomPlacement,
                           RandomStealScheduler)


class TestPresets:
    def test_known_presets(self):
        for name in ("small", "default", "paper"):
            assert experiments.preset(name).name == name

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            experiments.preset("galactic")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert experiments.preset().name == "small"

    def test_paper_preset_matches_paper_machines(self):
        paper = experiments.preset("paper")
        assert paper.seidel_machine_nodes == 24     # SGI UV2000
        assert paper.kmeans_machine_nodes == 8      # AMD Opteron
        assert paper.kmeans_points == 40_960_000


class TestRuntimePair:
    def test_optimized_configuration(self):
        machine = experiments.kmeans_machine("small")
        memory, scheduler = experiments.runtime_pair(machine, True)
        assert isinstance(memory.policy, FirstTouch)
        assert isinstance(scheduler, NumaAwareScheduler)

    def test_non_optimized_configuration(self):
        machine = experiments.kmeans_machine("small")
        memory, scheduler = experiments.runtime_pair(machine, False)
        assert isinstance(memory.policy, RandomPlacement)
        assert isinstance(scheduler, RandomStealScheduler)


class TestSeidelClaims:
    """Section IV at small scale: optimized wins, and by a clear margin."""

    @pytest.fixture(scope="class")
    def runs(self):
        non_opt = experiments.seidel_trace(optimized=False, scale="small",
                                           collect_rusage=False, seed=2)
        opt = experiments.seidel_trace(optimized=True, scale="small",
                                       collect_rusage=False, seed=2)
        return non_opt, opt

    def test_optimized_faster(self, runs):
        (non_result, __), (opt_result, __t) = runs
        assert non_result.makespan > opt_result.makespan * 1.3

    def test_locality_gap(self, runs):
        (__, non_trace), (__r, opt_trace) = runs
        assert locality_fraction(opt_trace) > 0.8
        assert locality_fraction(non_trace) < 0.5

    def test_both_execute_same_tasks(self, runs):
        (non_result, __), (opt_result, __t) = runs
        assert non_result.tasks_executed == opt_result.tasks_executed


class TestKmeansClaims:
    def test_block_size_u_shape(self):
        """Fig. 12 at small scale: both extremes lose to the middle."""
        machine = experiments.kmeans_machine("small")
        n = 128_000
        huge = experiments.kmeans_makespan(n // 16, machine=machine,
                                           iterations=3, num_points=n)
        good = experiments.kmeans_makespan(n // 256, machine=machine,
                                           iterations=3, num_points=n)
        tiny = experiments.kmeans_makespan(n // 4096, machine=machine,
                                           iterations=3, num_points=n)
        assert huge > good
        assert tiny > good

    def test_branch_fix_reduces_mean_and_spread(self):
        from repro.core import TaskTypeFilter, task_duration_stats
        filt = TaskTypeFilter("kmeans_distance")
        __, baseline = experiments.kmeans_trace(scale="small",
                                                block_size=4000, seed=1)
        __, fixed = experiments.kmeans_trace(scale="small",
                                             block_size=4000,
                                             optimize_branches=True,
                                             seed=1)
        base_mean, base_std = task_duration_stats(baseline, filt)
        fix_mean, fix_std = task_duration_stats(fixed, filt)
        assert fix_mean < base_mean
        assert fix_std < base_std / 2

    def test_correlation_exists_at_small_scale(self):
        from repro.core import TaskTypeFilter, duration_vs_counter_rate
        __, trace = experiments.kmeans_trace(scale="small",
                                             block_size=4000, seed=1)
        __, __d, regression = duration_vs_counter_rate(
            trace, "branch_mispredictions",
            TaskTypeFilter("kmeans_distance"))
        assert regression.r_squared > 0.5
        assert regression.slope > 0


class TestRusageCollection:
    def test_rusage_counters_optional(self):
        __, with_rusage = experiments.seidel_trace(scale="small",
                                                   collect_rusage=True)
        __, without = experiments.seidel_trace(scale="small",
                                               collect_rusage=False)
        names = lambda trace: {d.name
                               for d in trace.counter_descriptions}
        assert "os_system_time_us" in names(with_rusage)
        assert "os_system_time_us" not in names(without)

    def test_access_collection_optional(self):
        __, trace = experiments.seidel_trace(scale="small",
                                             collect_accesses=False,
                                             collect_rusage=False)
        assert len(trace.accesses["task_id"]) == 0
        # Trace still renders and reports durations.
        from repro.render import StateMode, TimelineView, render_timeline
        fb = render_timeline(trace, StateMode(),
                             TimelineView.fit(trace, 100, 50))
        assert len(fb.unique_colors()) > 1
