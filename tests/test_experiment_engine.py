"""Tests for the parallel multi-trace experiment engine.

Covers the suite runner (pooled execution and ingestion through the
mapped cache), the cross-trace aggregation layer, the trace-diff
engine — including the self-diff-is-empty property at arbitrary
tolerances and a golden diff between the committed seidel and kmeans
golden traces — and the comparison renderers.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (DiffTolerances, EXACT,
                                        ExperimentSpec, analyze_traces,
                                        block_size_sweep, diff_traces,
                                        diff_trace_files,
                                        distribution_shift,
                                        merged_comm_matrix,
                                        merged_statistics,
                                        merged_task_histogram,
                                        render_matrices_side_by_side,
                                        render_state_overlay,
                                        render_timelines_side_by_side,
                                        run_suite, scheduler_sweep,
                                        speedup_curve, summarize_trace,
                                        sweep_table, synthetic_sweep)
from repro.trace_format import (read_trace, streaming_statistics,
                                streaming_task_histogram, write_trace)
from trace_gen import make_random_trace

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Three tiny synthetic traces with warm sidecars."""
    directory = str(tmp_path_factory.mktemp("engine-suite"))
    specs = synthetic_sweep(3, events=3_000)
    paths = run_suite(specs, directory, workers=2)
    return specs, paths


class TestSweepSpecs:
    def test_synthetic_sweep_names_and_params(self):
        specs = synthetic_sweep(3, events=100, seed=5)
        assert [spec.name for spec in specs] == [
            "synthetic_0", "synthetic_1", "synthetic_2"]
        assert [spec.param_dict()["seed"] for spec in specs] == [5, 6, 7]

    def test_scheduler_sweep_contrasts_runtimes(self):
        nonopt, opt = scheduler_sweep("seidel")
        assert not nonopt.optimized and opt.optimized
        assert nonopt.param_dict()["scheduler"] == "random"

    def test_block_size_sweep_carries_block_size(self):
        specs = block_size_sweep([100, 200])
        assert [spec.block_size for spec in specs] == [100, 200]
        assert specs[0].workload == "kmeans"

    def test_unknown_workload_rejected(self, tmp_path):
        from repro.analysis.experiments import (ExperimentError,
                                                RetryPolicy)
        spec = ExperimentSpec(name="bad", workload="galactic")
        with pytest.raises(ExperimentError, match="unknown workload"):
            run_suite([spec], str(tmp_path),
                      retry=RetryPolicy(max_attempts=1))


class TestSuiteRunner:
    def test_writes_trace_and_sidecar_per_spec(self, suite):
        specs, paths = suite
        assert len(paths) == len(specs)
        for path in paths:
            assert pathlib.Path(path).exists()
            assert pathlib.Path(path + "c").exists()    # .ostc sidecar

    def test_pooled_equals_serial_analysis(self, suite):
        __, paths = suite
        serial = analyze_traces(paths, workers=1)
        pooled = analyze_traces(paths, workers=2)
        assert serial == pooled

    def test_summaries_carry_labels_and_params(self, suite):
        specs, paths = suite
        summaries = analyze_traces(
            paths, workers=1, names=[spec.name for spec in specs],
            params=[spec.param_dict() for spec in specs])
        assert [summary.name for summary in summaries] \
            == [spec.name for spec in specs]
        assert summaries[1].params == {"seed": 1}
        assert summaries[0].tasks > 0
        assert summaries[0].records > 0

    def test_summary_matches_direct_computation(self, suite):
        from repro.core.statistics import (average_parallelism,
                                           state_time_summary)
        __, paths = suite
        trace = read_trace(paths[0], cache=True)
        summary = summarize_trace(trace)
        assert summary.state_cycles == {
            int(state): int(cycles) for state, cycles
            in state_time_summary(trace).items()}
        assert summary.average_parallelism \
            == pytest.approx(average_parallelism(trace))
        assert summary.tasks == len(trace.tasks)

    def test_label_length_mismatch_rejected(self, suite):
        __, paths = suite
        with pytest.raises(ValueError):
            analyze_traces(paths, workers=1, names=["only-one"])
        with pytest.raises(ValueError):
            analyze_traces(paths, workers=1,
                           params=[{}] * (len(paths) - 1))

    def test_uncached_ingestion_matches_cached(self, suite):
        __, paths = suite
        cached = analyze_traces(paths, workers=1, cache=True)
        parsed = analyze_traces(paths, workers=1, cache=False)
        assert cached == parsed


class TestAggregation:
    def test_merged_statistics_equal_sum_of_parts(self, suite):
        __, paths = suite
        individual = [streaming_statistics(path) for path in paths]
        merged = merged_statistics(paths)
        assert merged.records == sum(stats.records
                                     for stats in individual)
        assert merged.total_tasks == sum(stats.total_tasks
                                         for stats in individual)
        assert merged.begin == min(stats.begin for stats in individual)
        assert merged.end == max(stats.end for stats in individual)
        for state in merged.state_cycles:
            assert merged.state_cycles[state] == sum(
                stats.state_cycles.get(state, 0)
                for stats in individual)

    def test_merged_histogram_counts_sum(self, suite):
        __, paths = suite
        value_range = (0, 30_000)
        __, merged_counts = merged_task_histogram(paths, 8, value_range)
        individual = [streaming_task_histogram(path, 8, value_range)[1]
                      for path in paths]
        assert np.array_equal(merged_counts, np.sum(individual, axis=0))

    def test_merged_comm_matrix_adds_entrywise(self, suite):
        from repro.analysis import parallel_comm_matrix
        __, paths = suite
        merged = merged_comm_matrix(paths)
        individual = [parallel_comm_matrix(path, workers=1)
                      for path in paths]
        assert np.array_equal(merged, np.sum(individual, axis=0))

    def test_merged_comm_matrix_rejects_topology_mismatch(self, suite,
                                                          tmp_path):
        from repro.trace_format import write_synthetic_trace
        __, paths = suite
        other = str(tmp_path / "narrow.ost")
        write_synthetic_trace(other, events=500, nodes=2,
                              cores_per_node=2)
        with pytest.raises(ValueError):
            merged_comm_matrix([paths[0], other])

    def test_sweep_table_rows_and_best(self, suite):
        specs, paths = suite
        summaries = analyze_traces(
            paths, workers=1, names=[spec.name for spec in specs],
            params=[spec.param_dict() for spec in specs])
        table = sweep_table(summaries)
        assert table.param_name == "seed"
        assert len(table) == len(paths)
        best = table.best()
        assert best.duration == min(row.duration for row in table.rows)
        text = table.describe()
        assert "seed" in text and "synthetic_0" in text
        payload = table.to_dict()
        assert len(payload["rows"]) == len(paths)

    def test_speedup_curve_normalizes_to_baseline(self, suite):
        __, paths = suite
        summaries = analyze_traces(paths, workers=1)
        names, speedups = speedup_curve(summaries)
        assert len(names) == len(paths)
        assert speedups[0] == pytest.approx(1.0)


TOLERANCE_VALUES = st.floats(min_value=0.0, max_value=10.0,
                             allow_nan=False)


class TestDiffEngine:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 40), relative=TOLERANCE_VALUES,
           absolute=TOLERANCE_VALUES, distribution=TOLERANCE_VALUES,
           anomalies=st.integers(0, 5))
    def test_self_diff_empty_at_every_tolerance(self, seed, relative,
                                                absolute, distribution,
                                                anomalies):
        """Diffing any trace against itself yields an empty report no
        matter how tight (even all-zero) the tolerances are."""
        trace = make_random_trace(seed, events_per_core=15)
        tolerances = DiffTolerances(relative=relative,
                                    absolute=absolute,
                                    distribution=distribution,
                                    anomalies=anomalies)
        report = diff_traces(trace, trace, tolerances)
        assert report.is_empty
        assert report.to_dict()["deviations"] == []

    def test_self_diff_empty_across_stores(self, tmp_path):
        """An in-memory trace and the same trace mapped back from its
        sidecar diff empty in both directions."""
        trace = make_random_trace(3, events_per_core=20)
        path = str(tmp_path / "trace.ost")
        write_trace(trace, path)
        read_trace(path, cache=True)
        mapped = read_trace(path, cache=True)
        assert mapped.pyramids is not None
        assert diff_traces(trace, mapped, EXACT).is_empty
        assert diff_traces(mapped, trace, EXACT).is_empty

    def test_loose_tolerance_hides_small_deviations(self):
        baseline = make_random_trace(7, events_per_core=25)
        candidate = make_random_trace(8, events_per_core=25)
        strict = diff_traces(baseline, candidate, EXACT)
        loose = diff_traces(baseline, candidate,
                            DiffTolerances(relative=1e9, absolute=1e18,
                                           distribution=2.0,
                                           anomalies=10**6))
        assert not strict.is_empty
        assert loose.is_empty

    def test_report_serializes_to_json(self, tmp_path):
        baseline = make_random_trace(7, events_per_core=25)
        candidate = make_random_trace(8, events_per_core=25)
        report = diff_traces(baseline, candidate, EXACT)
        path = tmp_path / "report.json"
        text = report.to_json(str(path))
        payload = json.loads(path.read_text())
        assert payload == json.loads(text)
        assert payload["empty"] is False
        assert payload["tolerances"]["relative"] == 0.0
        assert all(entry["metric"] for entry in payload["deviations"])

    def test_distribution_shift_bounds(self):
        assert distribution_shift([], []) == 0.0
        assert distribution_shift([1.0], []) == 2.0
        assert distribution_shift([1.0, 2.0], [1.0, 2.0]) == 0.0
        disjoint = distribution_shift(np.zeros(10), np.ones(10) * 100)
        assert disjoint == pytest.approx(2.0)

    def test_diff_trace_files_uses_cache(self, suite):
        __, paths = suite
        report = diff_trace_files(paths[0], paths[0], tolerances=EXACT)
        assert report.is_empty
        assert report.baseline == "synthetic_0.ost"


class TestGoldenDiff:
    """The committed seidel/kmeans golden traces pin the diff output."""

    def test_golden_self_diffs_empty(self):
        for name in ("seidel", "kmeans"):
            path = str(DATA_DIR / "golden_{}.ost".format(name))
            assert diff_trace_files(path, path, tolerances=EXACT,
                                    cache=False).is_empty

    def test_golden_cross_diff_matches_pinned_report(self):
        with open(DATA_DIR / "golden_diff.json") as stream:
            pinned = json.load(stream)
        report = diff_trace_files(
            str(DATA_DIR / "golden_seidel.ost"),
            str(DATA_DIR / "golden_kmeans.ost"),
            tolerances=EXACT, cache=False)
        assert report.to_dict() == pinned


class TestComparisonRendering:
    def test_side_by_side_stacks_every_trace(self, suite):
        __, paths = suite
        traces = [read_trace(path) for path in paths]
        fb = render_timelines_side_by_side(traces, width=64,
                                           lane_height=2, gap=1)
        lanes = sum(2 * trace.num_cores for trace in traces)
        assert fb.height == lanes + (len(traces) - 1)
        assert fb.width == 64
        assert len(fb.unique_colors()) > 1

    def test_side_by_side_respects_window(self, suite):
        __, paths = suite
        trace = read_trace(paths[0])
        fb = render_timelines_side_by_side(
            [trace], width=32, lane_height=1,
            start=trace.begin, end=trace.begin + 10)
        assert fb.height == trace.num_cores

    def test_matrix_panel_shares_scale(self):
        """A cell with half the global peak must render strictly
        lighter than the peak cell of the other panel — per-panel
        self-normalization would paint them identically."""
        left = np.array([[1.0, 0.0], [0.0, 1.0]])
        right = np.array([[0.5, 0.0], [0.0, 0.5]])
        cell = 4
        gap = 2
        fb = render_matrices_side_by_side([left, right],
                                          cell_size=cell, gap=gap)
        assert fb.width > 2 * cell * 2
        # Center of each panel's top-left cell (gap=1 inside panels).
        left_pixel = fb.pixels[1 + cell // 2, 1 + cell // 2]
        panel_width = 2 * (cell + 1) + 1
        right_x = panel_width + gap + 1 + cell // 2
        right_pixel = fb.pixels[1 + cell // 2, right_x]
        assert not np.array_equal(left_pixel, right_pixel)
        with pytest.raises(ValueError):
            render_matrices_side_by_side([left, np.zeros((3, 3))])

    def test_state_overlay_one_color_per_trace(self, suite):
        __, paths = suite
        traces = [read_trace(path) for path in paths]
        fb, legend = render_state_overlay(traces, width=48, height=24)
        assert len(legend) == len(traces)
        assert fb.width == 48
        # At least the background plus one curve color.
        assert len(fb.unique_colors()) >= 2

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            render_timelines_side_by_side([])
        with pytest.raises(ValueError):
            render_matrices_side_by_side([])
        with pytest.raises(ValueError):
            render_state_overlay([])
