"""Lane-store parity sweep.

For every analysis entry point in :mod:`repro.core.statistics`,
:mod:`repro.core.metrics` and :mod:`repro.core.filters` (plus the
index helpers, overlays and timeline rendering they feed), assert that
the vectorized result on a randomized trace equals a plain-Python
oracle — the :mod:`repro.core.reference` and
:mod:`repro.render.reference` implementations, or the per-event loops
below — and that the same trace mapped back from its ``.ostc``
sidecar (the store every session and service request runs on) gives
bit-identical results to the in-memory store it was written from.

Integer aggregates must match the oracles exactly; float series built
by difference arrays and cumulative sums are compared to the scalar
loops up to rounding.
"""

import numpy as np
import pytest

from repro.core import (AllTasks, CoreFilter, DurationFilter,
                        IntervalFilter, IntervalReport, NumaNodeFilter,
                        PredicateFilter, TaskTypeFilter, WorkerState,
                        filtered_tasks, reference)
from repro.core import anomalies, correlation
from repro.core import index as core_index
from repro.core import metrics, statistics
from repro.core.derived import (AverageTaskDuration, DerivedMetricMenu,
                                WorkersInState)
from repro.render import (TIMELINE_MODES, Framebuffer, StateMode,
                          TimelineView, render_counter,
                          render_derived_series,
                          render_discrete_events, render_matrix,
                          render_timeline, value_bounds)
from repro.render import reference as render_reference
from repro.trace_format import read_trace, write_trace
from trace_gen import make_random_trace

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module", params=SEEDS)
def pair(request, tmp_path_factory):
    """(in-memory store, the same trace mapped from its sidecar)."""
    trace = make_random_trace(request.param, events_per_core=60)
    path = str(tmp_path_factory.mktemp("parity") / "random.ost")
    write_trace(trace, path, chunk_records=64)
    read_trace(path, cache=True)                # writes the sidecar
    mapped = read_trace(path, cache=True)       # maps it back
    assert mapped.pyramids is not None
    return trace, mapped


def windows(trace):
    """The whole trace plus one interior sub-interval."""
    span = trace.end - trace.begin
    yield None, None
    yield trace.begin + span // 4, trace.begin + (3 * span) // 4


def overlap(start, end, lo, hi):
    """Cycles of ``[start, end)`` inside ``[lo, hi)``."""
    return max(0, min(end, hi) - max(start, lo))


def assert_close(actual, expected):
    """Float series equal up to summation-order rounding."""
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9)


# --- plain-Python oracles ----------------------------------------------------


def oracle_locality(trace, start=None, end=None):
    matrix = reference.communication_matrix(trace, start, end,
                                            normalize=False)
    total = matrix.sum()
    return 1.0 if total == 0 else float(np.trace(matrix)) / float(total)


def oracle_interval_report(trace, start, end):
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    tasks = sum(1 for task in trace.task_executions()
                if task.start < end and task.end > start)
    return IntervalReport(
        start=start, end=end, tasks=tasks,
        average_parallelism=reference.average_parallelism(trace, start,
                                                          end),
        state_cycles=reference.state_time_summary(trace, start, end),
        locality=oracle_locality(trace, start, end))


def oracle_edges(trace, num_intervals):
    span = trace.end - trace.begin
    return [trace.begin + span * index / num_intervals
            for index in range(num_intervals + 1)]


def oracle_state_count(trace, state, num_intervals):
    edges = oracle_edges(trace, num_intervals)
    totals = [0.0] * num_intervals
    for interval in trace.state_intervals():
        if interval.state != int(state):
            continue
        for bin_index in range(num_intervals):
            totals[bin_index] += overlap(interval.start, interval.end,
                                         edges[bin_index],
                                         edges[bin_index + 1])
    return [total / (edges[i + 1] - edges[i])
            for i, total in enumerate(totals)]


def oracle_average_duration(trace, num_intervals):
    edges = oracle_edges(trace, num_intervals)
    weighted = [0.0] * num_intervals
    coverage = [0.0] * num_intervals
    for task in trace.task_executions():
        for bin_index in range(num_intervals):
            share = overlap(task.start, task.end, edges[bin_index],
                            edges[bin_index + 1])
            weighted[bin_index] += share * task.duration
            coverage[bin_index] += share
    return [w / c if c > 0 else 0.0 for w, c in zip(weighted, coverage)]


def oracle_aggregate_counter(trace, counter_id, num_intervals):
    totals = [0.0] * (num_intervals + 1)
    for core in range(trace.num_cores):
        timestamps, values = trace.counter_samples(core, counter_id)
        if len(timestamps) == 0:
            continue
        for index, edge in enumerate(oracle_edges(trace, num_intervals)):
            totals[index] += float(np.interp(edge, timestamps, values))
    return totals


def oracle_derivative(edges, values):
    return [(values[i + 1] - values[i]) / (edges[i + 1] - edges[i])
            if edges[i + 1] != edges[i] else 0.0
            for i in range(len(values) - 1)]


def oracle_bytes_between(trace, src_node, dst_node, num_intervals):
    edges = oracle_edges(trace, num_intervals)
    totals = [0.0] * num_intervals
    per_node = trace.topology.cores_per_node
    for access in trace.memory_accesses():
        node = trace.node_of_address(access.address)
        if node != src_node or access.core // per_node != dst_node:
            continue
        bin_index = max(index for index in range(num_intervals)
                        if edges[index] <= access.timestamp) \
            if access.timestamp >= edges[0] else 0
        totals[bin_index] += access.size
    return totals


def oracle_columns(events, names):
    """Column dict of a list of event dataclasses."""
    return {name: np.asarray([getattr(event, name) for event in events],
                             dtype=np.int64)
            for name in names}


def assert_columns_equal(actual, expected):
    for name, values in expected.items():
        assert np.array_equal(np.asarray(actual[name], dtype=np.int64),
                              values), name


def scalar_fold(path, accumulator):
    """The per-record ``consume`` loop batching must reproduce."""
    from repro.trace_format import stream_records
    for kind, fields in stream_records(path):
        accumulator.consume(kind, fields)
    return accumulator


class TestStatisticsParity:
    def test_state_time_summary(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            assert (statistics.state_time_summary(trace, start, end)
                    == statistics.state_time_summary(mapped, start, end)
                    == reference.state_time_summary(trace, start, end))

    def test_per_core_state_time(self, pair):
        trace, mapped = pair
        for state in WorkerState:
            for start, end in windows(trace):
                expected = reference.per_core_state_time(trace, state,
                                                         start, end)
                for store in (trace, mapped):
                    assert np.array_equal(
                        statistics.per_core_state_time(store, state,
                                                       start, end),
                        expected)

    def test_average_parallelism(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            expected = reference.average_parallelism(trace, start, end)
            assert statistics.average_parallelism(trace, start,
                                                  end) == expected
            assert statistics.average_parallelism(mapped, start,
                                                  end) == expected

    def test_task_duration_histogram(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            ref_edges, ref_fractions = reference.task_duration_histogram(
                trace, bins=12, start=start, end=end)
            for store in (trace, mapped):
                edges, fractions = statistics.task_duration_histogram(
                    store, bins=12, start=start, end=end)
                assert np.array_equal(edges, ref_edges)
                assert np.array_equal(fractions, ref_fractions)

    def test_counter_histogram(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        name = trace.counter_descriptions[0].name
        __, increases = reference.counter_increase_per_task(trace, name)
        counts, ref_edges = np.histogram(increases, bins=8)
        total = counts.sum()
        ref_fractions = counts / total if total else counts * 0.0
        for store in (trace, mapped):
            edges, fractions = statistics.counter_histogram(store, name,
                                                            bins=8)
            assert np.array_equal(edges, ref_edges)
            assert np.array_equal(fractions, ref_fractions)

    def test_communication_matrix(self, pair):
        trace, mapped = pair
        for kind in ("any", "read", "write"):
            for normalize in (True, False):
                expected = reference.communication_matrix(
                    trace, kind=kind, normalize=normalize)
                for store in (trace, mapped):
                    assert np.array_equal(
                        statistics.communication_matrix(
                            store, kind=kind, normalize=normalize),
                        expected)

    def test_locality_fraction(self, pair):
        trace, mapped = pair
        expected = oracle_locality(trace)
        assert statistics.locality_fraction(trace) == expected
        assert statistics.locality_fraction(mapped) == expected

    def test_steal_matrix(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            expected = reference.steal_matrix(trace, start, end)
            for store in (trace, mapped):
                assert np.array_equal(
                    statistics.steal_matrix(store, start, end), expected)

    def test_interval_report(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            expected = oracle_interval_report(trace, start, end)
            assert statistics.interval_report(trace, start,
                                              end) == expected
            assert statistics.interval_report(mapped, start,
                                              end) == expected


class TestMetricsParity:
    def test_interval_edges(self, pair):
        trace, mapped = pair
        edges = metrics.interval_edges(trace, 37)
        assert_close(edges, oracle_edges(trace, 37))
        assert np.array_equal(edges, metrics.interval_edges(mapped, 37))

    def test_state_count_series(self, pair):
        trace, mapped = pair
        for state in (WorkerState.RUNNING, WorkerState.IDLE):
            edges, values = metrics.state_count_series(trace, state, 50)
            assert_close(values, oracle_state_count(trace, state, 50))
            map_edges, map_values = metrics.state_count_series(
                mapped, state, 50)
            assert np.array_equal(edges, map_edges)
            assert np.array_equal(values, map_values)

    def test_average_task_duration_series(self, pair):
        trace, mapped = pair
        edges, values = metrics.average_task_duration_series(trace, 40)
        assert_close(values, oracle_average_duration(trace, 40))
        map_edges, map_values = metrics.average_task_duration_series(
            mapped, 40)
        assert np.array_equal(edges, map_edges)
        assert np.array_equal(values, map_values)

    def test_counter_series_metrics(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        name = trace.counter_descriptions[0].name
        counter_id = trace.counter_id(name)
        totals = oracle_aggregate_counter(trace, counter_id, 30)
        edges, values = metrics.aggregate_counter_series(trace, name, 30)
        assert_close(values, totals)
        __, rates = metrics.counter_derivative_series(trace, name, 30)
        assert_close(rates, oracle_derivative(edges, values))
        for function in (metrics.aggregate_counter_series,
                         metrics.counter_derivative_series):
            edges, values = function(trace, name, 30)
            map_edges, map_values = function(mapped, name, 30)
            assert np.array_equal(edges, map_edges)
            assert np.array_equal(values, map_values)
        if len(trace.counter_descriptions) > 1:
            other = trace.counter_descriptions[1].name
            __, top = metrics.counter_derivative_series(trace, name, 30)
            __, bottom = metrics.counter_derivative_series(trace, other,
                                                           30)
            __, ratio = metrics.counter_ratio_series(trace, name, other,
                                                     30)
            assert_close(ratio, [t / b if b != 0 else 0.0
                                 for t, b in zip(top, bottom)])
            __, map_ratio = metrics.counter_ratio_series(mapped, name,
                                                         other, 30)
            assert np.array_equal(ratio, map_ratio)

    def test_bytes_between_nodes_series(self, pair):
        trace, mapped = pair
        nodes = trace.topology.num_nodes
        for src in range(nodes):
            dst = (src + 1) % nodes
            edges, values = metrics.bytes_between_nodes_series(
                trace, src, dst, 25)
            assert np.array_equal(
                values, oracle_bytes_between(trace, src, dst, 25))
            map_edges, map_values = metrics.bytes_between_nodes_series(
                mapped, src, dst, 25)
            assert np.array_equal(edges, map_edges)
            assert np.array_equal(values, map_values)

    def test_task_duration_stats(self, pair):
        trace, mapped = pair
        expected = reference.task_duration_stats(trace)
        assert metrics.task_duration_stats(trace) == expected
        assert metrics.task_duration_stats(mapped) == expected


class TestFilterParity:
    def filters_for(self, trace):
        """``(filter, per-task predicate oracle)`` pairs."""
        yield AllTasks(), lambda task: True
        yield (DurationFilter(minimum=20, maximum=250),
               lambda task: 20 <= task.duration <= 250)
        span = trace.end - trace.begin
        lo = trace.begin + span // 3
        hi = trace.begin + (2 * span) // 3
        yield (IntervalFilter(lo, hi),
               lambda task: task.start < hi and task.end > lo)
        cores = set(range(0, trace.num_cores, 2))
        yield CoreFilter(cores), lambda task: task.core in cores
        if trace.task_types:
            info = trace.task_types[0]
            yield (TaskTypeFilter(info.name),
                   lambda task: task.type_id == info.type_id)
        nodes = range(trace.topology.num_nodes)
        for mode in ("read", "write", "any"):
            writing = {"read": (False,), "write": (True,),
                       "any": (False, True)}[mode]
            touching = {access.task_id
                        for access in trace.memory_accesses()
                        if access.is_write in writing
                        and trace.node_of_address(access.address)
                        in nodes}
            yield (NumaNodeFilter(nodes, mode=mode),
                   lambda task, ids=touching: task.task_id in ids)
        predicate = (lambda execution: execution.duration % 2 == 0)
        yield PredicateFilter(predicate), predicate
        yield ((DurationFilter(minimum=20) & CoreFilter([0]))
               | ~AllTasks(),
               lambda task: task.duration >= 20 and task.core == 0)

    def test_masks_identical(self, pair):
        trace, mapped = pair
        for task_filter, predicate in self.filters_for(trace):
            expected = np.asarray([predicate(task)
                                   for task in trace.task_executions()],
                                  dtype=bool)
            assert np.array_equal(task_filter.mask(trace),
                                  expected), task_filter
            assert np.array_equal(task_filter.mask(mapped),
                                  expected), task_filter

    def test_filtered_tasks_identical(self, pair):
        trace, mapped = pair
        names = ("task_id", "type_id", "core", "start", "end")
        for task_filter, predicate in ((None, lambda task: True),
                                       (DurationFilter(minimum=50),
                                        lambda task: task.duration >= 50)):
            expected = oracle_columns(
                [task for task in trace.task_executions()
                 if predicate(task)], names)
            for store in (trace, mapped):
                actual = filtered_tasks(store, task_filter)
                assert sorted(actual) == sorted(names)
                assert_columns_equal(actual, expected)


class TestIndexParity:
    def test_interval_queries(self, pair):
        trace, mapped = pair
        span = trace.end - trace.begin
        start = trace.begin + span // 3
        end = trace.begin + (2 * span) // 3
        for core in range(trace.num_cores):
            states = [interval for interval in trace.state_intervals()
                      if interval.core == core
                      and interval.start < end and interval.end > start]
            tasks = [task for task in trace.task_executions()
                     if task.core == core
                     and task.start < end and task.end > start]
            events = [event for event in trace.discrete_events()
                      if event.core == core
                      and start <= event.timestamp < end]
            for query, expected in (
                    (core_index.states_in_interval,
                     oracle_columns(states, ("state", "start", "end"))),
                    (core_index.tasks_in_interval,
                     oracle_columns(tasks, ("task_id", "type_id",
                                            "start", "end"))),
                    (core_index.discrete_in_interval,
                     oracle_columns(events, ("kind", "timestamp",
                                             "payload")))):
                for store in (trace, mapped):
                    actual = query(store, core, start, end)
                    assert sorted(actual) == sorted(expected)
                    assert_columns_equal(actual, expected)

    def test_counter_queries(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        span = trace.end - trace.begin
        start, end = trace.begin + span // 3, trace.end - span // 3
        for core in range(trace.num_cores):
            timestamps, values = trace.counter_samples(core, 0)
            times = timestamps.tolist()
            first = sum(1 for t in times if t < start)
            last = max(first, sum(1 for t in times if t < end))
            lo, hi = max(0, first - 1), min(len(times), last + 1)
            for store in (trace, mapped):
                actual = core_index.counter_samples_in_interval(
                    store, core, 0, start, end)
                assert np.array_equal(actual[0], timestamps[lo:hi])
                assert np.array_equal(actual[1], values[lo:hi])


class TestBatchAccumulatorParity:
    """The vectorized ``consume_batch`` path every entry point now
    takes must match the scalar per-record ``consume`` loop bit for
    bit, across batch-flush boundaries."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("batch") / "random.ost"
        write_trace(make_random_trace(5, events_per_core=50), str(path),
                    chunk_records=64)
        return str(path)

    def test_streaming_statistics(self, trace_file):
        from repro.trace_format import (StreamingStatistics,
                                        streaming_statistics)
        assert (streaming_statistics(trace_file)
                == scalar_fold(trace_file, StreamingStatistics()))

    def test_streaming_task_histogram(self, trace_file):
        from repro.trace_format import (TaskHistogramAccumulator,
                                        streaming_task_histogram)
        expected = scalar_fold(trace_file,
                               TaskHistogramAccumulator(16, (0, 500)))
        edges, counts = streaming_task_histogram(trace_file, 16, (0, 500))
        assert np.array_equal(edges, expected.edges)
        assert np.array_equal(counts, expected.counts)

    def test_parallel_entry_points(self, trace_file):
        from repro.analysis import parallel_streaming_statistics
        from repro.analysis.parallel import (CommMatrixAccumulator,
                                             parallel_comm_matrix,
                                             parallel_task_histogram)
        from repro.trace_format import (StreamingStatistics,
                                        TaskHistogramAccumulator)
        assert (parallel_streaming_statistics(trace_file, workers=2)
                == scalar_fold(trace_file, StreamingStatistics()))
        cores = read_trace(trace_file).num_cores
        assert np.array_equal(
            parallel_comm_matrix(trace_file, workers=2),
            scalar_fold(trace_file, CommMatrixAccumulator(cores)).matrix)
        __, counts = parallel_task_histogram(trace_file, 12, (0, 400),
                                             workers=2)
        assert np.array_equal(
            counts, scalar_fold(trace_file,
                                TaskHistogramAccumulator(12, (0, 400)))
            .counts)

    def test_state_time_summary_out_of_core(self, trace_file):
        from repro.trace_format import StreamingStatistics
        expected = dict(scalar_fold(trace_file,
                                    StreamingStatistics()).state_cycles)
        assert statistics.state_time_summary_out_of_core(
            trace_file) == expected
        assert expected == reference.state_time_summary(
            read_trace(trace_file))

    def test_fold_records_across_flush_boundaries(self, trace_file):
        """A tiny batch size forces many partial flushes; every
        aggregate must still equal the scalar pass exactly."""
        from repro.trace_format import (StreamingStatistics, fold_records,
                                        stream_records)
        batched = fold_records(stream_records(trace_file),
                               StreamingStatistics(), batch_records=7)
        assert batched == scalar_fold(trace_file, StreamingStatistics())


class TestRenderParity:
    def test_state_timeline_pixels_identical(self, pair):
        trace, mapped = pair
        view = TimelineView.fit(trace, width=200,
                                height=4 * trace.num_cores)
        expected = render_reference.render_timeline(trace, StateMode(),
                                                    view)
        for store in (trace, mapped):
            framebuffer = render_timeline(store, StateMode(), view)
            assert np.array_equal(framebuffer.pixels, expected.pixels)
            assert framebuffer.draw_calls == expected.draw_calls


class TestOverlayParity:
    """The vectorized overlay kernels must draw the exact pixels (and
    issue the exact draw-call counts) of the scalar reference loops in
    :mod:`repro.render.reference`, on both stores, across zoom
    levels."""

    def overlay_views(self, trace):
        base = TimelineView.fit(trace, width=150,
                                height=5 * trace.num_cores)
        yield base
        yield base.zoom(4)
        yield base.zoom(4).scroll(0.4)
        yield base.zoom(5)
        # Zoomed below one cycle per pixel: pixels share one-cycle bins.
        yield base.zoom(max(trace.duration, 2))

    def test_counter_overlay_pixels_identical(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        for view in self.overlay_views(trace):
            for core in range(trace.num_cores):
                expected_fb = Framebuffer(view.width, view.height)
                expected_calls = render_reference.render_counter(
                    trace, 0, view, expected_fb, core=core)
                for label, store in (("memory", trace),
                                     ("mapped", mapped)):
                    fb = Framebuffer(view.width, view.height)
                    calls = render_counter(store, 0, view, fb, core=core)
                    assert calls == expected_calls, (label, view)
                    assert np.array_equal(fb.pixels,
                                          expected_fb.pixels), \
                        (label, view)

    def test_derived_series_overlay_identical(self, pair):
        trace, mapped = pair
        for store in (trace, mapped):
            series = AverageTaskDuration().materialize(store,
                                                       num_intervals=60)
            for view in self.overlay_views(trace):
                scalar_fb = Framebuffer(view.width, view.height)
                scalar_calls = render_reference.render_derived_series(
                    series, view, scalar_fb)
                vector_fb = Framebuffer(view.width, view.height)
                vector_calls = render_derived_series(series, view,
                                                     vector_fb)
                assert vector_calls == scalar_calls, view
                assert np.array_equal(vector_fb.pixels,
                                      scalar_fb.pixels), view

    def test_value_bounds_matches_reference(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        expected = reference.counter_value_bounds(trace, 0)
        assert value_bounds(trace, 0) == expected
        assert value_bounds(mapped, 0) == expected

    def test_discrete_event_overlay_identical(self, pair):
        trace, mapped = pair
        view = TimelineView.fit(trace, width=120,
                                height=4 * trace.num_cores)
        expected_fb = Framebuffer(view.width, view.height)
        expected = render_reference.render_discrete_events(trace, view,
                                                           expected_fb)
        for store in (trace, mapped):
            fb = Framebuffer(view.width, view.height)
            assert render_discrete_events(store, view, fb) == expected
            assert np.array_equal(fb.pixels, expected_fb.pixels)

    def test_matrix_render_identical(self, pair):
        trace, mapped = pair
        matrix = statistics.steal_matrix(trace).astype(np.float64)
        expected = render_reference.render_matrix(matrix)
        for store in (trace, mapped):
            actual = render_matrix(statistics.steal_matrix(store)
                                   .astype(np.float64))
            assert np.array_equal(actual.pixels, expected.pixels)
            assert actual.draw_calls == expected.draw_calls


class TestAnomalyParity:
    def test_bin_scans_match_reference(self, pair):
        trace, mapped = pair
        for store in (trace, mapped):
            assert (anomalies.detect_load_imbalance(store)
                    == reference.detect_load_imbalance(trace))
            assert (anomalies.detect_locality_anomalies(store)
                    == reference.detect_locality_anomalies(trace))

    def test_full_scan_identical_across_stores(self, pair):
        trace, mapped = pair
        findings = anomalies.scan(trace)
        assert findings == anomalies.scan(mapped)
        expected = reference.detect_load_imbalance(trace)
        if len(trace.accesses["task_id"]):
            expected += reference.detect_locality_anomalies(trace)
        for finding in expected:
            assert finding in findings


class TestCorrelationParity:
    def test_counter_increase_matches_reference(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        __, expected = reference.counter_increase_per_task(trace, 0)
        for store in (trace, mapped):
            __, increases = correlation.counter_increase_per_task(store,
                                                                  0)
            assert np.array_equal(increases, expected)

    def test_filtered_increase_matches_reference(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        task_filter = DurationFilter(minimum=20)
        __, expected = reference.counter_increase_per_task(
            trace, 0, task_filter)
        for store in (trace, mapped):
            __, increases = correlation.counter_increase_per_task(
                store, 0, task_filter)
            assert np.array_equal(increases, expected)

    def test_export_identical_across_stores(self, pair, tmp_path):
        import csv
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        counters = [trace.counter_descriptions[0].name]
        __, increases = reference.counter_increase_per_task(trace,
                                                            counters[0])
        names = {info.type_id: info.name for info in trace.task_types}
        expected_path = tmp_path / "expected.csv"
        with open(expected_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["task_id", "type", "core", "start",
                             "duration"] + counters)
            for task, increase in zip(trace.task_executions(),
                                      increases.tolist()):
                writer.writerow([task.task_id,
                                 names.get(task.type_id, "?"), task.core,
                                 task.start, task.duration, increase])
        for label, store in (("memory", trace), ("mapped", mapped)):
            path = tmp_path / "{}.csv".format(label)
            rows = correlation.export_task_table(store, str(path),
                                                 counters=counters)
            assert rows == len(trace.tasks)
            assert path.read_text() == expected_path.read_text(), label


class TestDerivedParity:
    def test_materialized_series_identical(self, pair):
        trace, mapped = pair
        menu = DerivedMetricMenu()
        menu.add(WorkersInState(state=int(WorkerState.IDLE)))
        menu.add(AverageTaskDuration())
        menu.add(AverageTaskDuration().derivative(), name="derivative")
        menu.add(WorkersInState(state=int(WorkerState.RUNNING))
                 / AverageTaskDuration(), name="ratio")
        series = menu.materialize_all(trace, num_intervals=40)
        idle = WorkersInState(state=int(WorkerState.IDLE)).name
        assert_close(series[idle].values,
                     oracle_state_count(trace, WorkerState.IDLE, 40))
        assert_close(series[AverageTaskDuration().name].values,
                     oracle_average_duration(trace, 40))
        mapped_series = menu.materialize_all(mapped, num_intervals=40)
        assert sorted(series) == sorted(mapped_series)
        for name, values in series.items():
            other = mapped_series[name]
            assert np.array_equal(values.edges, other.edges), name
            assert np.array_equal(values.values, other.values), name


class TestPyramidParity:
    """Frames served by the persisted render pyramids must be
    bit-identical to the scalar references — on an in-memory store,
    a parsed one, the memory-mapped (cached) store whose pyramids
    come from the sidecar, and an ingested foreign trace."""

    def stores(self, tmp_path, seed=4):
        from repro.trace_format import export_chrome, ingest_trace
        trace = make_random_trace(seed, events_per_core=50)
        path = str(tmp_path / "pyramid.ost")
        write_trace(trace, path, chunk_records=64)
        plain = read_trace(path, cache=False)
        read_trace(path, cache=True)            # writes the sidecar
        mapped = read_trace(path, cache=True)   # maps it back
        assert mapped.pyramids is not None
        chrome = str(tmp_path / "pyramid.json")
        export_chrome(trace, chrome)
        ingested = ingest_trace(chrome)
        return (("memory", trace), ("parsed", plain),
                ("mapped", mapped), ("ingested", ingested))

    def parity_views(self, trace):
        base = TimelineView.fit(trace, width=160,
                                height=5 * trace.num_cores)
        yield base
        yield base.zoom(5)
        # Below one cycle per pixel: the deep-zoom regime.
        yield base.zoom(max(trace.duration, 2))

    def test_timeline_frames_match_reference(self, tmp_path):
        """Every timeline mode, in both zoom regimes."""
        for label, store in self.stores(tmp_path):
            for view in self.parity_views(store):
                for name, factory in sorted(TIMELINE_MODES.items()):
                    reference_fb = render_reference.render_timeline(
                        store, factory(), view)
                    fb = render_timeline(store, factory(), view)
                    where = (label, name, view)
                    assert np.array_equal(fb.pixels,
                                          reference_fb.pixels), where
                    assert fb.draw_calls == reference_fb.draw_calls, \
                        where

    def test_counter_frames_match_reference(self, tmp_path):
        for label, store in self.stores(tmp_path):
            if not store.counter_descriptions:
                continue
            for view in self.parity_views(store):
                for core in range(store.num_cores):
                    scalar = Framebuffer(view.width, view.height)
                    calls = render_reference.render_counter(
                        store, 0, view, scalar, core=core)
                    served = Framebuffer(view.width, view.height)
                    assert render_counter(store, 0, view, served,
                                          core=core) == calls, \
                        (label, view, core)
                    assert np.array_equal(served.pixels,
                                          scalar.pixels), (label, view,
                                                           core)

    def test_value_bounds_match_reference(self, tmp_path):
        for label, store in self.stores(tmp_path):
            if not store.counter_descriptions:
                continue
            expected = reference.counter_value_bounds(store, 0)
            assert value_bounds(store, 0) == expected, label
            # And the in-memory tree path agrees with the served one.
            from repro.core import MinMaxTree
            for core in range(store.num_cores):
                served = store.minmax_tree(core, 0)
                built = MinMaxTree(store.counter_samples(core, 0)[1])
                assert served.bounds() == built.bounds(), (label, core)
