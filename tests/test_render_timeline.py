"""Tests for timeline rendering: view model, predominant-pixel logic
and the five modes (Sections II-B, VI-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TopologyInfo, TraceBuilder, WorkerState
from repro.render import (HeatmapMode, NumaHeatmapMode, NumaMode, StateMode,
                          TimelineView, TypeMode, render_timeline, state_color)
from repro.render import reference as render_reference
from repro.render.timeline import _predominant_keys


def pixel_keys(starts, ends, keys, view):
    """The per-bin kernel gathered onto the view's pixels."""
    edges, column = view.pixel_bins()
    return _predominant_keys(starts, ends, keys, edges)[column]


class TestTimelineView:
    def test_fit_covers_trace(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 640, 200)
        assert view.start == seidel_trace_small.begin
        assert view.end == seidel_trace_small.end

    def test_pixel_intervals_partition_view(self):
        view = TimelineView(0, 1000, width=7, height=10)
        cursor = 0
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            assert t0 == cursor
            assert t1 > t0
            cursor = t1
        assert cursor == 1000

    @given(start=st.integers(-10**6, 10**6),
           duration=st.integers(1, 5000),
           width=st.integers(1, 3000))
    @settings(max_examples=300, deadline=None)
    def test_pixel_bins_partition_the_view(self, start, duration, width):
        """Strictly increasing bin edges from start to end, and every
        pixel's interval is exactly its bin — in both zoom regimes."""
        view = TimelineView(start, start + duration, width=width,
                            height=1)
        edges, column = view.pixel_bins()
        assert edges[0] == view.start and edges[-1] == view.end
        assert (np.diff(edges) > 0).all()
        assert len(column) == width
        for x in range(width):
            assert view.pixel_interval(x) == (
                edges[column[x]], edges[column[x] + 1]), x
        if duration >= width:
            assert list(column) == list(range(width))
        else:
            assert list(np.diff(edges)) == [1] * duration

    def test_zoom_in_narrows_span(self):
        view = TimelineView(0, 1000, width=10, height=10)
        zoomed = view.zoom(2.0)
        assert zoomed.duration == 500
        center = (view.start + view.end) // 2
        assert zoomed.start <= center <= zoomed.end

    def test_zoom_rejects_nonpositive(self):
        view = TimelineView(0, 100)
        with pytest.raises(ValueError):
            view.zoom(0)

    def test_scroll_shifts_window(self):
        view = TimelineView(0, 1000)
        assert view.scroll(0.5).start == 500
        assert view.scroll(-0.25).start == -250

    def test_views_are_immutable(self):
        view = TimelineView(0, 100)
        with pytest.raises(Exception):
            view.start = 5

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            TimelineView(10, 10)

    def test_lane_geometry(self):
        view = TimelineView(0, 100, width=10, height=64)
        lane, tops = view.lane_geometry(16)
        assert lane == 4
        assert tops == [4 * core for core in range(16)]


class TestPredominantKeys:
    def brute_force(self, starts, ends, keys, view):
        result = np.full(view.width, -1, dtype=np.int64)
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            coverage = {}
            for index in range(len(starts)):
                overlap = min(ends[index], t1) - max(starts[index], t0)
                if overlap > 0 and keys[index] >= 0:
                    coverage[keys[index]] = (coverage.get(keys[index], 0)
                                             + overlap)
            if coverage:
                result[x] = max(coverage,
                                key=lambda k: (coverage[k], -k))
        return result

    def test_single_event_fills_its_pixels(self):
        view = TimelineView(0, 100, width=10, height=4)
        starts = np.asarray([20])
        ends = np.asarray([50])
        keys = np.asarray([3])
        pixels = pixel_keys(starts, ends, keys, view)
        assert list(pixels[2:5]) == [3, 3, 3]
        assert (pixels[:2] == -1).all()
        assert (pixels[5:] == -1).all()

    def test_majority_wins_within_pixel(self):
        view = TimelineView(0, 100, width=1, height=4)
        starts = np.asarray([0, 60])
        ends = np.asarray([60, 100])
        keys = np.asarray([1, 2])
        assert pixel_keys(starts, ends, keys, view)[0] == 1

    @given(seed=st.integers(min_value=0, max_value=1000),
           width=st.integers(min_value=1, max_value=40),
           zoom=st.sampled_from([1, 4, 1000]))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, seed, width, zoom):
        rng = np.random.default_rng(seed)
        cursor = 0
        starts, ends, keys = [], [], []
        for __ in range(rng.integers(0, 15)):
            cursor += int(rng.integers(0, 30))
            duration = int(rng.integers(1, 60))
            starts.append(cursor)
            ends.append(cursor + duration)
            keys.append(int(rng.integers(0, 4)))
            cursor += duration
        # zoom=1000 puts the view below one cycle per pixel.
        view = TimelineView(0, max(cursor, 1) + 10, width=width,
                            height=4).zoom(zoom)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        fast = pixel_keys(starts, ends, keys, view)
        slow = self.brute_force(starts, ends, keys, view)
        assert (fast == slow).all()


def single_core_trace():
    """One core, two states: RUNNING [0, 600), IDLE [600, 1000)."""
    builder = TraceBuilder(TopologyInfo(1, 1))
    builder.state_interval(0, int(WorkerState.RUNNING), 0, 600)
    builder.state_interval(0, int(WorkerState.IDLE), 600, 1000)
    builder.task_execution(0, 0, 0, 0, 600)
    builder.describe_task_type(
        __import__("repro.core", fromlist=["TaskTypeInfo"]).TaskTypeInfo(
            type_id=0, name="t"))
    return builder.build()


class TestStateMode:
    def test_colors_match_states(self):
        trace = single_core_trace()
        view = TimelineView(0, 1000, width=10, height=4)
        fb = render_timeline(trace, StateMode(), view)
        assert tuple(fb.pixels[0, 0]) == state_color(WorkerState.RUNNING)
        assert tuple(fb.pixels[0, 9]) == state_color(WorkerState.IDLE)

    def test_rect_aggregation_reduces_calls(self):
        trace = single_core_trace()
        view = TimelineView(0, 1000, width=100, height=4)
        fb = render_timeline(trace, StateMode(), view)
        # Two constant-color runs -> exactly two rectangles.
        assert fb.rect_calls == 2

    def test_naive_mode_draws_per_event(self, seidel_trace_small):
        """The Fig. 20 baseline draws one rectangle per event; the
        renderer draws fewer."""
        view = TimelineView.fit(seidel_trace_small, 300, 120)
        aggregated = render_timeline(seidel_trace_small, StateMode(),
                                     view)
        naive = render_reference.render_timeline_per_event(
            seidel_trace_small, StateMode(), view)
        assert naive.rect_calls == len(seidel_trace_small.states)
        assert aggregated.rect_calls < naive.rect_calls

    def test_all_modes_render_real_trace(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 200, 100)
        for mode in (StateMode(), HeatmapMode(), TypeMode(),
                     NumaMode("read"), NumaMode("write"),
                     NumaHeatmapMode()):
            fb = render_timeline(seidel_trace_small, mode, view)
            assert len(fb.unique_colors()) > 1


class TestHeatmapMode:
    def test_longer_tasks_darker(self):
        builder = TraceBuilder(TopologyInfo(1, 1))
        builder.task_execution(0, 0, 0, 0, 100)        # short
        builder.task_execution(1, 0, 0, 500, 1500)     # long
        trace = builder.build()
        view = TimelineView(0, 1500, width=15, height=4)
        fb = render_timeline(trace, HeatmapMode(shades=10), view)
        short_pixel = fb.pixels[0, 0]
        long_pixel = fb.pixels[0, 10]
        # Darker = lower green/blue channels.
        assert long_pixel[1] < short_pixel[1]

    def test_explicit_bounds(self, seidel_trace_small):
        mode = HeatmapMode(shades=5, minimum=0, maximum=10**9)
        view = TimelineView.fit(seidel_trace_small, 100, 50)
        fb = render_timeline(seidel_trace_small, mode, view)
        # All durations tiny vs. the maximum: everything in shade 0
        # (plus the two lane backgrounds and the unused bottom strip).
        shades = set(fb.unique_colors())
        assert len(shades) <= 4

    def test_filtered_tasks_not_rendered(self, seidel_trace_small):
        from repro.core import TaskTypeFilter
        view = TimelineView.fit(seidel_trace_small, 120, 60)
        everything = render_timeline(seidel_trace_small,
                                     HeatmapMode(), view)
        only_init = render_timeline(
            seidel_trace_small,
            HeatmapMode(task_filter=TaskTypeFilter("seidel_init")), view)
        assert only_init.pixels_drawn < everything.pixels_drawn


class TestNumaModes:
    def test_numa_mode_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            NumaMode("sideways")

    def test_numa_read_map_band_colors(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 150, 64)
        fb = render_timeline(seidel_trace_small, NumaMode("read"), view)
        from repro.render import numa_palette
        palette = set(
            numa_palette(seidel_trace_small.topology.num_nodes))
        present = fb.unique_colors() & palette
        assert len(present) >= 2

    def test_numa_heatmap_gradient_colors(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 150, 64)
        fb = render_timeline(seidel_trace_small, NumaHeatmapMode(), view)
        assert len(fb.unique_colors()) > 2


class TestZoomConsistency:
    def test_zoomed_render_matches_full_render_colors(
            self, seidel_trace_small):
        """Zooming into a region renders the same states (possibly at
        finer granularity) — no events appear or vanish."""
        trace = seidel_trace_small
        full_view = TimelineView.fit(trace, 400, 64)
        full = render_timeline(trace, StateMode(), full_view)
        zoom = full_view.zoom(4.0)
        zoomed = render_timeline(trace, StateMode(), zoom)
        assert zoomed.unique_colors() <= (full.unique_colors()
                                          | {(16, 16, 16), (40, 40, 40)})
