"""Tests for the persisted render pyramids (state index, tiles and
mapped min/max levels) and the deep-zoom render kernels they serve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MinMaxTree, StateIndex, build_state_tiles
from repro.core.pyramid import tile_level_counts
from repro.render import (Framebuffer, StateMode, TimelineView,
                          render_counter, render_timeline)
from repro.render import reference as render_reference
from repro.render.counter_overlay import _column_extremes
from trace_gen import make_random_trace


def brute_dominant(starts, ends, states, t0, t1):
    """Reference: the dominant non-negative state of [t0, t1), ties to
    the smallest id, -1 when nothing overlaps."""
    coverage = {}
    for start, end, state in zip(starts, ends, states):
        overlap = min(int(end), t1) - max(int(start), t0)
        if overlap > 0 and state >= 0:
            coverage[state] = coverage.get(state, 0) + overlap
    if not coverage:
        return -1
    return max(coverage, key=lambda k: (coverage[k], -k))


def lane_strategy():
    """Sorted non-overlapping per-core state intervals, like the
    builders produce."""
    return st.lists(
        st.tuples(st.integers(0, 400), st.integers(1, 40),
                  st.integers(-1, 5)),
        min_size=0, max_size=30)


def materialize(items):
    """(starts, ends, states) arrays from (gap, duration, state)."""
    starts, ends, states = [], [], []
    cursor = 0
    for gap, duration, state in items:
        cursor += gap
        starts.append(cursor)
        cursor += duration
        ends.append(cursor)
        states.append(state)
    return (np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
            np.asarray(states, dtype=np.int64))


def pixel_keys(index, view):
    """Dominant state per pixel: the per-bin kernel gathered onto the
    view's pixels, as the state mode serves it."""
    edges, column = view.pixel_bins()
    return index.dominant_in_edges(edges)[column]


class TestStateIndex:
    @given(items=lane_strategy(), start=st.integers(0, 500),
           span=st.integers(1, 700), width=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_pixel_keys_match_brute_force(self, items, start, span,
                                          width):
        starts, ends, states = materialize(items)
        index = StateIndex.build(starts, ends, states)
        assert index is not None
        view = TimelineView(start, start + span, width=width, height=8)
        keys = pixel_keys(index, view)
        for x in range(width):
            t0, t1 = view.pixel_interval(x)
            assert keys[x] == brute_dominant(starts, ends, states,
                                             t0, t1), x

    def test_overlapping_state_lane_is_rejected(self):
        starts = np.asarray([0, 5], dtype=np.int64)
        ends = np.asarray([10, 15], dtype=np.int64)
        states = np.asarray([2, 2], dtype=np.int64)
        assert StateIndex.build(starts, ends, states) is None

    def test_overlap_across_states_is_fine(self):
        """Different states may overlap in time (only within-state
        overlap breaks the prefix sums)."""
        starts = np.asarray([0, 5], dtype=np.int64)
        ends = np.asarray([10, 15], dtype=np.int64)
        states = np.asarray([1, 2], dtype=np.int64)
        index = StateIndex.build(starts, ends, states)
        assert index is not None
        view = TimelineView(0, 15, width=3, height=8)
        assert list(pixel_keys(index, view)) == [1, 1, 2]

    def test_negative_states_never_dominate(self):
        starts = np.asarray([0, 10], dtype=np.int64)
        ends = np.asarray([10, 20], dtype=np.int64)
        states = np.asarray([-1, 3], dtype=np.int64)
        index = StateIndex.build(starts, ends, states)
        view = TimelineView(0, 20, width=2, height=8)
        assert list(pixel_keys(index, view)) == [-1, 3]

    def test_empty_lane(self):
        empty = np.empty(0, dtype=np.int64)
        index = StateIndex.build(empty, empty, empty)
        assert index is not None
        view = TimelineView(0, 100, width=10, height=8)
        assert (pixel_keys(index, view) == -1).all()


class TestStateTiles:
    def test_tiles_match_brute_force(self):
        trace = make_random_trace(7, events_per_core=40)
        for core in (0, 1):
            lane = trace.states.lane(core)
            index = trace.state_index(core)
            tiles = trace.state_tiles(core)
            assert tiles.level_counts() == \
                tile_level_counts(trace.end - trace.begin)
            for level in range(len(tiles.levels)):
                edges = tiles.edges(level)
                dominant = tiles.dominant(level)
                events = tiles.event_counts(level)
                for i in range(len(dominant)):
                    t0, t1 = int(edges[i]), int(edges[i + 1])
                    assert dominant[i] == brute_dominant(
                        lane["start"], lane["end"], lane["state"],
                        t0, t1), (level, i)
                    expected = int(((lane["start"] >= t0)
                                    & (lane["start"] < t1)).sum())
                    assert events[i] == expected, (level, i)

    def test_level_for_width_picks_coarsest_sufficient(self):
        trace = make_random_trace(7, events_per_core=40)
        tiles = trace.state_tiles(0)
        counts = tiles.level_counts()
        assert counts == [16, 64, 256, 1024]
        assert counts[tiles.level_for_width(10)] == 16
        assert counts[tiles.level_for_width(16)] == 16
        assert counts[tiles.level_for_width(17)] == 64
        assert counts[tiles.level_for_width(5000)] == 1024

    def test_tiny_span_drops_fine_levels(self):
        empty = np.empty(0, dtype=np.int64)
        index = StateIndex.build(empty, empty, empty)
        tiles = build_state_tiles(index, empty, 0, 100)
        assert tiles.level_counts() == [16, 64]


class TestFromLevels:
    @given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9,
                                     allow_nan=False), min_size=0,
                           max_size=300),
           arity=st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_roundtrips_built_tree(self, values, arity):
        built = MinMaxTree(values, arity=arity)
        tree = MinMaxTree.from_levels(np.asarray(values,
                                                 dtype=np.float64),
                                      built._mins[1:], built._maxs[1:],
                                      arity=arity)
        assert tree.bounds() == built.bounds()
        boundaries = np.linspace(0, len(values), 7).astype(np.int64)
        for got, expected in zip(tree.query_segments(boundaries),
                                 built.query_segments(boundaries)):
            assert np.array_equal(got, expected, equal_nan=True)

    def test_rejects_wrong_level_sizes(self):
        built = MinMaxTree(np.arange(500, dtype=np.float64), arity=10)
        with pytest.raises(ValueError):
            MinMaxTree.from_levels(np.arange(400, dtype=np.float64),
                                   built._mins[1:], built._maxs[1:],
                                   arity=10)

    def test_rejects_missing_root(self):
        built = MinMaxTree(np.arange(500, dtype=np.float64), arity=10)
        with pytest.raises(ValueError):
            MinMaxTree.from_levels(np.arange(500, dtype=np.float64),
                                   built._mins[1:2], built._maxs[1:2],
                                   arity=10)


class TestDeepZoomCounterKernel:
    """The batched counter kernel must match the scalar per-pixel loop
    bit for bit in both zoom regimes: below one cycle per pixel,
    neighbouring pixels share a one-cycle bin of the pixel grid."""

    @given(samples=st.lists(st.tuples(st.integers(0, 300),
                                      st.floats(-1e6, 1e6,
                                                allow_nan=False)),
                            min_size=1, max_size=60),
           start=st.integers(-50, 320), span=st.integers(1, 400),
           width=st.integers(1, 128))
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar_all_regimes(self, samples, start,
                                                   span, width):
        samples.sort(key=lambda sample: sample[0])
        timestamps = np.asarray([t for t, __ in samples],
                                dtype=np.int64)
        values = np.asarray([v for __, v in samples], dtype=np.float64)
        view = TimelineView(start, start + span, width=width, height=16)
        xs, vmins, vmaxs = _column_extremes(timestamps, values,
                                            view.pixel_bins())
        columns = {}
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            lo = int(np.searchsorted(timestamps, t0, side="left"))
            hi = int(np.searchsorted(timestamps, t1, side="left"))
            if hi > lo:
                columns[x] = (float(values[lo:hi].min()),
                              float(values[lo:hi].max()))
            else:
                center = (t0 + t1) // 2
                if timestamps[0] <= center <= timestamps[-1]:
                    value = float(np.interp(center, timestamps, values))
                    columns[x] = (value, value)
        assert list(xs) == sorted(columns)
        for x, vmin, vmax in zip(xs, vmins, vmaxs):
            assert (vmin, vmax) == columns[int(x)], x

    def test_deep_zoom_render_matches_reference(self):
        trace = make_random_trace(5, events_per_core=50)
        base = TimelineView.fit(trace, width=100, height=40)
        deep = base.zoom(max(trace.duration, 2))
        for view in (deep, TimelineView(trace.begin, trace.begin + 60,
                                        width=100, height=40)):
            assert view.duration < view.width
            reference = Framebuffer(view.width, view.height)
            calls = render_reference.render_counter(trace, 0, view,
                                                    reference)
            fb = Framebuffer(view.width, view.height)
            assert render_counter(trace, 0, view, fb) == calls
            assert np.array_equal(fb.pixels, reference.pixels)


class TestEmptyLaneGuards:
    """A counter with zero samples on a core draws nothing — through
    the renderer, its scalar reference and straight through the
    batched kernels (which used to index timestamps[0] unguarded)."""

    def empty_timestamps(self):
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))

    def test_kernels_accept_empty_lane(self):
        timestamps, values = self.empty_timestamps()
        for view in (TimelineView(0, 1000, width=50, height=20),
                     TimelineView(0, 10, width=50, height=20)):
            xs, vmins, vmaxs = _column_extremes(timestamps, values,
                                                view.pixel_bins())
            assert len(xs) == len(vmins) == len(vmaxs) == 0

    def test_render_empty_core_draws_nothing(self):
        trace = make_random_trace(9, events_per_core=20)
        absent = 999          # a counter no core ever sampled
        assert all(len(trace.counter_samples(core, absent)[0]) == 0
                   for core in range(trace.num_cores))
        view = TimelineView.fit(trace, width=80, height=30)
        for renderer in (render_counter, render_reference.render_counter):
            for core in range(trace.num_cores):
                fb = Framebuffer(view.width, view.height)
                calls = renderer(trace, absent, view, fb, core=core)
                assert calls == 0
                assert fb.draw_calls == 0


class TestIndexedTimeline:
    def test_indexed_matches_reference_both_regimes(self):
        trace = make_random_trace(13, events_per_core=50)
        base = TimelineView.fit(trace, width=160,
                                height=5 * trace.num_cores)
        views = (base, base.zoom(6),
                 base.zoom(max(trace.duration, 2)))
        for view in views:
            reference = render_reference.render_timeline(
                trace, StateMode(), view)
            fb = render_timeline(trace, StateMode(), view)
            assert np.array_equal(fb.pixels, reference.pixels), view
            assert fb.draw_calls == reference.draw_calls, view

    def test_unindexable_lane_falls_back(self):
        """Lanes whose index cannot be built (within-state overlap)
        render through the lane scan instead of wrong pixels."""
        trace = make_random_trace(13, events_per_core=30)
        view = TimelineView.fit(trace, width=64,
                                height=4 * trace.num_cores)
        reference = render_reference.render_timeline(trace, StateMode(),
                                                     view)
        # Poison the memoized indexes the way an unindexable lane
        # would: state_index(core) -> None for every core.
        trace._state_indexes = {core: None
                                for core in range(trace.num_cores)}
        fb = render_timeline(trace, StateMode(), view)
        assert np.array_equal(fb.pixels, reference.pixels)
        assert fb.draw_calls == reference.draw_calls

    def test_overlapping_lane_build_returns_none(self):
        starts = np.asarray([0, 5], dtype=np.int64)
        ends = np.asarray([10, 15], dtype=np.int64)
        states = np.asarray([3, 3], dtype=np.int64)
        assert StateIndex.build(starts, ends, states) is None
