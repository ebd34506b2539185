"""Scalar reference renderers: the executable specification of the
vectorized drawing kernels.

Each function here draws with the plain per-pixel / per-event /
per-cell loop the batched kernel in :mod:`repro.render` replaced, and
must paint bit-identical pixels with identical draw-call counts:

* :func:`render_timeline` — per pixel, a two-pointer walk over the
  lane for :func:`repro.render.timeline.render_timeline`, every mode;
* :func:`render_counter` — per-pixel-column min/max search for
  :func:`repro.render.counter_overlay.render_counter` (Fig. 21b);
* :func:`render_derived_series` — the same loop over a materialized
  :class:`~repro.core.derived.DerivedSeries`;
* :func:`render_discrete_events` — one marker per event for
  :func:`repro.render.event_overlay.render_discrete_events`;
* :func:`render_matrix` — one :func:`~repro.render.colors.matrix_red`
  call per cell for :func:`repro.render.matrix.render_matrix`.

The per-pixel references read the pixel grid only through
:meth:`~repro.render.timeline.TimelineView.pixel_interval`.  The
parity tests compare the kernels against these, and
``benchmarks/bench_ext_interactive.py`` uses them as the baseline of
its frame-loop speedup gate.  Two more renderers are the unoptimized
baselines of Section VI-B, which draw *different* pixels and many more
calls: :func:`render_timeline_per_event` (one rectangle per event,
Fig. 20) and :func:`render_counter_per_sample` (one line per sample
pair, Fig. 21a); ``benchmarks/bench_sec6_render_opts.py`` counts their
draw calls.  Like :mod:`repro.core.reference`, this module favours
obviousness over speed.
"""

from __future__ import annotations

import numpy as np

from ..core.index import discrete_in_interval, interval_slice
from . import colors as palettes
from .counter_overlay import _value_to_y, value_bounds
from .event_overlay import EVENT_COLORS
from .framebuffer import Framebuffer
from .timeline import NumaHeatmapMode, TimelineView, _paint_background


def _predominant_key_per_pixel(starts, ends, keys, view):
    """Predominant non-negative key per pixel (-1 where nothing is
    visible; ties to the smallest key), by a two-pointer walk over a
    sorted, per-core non-overlapping lane."""
    result = np.full(view.width, -1, dtype=np.int64)
    count = len(starts)
    event = 0
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        while event < count and ends[event] <= t0:
            event += 1
        if event >= count or starts[event] >= t1:
            continue
        coverage = {}
        cursor = event
        while cursor < count and starts[cursor] < t1:
            key = int(keys[cursor])
            overlap = (min(int(ends[cursor]), t1)
                       - max(int(starts[cursor]), t0))
            if overlap > 0 and key >= 0:
                coverage[key] = coverage.get(key, 0) + overlap
            if ends[cursor] > t1:
                break
            cursor += 1
        if coverage:
            result[x] = max(coverage, key=lambda k: (coverage[k], -k))
    return result


def _mean_value_per_pixel(starts, ends, values, view):
    """Coverage-weighted mean value per pixel (NaN where nothing is
    visible), by the same two-pointer walk."""
    result = np.full(view.width, np.nan, dtype=np.float64)
    count = len(starts)
    event = 0
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        while event < count and ends[event] <= t0:
            event += 1
        if event >= count or starts[event] >= t1:
            continue
        weighted = 0.0
        total = 0
        cursor = event
        while cursor < count and starts[cursor] < t1:
            overlap = (min(int(ends[cursor]), t1)
                       - max(int(starts[cursor]), t0))
            if overlap > 0:
                weighted += float(values[cursor]) * overlap
                total += overlap
            if ends[cursor] > t1:
                break
            cursor += 1
        if total:
            result[x] = weighted / total
    return result


def render_timeline(trace, mode, view=None, framebuffer=None):
    """Reference for :func:`repro.render.timeline.render_timeline`.

    Per lane and pixel, the walk over the mode's event lane yields the
    predominant key — or, in the NUMA heatmap, the ramp color of the
    mean remote fraction — and every run of equal pixels is one
    rectangle.
    """
    view = TimelineView.fit(trace) if view is None else view
    if framebuffer is None:
        framebuffer = Framebuffer(view.width, view.height)
    mode.prepare(trace)
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    _paint_background(framebuffer, lane_height, lane_tops)
    framebuffer.reset_counters()
    heat = isinstance(mode, NumaHeatmapMode)
    for core, top in enumerate(lane_tops):
        starts, ends, keys = mode.lane_events(trace, core)
        if heat:
            means = _mean_value_per_pixel(starts, ends, keys, view)
            items = [None if np.isnan(value)
                     else palettes.numa_heat_color(value)
                     for value in means]
        else:
            keys = _predominant_key_per_pixel(starts, ends, keys, view)
            items = [None if key < 0 else int(key) for key in keys]
        x = 0
        while x < view.width:
            run_end = x + 1
            while run_end < view.width and items[run_end] == items[x]:
                run_end += 1
            if items[x] is not None:
                color = items[x] if heat else mode.color_of(items[x])
                framebuffer.fill_rect(x, top, run_end - x, lane_height,
                                      color)
            x = run_end
    return framebuffer


def render_timeline_per_event(trace, mode, view=None, framebuffer=None):
    """The naive baseline of Fig. 20: one rectangle per visible event,
    overdrawing pixels that events share.  For the modes whose keys
    index a palette (every mode but the NUMA heatmap)."""
    view = TimelineView.fit(trace) if view is None else view
    if framebuffer is None:
        framebuffer = Framebuffer(view.width, view.height)
    mode.prepare(trace)
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    _paint_background(framebuffer, lane_height, lane_tops)
    framebuffer.reset_counters()
    for core, top in enumerate(lane_tops):
        starts, ends, keys = mode.lane_events(trace, core)
        visible = interval_slice(starts, ends, view.start, view.end)
        for start, end, key in zip(starts[visible], ends[visible],
                                   keys[visible]):
            if key < 0:
                continue
            x0 = view.time_to_pixel(int(start))
            x1 = view.time_to_pixel(int(end))
            framebuffer.fill_rect(max(x0, 0), top, max(x1 - x0, 1),
                                  lane_height, mode.color_of(int(key)))
    return framebuffer


def _draw_column_extremes(framebuffer, view, timestamps, values, bounds,
                          top, height, color, extremes_of):
    """Draw one vertical line per pixel column spanning the column's
    (min, max), interpolating empty columns at the pixel center."""
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        extremes = extremes_of(t0, t1)
        if extremes is None:
            center = (t0 + t1) // 2
            if center < timestamps[0] or center > timestamps[-1]:
                continue
            value = float(np.interp(center, timestamps, values))
            extremes = (value, value)
        y_max = _value_to_y(extremes[0], bounds, top, height)
        y_min = _value_to_y(extremes[1], bounds, top, height)
        framebuffer.vertical_line(x, y_min, y_max, color)


def _scan_extremes(timestamps, values):
    """``(t0, t1) -> (min, max) | None`` by binary search + slice."""
    def extremes_of(t0, t1):
        lo = int(np.searchsorted(timestamps, t0, side="left"))
        hi = int(np.searchsorted(timestamps, t1, side="left"))
        if hi <= lo:
            return None
        window = values[lo:hi]
        return float(window.min()), float(window.max())
    return extremes_of


def render_counter(trace, counter, view, framebuffer, core=0,
                   color=(255, 60, 60), top=None, height=None,
                   bounds=None, counter_index=None):
    """Reference for
    :func:`repro.render.counter_overlay.render_counter`: per pixel
    column, the extremes come from ``counter_index`` (a
    :class:`~repro.core.interval_tree.CounterIndex`) when given, else
    from a binary-searched slice of the samples."""
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    bounds = value_bounds(trace, counter_id, cores=(core,)) \
        if bounds is None else bounds
    timestamps, values = trace.counter_samples(core, counter_id)
    if len(timestamps) == 0:
        return 0
    if counter_index is not None:
        def extremes_of(t0, t1):
            return counter_index.query_time_range(core, counter_id,
                                                  t0, t1)
    else:
        extremes_of = _scan_extremes(timestamps, values)
    before = framebuffer.draw_calls
    _draw_column_extremes(framebuffer, view, timestamps, values, bounds,
                          top, height, color, extremes_of)
    return framebuffer.draw_calls - before


def render_counter_per_sample(trace, counter, view, framebuffer, core=0,
                              color=(255, 60, 60), top=None, height=None,
                              bounds=None):
    """The naive baseline of Fig. 21a: one line per adjacent sample
    pair.  Returns the number of drawing operations issued."""
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    bounds = value_bounds(trace, counter_id, cores=(core,)) \
        if bounds is None else bounds
    timestamps, values = trace.counter_samples(core, counter_id)
    before = framebuffer.draw_calls
    for index in range(len(timestamps) - 1):
        x0 = view.time_to_pixel(int(timestamps[index]))
        x1 = view.time_to_pixel(int(timestamps[index + 1]))
        if x1 < 0 or x0 >= view.width:
            continue
        y0 = _value_to_y(values[index], bounds, top, height)
        y1 = _value_to_y(values[index + 1], bounds, top, height)
        framebuffer.draw_line(max(x0, 0), y0, min(x1, view.width - 1), y1,
                              color)
    return framebuffer.draw_calls - before


def render_derived_series(series, view, framebuffer, color=(90, 220, 90),
                          top=None, height=None):
    """Reference for
    :func:`repro.render.counter_overlay.render_derived_series`."""
    timestamps, values = series.sample_points()
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    if len(timestamps) == 0:
        return 0
    lo = float(np.min(values))
    hi = float(np.max(values))
    bounds = (lo, hi if hi > lo else lo + 1.0)
    before = framebuffer.draw_calls
    _draw_column_extremes(framebuffer, view, timestamps, values, bounds,
                          top, height, color,
                          _scan_extremes(timestamps, values))
    return framebuffer.draw_calls - before


def render_discrete_events(trace, view, framebuffer, kind=None,
                           marker_height=3):
    """Reference for
    :func:`repro.render.event_overlay.render_discrete_events`: one
    marker per event, skipping events on the column just drawn."""
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    height = min(marker_height, lane_height)
    markers = 0
    for core in range(trace.num_cores):
        columns = discrete_in_interval(trace, core, view.start, view.end,
                                       kind=kind)
        timestamps = columns["timestamp"]
        kinds = columns["kind"]
        pixels = ((timestamps - view.start) * view.width
                  // view.duration)
        seen = None
        for index in range(len(pixels)):
            x = int(pixels[index])
            if x == seen or x < 0 or x >= view.width:
                continue
            seen = x
            color = EVENT_COLORS.get(int(kinds[index]), (200, 200, 200))
            framebuffer.vertical_line(x, lane_tops[core],
                                      lane_tops[core] + height - 1,
                                      color)
            markers += 1
    return markers


def render_matrix(matrix, cell_size=16, framebuffer=None, gap=1,
                  peak=None):
    """Reference for :func:`repro.render.matrix.render_matrix`: one
    :func:`~repro.render.colors.matrix_red` shade per cell."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = matrix.shape
    if peak is None:
        peak = matrix.max() if matrix.size and matrix.max() > 0 else 1.0
    elif peak <= 0:
        peak = 1.0
    if framebuffer is None:
        framebuffer = Framebuffer(cols * (cell_size + gap) + gap,
                                  rows * (cell_size + gap) + gap,
                                  background=(255, 255, 255))
    for row in range(rows):
        for col in range(cols):
            framebuffer.fill_rect(gap + col * (cell_size + gap),
                                  gap + row * (cell_size + gap),
                                  cell_size, cell_size,
                                  palettes.matrix_red(matrix[row, col]
                                                      / peak))
    return framebuffer
